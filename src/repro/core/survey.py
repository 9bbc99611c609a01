"""Run the paper's entire measurement campaign in one call.

:class:`SurveyRunner` executes every experiment family against the device
population.  The family menu is no longer hard-coded here: the runner
iterates the :mod:`experiment registry <repro.core.registry>`, so a family
registered by any core module is measured, persisted and reported without
touching this file.  The campaign is sharded per *subject*
(:class:`~repro.core.registry.Subject`): device families shard one device
per shard — exactly the pre-subject schedule, same tags, same seeds — while
non-device families (the pairwise ``traversal_matrix``) enumerate their
subjects and get one shard each.  Every shard builds its own fresh testbed
per family (deterministic isolation — residual NAT state from one test
family can never contaminate another, and no subject shares a simulation
with another), seeded from the campaign seed and the subject tag.  Shards
run serially by default, or across worker processes with ``jobs=N``; both
schedules produce field-for-field identical results.

Each shard returns the canonical JSON text of every cell it produced, and
:meth:`SurveyRunner.run` decodes those texts through the store's one
decoder (:func:`~repro.core.store.decode_cells`) — with or without a
store, what a campaign returns is what ``repro report --from`` renders.

With ``store_dir`` set, every completed ``(subject, family)`` cell is
persisted to a :class:`~repro.core.store.CampaignStore` as it finishes —
from inside the worker process, so a campaign killed at any point keeps
its completed work.  ``resume=True`` skips cells already in the store and
re-runs only the missing ones; because each family builds a fresh testbed
from the shard seed, a resumed campaign is field-for-field (and on disk,
byte-for-byte) identical to an uninterrupted one, under any ``jobs=N``.

Within a shard the paper's parallel/serial discipline per test is preserved:
a family probe still runs its measurement tasks concurrently in simulated
time, and the serial-only throughput test (§3.1) keeps its bottleneck queue
alone in its own simulation.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import registry
from repro.core.parallel import ShardError, ShardFailure, ShardResult, run_shards, shard_seed
from repro.core.stats import SimStats
from repro.core.registry import Subject
from repro.core.store import (
    CampaignStore,
    campaign_fingerprint,
    decode_cells,
    encode_cell,
    ensure_distinct_dirnames,
    subject_dirname,
)
from repro.devices import catalog_profiles
from repro.devices.profile import DeviceProfile
from repro.gateway.faults import FaultSpec
from repro.netsim.impair import Impairment
from repro.obs import MetricsRegistry, ObsConfig, ShardObserver
from repro.testbed.testbed import Testbed

#: Default per-family virtual-time watchdog: far beyond any legitimate
#: family (TCP-1 caps at 24 h + margin), tight enough to catch a simulation
#: that a pathological impairment has sent spinning.
DEFAULT_FAMILY_TIMEOUT = 30 * 24 * 3600.0


class SurveyResults:
    """Everything the campaign produced, keyed the way the paper reports it.

    Family results live in one generic container — ``families`` maps each
    registered family name to its result mapping, keyed by subject tag (a
    device tag, or a pair tag for ``traversal_matrix``) with one stored
    cell per key; :meth:`family` reads one.

    ``stats``/``metrics`` carry the run's performance counters; they are
    excluded from equality so that two runs of the same campaign (e.g.
    serial vs parallel, or resumed vs uninterrupted) compare equal on what
    was *measured*, not on how fast it went.
    """

    def __init__(
        self,
        families: Optional[Mapping[str, Mapping]] = None,
        errors: Optional[Sequence[ShardError]] = None,
        stats: Optional[SimStats] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.families: Dict[str, Dict] = {name: dict(mapping) for name, mapping in (families or {}).items()}
        #: Shards that failed, in catalog order — read back from a store,
        #: the cells its manifest plans and it lacks.  Part of equality
        #: (minus retry counts) — a campaign that lost a device is not equal
        #: to one that didn't, under any ``jobs``.
        self.errors: List[ShardError] = list(errors or [])
        self.stats: Optional[SimStats] = stats
        #: Merged observability metrics when the campaign ran with
        #: ``metrics=True`` (see :mod:`repro.obs`); excluded from equality
        #: like ``stats`` — the registry records *how much happened*, not
        #: what was measured.
        self.metrics: Optional[MetricsRegistry] = metrics

    def family(self, name: str) -> Dict:
        """One family's result mapping, keyed by subject tag (empty when absent)."""
        return self.families.get(name, {})

    def set_family(self, name: str, mapping: Mapping) -> None:
        """Replace one family's result mapping."""
        self.families[name] = dict(mapping)

    @property
    def complete(self) -> bool:
        """True when every shard produced a result."""
        return not self.errors

    def _measured(self) -> Dict[str, Dict]:
        return {name: mapping for name, mapping in self.families.items() if mapping}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurveyResults):
            return NotImplemented
        return self._measured() == other._measured() and self.errors == other.errors

    def __repr__(self) -> str:
        populated = ", ".join(f"{name}:{len(mapping)}" for name, mapping in self._measured().items())
        return f"SurveyResults({populated or 'empty'}, errors={len(self.errors)})"


class SurveyRunner:
    """Configurable full-campaign driver.

    One instance describes a whole measurement campaign: the device
    population, the campaign seed, per-family knobs (flat keywords such as
    ``udp_repetitions=1``, each declared once by the families that read it
    — see :func:`repro.core.registry.knobs`), the chaos configuration
    (``impairment``/``faults``), the execution schedule (``jobs``), the
    durable result store
    (``store_dir``/``resume`` — see :mod:`repro.core.store`), and what the
    flight recorder should capture (``trace_dir``/``pcap_dir``/``metrics``
    — see :mod:`repro.obs`).  :meth:`run` executes the selected families
    and returns a :class:`SurveyResults`.

    The determinism contract: results (and, when recording, trace/pcap
    bytes, the metrics registry and the store's cell bytes) are a pure
    function of ``(profiles, seed)`` — independent of ``jobs``, of which
    other devices share the population, of whether a recorder was attached,
    and of whether the campaign was interrupted and resumed.

    Example::

        runner = SurveyRunner(seed=7, jobs=4, store_dir="out/campaign")
        results = runner.run(tests=["udp1", "tcp2"])
        results.family("udp1")["je"].summary().median   # ≈ 30 s
        # later, after a crash: resume=True re-runs only missing cells
    """

    def __init__(
        self,
        profiles: Optional[Sequence[DeviceProfile]] = None,
        seed: int = 0,
        *,
        jobs: int = 1,
        fastpath: bool = True,
        impairment: Optional[Impairment] = None,
        faults: Sequence[FaultSpec] = (),
        shard_retries: int = 1,
        family_timeout: Optional[float] = DEFAULT_FAMILY_TIMEOUT,
        trace_dir: Optional[str] = None,
        pcap_dir: Optional[str] = None,
        metrics: bool = False,
        store_dir: Optional[str] = None,
        resume: bool = False,
        **knobs: Any,
    ):
        self.profiles = list(profiles if profiles is not None else catalog_profiles())
        tags = [profile.tag for profile in self.profiles]
        if len(set(tags)) != len(tags):
            raise ValueError(f"duplicate device tags in survey population: {tags}")
        self.seed = seed
        #: Every family's knobs, flat and coerced (:func:`~repro.core.registry.resolve_knobs`).
        self.knobs: Dict[str, Any] = registry.resolve_knobs(knobs)
        self.jobs = max(1, int(jobs))
        #: Run the eager event-elision kernels (``--no-fastpath`` clears it).
        #: Results are engine-independent by construction, so this knob is
        #: deliberately *not* part of the campaign fingerprint: cells written
        #: by either engine are interchangeable, and property tests hold the
        #: two engines to byte-identical store cells.
        self.fastpath = bool(fastpath)
        #: Link impairment applied to every family testbed (None = clean).
        self.impairment = impairment
        #: Gateway faults scheduled on every family testbed, post bring-up.
        self.faults = tuple(faults)
        #: Serial retries granted to a shard lost to infrastructure errors.
        self.shard_retries = max(0, int(shard_retries))
        #: Virtual seconds a single family may run before its shard is
        #: declared hung (None disables the watchdog).
        self.family_timeout = family_timeout
        #: What the flight recorder should capture (nothing by default); see
        #: :mod:`repro.obs`.  Carried as plain strings/bool so the runner
        #: stays trivially picklable for the worker processes.
        self.obs = ObsConfig(trace_dir=trace_dir, pcap_dir=pcap_dir, metrics=metrics)
        #: Directory of the durable campaign store (None = in-memory only).
        self.store_dir = store_dir
        #: With ``store_dir``: skip cells already persisted there.
        self.resume = resume
        #: The current :meth:`run`'s campaign fingerprint and store (``None``
        #: without one); workers receive them with the runner.
        self._fingerprint: Optional[str] = None
        self._store: Optional[CampaignStore] = None
        #: Elapsed wall-clock of the last :meth:`run` (set even when shards fail).
        self.last_elapsed: Optional[float] = None
        #: Cells skipped by the last resumed :meth:`run`.
        self.last_skipped_cells: int = 0

    def fingerprint(self) -> str:
        """Content hash of everything that determines this campaign's cells (subject selections excluded)."""
        knobs = {name: value for name, value in self.knobs.items() if not registry.knobs()[name].selects}
        knobs["family_timeout"] = self.family_timeout
        return campaign_fingerprint(
            self.profiles, self.seed, knobs, impairment=self.impairment, faults=self.faults
        )

    def _fresh_testbed(self, family: registry.ExperimentFamily, subject: Subject, seed: int):
        # Fault campaigns run the staged engine throughout, bring-up
        # included: a crash flush must see every queued packet as a
        # heap-visible entity to drop it the way the paper's power-cycled
        # gateways do (the eager kernels have already consumed rate tokens
        # for admitted packets and cannot un-consume them).
        fastpath = self.fastpath and not self.faults
        # A family that measures its own topology (e.g. the CGN families run
        # a NAT444 chain) supplies its builder; the rest run on the paper's
        # Testbed.  Every builder takes the same (profiles, seed, fastpath)
        # contract, so shard determinism carries over unchanged; non-device
        # families use the subject overload, one bed per enumerated subject.
        factory = family.testbed_factory
        build = factory(family.knobs_of(self.knobs)) if factory is not None else Testbed.build
        bed = build(list(subject.profiles) if subject.kind == "device" else subject, seed, fastpath=fastpath)
        # Chaos goes in *after* bring-up: DHCP configuration stays clean, and
        # impairment/fault clocks are anchored at measurement start, so a
        # fault hits each family at the same virtual offset regardless of
        # how long its bring-up took.
        if self.impairment is not None and not self.impairment.is_null:
            bed.apply_impairment(self.impairment)
        if self.faults:
            bed.schedule_faults(self.faults)
        return bed

    def _validate(self, tests: Optional[Sequence[str]]) -> List[str]:
        """Resolve the family selection, failing with the registered menu."""
        known = registry.runnable_names()
        # No explicit selection = the paper's own menu; opt-in families
        # (``default_selected=False``, e.g. the CGN pair) must be named.
        selected = list(tests if tests is not None else registry.default_names())
        unknown = [name for name in selected if name not in known]
        if unknown:
            raise ValueError(
                f"unknown experiment families: {sorted(set(unknown))}; "
                f"registered families are: {', '.join(known)}"
            )
        return selected

    def _campaign_meta(self, selected: Sequence[str], subjects: Sequence[str]) -> Dict:
        return {
            # The device families' subjects; the store reader plans their
            # cells on these.
            "devices": [profile.tag for profile in self.profiles],
            # Every subject tag the campaign will produce cells for (device
            # tags plus enumerated pair/segment tags).
            "subjects": list(subjects),
            "seed": self.seed,
            "families": list(selected),
            "knobs": dict(self.knobs),
            "impairment": self.impairment.describe() if self.impairment is not None else None,
            "faults": [fault.describe() for fault in self.faults],
        }

    def _shard_plan(self, selected: Sequence[str]) -> List[Tuple[Subject, List[str]]]:
        """The campaign's shard schedule: ordered ``(subject, families)``.

        Device families keep the pre-subject schedule — one shard per
        profile, in population order, carrying every selected device family
        (same tags, therefore same derived seeds, therefore byte-identical
        cells).  Each non-device family then appends one shard per
        enumerated subject, in the family's own enumeration order.
        """
        device_families = []
        other_families = []
        for name in selected:
            descriptor = registry.get(name)
            if descriptor is not None and descriptor.subject_kind != "device":
                other_families.append(descriptor)
            else:
                device_families.append(name)
        plan: List[Tuple[Subject, List[str]]] = []
        if device_families:
            for profile in self.profiles:
                plan.append((Subject.device(profile), list(device_families)))
        for descriptor in other_families:
            for subject in descriptor.subjects_of(self.profiles, descriptor.knobs_of(self.knobs)):
                plan.append((subject, [descriptor.name]))
        return plan

    def run(self, tests: Optional[Sequence[str]] = None) -> SurveyResults:
        """Run the selected experiment families (all by default).

        The campaign is sharded per subject with tag-derived seeds, so the
        result is independent of ``jobs`` and of which other subjects are in
        the campaign.  A failing shard does not abort the campaign: its
        :class:`~repro.core.parallel.ShardError` lands in
        ``SurveyResults.errors`` (schedule order) while every other
        subject's results are kept, and timing/stats are finalized either
        way.

        The results are decoded from the cell texts the shards returned —
        with ``store_dir``, the bytes they persisted, plus the store's files
        for cells a resume reused — through the decoder ``repro report
        --from`` uses.
        """
        selected = self._validate(tests)
        plan = self._shard_plan(selected)
        subjects = [subject.tag for subject, _families in plan]
        # Refuse ambiguous stores up front: two subject tags that sanitize
        # to the same cell directory would silently share cells.
        ensure_distinct_dirnames(subjects)
        self.last_skipped_cells = 0
        self._fingerprint = self.fingerprint()
        self._store = None
        reused: List[Tuple[str, str]] = []
        if self.store_dir is not None:
            self._store = CampaignStore.create_or_open(
                self.store_dir, self._fingerprint, meta=self._campaign_meta(selected, subjects)
            )
            if self.resume:
                filtered: List[Tuple[Subject, List[str]]] = []
                for subject, families in plan:
                    done = self._store.completed_families(subject.tag)
                    # A parent cell lands before its derived cells (``_record``), so a
                    # kill between the writes leaves the family to re-run.
                    missing = [name for name in families
                               if not {name, *(d.name for d in registry.derived_families(name))} <= done]
                    self.last_skipped_cells += len(families) - len(missing)
                    reused += [(subject.tag, name) for name in done]
                    filtered.append((subject, missing))
                plan = filtered
        started = time.perf_counter()
        try:
            outcomes = run_shards(
                self, [(subject, names) for subject, names in plan if names],
                jobs=self.jobs, retries=self.shard_retries,
            )
        finally:
            # Set even if the executor itself blows up: timing must never
            # go stale on the failure path.
            self.last_elapsed = time.perf_counter() - started
        texts: Dict[Tuple[str, str], str] = {}
        for outcome in outcomes:
            texts.update(outcome.cells)
        for key in reused:  # cells the shards did not rewrite
            if key not in texts:
                texts[key] = self._store.read_cell(*key)
        results = decode_cells(self._fingerprint, texts, subjects, selected, self.store_dir or "")
        results.errors = [outcome.error for outcome in outcomes if outcome.error is not None]
        # Counters and metrics of the shards that completed, in plan order:
        # counters add, gauges high-water, spans accumulate — jobs=N lands on
        # the same numbers as jobs=1.
        completed = [outcome for outcome in outcomes if outcome.error is None]
        results.stats = SimStats(jobs=self.jobs)
        for outcome in completed:
            results.stats.merge(outcome.stats)
        if self.obs.metrics:
            results.metrics = MetricsRegistry()
            for outcome in completed:
                if outcome.metrics is not None:
                    results.metrics.merge(outcome.metrics)
        return results

    def _record(
        self, cells: Dict[Tuple[str, str], str], family: registry.ExperimentFamily, tag: str, cell: Any
    ) -> None:
        """Keep one cell's text and its derived families', persisting each as it lands."""
        payload = family.encode(cell)
        if self._store is not None:
            cells[(tag, family.name)] = self._store.save_cell(tag, family.name, payload)
        else:
            cells[(tag, family.name)] = encode_cell(self._fingerprint, tag, family.name, payload)
        for derived in registry.derived_families(family.name):
            self._record(cells, derived, tag, derived.derive(cell))

    # -- shard engine (one subject, its families; used by run_shards) -------

    def run_shard(self, tests: Sequence[str], subject: Subject) -> ShardResult:
        """Run the selected families of one subject serially, each on a fresh bed.

        This is the per-shard execution engine behind :meth:`run`, which
        calls it once per shard (in this process at ``jobs=1``, on a worker's
        copy of this runner otherwise).  Each family whose ``subject_kind``
        matches the subject's gets a bed built from ``subject.profiles`` (the
        subject itself, for a non-device family) at ``shard_seed(self.seed,
        subject.tag)``; per-family wall time and simulator event counts land
        in the shard's stats.  A family that raises ends the shard: its
        :class:`~repro.core.parallel.ShardError` carries the subject tag and
        family name, and the result keeps the cells of the families that
        finished before it.

        Each cell is encoded the moment its family completes and, within a
        :meth:`run` with a store, persisted then, so a shard killed
        mid-flight keeps everything it finished.
        """
        seed = shard_seed(self.seed, subject.tag)
        stats = SimStats()
        cells: Dict[Tuple[str, str], str] = {}
        error: Optional[ShardError] = None
        observer: Optional[ShardObserver] = None
        if self.obs.enabled:
            # Every pair bed reuses the link labels a:srv ... b:cli and its
            # gateways' tags, so each non-device subject records into its
            # own directory.
            obs = self.obs if subject.kind == "device" else self.obs.under(subject_dirname(subject.tag))
            observer = ShardObserver(obs, device=subject.tag)
        try:
            for family in registry.families():
                if family.runnable and family.name in tests and family.subject_kind == subject.kind:
                    for tag, cell in self._measure(family, subject, seed, stats, observer).items():
                        self._record(cells, family, tag, cell)
        except ShardFailure as failure:
            error = failure.to_error()
        finally:
            # Streams must land on disk even when a family dies mid-shard:
            # a partial trace of a failed run is exactly when you want one.
            if observer is not None:
                observer.close()
        return ShardResult(cells, stats, observer.registry if observer is not None else None, error)

    def _measure(
        self,
        family: registry.ExperimentFamily,
        subject: Subject,
        seed: int,
        stats: SimStats,
        observer: Optional[ShardObserver],
    ) -> Dict:
        """One family's result mapping for ``subject``, on its own fresh bed.

        A bed that fails to build (a builder, ``apply_impairment`` or
        ``schedule_faults`` raising) fails the family like its probe would,
        so the shard keeps the cells of the families before it.
        """
        started = time.perf_counter()
        try:
            bed = self._fresh_testbed(family, subject, seed)
        except Exception as exc:
            raise ShardFailure(subject.tag, family.name, type(exc).__name__, str(exc)) from exc
        stats.note_setup(family.name, time.perf_counter() - started)
        if self.family_timeout is not None:
            bed.sim.watchdog_limit = bed.sim.now + self.family_timeout
        # The observer attaches *after* bring-up: DHCP chatter stays out
        # of the trace, and emission is passive (no RNG draws, no
        # scheduling), so traced campaigns measure identically.
        if observer is not None:
            observer.begin(bed, family.name)
        started = time.perf_counter()
        try:
            return family.probe_factory(family.knobs_of(self.knobs))(bed)
        except Exception as exc:
            raise ShardFailure(subject.tag, family.name, type(exc).__name__, str(exc)) from exc
        finally:
            stats.note_run(family.name, time.perf_counter() - started, bed.sim)
            if observer is not None:
                observer.finish(bed, family.name)
