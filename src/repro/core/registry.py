"""The experiment-family registry: one pluggable descriptor per family.

The paper's campaign is a fixed menu of experiment families (UDP-1…5,
TCP-1…4, ICMP, SCTP/DCCP, DNS).  Historically that menu was hard-coded in
five separate layers — the survey runner's dispatch, the results container,
the CLI's choice lists, and every analysis module.  This module replaces
all of that with a single registry:

* :class:`ExperimentFamily` describes one family end to end — the knobs
  it reads, how to build its probe from them, the type of one stored cell
  (which :mod:`~repro.core.codec` turns to and from JSON for the on-disk
  :mod:`campaign store <repro.core.store>`); its results are keyed by
  subject tag, one cell per subject.
* :class:`ReportSection` is a render hook: a block of the markdown survey
  report owned by one or more families.  ``analysis/report.py`` iterates
  these instead of enumerating family attributes, so a family added here
  appears in reports without touching ``analysis/`` again.

Each family declares its knobs once, as the typed fields of a frozen
dataclass (``ExperimentFamily.knobs``) that families reading the same knob
share.  The runner coerces its knob keywords against their union
(:func:`knobs`, :func:`resolve_knobs`); the CLI generates its flags from it.

Each core measurement module registers its families at import time with
:func:`register_family` / :func:`register_section`; consumers call
:func:`families`, :func:`runnable_names`, :func:`knobs` or
:func:`report_sections`, all of which lazily import the family modules
first (:func:`ensure_loaded`).

Derived families — UDP-4 is an *analysis* of UDP-1's observed ports, not a
measurement of its own — carry ``derived_from``/``derive`` instead of a
probe factory; the survey engine and the store recompute them from the
parent family's cells.
"""

from __future__ import annotations

import functools
import importlib
import types
import typing
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import codec

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.devices.profile import DeviceProfile

__all__ = [
    "Subject",
    "NoKnobs",
    "Knob",
    "knob",
    "ExperimentFamily",
    "ReportSection",
    "register_family",
    "register_section",
    "ensure_loaded",
    "families",
    "family",
    "get",
    "runnable_names",
    "default_names",
    "family_names",
    "derived_families",
    "knobs",
    "resolve_knobs",
    "report_sections",
    "row_view",
    "series_view",
    "register_view_section",
]

#: Modules that register experiment families as an import side effect.
#: Adding a new family module here is the *only* central edit a new
#: experiment needs; everything else (survey dispatch, store cells,
#: report sections, CLI choices, the probe menu and knob flags) follows
#: from its registrations.
FAMILY_MODULES = (
    "repro.core.udp_timeouts",
    "repro.core.tcp_binding",
    "repro.core.throughput",
    "repro.core.icmp_tests",
    "repro.core.transport_support",
    "repro.core.dns_tests",
    "repro.cgn.families",
    "repro.attack.families",
    "repro.cgn.metro",
    "repro.traversal.matrix",
    "repro.workload.families",
    "repro.core.options_tests",
    "repro.core.binding_rate",
    "repro.core.pmtu",
    "repro.traversal.stun",
)


@dataclass(frozen=True)
class Subject:
    """One unit of the campaign axis: what a store cell is keyed by.

    Historically the campaign axis was hard-coded to *devices* — one shard,
    one store directory, one report row per device tag.  A subject
    generalizes that: it is *anything a family measures once* — a device, an
    ordered device pair (the traversal matrix), a metro segment — carrying
    the profiles it involves and a campaign-unique ``tag``.

    Tags are the stable identity: shard seeds derive from them
    (:func:`~repro.core.parallel.shard_seed`), store cells live under their
    sanitized form (:func:`~repro.core.store.subject_dirname`), and resume
    matches completed work by them.  Device subjects use the bare device tag,
    so every pre-existing device campaign keys — and therefore measures,
    seeds and persists — exactly as before the refactor.
    """

    #: Subject kind: ``"device"``, ``"pair"``, ... — must match the
    #: ``subject_kind`` of every family run against it.
    kind: str
    #: Campaign-unique identity (seeds, store keys, report rows).
    tag: str
    #: The device profiles involved, in role order (a pair subject carries
    #: ``(profile_a, profile_b)``; a device subject just ``(profile,)``).
    profiles: Tuple["DeviceProfile", ...]
    #: Extra subject parameters as a sorted tuple of ``(key, value)`` pairs
    #: (hashable, picklable); e.g. which sides of a pair sit behind a CGN.
    params: Tuple[Tuple[str, Any], ...] = field(default=())

    @classmethod
    def device(cls, profile: "DeviceProfile") -> "Subject":
        """The canonical device subject: kind ``device``, the bare tag."""
        return cls(kind="device", tag=profile.tag, profiles=(profile,))

    def param(self, key: str, default: Any = None) -> Any:
        """Look up one subject parameter (``default`` when absent)."""
        for name, value in self.params:
            if name == key:
                return value
        return default


@dataclass(frozen=True)
class NoKnobs:
    """The knob class of a family whose hooks read no campaign knob."""


def knob(default: Any, flag: Optional[str] = None, selects: bool = False, **argparse: Any) -> Any:
    """A knob-class field with a CLI ``flag`` and its ``argparse`` keywords (``help`` …).

    A ``selects`` knob only picks which subjects run: it stays out of the campaign fingerprint.
    """
    return field(default=default, metadata={"flag": flag, "selects": selects, "argparse": argparse})


@dataclass(frozen=True)
class Knob:
    """One knob of the union: its declared type and default, declaring class and CLI spelling."""

    name: str
    type: type
    default: Any
    owner: type
    flag: Optional[str] = None
    selects: bool = False
    argparse: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentFamily:
    """Everything the campaign machinery needs to know about one family.

    A family's probe returns its results keyed by subject tag (a device
    tag, or a pair tag for ``traversal_matrix``); each value is one *cell*,
    the unit the campaign store persists, one JSON blob per ``(subject,
    family)``.  The campaign result holds that same mapping, so what a
    probe returns, what the store keeps and what a report reads have one
    shape.
    """

    #: Registry key; also the CLI test name (``udp1``, ``transports`` …).
    name: str
    #: Execution and report position (ascending).
    order: int
    #: The type of one stored cell: a result dataclass, or a mapping of
    #: them (``Dict[str, UdpTimeoutResult]`` for UDP-5).  The store codec
    #: (:mod:`repro.core.codec`) is derived from it.
    cell_type: Any
    #: Frozen dataclass whose typed fields are exactly the knobs the hooks
    #: read; every hook below that takes ``knobs`` gets an instance of it.
    knobs: type = NoKnobs
    #: ``knobs -> run_all(bed)`` — builds the probe from the family's knob
    #: instance and returns its population entry point.  ``None`` for
    #: derived families.
    probe_factory: Optional[Callable[[Any], Callable]] = None
    #: Name of the family this one is derived from (``None`` = measured).
    derived_from: Optional[str] = None
    #: Parent cell -> derived cell (e.g. ``analyze_port_behavior``).
    derive: Optional[Callable[[Any], Any]] = None
    #: ``knobs -> build(profiles, seed, fastpath=True)`` — families that
    #: measure something other than the paper's Figure-1 topology (the CGN
    #: families run a NAT444 chain) supply the builder for their own testbed
    #: here.  ``None`` = :meth:`~repro.testbed.testbed.Testbed.build`, which
    #: has the same contract: it returns a brought-up bed whose whole run,
    #: bring-up included, is pinned to the engine ``fastpath`` names.
    #: Non-device families get the overload ``build(subject, seed,
    #: fastpath=True)``: the engine builds one bed per enumerated
    #: :class:`Subject`.
    testbed_factory: Optional[Callable[[Any], Callable]] = None
    #: Included when the caller selects no families explicitly.  The paper's
    #: own menu stays the default; opt-in extensions (CGN) set ``False`` and
    #: run only when named (or via ``--cgn``).
    default_selected: bool = True
    #: What this family's cells are keyed by: ``"device"`` (the default —
    #: one cell per device profile, probes take the whole-population bed) or
    #: a non-device kind such as ``"pair"`` (one cell per enumerated
    #: :class:`Subject`; the probe and testbed factory run once per subject).
    subject_kind: str = "device"
    #: ``(profiles, knobs) -> [Subject, ...]`` — non-device families
    #: enumerate their subjects here (e.g. every ordered profile pair).
    #: Must be deterministic in its inputs: the enumeration order defines
    #: shard order, store meta and resume bookkeeping.  ``None`` for device
    #: families (one :meth:`Subject.device` per profile).
    subjects: Optional[Callable[[Sequence["DeviceProfile"], Any], List["Subject"]]] = None
    #: Canonical family mapping -> ``(text, series)``: the terminal view ``repro probe``
    #: prints, and the ``DeviceSeries`` that ``survey --csv-dir`` writes (``None`` when
    #: there is none).  The probe menu is the set of families that declare one.
    view: Optional[Callable[[Mapping[str, Any]], Tuple[str, Any]]] = None

    @property
    def runnable(self) -> bool:
        """True when the family runs a probe (False for derived families)."""
        return self.probe_factory is not None

    def knobs_of(self, campaign_knobs: Mapping[str, Any]) -> Any:
        """This family's knob instance, picked from :func:`resolve_knobs` output."""
        return codec.decode(self.knobs, campaign_knobs)

    def subjects_of(self, profiles: Sequence["DeviceProfile"], knobs: Any) -> List["Subject"]:
        """Enumerate this family's subjects over ``profiles``.

        Device families yield one :meth:`Subject.device` per profile (in
        population order — the pre-refactor shard order, exactly); families
        with a ``subjects`` hook delegate to it, with their knob instance.
        """
        if self.subjects is not None:
            return list(self.subjects(profiles, knobs))
        return [Subject.device(profile) for profile in profiles]

    def encode(self, cell: Any) -> Any:
        """Encode one result cell for the store."""
        return codec.encode(self.cell_type, cell)

    def decode(self, payload: Any) -> Any:
        """Decode one stored cell payload, field-for-field equal to the original."""
        return codec.decode(self.cell_type, payload)


@dataclass(frozen=True)
class ReportSection:
    """One block of the markdown survey report, owned by its families.

    ``render`` receives the whole :class:`~repro.core.survey.SurveyResults`
    and returns the section's markdown (or ``None`` to skip).  The section
    renders when *any* of its families has results, or — with
    ``requires_all`` — only when every one of them does (Table 2 needs the
    ICMP, transport and DNS columns together).
    """

    key: str
    order: int
    families: Tuple[str, ...]
    render: Callable[[Any], Optional[str]]
    requires_all: bool = False

    def wants(self, results: Any) -> bool:
        """Whether enough of the section's families have results to render."""
        present = [bool(results.family(name)) for name in self.families]
        return all(present) if self.requires_all else any(present)


_FAMILIES: Dict[str, ExperimentFamily] = {}
_SECTIONS: Dict[str, ReportSection] = {}
_LOADED = False


def register_family(descriptor: ExperimentFamily) -> ExperimentFamily:
    """Register one family descriptor (import-time side effect)."""
    if descriptor.name in _FAMILIES:
        raise ValueError(f"experiment family {descriptor.name!r} already registered")
    if descriptor.derived_from is not None and descriptor.derive is None:
        raise ValueError(f"derived family {descriptor.name!r} needs a derive hook")
    _FAMILIES[descriptor.name] = descriptor
    knobs.cache_clear()
    return descriptor


def register_section(section: ReportSection) -> ReportSection:
    """Register one report render hook (import-time side effect)."""
    if section.key in _SECTIONS:
        raise ValueError(f"report section {section.key!r} already registered")
    _SECTIONS[section.key] = section
    return section


def ensure_loaded() -> None:
    """Import every family module so their registrations have run."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True  # set first: the modules themselves may query the registry
    for module in FAMILY_MODULES:
        importlib.import_module(module)


def families() -> List[ExperimentFamily]:
    """All registered families, in execution/report order."""
    ensure_loaded()
    return sorted(_FAMILIES.values(), key=lambda f: (f.order, f.name))


def family(name: str) -> ExperimentFamily:
    """Look up one family; raises ``KeyError`` listing the registry."""
    ensure_loaded()
    try:
        return _FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment family {name!r}; registered families: "
            f"{', '.join(family_names())}"
        ) from None


def get(name: str) -> Optional[ExperimentFamily]:
    """Like :func:`family` but returns ``None`` for unknown names."""
    ensure_loaded()
    return _FAMILIES.get(name)


def runnable_names() -> Tuple[str, ...]:
    """Names of the directly runnable families, in execution order."""
    return tuple(f.name for f in families() if f.runnable)


def default_names() -> Tuple[str, ...]:
    """Runnable families included when no explicit selection is given."""
    return tuple(f.name for f in families() if f.runnable and f.default_selected)


def family_names() -> Tuple[str, ...]:
    """Every registered family name (runnable and derived), in order."""
    return tuple(f.name for f in families())


def derived_families(parent: str) -> List[ExperimentFamily]:
    """Families derived from ``parent``, in order."""
    return [f for f in families() if f.derived_from == parent]


@functools.lru_cache(maxsize=None)
def knobs(descriptors: Optional[Tuple[ExperimentFamily, ...]] = None) -> Mapping[str, Knob]:
    """The knobs ``descriptors`` (default: every family) read, once each; ``TypeError`` if two classes declare one."""
    union: Dict[str, Knob] = {}
    # Each class once, however many families share it.
    for cls in dict.fromkeys(d.knobs for d in (families() if descriptors is None else descriptors)):
        hints = typing.get_type_hints(cls)
        for spec in fields(cls):
            owner = next(base for base in cls.__mro__ if spec.name in vars(base).get("__annotations__", {}))
            tp = hints[spec.name]
            known = union.setdefault(spec.name, Knob(spec.name, tp, codec.decode(tp, spec.default), owner,
                                                     **spec.metadata))
            if known.owner is not owner:
                raise TypeError(f"knob {spec.name!r} is declared by both {known.owner.__qualname__} "
                                f"and {owner.__qualname__}; declare it once, in a class both extend")
    return types.MappingProxyType(union)


def resolve_knobs(given: Mapping[str, Any]) -> Dict[str, Any]:
    """Every knob of the union: ``given`` coerced to its declared type (``600`` is ``600.0``), the rest defaulted."""
    union = knobs()
    unknown = sorted(given.keys() - union.keys())
    if unknown:
        raise TypeError(f"unknown campaign knob(s) {unknown}; known knobs: {', '.join(union)}")
    return {name: codec.decode(k.type, given[name]) if name in given else k.default for name, k in union.items()}


def report_sections() -> List[ReportSection]:
    """All registered report sections, in report order."""
    ensure_loaded()
    return sorted(_SECTIONS.values(), key=lambda s: (s.order, s.key))


def row_view(row: Callable[[Any], str], order: Callable[[Mapping[str, Any]], Any] = sorted) -> Callable:
    """A terminal view with one ``row(cell)`` line per device tag, tags in ``order`` (default: sorted)."""
    return lambda results: ("\n".join(f"{tag:>5}  {row(results[tag])}" for tag in order(results)), None)


def series_view(series_of: Callable[[Mapping[str, Any]], Any], title: str, **render: Any) -> Callable:
    """A terminal view drawing ``series_of(results)`` as one figure (``render_series`` keywords in ``render``)."""

    def view(results: Mapping[str, Any]) -> Tuple[str, Any]:
        from repro.analysis.figures import render_series

        series = series_of(results)
        return render_series(series, title, **render), series

    return view


def register_view_section(name: str, order: int, heading: str) -> ReportSection:
    """Register a report section that shows family ``name``'s terminal view under ``heading``."""

    def render(results: Any) -> str:
        from repro.analysis.figures import code_block

        text, _series = family(name).view(results.family(name))
        return f"## {heading}\n\n{code_block(text)}"

    return register_section(ReportSection(key=name, order=order, families=(name,), render=render))
