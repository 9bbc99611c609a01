"""Process-pool campaign executor: per-subject survey sharding.

Every subject in the survey — a device for the paper's families, an ordered
device pair for the traversal matrix — runs against its own freshly built
testbed: its own :class:`~repro.netsim.sim.Simulation`, its own seeded RNG.
The campaign is therefore embarrassingly parallel across subjects.
:func:`run_shards` runs a campaign's ``(subject, families)`` shards through
the campaign's own :meth:`SurveyRunner.run_shard
<repro.core.survey.SurveyRunner.run_shard>`, either in-process or on a
:class:`concurrent.futures.ProcessPoolExecutor` whose workers each receive
the runner once, and returns one :class:`ShardResult` per shard in plan
order.

Determinism: a shard's seed is derived from the campaign seed and the
subject *tag* (not its position), so

* ``jobs=N`` is bit-identical to ``jobs=1`` — the shard computations are the
  same work scheduled differently, and the outcomes come back in plan
  order; and
* running a subset of subjects reproduces exactly the per-subject results of
  the full campaign.

Resilience: one shard's failure never aborts the campaign.  A deterministic
measurement failure (a probe raising, a watchdog expiring) comes back as the
:class:`ShardError` of that shard's result; every other shard keeps its
cells.  Infrastructure casualties — a broken pool, a sandbox without
fork/semaphores, a pickling refusal — are retried, and only the shards that
actually lost their worker re-run serially; completed results are reused.
"""

from __future__ import annotations

import pickle
import time
import warnings
import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.registry import Subject
from repro.core.stats import SimStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.survey import SurveyRunner
    from repro.obs import MetricsRegistry

__all__ = [
    "ShardError",
    "ShardFailure",
    "ShardResult",
    "shard_seed",
    "run_shards",
]

#: Errors that mean the *infrastructure* failed, not the measurement: worth
#: retrying, and worth falling back to serial execution for.  Anything else
#: is treated as deterministic — retrying would reproduce it exactly.
TRANSIENT_ERRORS = (OSError, pickle.PicklingError, BrokenProcessPool)


@dataclass(frozen=True)
class ShardError:
    """One shard's failure, preserved in the campaign results.

    ``attempts`` records how many executions it took to reach this verdict
    (transient infrastructure errors are retried); it is excluded from
    equality because the retry count depends on the execution schedule, and
    ``jobs=N`` must stay field-for-field identical to ``jobs=1``.
    """

    #: Subject tag of the failed shard.
    tag: str
    #: Experiment family that raised, or ``None`` for whole-shard failures.
    family: Optional[str]
    #: Exception type name (``"WatchdogExpired"``, ``"RuntimeError"``, ...).
    error: str
    #: The exception's message.
    message: str
    attempts: int = field(default=1, compare=False)

    def __str__(self) -> str:
        where = f"{self.tag}/{self.family}" if self.family else self.tag
        return f"[{where}] {self.error}: {self.message}"


class ShardFailure(RuntimeError):
    """A deterministic measurement failure inside one shard.

    Raised by the shard engine when a probe family dies; the shard converts
    it to its :class:`ShardError` instead of aborting the campaign.  Built
    purely from ``args`` so it survives pickling, which is also why it
    carries the original exception's type *name*: ``__cause__`` does not
    make the trip.
    """

    def __init__(self, tag: str, family: Optional[str], error: str, message: str):
        super().__init__(tag, family, error, message)
        self.tag = tag
        self.family = family
        self.error = error
        self.message = message

    def __str__(self) -> str:
        where = f"{self.tag}/{self.family}" if self.family else self.tag
        return f"shard {where} failed with {self.error}: {self.message}"

    def to_error(self, attempts: int = 1) -> ShardError:
        """Convert the carrier exception into a ``ShardError`` record."""
        return ShardError(
            tag=self.tag, family=self.family, error=self.error, message=self.message, attempts=attempts
        )


class ShardResult(NamedTuple):
    """What one shard produced.

    ``cells`` maps ``(subject tag, family)`` to each cell's canonical JSON
    text, derived cells included: with a store, exactly the bytes
    :meth:`~repro.core.store.CampaignStore.save_cell` wrote.  A shard that
    failed carries its :class:`ShardError` and the cells of the families it
    finished before the failure.
    """

    cells: Dict[Tuple[str, str], str]
    stats: SimStats
    metrics: Optional["MetricsRegistry"] = None
    error: Optional[ShardError] = None


def shard_seed(base_seed: int, tag: str) -> int:
    """Deterministic per-subject seed, stable across processes and subsets.

    Derived from the subject tag (via CRC-32, which is stable regardless of
    ``PYTHONHASHSEED``) rather than list position, so a subject measures
    identically whether it is surveyed alone or with the full population.
    Device subjects use the bare device tag — the pre-subject seeds exactly.
    """
    return (base_seed * 0x9E3779B1 + zlib.crc32(tag.encode("utf-8"))) & 0xFFFFFFFF


#: The campaign runner of a pool worker process, set there once by the pool
#: initializer (never in the process that runs the campaign).
_WORKER_RUNNER: Optional["SurveyRunner"] = None


def _adopt(runner: "SurveyRunner") -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = runner


def _run_adopted(subject: Subject, tests: Sequence[str]) -> ShardResult:
    return _WORKER_RUNNER.run_shard(tests, subject=subject)


def _failed(subject: Subject, exc: BaseException, attempts: int) -> ShardResult:
    error = ShardError(tag=subject.tag, family=None, error=type(exc).__name__, message=str(exc), attempts=attempts)
    return ShardResult({}, SimStats(), error=error)


def _run_guarded(
    runner: "SurveyRunner", subject: Subject, tests: Sequence[str], retries: int, backoff: float
) -> ShardResult:
    """Run one shard in-process, retrying transient infrastructure errors.

    A measurement failure comes back inside the shard's result; any other
    non-transient exception becomes a whole-shard :class:`ShardError`
    immediately — re-running a deterministic simulation reproduces the same
    crash, so retrying it only wastes time.
    """
    attempt = 0
    while True:
        attempt += 1
        try:
            return runner.run_shard(tests, subject=subject)
        except TRANSIENT_ERRORS as exc:
            if attempt > retries:
                return _failed(subject, exc, attempt)
            time.sleep(backoff * 2 ** (attempt - 1))
        except Exception as exc:
            return _failed(subject, exc, attempt)


def run_shards(
    runner: "SurveyRunner",
    plan: Sequence[Tuple[Subject, Sequence[str]]],
    jobs: int = 1,
    retries: int = 1,
    backoff: float = 0.05,
) -> List[ShardResult]:
    """Run each ``(subject, families)`` shard of ``plan`` on ``runner``, serially or across ``jobs`` processes.

    Results come back in ``plan`` order regardless of completion order, so
    the campaign's decode is deterministic.  Each worker process receives
    ``runner`` once, through the pool initializer.  If the pool breaks (or
    cannot be created at all), completed results are kept and only the
    shards that lost their worker re-run serially, each with up to
    ``retries`` exponential-backoff retries for transient errors.
    """
    if jobs <= 1 or len(plan) <= 1:
        return [_run_guarded(runner, subject, tests, retries, backoff) for subject, tests in plan]
    outcomes: List[Optional[ShardResult]] = [None] * len(plan)
    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(plan)), initializer=_adopt, initargs=(runner,)) as pool:
            futures = [pool.submit(_run_adopted, subject, tests) for subject, tests in plan]
            for index, future in enumerate(futures):
                try:
                    outcomes[index] = future.result()
                except TRANSIENT_ERRORS:
                    pass  # worker casualty, not a verdict: re-run serially below
                except Exception as exc:
                    outcomes[index] = _failed(plan[index][0], exc, attempts=1)
    except TRANSIENT_ERRORS:
        pass  # pool never came up (or died mid-submit); survivors keep their slots
    casualties = [index for index, outcome in enumerate(outcomes) if outcome is None]
    if casualties:
        warnings.warn(
            f"process pool unavailable or broken; {len(casualties)} of {len(plan)} "
            "shard(s) falling back to serial execution",
            RuntimeWarning,
            stacklevel=2,
        )
        for index in casualties:
            subject, tests = plan[index]
            outcomes[index] = _run_guarded(runner, subject, tests, retries, backoff)
    return outcomes
