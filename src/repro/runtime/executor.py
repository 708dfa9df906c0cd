"""The parallel executor: fan independent runs out over a process pool.

Simulation runs are pure functions of their :class:`RunSpec` (every
random draw comes from seeded streams), so executing them in worker
processes — in any order, with any interleaving — produces byte-identical
results to a serial loop.  That purity is what makes the three services
here safe:

* **parallelism** — ``workers`` processes execute specs concurrently;
* **caching** — finished results are stored by content key and replayed
  on the next identical invocation without simulating;
* **fault handling** — a run that raises, or whose worker process dies,
  is retried once (:data:`RETRIES`).  A
  :class:`~repro.errors.ReproError` is a deterministic function of the
  spec and is never retried.  A run that still fails raises one
  :class:`~repro.errors.SimulationError` naming every failed run —
  never a silently missing row.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ReproError, SimulationError
from .cache import ResultCache
from .metrics import RunMetrics, build_metrics
from .spec import RunSpec

#: How many times a failed run is re-attempted after its first try.
RETRIES = 1


@dataclass
class RunOutcome:
    """What happened to one spec: its result, cost, and provenance."""

    spec: RunSpec
    result: Any
    metrics: RunMetrics
    cached: bool = False
    attempts: int = 1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the run completed without raising."""
        return self.error is None


def execute_spec(
    spec: RunSpec,
    checkpoint_at: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
) -> Tuple[Any, float]:
    """Run one spec in the current process; returns (result, wall seconds).

    This is the function worker processes execute — module-level so it
    pickles, resolving the entrypoint by name on the worker side.  With
    ``checkpoint_at`` set, the entrypoint is also called with
    ``checkpoint_at`` and ``checkpoint_path`` keywords: the run pauses at
    that sim-time, writes a snapshot to ``checkpoint_path``, and continues
    to the same result.  (:func:`repro.lifecycle.run_many` refuses a batch
    that cannot do that before it gets here.)
    """
    func = spec.resolve()
    kwargs = {}
    if checkpoint_at is not None:
        kwargs = {"checkpoint_at": checkpoint_at,
                  "checkpoint_path": checkpoint_path}
    start = time.perf_counter()
    result = func(dict(spec.params), **kwargs)
    return result, time.perf_counter() - start


def default_workers() -> int:
    """Worker count when the caller does not choose: one per core, >= 1."""
    return max(os.cpu_count() or 1, 1)


def snapshot_destination(
    spec: RunSpec,
    checkpoint_at: float,
    cache: Optional[ResultCache] = None,
    checkpoint_dir: Optional[str] = None,
) -> str:
    """Where ``spec``'s mid-run snapshot lands (content-addressed).

    An explicit ``checkpoint_dir`` wins; otherwise the snapshot is keyed
    into the result cache next to the entries it can warm-start.
    """
    if checkpoint_dir is not None:
        return str(Path(checkpoint_dir) / f"{spec.key()}.t{checkpoint_at:g}.ckpt")
    if cache is not None:
        return str(cache.snapshot_path(spec, checkpoint_at))
    raise SimulationError(
        "checkpoint_at needs somewhere to write snapshots: pass "
        "checkpoint_dir or a cache"
    )


def run_specs(
    specs: Sequence[RunSpec],
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    checkpoint_at: Optional[float] = None,
    checkpoint_dir: Optional[str] = None,
) -> List[RunOutcome]:
    """Execute every spec; return outcomes in input order.

    A run that fails (it raises, or its worker process dies) is tried
    again :data:`RETRIES` times, unless it raised a
    :class:`~repro.errors.ReproError`, which it would raise again.  A run
    still failing then makes the whole call raise one
    :class:`SimulationError` naming each failed run.

    Parameters
    ----------
    workers:
        Process count.  ``None`` uses one per core; ``0``/``1`` runs
        serially in-process (no pool).
    cache:
        Optional :class:`ResultCache`; hits skip simulation entirely and
        replay the stored result + metrics, misses are stored on success.
    checkpoint_at:
        Interior sim-time at which every (non-cached) run writes a
        resumable snapshot before continuing — results are unchanged.
        Requires each spec's entrypoint to take ``checkpoint_at`` and
        ``checkpoint_path`` keywords, and ``checkpoint_dir`` or ``cache``
        for the destination.
    checkpoint_dir:
        Directory for snapshot files (defaults to the cache directory).
    """
    if workers is not None and workers < 0:
        raise ConfigurationError(f"workers must be >= 0: {workers}")
    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    attempts = [0] * len(specs)
    todo: List[int] = []

    ckpt_paths: List[Optional[str]] = [None] * len(specs)
    if checkpoint_at is not None:
        ckpt_paths = [
            snapshot_destination(spec, checkpoint_at, cache=cache,
                                 checkpoint_dir=checkpoint_dir)
            for spec in specs
        ]

    for index, spec in enumerate(specs):
        entry = cache.get(spec) if cache is not None else None
        if entry is not None:
            outcomes[index] = RunOutcome(
                spec=spec, result=entry.result,
                metrics=entry.metrics.as_cached(), cached=True, attempts=0,
            )
        else:
            todo.append(index)
    if cache is not None and todo:
        cache.ensure_dir()

    def record_success(index: int, result: Any, wall: float) -> None:
        spec = specs[index]
        metrics = build_metrics(spec.describe(), wall, result,
                                attempts=attempts[index])
        outcomes[index] = RunOutcome(spec=spec, result=result, metrics=metrics,
                                     attempts=attempts[index])
        if cache is not None:
            cache.put(spec, result, metrics)

    def record_failure(index: int, message: str,
                       exc: Optional[BaseException] = None) -> List[int]:
        """One failed attempt; returns [index] if it should be retried."""
        if attempts[index] <= RETRIES and not isinstance(exc, ReproError):
            return [index]
        spec = specs[index]
        metrics = build_metrics(spec.describe(), 0.0, None,
                                attempts=attempts[index], error=message)
        outcomes[index] = RunOutcome(spec=spec, result=None, metrics=metrics,
                                     attempts=attempts[index], error=message)
        return []

    if workers is None:
        workers = default_workers()

    if workers <= 1:
        for index in todo:
            while outcomes[index] is None:
                attempts[index] += 1
                try:
                    result, wall = execute_spec(
                        specs[index], checkpoint_at, ckpt_paths[index])
                except Exception as exc:
                    import traceback

                    record_failure(index, traceback.format_exc(limit=8), exc)
                else:
                    record_success(index, result, wall)
    elif todo:
        # the pool machinery loads only when something is to be simulated:
        # a full cache hit (a replay) never pays for it
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        pending = todo
        while pending:
            pool = ProcessPoolExecutor(max_workers=min(workers, len(pending)))
            futures = {pool.submit(execute_spec, specs[index],
                                   checkpoint_at, ckpt_paths[index]): index
                       for index in pending}
            pending = []
            try:
                for future in as_completed(futures):
                    index = futures[future]
                    attempts[index] += 1
                    try:
                        result, wall = future.result()
                    except BrokenProcessPool:
                        pending.extend(record_failure(
                            index, "worker process died (pool broken)"))
                    except Exception as exc:
                        pending.extend(record_failure(
                            index, f"{type(exc).__name__}: {exc}", exc))
                    else:
                        record_success(index, result, wall)
            finally:
                pool.shutdown(wait=True, cancel_futures=True)

    final = [outcome for outcome in outcomes if outcome is not None]
    assert len(final) == len(specs), "executor dropped a run"
    failed = [outcome for outcome in final if not outcome.ok]
    if failed:
        detail = "; ".join(
            f"{outcome.spec.describe()} (attempts: {outcome.attempts}): "
            f"{outcome.error.splitlines()[-1]}"
            for outcome in failed[:5]
        )
        raise SimulationError(
            f"{len(failed)} of {len(specs)} runs failed: {detail}"
        )
    return final
