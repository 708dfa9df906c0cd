"""Per-run runtime metrics and the summary table the CLI prints.

Workers time each simulation and pull engine statistics (events executed,
drops, peak queue depth) out of the run's result; the executor folds them
into :class:`RunMetrics` records, one per run, cached alongside the
result so a cache hit still reports what the original run cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class RunMetrics:
    """What one run cost and what the engine did during it."""

    label: str
    wall_time_s: float = 0.0
    events: int = 0
    drops: int = 0
    peak_queue_depth: int = 0
    attempts: int = 1
    cached: bool = False
    error: Optional[str] = None
    #: Invariant checks the audit layer ran (0 for un-audited runs).
    audit_checks: int = 0
    #: Audit violations: ``None`` = run was not audited.  An audited run
    #: that completes has 0 (strict auditing aborts on the first one).
    violations: Optional[int] = None
    #: Per-cohort Jain index (label -> index) for runs on cohort
    #: topologies (e.g. RTT-cohort dumbbells); ``None`` otherwise.
    cohort_jain: Optional[Dict[str, float]] = None
    #: Per-cohort essential-fairness verdict (label -> True/False, or
    #: ``None`` inside the dict when the bound was uncheckable).
    cohort_bound_ok: Optional[Dict[str, Optional[bool]]] = None

    @property
    def events_per_sec(self) -> float:
        """Engine throughput (0 when the wall time is unmeasurably small)."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.events / self.wall_time_s

    def as_cached(self) -> "RunMetrics":
        """The same record flagged as served from the result cache."""
        return replace(self, cached=True)


def extract_sim_stats(result: Any) -> Dict[str, float]:
    """Engine statistics from a run result, if the run recorded any.

    Runs wired through the runtime attach a ``sim_stats`` mapping —
    either as a dict key (sweep rows) or as a ``stats`` attribute
    (:class:`~repro.experiments.runner.TreeExperimentResult`).  Runs that
    don't are still executable; their metrics just read zero.
    """
    if isinstance(result, dict):
        stats = result.get("sim_stats")
    else:
        stats = getattr(result, "stats", None)
    return dict(stats) if isinstance(stats, dict) else {}


def build_metrics(
    label: str,
    wall_time_s: float,
    result: Any,
    attempts: int = 1,
    error: Optional[str] = None,
) -> RunMetrics:
    """Fold a run's wall time and engine stats into one record."""
    stats = extract_sim_stats(result)
    cohorts = stats.get("cohorts")
    cohort_jain = cohort_bound_ok = None
    if isinstance(cohorts, dict) and cohorts:
        cohort_jain = {label: float(entry.get("jain", 0.0))
                       for label, entry in cohorts.items()}
        cohort_bound_ok = {label: entry.get("bound_ok")
                           for label, entry in cohorts.items()}
    return RunMetrics(
        label=label,
        wall_time_s=wall_time_s,
        events=int(stats.get("events", 0)),
        drops=int(stats.get("drops", 0)),
        peak_queue_depth=int(stats.get("peak_queue_depth", 0)),
        attempts=attempts,
        error=error,
        audit_checks=int(stats.get("audit_checks", 0)),
        violations=(int(stats["violations"])
                    if "violations" in stats else None),
        cohort_jain=cohort_jain,
        cohort_bound_ok=cohort_bound_ok,
    )


def metrics_table(metrics: List[RunMetrics]) -> str:
    """Fixed-width text table of per-run metrics plus a totals row."""
    header = (f"{'run':<40s} {'wall s':>8s} {'events':>10s} {'ev/s':>10s} "
              f"{'drops':>7s} {'peakQ':>5s} {'viol':>4s} {'tries':>5s} "
              f"{'src':>6s}")
    lines = ["runtime summary", header, "-" * len(header)]
    total_wall = 0.0
    total_events = 0
    for m in metrics:
        source = "error" if m.error else ("cache" if m.cached else "run")
        label = m.label if len(m.label) <= 40 else m.label[:37] + "..."
        violations = "-" if m.violations is None else str(m.violations)
        lines.append(
            f"{label:<40s} {m.wall_time_s:>8.2f} {m.events:>10d} "
            f"{m.events_per_sec:>10.0f} {m.drops:>7d} {m.peak_queue_depth:>5d} "
            f"{violations:>4s} {m.attempts:>5d} {source:>6s}"
        )
        if m.cohort_jain:
            parts = []
            for cohort in sorted(m.cohort_jain):
                bound = (m.cohort_bound_ok or {}).get(cohort)
                verdict = ("?" if bound is None
                           else ("ok" if bound else "FAIL"))
                parts.append(
                    f"{cohort} jain={m.cohort_jain[cohort]:.3f} bound={verdict}"
                )
            lines.append(f"{'':<4s}cohorts: " + "; ".join(parts))
        if not m.cached and not m.error:
            total_wall += m.wall_time_s
            total_events += m.events
    cached = sum(1 for m in metrics if m.cached)
    failed = sum(1 for m in metrics if m.error)
    lines.append("-" * len(header))
    lines.append(
        f"{len(metrics)} runs ({cached} cached, {failed} failed); "
        f"simulated work: {total_wall:.2f} s wall, {total_events} events"
    )
    return "\n".join(lines)
