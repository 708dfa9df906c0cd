"""The structured exception the audit layer raises.

An :class:`InvariantViolation` names the failed check, carries the
offending event context as a dict, and attaches the flight recorder's dump
of the most recent simulation events so a failure is diagnosable from the
exception alone (no re-run needed).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import SimulationError


class InvariantViolation(SimulationError):
    """A simulation-wide invariant failed during an audited run.

    Attributes
    ----------
    check:
        Dotted name of the failed check (e.g. ``"conservation.flow_balance"``).
    time:
        Simulation time at which the violation was detected.
    context:
        The offending event's fields (flow, link, uid, counters, ...).
    dump:
        Flight-recorder dump of the last N events, empty if no recorder
        was attached.
    """

    def __init__(
        self,
        check: str,
        time: float = 0.0,
        context: Optional[Dict[str, Any]] = None,
        dump: str = "",
    ) -> None:
        self.check = check
        self.time = time
        self.context = dict(context or {})
        self.dump = dump
        detail = ", ".join(
            f"{key}={value!r}" for key, value in self.context.items()
        )
        text = f"[t={time:.6f}] invariant {check!r} violated: {detail}"
        if dump:
            text += "\n--- flight recorder (most recent last) ---\n" + dump
        super().__init__(text)
