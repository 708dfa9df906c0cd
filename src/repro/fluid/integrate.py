"""Fixed-step RK4 integration of the fluid vector field.

Everything here is deliberately boring: a classical Runge-Kutta 4 step
with a fixed ``dt``, a fixed step count derived from the spec horizon,
and rectangle-rule time averages over the measured window.  No adaptive
stepping, no RNG, no wall-clock reads — the result is a pure function
of the :class:`FluidSpec`, byte-identical across processes, interpreter
restarts, and serial/parallel executors (locked by the byte-identity
suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from .model import FluidModel, model_of
from .spec import FluidSpec


@dataclass
class FluidResult:
    """Time-averaged outcome of one fluid integration.

    ``means`` maps each observable of
    :meth:`FluidModel.instantaneous` to its per-component time average
    over the measured (post-warmup) window; ``peak_queue`` is the
    per-bottleneck maximum instantaneous depth in the same window.
    ``steps`` counts RK4 steps over the whole horizon (the fluid
    analogue of the packet engine's event count).
    """

    means: Dict[str, Tuple[float, ...]]
    peak_queue: Tuple[float, ...]
    final_state: Tuple[float, ...]
    steps: int
    measured_s: float


def rk4_step(model: FluidModel, state: List[float], dt: float) -> List[float]:
    """One classical RK4 step of any state, clamped into the physical set."""
    return model.identity_run(state, dt, 1, 1)[0]


def integrate(spec: FluidSpec,
              model: Optional[FluidModel] = None) -> FluidResult:
    """Integrate ``spec`` over its horizon and average the measured window.

    The step count is fixed up front (``round(horizon / dt)``), so two
    runs of the same spec execute the identical float-op sequence, all
    inside the kernel's ``run``.  ``model`` is ``FluidModel(spec)``
    where the caller already holds one; a model of another spec object,
    even an equal one, is refused (:func:`~repro.fluid.model.model_of`).
    """
    spec.validate()
    model = model_of(spec, model, "integrate")
    dt = spec.dt
    total_steps = round(spec.horizon / dt)
    warmup_steps = round(spec.warmup / dt)
    if total_steps <= warmup_steps:
        raise ConfigurationError(
            f"horizon {spec.horizon}s leaves no measured steps at dt={dt}"
        )

    state, sums, peak_queue, _ = model.kernel(
        model.initial_state(), dt, total_steps, warmup_steps)
    measured = total_steps - warmup_steps
    return FluidResult(
        means=model.named([total / measured for total in sums]),
        peak_queue=peak_queue,
        final_state=tuple(state),
        steps=total_steps,
        measured_s=measured * dt,
    )
