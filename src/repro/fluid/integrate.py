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
from operator import add
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from .model import FluidModel
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
    """One classical RK4 step; the result is clamped into the physical set."""
    field, step = model.kernel
    return step(state, field(state)[0], dt)


def integrate(spec: FluidSpec,
              model: Optional[FluidModel] = None) -> FluidResult:
    """Integrate ``spec`` over its horizon and average the measured window.

    The step count is fixed up front (``round(horizon / dt)``), so two
    runs of the same spec execute the identical float-op sequence.
    The field evaluation at the state a step lands on serves twice: it
    is that step's observables and the next step's first RK4 stage.
    ``model`` is ``FluidModel(spec)`` where the caller already holds
    one (its kernel is compiled once per model).
    """
    spec.validate()
    if model is None:
        model = FluidModel(spec)
    dt = spec.dt
    total_steps = round(spec.horizon / dt)
    warmup_steps = round(spec.warmup / dt)
    if total_steps <= warmup_steps:
        raise ConfigurationError(
            f"horizon {spec.horizon}s leaves no measured steps at dt={dt}"
        )

    field, step = model.kernel
    observe = model.observe
    base_q, base_avg = model.base_q, model.base_avg
    state = model.initial_state()
    evaluation = field(state)
    # -0.0, not 0.0, is the additive identity that keeps a sum of
    # negative zeros negative — the sums start as if from their first
    # term.
    sums = [-0.0] * model.n_observables
    peak_queue = [0.0] * model.n_bottlenecks

    for index in range(total_steps):
        state = step(state, evaluation[0], dt)
        evaluation = field(state)
        if index < warmup_steps:
            continue
        sums = list(map(add, sums, observe(state, evaluation)))
        peak_queue = list(map(max, peak_queue, state[base_q:base_avg]))

    measured = total_steps - warmup_steps
    return FluidResult(
        means=model.named([total / measured for total in sums]),
        peak_queue=tuple(peak_queue),
        final_state=tuple(state),
        steps=total_steps,
        measured_s=measured * dt,
    )
