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
from typing import Dict, List, Tuple

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


def _rk4_from_k1(model: FluidModel, state: List[float], k1: List[float],
                 dt: float) -> List[float]:
    """Finish the RK4 step whose first stage ``k1 = f(state)`` is given.

    Every stage state is clamped into the physical set before the field
    is evaluated there, and so is the result.
    """
    field = model.field
    clamp = model.clamp
    half = 0.5 * dt
    mid1 = [s + half * d for s, d in zip(state, k1)]
    clamp(mid1)
    k2 = field(mid1)[0]
    mid2 = [s + half * d for s, d in zip(state, k2)]
    clamp(mid2)
    k3 = field(mid2)[0]
    end = [s + dt * d for s, d in zip(state, k3)]
    clamp(end)
    k4 = field(end)[0]
    sixth = dt / 6.0
    nxt = [
        s + sixth * (a + 2.0 * b + 2.0 * c + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    ]
    clamp(nxt)
    return nxt


def rk4_step(model: FluidModel, state: List[float], dt: float) -> List[float]:
    """One classical RK4 step; the result is clamped into the physical set."""
    return _rk4_from_k1(model, state, model.derivatives(state), dt)


def integrate(spec: FluidSpec) -> FluidResult:
    """Integrate ``spec`` over its horizon and average the measured window.

    The step count is fixed up front (``round(horizon / dt)``), so two
    runs of the same spec execute the identical float-op sequence.
    The field evaluation at the state a step lands on serves twice: it
    is that step's observables and the next step's first RK4 stage.
    """
    spec.validate()
    model = FluidModel(spec)
    dt = spec.dt
    total_steps = round(spec.horizon / dt)
    warmup_steps = round(spec.warmup / dt)
    if total_steps <= warmup_steps:
        raise ConfigurationError(
            f"horizon {spec.horizon}s leaves no measured steps at dt={dt}"
        )

    field = model.field
    observe = model.observe
    base_q, base_avg = model.base_q, model.base_avg
    state = model.initial_state()
    evaluation = field(state)
    # -0.0, not 0.0, is the additive identity that keeps a sum of
    # negative zeros negative — the sums start as if from their first
    # term.
    sums = [-0.0] * model.n_observables
    peak_queue = [0.0] * model.n_bottlenecks

    for step in range(total_steps):
        state = _rk4_from_k1(model, state, evaluation[0], dt)
        evaluation = field(state)
        if step < warmup_steps:
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
