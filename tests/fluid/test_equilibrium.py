"""The equilibrium bisection stops once its bracket stops moving.

Each iteration is a pure function of the bracket ``(lo, hi)``: once one
leaves it unchanged, every later one would probe the same midpoint.  So
stopping there gives the report the full :data:`BISECT_ITERATIONS` loop
gives, bit for bit, without the idle probes.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.population import population_spec
from repro.fluid import FluidModel, solve_equilibrium, stability


def _full_bisection(spec):
    """The interior fixed point as every one of the iterations finds it."""
    model = FluidModel(spec)
    [bn] = spec.bottlenecks
    lo = stability.P_FLOOR
    hi = min(bn.max_p if bn.discipline == "red" else 1.0, 1.0 - 1e-9)
    for _ in range(stability.BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if stability._residual(model, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return stability._report(model, "interior", 0.5 * (lo + hi))


#: ``_residual`` probes each solve may make: RED's bracket ends at
#: ``max_p``, drop-tail's just below 1, so it freezes a few halvings later.
@pytest.mark.parametrize("gateway, most", [("red", 60), ("droptail", 66)])
def test_bisection_stops_once_the_bracket_freezes(monkeypatch, gateway, most):
    spec = population_spec(1000, gateway=gateway)
    full = _full_bisection(spec)
    probes = []
    residual = stability._residual

    def counted(model, p):
        probes.append(p)
        return residual(model, p)

    monkeypatch.setattr(stability, "_residual", counted)
    report = solve_equilibrium(spec)
    assert report.status == "interior"
    assert len(probes) <= most
    assert pickle.dumps(report) == pickle.dumps(full)
