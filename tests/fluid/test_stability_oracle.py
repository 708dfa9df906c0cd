"""The in-tree eigenvalue routine against ``numpy.linalg.eigvals``.

``stability_margin`` used to hand its Jacobian to numpy; it now takes
the spectrum from :func:`repro.fluid.stability.eigenvalues`, so the
fluid commands load no array library.  numpy stays a runtime dependency
(fig 4 / fig 5 / the particle model), which makes it available here as
the referee: on the Jacobians of hypothesis-drawn RED specs, and on
drawn small matrices built to contain what a QR iteration finds
hardest — complex-conjugate pairs and repeated eigenvalues.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fluid import (
    BottleneckSpec,
    FluidModel,
    FluidSpec,
    RlaCohortSpec,
    TcpCohortSpec,
    equilibrium_state,
    solve_equilibrium,
    stability_margin,
)
from repro.fluid.stability import eigenvalues, jacobian

#: The issue's tolerance: the margin within 1e-9, relative.
REL = 1e-9


@st.composite
def red_specs(draw):
    """One RED bottleneck, 1-4 TCP cohorts, 0-2 RLA cohorts."""
    scale = draw(st.sampled_from((1.0, 40.0, 25_000.0)))
    buffer = scale * draw(st.floats(min_value=10.0, max_value=200.0))
    min_th = buffer * draw(st.floats(min_value=0.05, max_value=0.4))
    max_th = min_th + (buffer - min_th) * draw(st.floats(0.2, 1.0))
    rtt = st.floats(min_value=0.01, max_value=0.3)
    tcp = draw(st.lists(
        st.builds(TcpCohortSpec,
                  st.integers(1, 40).map(lambda n: round(n * scale)), rtt),
        min_size=1, max_size=4))
    rla = draw(st.lists(
        st.builds(RlaCohortSpec,
                  st.integers(1, 64).map(lambda n: round(n * scale)), rtt),
        max_size=2))
    flows = sum(cohort.flows for cohort in tcp)
    return FluidSpec(
        name="drawn red",
        bottlenecks=(BottleneckSpec(
            capacity_pps=flows * draw(st.floats(min_value=5.0,
                                                max_value=200.0)),
            buffer_pkts=buffer, discipline="red", min_th=min_th,
            max_th=max_th,
            w_q=draw(st.floats(min_value=1e-4, max_value=0.02)) / scale,
            max_p=draw(st.floats(min_value=0.02, max_value=1.0))),),
        tcp_cohorts=tuple(tcp), rla_cohorts=tuple(rla),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=red_specs())
def test_margin_of_drawn_red_specs_matches_numpy(spec):
    report = solve_equilibrium(spec)
    assume(report.status == "interior")
    model = FluidModel(spec)
    jac = jacobian(model, equilibrium_state(model, report))
    expected = -max(np.linalg.eigvals(np.array(jac)).real)
    assert stability_margin(model, report) == pytest.approx(expected, rel=REL)


def _rotate(matrix, i, j, angle):
    """Similarity by the Givens rotation in the ``(i, j)`` plane."""
    rotation = np.eye(len(matrix))
    rotation[i, i] = rotation[j, j] = math.cos(angle)
    rotation[i, j] = -math.sin(angle)
    rotation[j, i] = math.sin(angle)
    return rotation @ matrix @ rotation.T


@st.composite
def structured_matrices(draw):
    """Known spectrum, hidden by an orthogonal similarity.

    Diagonal blocks are ``[[a, b], [-b, a]]`` (the pair ``a ± bi``) or a
    single real ``a``, with ``a`` from a three-value pool so repeats are
    the rule; orthogonal mixing keeps every eigenvalue well conditioned,
    so the tolerance tests the algorithm and not the matrix.
    """
    n = draw(st.integers(2, 9))
    real = st.sampled_from((-2.0, -0.5, 1.25))
    imag = st.sampled_from((0.75, 3.0))
    blocks = np.zeros((n, n))
    spectrum = []
    i = 0
    while i < n:
        a = draw(real)
        if i + 1 < n and draw(st.booleans()):
            b = draw(imag)
            blocks[i:i + 2, i:i + 2] = [[a, b], [-b, a]]
            spectrum += [complex(a, b), complex(a, -b)]
            i += 2
        else:
            blocks[i, i] = a
            spectrum.append(complex(a, 0.0))
            i += 1
    for _ in range(2 * n):
        p, q = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        blocks = _rotate(blocks, p, q, draw(st.floats(0.1, 3.0)))
    return blocks.tolist(), spectrum


def _by_value(values):
    return sorted(values, key=lambda z: (round(z.real, 6), round(z.imag, 6)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=structured_matrices())
def test_conjugate_pairs_and_repeated_eigenvalues(case):
    matrix, spectrum = case
    found = eigenvalues(matrix)
    assert len(found) == len(matrix)
    for mine, known in zip(_by_value(found), _by_value(spectrum)):
        assert abs(mine - known) <= 1e-7 * max(1.0, abs(known))
    expected = max(np.linalg.eigvals(np.array(matrix)).real)
    assert max(z.real for z in found) == pytest.approx(expected, rel=REL)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=structured_matrices(),
       exponents=st.lists(st.integers(-6, 6), min_size=9, max_size=9))
def test_mixed_units_do_not_cost_accuracy(case, exponents):
    """Windows, packets and packets/s share one Jacobian: a diagonal
    change of units ``D A D⁻¹`` must not move the spectrum — what the
    balancing pass is for (without it this test fails)."""
    matrix, spectrum = case
    units = np.array([10.0 ** e for e in exponents[:len(matrix)]])
    scaled = np.array(matrix) * units[:, None] / units[None, :]
    found = eigenvalues(scaled.tolist())
    expected = max(z.real for z in spectrum)
    assert max(z.real for z in found) == pytest.approx(expected, rel=1e-7)


@pytest.mark.parametrize("matrix, spectrum", [
    ([], []),
    ([[3]], [3]),
    ([[0.0, 1.0], [0.0, 0.0]], [0, 0]),                     # defective
    ([[0, 1, 0], [0, 0, 1], [1, 0, 0]],                     # cube roots of 1
     [1, complex(-0.5, math.sqrt(0.75)), complex(-0.5, -math.sqrt(0.75))]),
    ([[2e6, 1e9], [1e-9, -3e-6]], None),                    # badly scaled
], ids=["empty", "scalar", "defective", "cyclic", "scaled"])
def test_hand_picked_matrices(matrix, spectrum):
    found = eigenvalues(matrix)
    if spectrum is None:
        spectrum = np.linalg.eigvals(np.array(matrix)).tolist()
    assert len(found) == len(spectrum)
    for mine, known in zip(_by_value(found), _by_value(spectrum)):
        assert mine == pytest.approx(known, rel=REL, abs=1e-12)
