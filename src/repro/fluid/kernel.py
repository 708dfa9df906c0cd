"""The fluid model's spec, emitted as one straight-line RK4 kernel.

At 5-49 state variables the float work of one field evaluation is a few
dozen operations, and a loop over cohort tuples spends several times
that on tuple unpacking, list indexing and ``zip`` glue.  So the model
is *compiled*: :func:`kernel_source` writes the vector field and the
RK4 step of one :class:`~repro.fluid.spec.FluidSpec` as Python source —
one scalar local per state variable, the per-cohort and per-bottleneck
loops unrolled, every spec constant a literal — and
:func:`compile_kernel` ``exec``\\ s it once per model.

The float-operation order is a contract, and this module owns it:
``tests/fluid/reference.py`` keeps the step-by-step integrator the
kernel descends from, and ``tests/fluid/test_integrator_oracle.py``
requires bit-identical results.  Every emitted expression is the
reference's, operand for operand and in the same association; the one
rewrite allowed is evaluating, at emit time, a sub-expression whose
operands are all spec constants (same operands, same bits — ``repr``
of a float round-trips exactly).  Nothing that depends on the state is
re-ordered, re-associated or dropped, identities such as ``0.0 + x``
and ``1.0 * x`` included: they are not the identity on ``-0.0``.

The source is a pure function of the spec — no addresses, hashes or
dict-order dependence — so two interpreters emit byte-identical text
(locked by ``tests/fluid/test_kernel.py``).
"""

from __future__ import annotations

import itertools
import linecache
import math
import weakref
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from ..errors import ConfigurationError
from .spec import DROPTAIL_RAMP

if TYPE_CHECKING:
    from .model import FluidModel

#: Window floor, matching the jump-chain clamp ``max(W/2, 1)``.
MIN_WINDOW = 1.0

#: What the emitted ``field(state)`` returns:
#: ``(deriv, tcp_rtts, rla_rtt, loads, ps)``.
FieldEval = Tuple[Tuple[float, ...], Tuple[float, ...], float,
                  Tuple[float, ...], Tuple[float, ...]]
#: The emitted pair: ``field(state)`` and ``step(state, k1, dt)``.
Kernel = Tuple[Callable[[Sequence[float]], FieldEval],
               Callable[[Sequence[float], Sequence[float], float],
                        List[float]]]

#: Numbers each compile's ``linecache`` filename; never part of the source.
_serial = itertools.count(1)


def _lit(value: float) -> str:
    """``value`` as a source literal that evaluates to the same object.

    Ints stay ints (a spec may say ``buffer_pkts=20``, and the clamp
    stores that bound into the state as it is).  Non-finite values have
    no literal; :meth:`FluidSpec.validate` refuses them first.
    """
    if not math.isfinite(value):
        raise ConfigurationError(
            f"fluid kernel constants must be finite: {value}")
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


def _names(prefix: str, count: int) -> str:
    """``(p0, p1, ...)`` — a tuple display or an unpacking target."""
    inner = ", ".join(f"{prefix}{i}" for i in range(count))
    return f"({inner},)" if count == 1 else f"({inner})"


def _field_lines(model: "FluidModel") -> List[str]:
    """Body of ``field``: ``d*``, ``r*``, ``rr``, ``l*``, ``p*`` from ``s*``.

    ``s{i}`` is the state, ``d{i}`` its derivative, ``r{c}`` the
    effective RTT of TCP cohort ``c``, ``rr`` the RLA session RTT,
    ``l{b}`` / ``p{b}`` the offered load and drop probability of
    bottleneck ``b``; ``x``, ``g`` and ``h`` are scratch.
    """
    spec = model.spec
    base_q, base_avg = model.base_q, model.base_avg
    bottlenecks = spec.bottlenecks
    floor = _lit(MIN_WINDOW)
    out: List[str] = []
    emit = out.append

    def rtt(cohort) -> str:
        """Propagation plus queueing delay ``q/C`` at the cohort's queue."""
        return (f"{_lit(cohort.rtt_s)} + s{base_q + cohort.bottleneck} / "
                f"{_lit(bottlenecks[cohort.bottleneck].capacity_pps)}")

    emit("# effective RTTs; offered load = sum flows * W / R (+ one "
         "multicast copy)")
    for b in range(len(bottlenecks)):
        emit(f"l{b} = 0.0")
    for c, cohort in enumerate(spec.tcp_cohorts):
        emit(f"r{c} = {rtt(cohort)}")
        emit(f"l{cohort.bottleneck} += "
             f"{_lit(float(cohort.flows))} * s{c} / r{c}")

    # Receivers behind one bottleneck lose *together* (one dropped copy
    # deprives them all), so the drift groups them — the §4.2 Lemma's
    # correlated case, which the dumbbell cross-validation confirms
    # matters.  With N receivers in total (the listening coin is 1/N)
    # and n_b of them behind bottleneck b, the no-cut and half-survive
    # factors (1-1/N)^n_b and (1-1/(2N))^n_b are constants of the spec.
    behind: Dict[int, int] = {}
    for cohort in spec.rla_cohorts:
        behind[cohort.bottleneck] = (behind.get(cohort.bottleneck, 0)
                                     + cohort.receivers)
    groups = sorted(behind.items())
    if groups:
        # The sender clocks on the worst receiver.
        emit("rr = 0.0")
        for cohort in spec.rla_cohorts:
            emit(f"x = {rtt(cohort)}")
            emit("if x > rr:")
            emit("    rr = x")
        emit(f"rr = {_lit(spec.rla_rtt_factor)} * rr")
        emit("if rr > 0.0:")
        emit(f"    x = s{model.idx_rla} / rr")
        for b, _ in groups:
            emit(f"    l{b} += x")
    else:
        emit(f"rr = {_lit(spec.rla_rtt_factor * 0.0)}")

    # Loss, then queue and RED-average drift, per bottleneck.  Drop-tail
    # is the buffer cliff, regularized: a queue pinned at its limit
    # drops exactly the excess-rate fraction 1 - C/A, and the model
    # ramps that loss in linearly over the top (1 - DROPTAIL_RAMP) of
    # the buffer so the field stays continuous.  RED adds its early-drop
    # profile p(avg): zero below min_th, linear up to max_p at max_th, 1
    # from there (the profile repro.net.red.REDQueue applies per packet,
    # minus the count correction, whose mean effect is already the
    # marked fraction).  Fixed-loss bottlenecks keep their p and have
    # no queue feedback; RED's average is frozen unless the discipline
    # is "red".
    for b, bn in enumerate(bottlenecks):
        q, avg = f"s{base_q + b}", f"s{base_avg + b}"
        dq, davg = f"d{base_q + b}", f"d{base_avg + b}"
        emit(f"# bottleneck {b}: {bn.discipline}")
        if bn.discipline == "fixed":
            emit(f"p{b} = {_lit(bn.loss_p)}")
            emit(f"{dq} = 0.0")
            emit(f"{davg} = 0.0")
            continue
        capacity = _lit(bn.capacity_pps)
        ramp_start = DROPTAIL_RAMP * bn.buffer_pkts
        emit(f"if l{b} <= {capacity} or {q} <= {_lit(ramp_start)}:")
        emit(f"    p{b} = 0.0")
        emit("else:")
        emit(f"    x = ({q} - {_lit(ramp_start)}) / "
             f"{_lit(bn.buffer_pkts - ramp_start)}")
        emit("    if not x < 1.0:")
        emit("        x = 1.0")
        emit(f"    p{b} = x * (1.0 - {capacity} / l{b})")
        if bn.discipline == "red":
            emit(f"if {avg} < {_lit(bn.min_th)}:")
            emit("    x = 0.0")
            emit(f"elif {avg} >= {_lit(bn.max_th)}:")
            emit("    x = 1.0")
            emit("else:")
            emit(f"    x = {_lit(bn.max_p)} * ({avg} - {_lit(bn.min_th)}) / "
                 f"{_lit(bn.max_th - bn.min_th)}")
            emit(f"p{b} = 1.0 - (1.0 - x) * (1.0 - p{b})")
            emit(f"{davg} = {_lit(bn.w_q)} * l{b} * ({q} - {avg})")
        else:
            emit(f"{davg} = 0.0")
        emit(f"{dq} = l{b} * (1.0 - p{b}) - {capacity}")
        emit(f"if ({q} <= 0.0 and {dq} < 0.0) or "
             f"({q} >= {_lit(bn.buffer_pkts)} and {dq} > 0.0):")
        emit(f"    {dq} = 0.0")

    if spec.tcp_cohorts:
        emit("# TCP windows: dW/dt = [(1-p) - p W^2/2] / R")
    for c, cohort in enumerate(spec.tcp_cohorts):
        p = f"p{cohort.bottleneck}"
        emit(f"d{c} = ((1.0 - {p}) - {p} * s{c} * s{c} / 2.0) / r{c}")
        emit(f"if s{c} <= {floor} and d{c} < 0.0:")
        emit(f"    d{c} = 0.0")

    if groups:
        # G = prod_b [(1-p_b) + p_b (1-1/N)^{n_b}] (nobody's signal is
        # listened to) and H = prod_b [(1-p_b) + p_b (1-1/(2N))^{n_b}]:
        # common loss within a group, independent across bottlenecks —
        # O(bottlenecks) products, the algebra of
        # repro.models.rla_window_groups.
        w, dw = f"s{model.idx_rla}", f"d{model.idx_rla}"
        big_n = spec.n_receivers
        emit("# RLA window: dW/dt = [G - W^2 (1-H)] / R_rla")
        emit("g = 1.0")
        emit("h = 1.0")
        for b, count in groups:
            keep_all = (1.0 - 1.0 / big_n) ** count
            keep_half = (1.0 - 1.0 / (2.0 * big_n)) ** count
            emit(f"g *= (1.0 - p{b}) + p{b} * {_lit(keep_all)}")
            emit(f"h *= (1.0 - p{b}) + p{b} * {_lit(keep_half)}")
        emit(f"{dw} = (g - {w} * {w} * (1.0 - h)) / rr")
        emit(f"if {w} <= {floor} and {dw} < 0.0:")
        emit(f"    {dw} = 0.0")
    return out


def _stage_lines(model: "FluidModel", update: str) -> List[str]:
    """``m{i} = <update>`` for every state variable, then its clamp.

    ``update`` is the right-hand side with ``{i}`` for the index.  The
    clamp projects back into the physical region: windows at or above
    the floor, queues and averages within ``[0, buffer]``.
    """
    floor = _lit(MIN_WINDOW)
    buffers = [bn.buffer_pkts for bn in model.spec.bottlenecks] * 2
    out: List[str] = []
    for i in range(model.n_state):
        out.append(f"m{i} = {update.format(i=i)}")
        if i < model.base_q:
            out += [f"if m{i} < {floor}:", f"    m{i} = {floor}"]
        else:
            buffer = _lit(buffers[i - model.base_q])
            out += [f"if m{i} < 0.0:", f"    m{i} = 0.0",
                    f"if {buffer} < m{i}:", f"    m{i} = {buffer}"]
    return out


def kernel_source(model: "FluidModel") -> str:
    """Python source of ``field(state)`` and ``step(state, k1, dt)``.

    ``field`` evaluates the whole vector field in one pass and returns
    ``(deriv, tcp_rtts, rla_rtt, loads, ps)``.  ``step`` finishes the
    classical RK4 step whose first stage ``k1 = field(state)[0]`` is
    given: every stage state is clamped into the physical set before
    the field is evaluated there, and so is the result.  The stage
    evaluation is emitted once — ``step`` calls ``field`` — which keeps
    the source, and with it the compile time, at half the fully pasted
    form.
    """
    spec = model.spec
    n = model.n_state
    n_tcp, n_bn = model.n_tcp, model.n_bottlenecks
    state = _names("m", n)
    lines = [
        f"# fluid kernel: TCP cohorts {n_tcp}, RLA cohorts "
        f"{len(spec.rla_cohorts)}, bottlenecks {n_bn}, state variables {n}",
        "def field(state):",
        f"    {_names('s', n)} = state",
    ]
    lines += ["    " + line for line in _field_lines(model)]
    lines += [
        f"    return ({_names('d', n)}, {_names('r', n_tcp)}, rr, "
        f"{_names('l', n_bn)}, {_names('p', n_bn)})",
        "",
        "def step(state, k1, dt):",
        f"    {_names('s', n)} = state",
        f"    {_names('a', n)} = k1",
        "    h = 0.5 * dt",
    ]
    for update, stage in (("s{i} + h * a{i}", "b"),
                          ("s{i} + h * b{i}", "c"),
                          ("s{i} + dt * c{i}", "e")):
        lines += ["    " + line for line in _stage_lines(model, update)]
        lines.append(f"    {_names(stage, n)} = field({state})[0]")
    lines.append("    h = dt / 6.0")
    lines += ["    " + line for line in _stage_lines(
        model, "s{i} + h * (a{i} + 2.0 * b{i} + 2.0 * c{i} + e{i})")]
    lines.append(f"    return [{state[1:-1]}]")
    return "\n".join(lines) + "\n"


def compile_kernel(source: str, name: str, owner: object) -> Kernel:
    """``exec`` kernel source; returns its ``(field, step)`` pair.

    The source is registered with :mod:`linecache` under
    ``<fluid kernel 'name' #serial>``, so a traceback through the kernel
    shows the generated line.  The serial makes the entry this
    compile's own (two live models of one spec do not share it) and
    stays out of the source, which remains a pure function of the spec;
    the entry goes when ``owner`` (the model holding the pair) does, so
    a long-lived worker does not keep the text of every spec it ever ran.
    """
    filename = f"<fluid kernel {name!r} #{next(_serial)}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    weakref.finalize(owner, linecache.cache.pop, filename, None)
    namespace: Dict[str, object] = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["field"], namespace["step"]  # type: ignore[return-value]
