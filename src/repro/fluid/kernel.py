"""The fluid model's spec, emitted as one straight-line RK4 run.

At 5-49 state variables the float work of one field evaluation is a few
dozen operations, and a loop over cohort tuples spends several times
that on tuple unpacking, list indexing and ``zip`` glue.  So the model
is *compiled*: :func:`kernel_source` writes the whole fixed-step RK4
integration of one :class:`~repro.fluid.spec.FluidSpec` as one Python
function, ``run`` — one scalar local per state variable, the
per-cohort and per-bottleneck loops unrolled, every spec constant a
literal — and :func:`compile_kernel` ``exec``\\ s it once per model.
:func:`_field_lines` is the one definition of the dynamics: every
stage, every observable and the equilibrium's load read what it emits.

Exchangeable branches (``_map``) that start equal stay equal, so the
emitted ``run`` integrates one representative per class; under the
identity map (``lump=False``) it steps any state.

The float-operation order is a contract, and this module owns it:
``tests/fluid/reference.py`` keeps the step-by-step integrator the
kernel descends from, and ``tests/fluid/test_integrator_oracle.py``
requires bit-identical results.  Every emitted expression is the
reference's, operand for operand and in the same association.  Two
rewrites are allowed.  A sub-expression whose operands are all spec
constants is evaluated at emit time (same operands, same bits — ``repr``
of a float round-trips exactly).  And the same expression text at one
evaluation gives the same bits, so a sub-expression several terms share
is computed once into a local and read from it; a product may take
each factor from a local as long as it keeps the factors in order, and
it starts from its first factor, since ``1.0 * x`` is ``x`` bit for
bit, ``-0.0`` included.  Nothing that depends on the state is
re-ordered or re-associated, and no additive identity is dropped:
``0.0 + -0.0`` is ``0.0``.

The source is a pure function of the spec — no addresses, hashes or
dict-order dependence — so two interpreters emit byte-identical text
(locked by ``tests/fluid/test_kernel.py``).
"""

from __future__ import annotations

import dataclasses
import itertools
import linecache
import math
import weakref
from typing import (TYPE_CHECKING, Callable, Dict, Hashable, Iterable, List,
                    NamedTuple, Sequence, Tuple)

from ..errors import ConfigurationError
from .spec import DROPTAIL_RAMP

if TYPE_CHECKING:
    from .model import FluidModel

#: Window floor, matching the jump-chain clamp ``max(W/2, 1)``.
MIN_WINDOW = 1.0

#: What the emitted ``run`` returns: ``(final_state, sums, peak_queue,
#: deriv)``, ``deriv`` the field at ``final_state``.
RunResult = Tuple[List[float], Tuple[float, ...], Tuple[float, ...],
                  Tuple[float, ...]]
#: The emitted ``run(state, dt, total_steps, warmup_steps)``.
Kernel = Callable[[Sequence[float], float, int, int], RunResult]

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


def _tuple(names: Iterable[str]) -> str:
    """``(a, b, ...)`` — a tuple display of one or more names."""
    names = list(names)
    return f"({names[0]},)" if len(names) == 1 else f"({', '.join(names)})"


def _first_of(keys: Iterable[Hashable]) -> Tuple[int, ...]:
    """For each key, the position where that key first occurs."""
    first: Dict[Hashable, int] = {}
    return tuple(first.setdefault(key, i) for i, key in enumerate(keys))


class _Map(NamedTuple):
    """The representative of each bottleneck, TCP cohort and state index."""

    bottleneck: Tuple[int, ...]
    tcp: Tuple[int, ...]
    state: Tuple[int, ...]


def _map(model: "FluidModel", lump: bool) -> _Map:
    """Each bottleneck's representative: itself, or with ``lump`` the
    first bottleneck exchangeable with it.

    Exchangeable means the same literals in every field but ``label``
    and the same ordered cohort lists in ``(flows | receivers,
    rtt_s)``, compared as ``repr`` text: ``0.0 == -0.0``, but the two
    emit different kernels.  A TCP cohort maps to the first cohort at
    its position in an exchangeable bottleneck's list.  (An RLA cohort
    has no state; the code it emits is keyed by its text.)
    """
    spec = model.spec
    kinds = ((spec.tcp_cohorts, "flows"), (spec.rla_cohorts, "receivers"))
    listed: Dict[Tuple[int, int], List[Tuple[str, str]]] = {}
    positions: Tuple[List[int], List[int]] = ([], [])
    for kind, (cohorts, size) in enumerate(kinds):
        for cohort in cohorts:
            at = listed.setdefault((kind, cohort.bottleneck), [])
            positions[kind].append(len(at))
            at.append((repr(getattr(cohort, size)), repr(cohort.rtt_s)))
    reps = _first_of(
        (tuple(repr(getattr(bn, field.name))
               for field in dataclasses.fields(bn) if field.name != "label"),
         tuple(listed.get((0, b), ())), tuple(listed.get((1, b), ())))
        if lump else b for b, bn in enumerate(spec.bottlenecks))
    tcp = _first_of((reps[cohort.bottleneck], position)
                    for cohort, position in zip(spec.tcp_cohorts,
                                                positions[0]))
    rla_window = (model.idx_rla,) if model.has_rla else ()
    state = (tcp + rla_window + tuple(model.base_q + b for b in reps)
             + tuple(model.base_avg + b for b in reps))
    return _Map(reps, tcp, state)


def lumps(model: "FluidModel") -> bool:
    """Whether some branch is exchangeable with an earlier one, so the
    kernel's ``run`` is not the identity-map one."""
    return _map(model, True) != _map(model, False)


def _field_lines(model: "FluidModel", rep: _Map, src: str,
                 out: str) -> List[str]:
    """Field body: ``{out}*``, ``r*``, ``rr``, ``l*``, ``p*`` from ``{src}*``.

    ``{src}{i}`` is the state, ``{out}{i}`` its derivative, ``r{c}``
    the effective RTT of TCP cohort ``c``, ``rr`` the RLA session RTT,
    ``v`` the RLA send rate, ``l{b}`` / ``p{b}`` the offered load and
    drop probability of bottleneck ``b``, ``d{b}`` its queueing delay
    and ``u{b} = 1 - p{b}``; ``x``, ``g``, ``h`` and the G/H factors
    ``f{j}`` are scratch.  Code is emitted per representative; a lumped
    branch reads its locals.  Each shared expression is computed once
    and read from its local: an RTT a second cohort shares, a queueing
    delay, a survival ``1 - p``, a G/H factor.
    """
    spec = model.spec
    base_q, base_avg = model.base_q, model.base_avg
    bottlenecks = spec.bottlenecks
    floor = _lit(MIN_WINDOW)
    out_lines: List[str] = []
    emit = out_lines.append
    own_bottlenecks = sorted(set(rep.bottleneck))

    def at(cohort) -> int:
        return rep.bottleneck[cohort.bottleneck]

    def rtt(cohort) -> str:
        """Propagation plus queueing delay ``q/C`` at the cohort's queue."""
        return f"{_lit(cohort.rtt_s)} + d{at(cohort)}"

    emit("# effective RTTs; offered load = sum flows * W / R (+ one "
         "multicast copy)")
    for b in own_bottlenecks:
        emit(f"l{b} = 0.0")
    for b in sorted({at(cohort) for cohort in spec.tcp_cohorts
                     + spec.rla_cohorts}):
        emit(f"d{b} = {src}{base_q + b} / "
             f"{_lit(bottlenecks[b].capacity_pps)}")
    own_tcp = [(c, cohort) for c, cohort in enumerate(spec.tcp_cohorts)
               if rep.tcp[c] == c]
    rtts: Dict[str, str] = {}
    for c, cohort in own_tcp:
        text = rtt(cohort)
        emit(f"r{c} = {rtts.get(text, text)}")
        rtts.setdefault(text, f"r{c}")
        flows = "" if cohort.flows == 1 else f"{_lit(float(cohort.flows))} * "
        emit(f"l{at(cohort)} += {flows}{src}{c} / r{c}")

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
        # The sender clocks on the worst receiver.  Equal RTT text (a
        # lumped cohort's and its representative's among them) means
        # equal bits, and a repeat never wins a strict ``>``, so each
        # distinct text is folded once.
        emit("rr = 0.0")
        for text in dict.fromkeys(map(rtt, spec.rla_cohorts)):
            if text not in rtts:
                emit(f"x = {text}")
            value = rtts.get(text, "x")
            emit(f"if {value} > rr:")
            emit(f"    rr = {value}")
        emit(f"rr = {_lit(spec.rla_rtt_factor)} * rr")
        emit("if rr > 0.0:")
        emit(f"    v = {src}{model.idx_rla} / rr")
        for b in dict.fromkeys(rep.bottleneck[b] for b, _ in groups):
            emit(f"    l{b} += v")
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
    for b in own_bottlenecks:
        bn = bottlenecks[b]
        q, avg = f"{src}{base_q + b}", f"{src}{base_avg + b}"
        dq, davg = f"{out}{base_q + b}", f"{out}{base_avg + b}"
        emit(f"# bottleneck {b}: {bn.discipline}")
        if bn.discipline == "fixed":
            emit(f"p{b} = {_lit(bn.loss_p)}")
            emit(f"u{b} = 1.0 - p{b}")
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
        emit(f"u{b} = 1.0 - p{b}")
        emit(f"{dq} = l{b} * u{b} - {capacity}")
        emit(f"if ({q} <= 0.0 and {dq} < 0.0) or "
             f"({q} >= {_lit(bn.buffer_pkts)} and {dq} > 0.0):")
        emit(f"    {dq} = 0.0")

    if own_tcp:
        emit("# TCP windows: dW/dt = [(1-p) - p W^2/2] / R")
    for c, cohort in own_tcp:
        p, w = f"p{at(cohort)}", f"{src}{c}"
        emit(f"{out}{c} = (u{at(cohort)} - {p} * {w} * {w} / 2.0) / r{c}")
        emit(f"if {w} <= {floor} and {out}{c} < 0.0:")
        emit(f"    {out}{c} = 0.0")

    if groups:
        # G = prod_b [(1-p_b) + p_b (1-1/N)^{n_b}] (nobody's signal is
        # listened to) and H = prod_b [(1-p_b) + p_b (1-1/(2N))^{n_b}]:
        # common loss within a group, independent across bottlenecks —
        # O(bottlenecks) products, the algebra of
        # repro.models.rla_drift.rla_window_groups.  Every group is a
        # factor, in order, lumped or not; each distinct factor text is
        # computed once and the products read it.
        w, dw = f"{src}{model.idx_rla}", f"{out}{model.idx_rla}"
        big_n = spec.n_receivers
        emit("# RLA window: dW/dt = [G - W^2 (1-H)] / R_rla")
        factors: Dict[str, str] = {}
        products: Tuple[List[str], List[str]] = ([], [])
        for b, count in groups:
            u, p = f"u{rep.bottleneck[b]}", f"p{rep.bottleneck[b]}"
            keep_all = (1.0 - 1.0 / big_n) ** count
            keep_half = (1.0 - 1.0 / (2.0 * big_n)) ** count
            for product, keep in zip(products, (keep_all, keep_half)):
                text = f"{u} + {p} * {_lit(keep)}"
                product.append(factors.setdefault(text, f"f{len(factors)}"))
        out_lines += [f"{name} = {text}" for text, name in factors.items()]
        for name, product in zip("gh", products):
            emit(f"{name} = {product[0]}")
            out_lines += [f"{name} *= {factor}" for factor in product[1:]]
        emit(f"{dw} = (g - {w} * {w} * (1.0 - h)) / rr")
        emit(f"if {w} <= {floor} and {dw} < 0.0:")
        emit(f"    {dw} = 0.0")
    return out_lines


def _stage_lines(model: "FluidModel", integrated: Sequence[int],
                 target: str, update: str) -> List[str]:
    """``{target}{i} = <update>`` per integrated variable, then its clamp.

    ``update`` is the right-hand side with ``{i}`` for the index.  The
    clamp projects back into the physical region: windows at or above
    the floor, queues and averages within ``[0, buffer]``.
    """
    floor = _lit(MIN_WINDOW)
    buffers = [bn.buffer_pkts for bn in model.spec.bottlenecks] * 2
    out: List[str] = []
    for i in integrated:
        m = f"{target}{i}"
        out.append(f"{m} = {update.format(i=i)}")
        if i < model.base_q:
            out += [f"if {m} < {floor}:", f"    {m} = {floor}"]
        else:
            buffer = _lit(buffers[i - model.base_q])
            out += [f"if {m} < 0.0:", f"    {m} = 0.0",
                    f"if {buffer} < {m}:", f"    {m} = {buffer}"]
    return out


def _run_lines(model: "FluidModel", rep: _Map) -> List[str]:
    """``run(state, dt, total_steps, warmup_steps)``, every stage pasted.

    Each iteration opens with the evaluation at the state the last step
    landed on: that step's observables and the next step's first stage.
    Each entry of :meth:`FluidModel.named`'s layout is an emitted
    expression, and each distinct expression one accumulator summed
    from ``-0.0`` (the additive identity that leaves a first ``-0.0``
    alone): a lumped entry, like a second RLA cohort behind one
    bottleneck, repeats a sum.  ``top{b}`` is bottleneck ``b``'s peak
    queue.
    """
    spec, bottleneck = model.spec, rep.bottleneck
    observed = [f"s{r}" for r in rep.state]
    observed += [f"u{bottleneck[cohort.bottleneck]} * s{r} / r{r}"
                 for r, cohort in zip(rep.tcp, spec.tcp_cohorts)]
    observed += [f"u{bottleneck[cohort.bottleneck]} * v"
                 for cohort in spec.rla_cohorts]
    for expression in ("p{b}", "l{b}", "l{b} * p{b}"):
        observed += [expression.format(b=b) for b in bottleneck]
    sums = {term: f"o{j}" for j, term in enumerate(dict.fromkeys(observed))}
    integrated = sorted(set(rep.state))
    peaks = sorted(set(bottleneck))

    body = ["# landing evaluation: this step's observables, the next k1"]
    body += _field_lines(model, rep, "s", "a")
    body.append("if index >= warmup_steps:")
    if model.has_rla:  # the send rate, where the field skipped it
        body += ["    if not rr > 0.0:", f"        v = s{model.idx_rla} / rr"]
    body += [f"    {name} += {term}" for term, name in sums.items()]
    for b in peaks:
        q = f"s{model.base_q + b}"
        body += [f"    if {q} > top{b}:", f"        top{b} = {q}"]
    body += ["if index == last:", "    break"]
    for update, stage in (("s{i} + half * a{i}", "b"),
                          ("s{i} + half * b{i}", "c"),
                          ("s{i} + dt * c{i}", "e")):
        body += _stage_lines(model, integrated, "m", update)
        body += _field_lines(model, rep, "m", stage)
    body += _stage_lines(
        model, integrated, "s",
        "s{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i} + e{i})")

    lines = [
        "def run(state, dt, total_steps, warmup_steps):",
        f"    {', '.join(f's{i}' for i in integrated)}, = "
        f"{', '.join(f'state[{i}]' for i in integrated)},",
        "    half = 0.5 * dt",
        "    sixth = dt / 6.0",
        "    last = total_steps - 1",
    ]
    lines += [f"    {name} = -0.0" for name in sums.values()]
    lines += [f"    top{b} = 0.0" for b in peaks]
    lines.append("    for index in range(-1, total_steps):")
    lines += ["        " + line for line in body]
    lines.append(
        f"    return ([{', '.join(f's{r}' for r in rep.state)}], "
        f"{_tuple(sums[term] for term in observed)}, "
        f"{_tuple(f'top{b}' for b in bottleneck)}, "
        f"{_tuple(f'a{r}' for r in rep.state)})")
    return lines


def kernel_source(model: "FluidModel", lump: bool = True) -> str:
    """Python source of ``run(state, dt, total_steps, warmup_steps)``.

    ``run`` takes that many classical RK4 steps, clamping every stage
    state and the result into the physical set, and returns the final
    state, the observables summed and the peak queues over the steps
    after ``warmup_steps``, and the derivative at the final state: so
    ``run(state, 0.0, 0, -1)`` returns ``state``, the observables at it
    and its derivative.  With ``lump`` it integrates one branch per
    exchangeable class, so ``state`` must be equal across each class.
    """
    spec = model.spec
    reduced = _map(model, lump)
    header = (f"# fluid kernel: TCP cohorts {model.n_tcp}, RLA cohorts "
              f"{len(spec.rla_cohorts)}, bottlenecks {model.n_bottlenecks}, "
              f"state variables {model.n_state}, integrated "
              f"{len(set(reduced.state))}")
    return "\n".join([header] + _run_lines(model, reduced)) + "\n"


def compile_kernel(source: str, name: str, owner: object) -> Kernel:
    """``exec`` kernel source; returns its ``run``.

    The source is registered with :mod:`linecache` under
    ``<fluid kernel 'name' #serial>``, so a traceback through the kernel
    shows the generated line.  The serial makes the entry this
    compile's own (two live models of one spec do not share it) and
    stays out of the source, which remains a pure function of the spec;
    the entry goes when ``owner`` (the model holding ``run``) does, so
    a long-lived worker does not keep the text of every spec it ever ran.
    """
    filename = f"<fluid kernel {name!r} #{next(_serial)}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    weakref.finalize(owner, linecache.cache.pop, filename, None)
    namespace: Dict[str, object] = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["run"]  # type: ignore[return-value]
