"""End-to-end determinism: identical seeds replay identical runs.

The paper-style A/B experiments (eta sweeps, forced-cut ablation, RED vs
drop-tail) are only meaningful if a seed pins down the entire run, so
this is a load-bearing property of the whole stack, not a nicety.
"""

from repro.rla.config import RLAConfig
from repro.rla.session import RLASession
from repro.sim.engine import Simulator
from repro.tcp.config import TcpConfig
from repro.tcp.flow import TcpFlow
from repro.topology.restricted import RestrictedSpec, build_restricted
from repro.units import pps_to_bps, transmission_time


def _run(seed):
    spec = RestrictedSpec(mu_pps=[200, 200])
    sim = Simulator(seed=seed)
    net, receivers = build_restricted(sim, spec)
    jitter = transmission_time(1000, pps_to_bps(200))
    flows = [
        TcpFlow(sim, net, f"tcp-{i}", "S", receiver,
                config=TcpConfig(phase_jitter=jitter))
        for i, receiver in enumerate(receivers)
    ]
    session = RLASession(sim, net, "rla-0", "S", receivers,
                         config=RLAConfig(phase_jitter=jitter))
    for i, flow in enumerate(flows):
        flow.start(0.1 * i)
    session.start(0.05)
    sim.run(until=30.0)
    fingerprint = (
        sim.events_executed,
        session.sender.snd_nxt,
        session.sender.max_reach_all,
        session.sender.window_cuts,
        session.sender.congestion_signals,
        round(session.sender.cwnd, 9),
        tuple(flow.sender.snd_nxt for flow in flows),
        tuple(flow.sender.window_cuts for flow in flows),
        tuple(round(flow.sender.cwnd, 9) for flow in flows),
    )
    return fingerprint


def test_same_seed_bitwise_identical():
    assert _run(1234) == _run(1234)


def test_different_seed_diverges():
    assert _run(1234) != _run(4321)


# ----------------------------------------------------------------------
# execution-mode byte identity (PR 4): the hot-path fast paths must not
# depend on how a run is executed or observed.
# ----------------------------------------------------------------------
def _strip_audit(rows):
    import copy

    rows = copy.deepcopy(rows)
    for row in rows:
        row["sim_stats"].pop("audit_checks", None)
        row["sim_stats"].pop("violations", None)
    return rows


def test_sweep_serial_parallel_audited_byte_identical():
    import pickle

    from repro.experiments.sweeps import sweep

    kwargs = dict(duration=6.0, warmup=2.0, seed=11)
    serial = sweep("n_receivers", (2,), **kwargs)
    parallel = sweep("n_receivers", (2,), workers=2, **kwargs)
    audited = sweep("n_receivers", (2,), audited=True, **kwargs)
    assert audited[0]["sim_stats"]["audit_checks"] > 0
    blob = pickle.dumps(serial)
    assert blob == pickle.dumps(parallel)
    assert blob == pickle.dumps(_strip_audit(audited))
