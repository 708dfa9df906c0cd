"""``benchmarks/rebaseline_gate.py``: its statistics and its pass/fail rule.

The script is stdlib only, so its Student t distribution is hand-written;
it is checked here against scipy.  The rule is checked on synthetic
collections: identical files pass, a shifted cell fails through Holm, a
flipped Theorem I/II verdict fails on its own.
"""

from __future__ import annotations

import copy
import importlib.util
import random
from pathlib import Path

import pytest
from scipy import stats

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "rebaseline_gate.py"
_spec = importlib.util.spec_from_file_location("rebaseline_gate", _PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


@pytest.mark.parametrize("df", [1, 2, 4, 7.3, 30])
def test_t_distribution_matches_scipy(df):
    for t in (0.0, 0.1, 1.0, 1.963, 2.776, 5.0, 20.0):
        assert gate.t_sf2(t, df) == pytest.approx(2 * stats.t.sf(t, df),
                                                  abs=1e-10)
    assert gate.t_quantile(0.975, df) == pytest.approx(stats.t.ppf(0.975, df),
                                                       abs=1e-8)


def test_welch_matches_scipy():
    rng = random.Random(1)
    for _ in range(50):
        a = [rng.gauss(0, 1) for _ in range(5)]
        b = [rng.gauss(0.5, 2) for _ in range(5)]
        assert gate.welch_p(a, b) == pytest.approx(
            stats.ttest_ind(a, b, equal_var=False).pvalue, abs=1e-9)
    assert gate.welch_p([1.0, 1.0], [1.0, 1.0]) == 1.0
    assert gate.welch_p([1.0, 1.0], [2.0, 2.0]) == 0.0


def test_holm_steps_down_and_stops():
    pvalues = {"a": 0.001, "b": 0.02, "c": 0.03, "d": 0.5}
    # 0.001 <= 0.05/4, 0.02 > 0.05/3: stop there, c is not tested
    assert gate.holm(pvalues, 0.05) == {"a": True, "b": False, "c": False,
                                        "d": False}


def test_chance_exit_probability_at_five_seeds():
    # B's mean leaves A's 95 % CI about one time in eight with 5 + 5 seeds
    assert gate.chance_exit_probability(5, 5) == pytest.approx(
        2 * stats.t.sf(stats.t.ppf(0.975, 4) / 2 ** 0.5, 4), abs=1e-9)


def _collection(shift=0.0, rla=None):
    rng = random.Random(7)
    cells = {f"fig7/case{case}/RLA/throughput_pps":
             [100.0 + rng.gauss(0, 5) for _ in range(5)] for case in (1, 2, 3)}
    cells["fig7/case1/RLA/throughput_pps"] = [
        value + shift for value in cells["fig7/case1/RLA/throughput_pps"]]
    run = {"gateway": "droptail", "rla_pps": rla or [100.0] * 5,
           "wtcp_pps": [60.0] * 5, "num_trouble": [5] * 5}
    return {"seeds": [1, 2, 3, 4, 5], "duration": 60.0, "warmup": 20.0,
            "cells": cells, "runs": {"fig7/case1": run}}


def test_identical_collections_pass(capsys):
    assert gate.compare(_collection(), copy.deepcopy(_collection()))
    out = capsys.readouterr().out
    assert "gate PASS" in out
    assert "expected by chance alone" in out


def test_a_shifted_cell_fails(capsys):
    assert not gate.compare(_collection(), _collection(shift=60.0))
    out = capsys.readouterr().out
    assert "! cell fig7/case1/RLA/throughput_pps" in out
    assert "gate FAIL: 1 of 3 cells rejected" in out


def test_a_flipped_verdict_fails(capsys):
    # drop-tail, n = 5: Theorem II's upper bound is 2n = 10 x WTCP
    greedy = _collection(rla=[1000.0] * 5)
    assert not gate.compare(_collection(), greedy)
    assert "! verdict fig7/case1 differs" in capsys.readouterr().out
