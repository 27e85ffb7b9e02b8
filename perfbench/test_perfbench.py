"""Tests for the benchmark's own arithmetic and tracer.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

import stats
import tracer
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = [float(x) for x in range(1, 26)]  # 25 samples, shuffled below
    samples = samples[::2] + samples[1::2]
    value, pct, beyond = stats.tail(samples)
    assert value == 15.0
    assert pct == pytest.approx(60.0)
    assert beyond == 10
    assert sum(1 for x in samples if x > value) == 10


def test_tail_with_100_samples_is_p90():
    value, pct, _ = stats.tail([float(x) for x in range(100)])
    assert (value, pct) == (89.0, 90.0)


def test_tail_below_twenty_samples_falls_back_to_the_median():
    assert stats.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)
    assert stats.tail([float(x) for x in range(19)]) == (9.0, 50.0, 9)
    assert stats.tail([float(x) for x in range(20)]) == (9.0, 50.0, 10)
    assert stats.tail([float(x) for x in range(21)]) == (10.0, 100.0 * 11 / 21, 10)


def test_failed_ratio_counts_uncertified_and_raised_solves():
    outcomes = ["ok", "ok", "uncertified", "raised ValueError: x", "ok", "exit code 2", "ok", "ok"]
    assert stats.failed_ratio(outcomes) == 3 / 8
    assert stats.failed_ratio(["ok"] * 5) == 0.0
    with pytest.raises(ValueError):
        stats.failed_ratio([])


def test_self_time_subtracts_nested_children():
    spans = [
        ("root", "cli", 0.0, 10.0, -1),
        ("a", "solvers", 1.0, 4.0, 0),
        ("b", "operators", 2.0, 3.0, 1),
        ("c", "energy", 5.0, 6.5, 0),
    ]
    assert stats.self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])


def test_self_time_merges_overlapping_children():
    spans = [
        ("p", "x", 0.0, 10.0, -1),
        ("c1", "x", 1.0, 5.0, 0),
        ("c2", "x", 4.0, 7.0, 0),
        ("c3", "x", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic_in_the_seed(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    first = workloads.generate(name, 7)
    assert all(workloads.ref_key(i) for i in first)


def test_seeds_change_the_inputs():
    for name in ("eigen-n3", "mountain-pass", "coercive-sweep"):
        assert workloads.generate(name, 1) != workloads.generate(name, 2)


def test_cycles_cover_every_stratum():
    inputs = workloads.generate("eigen-n3", 3)
    k = workloads.EIGEN_N3_STRATA
    lo, hi = workloads.EIGEN_N3_WIDTHS
    for c in range(0, len(inputs), k):
        strata = sorted(int((i["width"] - lo) / (hi - lo) * k) for i in inputs[c:c + k])
        assert strata == list(range(k))
    sweep = workloads.generate("coercive-sweep", 3)
    cycle = len(workloads.SWEEP_GAMMAS) * len(workloads.SWEEP_STARTS)
    assert sorted((i["gamma"], i["start"]) for i in sweep[:cycle]) == sorted(
        (g, st) for g in workloads.SWEEP_GAMMAS for st in workloads.SWEEP_STARTS
    )


def test_tracer_spans_a_cli_solve_and_restores_bindings(tmp_path):
    sys.path.insert(0, str(SRC))
    import fcs.cli
    import fcs.energy
    import fcs.grid
    import fcs.solvers

    originals = (fcs.cli.cli_main, fcs.energy.apply_A, fcs.solvers.apply_A, fcs.solvers.np, fcs.grid.RadialGrid.transform)
    t = tracer.Tracer()
    t.begin_solve()
    t.install()
    try:
        assert fcs.energy.apply_A is fcs.solvers.apply_A is not originals[1]
        argv = ["eigen1", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "64",
                "--out", str(tmp_path / "o.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert fcs.cli.cli_main(argv) == 0
    finally:
        t.uninstall()
    assert (fcs.cli.cli_main, fcs.energy.apply_A, fcs.solvers.apply_A, fcs.solvers.np,
            fcs.grid.RadialGrid.transform) == originals
    per = t.reduce(3, 64)
    assert t.spans[0][0] == "cli.cli_main" and t.spans[0][4] == -1
    assert per["grid.grids_per_solve"] == 1
    assert per["solvers.iterations"] > 0
    assert per["solvers.dense_solve.calls"] >= 1
    assert per["grid.transform.calls"] > 0 and per["operators.riesz_matvec.calls"] > 0
    selfs = stats.self_times([tuple(s) for s in t.spans])
    root = t.spans[0]
    assert sum(selfs) == pytest.approx(root[3] - root[2], rel=1e-9)
