import importlib
import inspect
import json
import math
import os
import pkgutil
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fcs
from fcs import ProblemParams, make_grid, operators
from fcs.cli import _build_parser, cli_main
from fcs.config import ConfigError, parse_config
from fcs.energy import DegenerateSeedError, _Ray, critical_family, pure_power
from fcs.io import (
    FieldFormatError,
    emit_branch_csv,
    envelope_to_json,
    load_field,
    make_envelope,
    save_field,
    strip_runtime,
)
from fcs.solvers import BranchRow

from conftest import smooth_random_field


# ---------------------------------------------------------------------------
# FCSF binary format
# ---------------------------------------------------------------------------

def test_field_round_trip_bit_exact(tmp_path, grid_small):
    rng = np.random.default_rng(3)
    u = smooth_random_field(grid_small, rng)
    path = tmp_path / "u.fld"
    save_field(u, path)
    v = load_field(path)
    assert v.grid.same_as(u.grid)
    assert np.array_equal(v.values, u.values)  # bit exact
    # and the serialized bytes themselves are reproducible
    save_field(v, tmp_path / "v.fld")
    assert (tmp_path / "u.fld").read_bytes() == (tmp_path / "v.fld").read_bytes()


@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=16, max_size=16))
@settings(max_examples=30, deadline=None)
def test_field_round_trip_property(tmp_path_factory, values):
    grid = make_grid(ProblemParams(3, 0.75, 2.0), 10.0, 16)
    u = grid.field(np.array(values))
    path = tmp_path_factory.mktemp("fld") / "x.fld"
    save_field(u, path)
    assert np.array_equal(load_field(path).values, u.values)


def test_field_rejects_corrupt_magic(tmp_path, grid_small):
    u = grid_small.field(np.exp(-grid_small.r ** 2))
    path = tmp_path / "u.fld"
    save_field(u, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError, match="magic"):
        load_field(path)


def test_field_rejects_wrong_version(tmp_path, grid_small):
    u = grid_small.field(np.exp(-grid_small.r ** 2))
    path = tmp_path / "u.fld"
    save_field(u, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 2)
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError, match="unsupported version"):
        load_field(path)


def test_field_rejects_truncation_and_nan(tmp_path, grid_small):
    u = grid_small.field(np.exp(-grid_small.r ** 2))
    path = tmp_path / "u.fld"
    save_field(u, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FieldFormatError, match="truncated"):
        load_field(path)
    bad = bytearray(raw)
    bad[44:52] = struct.pack("<d", math.nan)
    path.write_bytes(bytes(bad))
    with pytest.raises(FieldFormatError, match="non-finite"):
        load_field(path)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

GOOD_CFG = """
[params]
N = 3
s = 0.75
alpha = 2.0

[grid]
R = 20.0
M = 64

[nonlinearity]
term = power coef=1.0 q=2.7

[solver]
method = minimize
tol = 1e-6

[output]
json = out.json
"""


def test_config_parses_and_echoes():
    cfg = parse_config(GOOD_CFG, source="test.cfg")
    assert cfg.N == 3 and cfg.M == 64 and cfg.method == "minimize"
    echo = cfg.echo()
    assert echo["params"]["s"] == 0.75
    assert echo["nonlinearity"][0]["kind"] == "PowerTerm"
    assert echo["output"]["json"] == "out.json"
    assert cfg.problem() == ProblemParams(3, 0.75, 2.0)


def test_config_rejects_unknown_key_with_line():
    text = "[params]\nN = 3\nbogus = 1\n"
    with pytest.raises(ConfigError, match=r"test\.cfg:3: unknown key 'bogus'"):
        parse_config(text, source="test.cfg")


def test_config_rejects_the_removed_path_nodes_key(tmp_path, capsys):
    text = GOOD_CFG.replace("tol = 1e-6\n", "tol = 1e-6\npath_nodes = 21\n")
    with pytest.raises(ConfigError, match=r"unknown key 'path_nodes' in \[solver\]"):
        parse_config(text, source="test.cfg")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli_main(["solve", "--config", str(cfg)]) == 1
    capsys.readouterr()


def test_config_rejects_unknown_section():
    with pytest.raises(ConfigError, match=r":1: unknown section"):
        parse_config("[wat]\n", source="t")


def test_config_rejects_bad_value():
    with pytest.raises(ConfigError, match=r"t:2: cannot parse"):
        parse_config("[params]\nN = three\n", source="t")


def test_config_rejects_unknown_method():
    with pytest.raises(ConfigError, match="unknown solver method"):
        parse_config("[solver]\nmethod = magic\n", source="t")


def test_config_rejects_unknown_sweep_method(tmp_path, capsys):
    # a misspelt sweep method is invalid input (exit 1), caught when the
    # config is parsed, not a sweep of failed rows (exit 2)
    text = (
        "[params]\nN = 3\ns = 0.75\nalpha = 2.0\n[grid]\nR = 20.0\nM = 64\n"
        "[nonlinearity]\nterm = power coef=1.0 q=2.7\n"
        "[solver]\nsweep_term = 0\nsweep_from = 0.5\nsweep_to = 1.5\nsweep_steps = 2\nsweep_method = minimise\n"
    )
    with pytest.raises(ConfigError, match=r"run\.cfg: unknown sweep method 'minimise'"):
        parse_config(text, source="run.cfg")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli_main(["sweep", "--config", str(cfg)]) == 1
    # the flag is checked with the config it overrides, before any work
    cfg.write_text(text.replace("minimise", "minimize"))
    assert cli_main(["sweep", "--config", str(cfg), "--sweep-method", "minimise"]) == 1
    err = capsys.readouterr().err
    assert "unknown sweep method 'minimise'" in err
    assert "Traceback" not in err


def test_config_requires_explicit_parameters():
    cfg = parse_config("[params]\nN = 3\n", source="t")
    with pytest.raises(ConfigError, match="missing required"):
        cfg.problem()


def test_config_damped_and_weighted_terms(tmp_path):
    np.savetxt(tmp_path / "w.txt", np.ones(64))
    text = (
        "[grid]\nR = 20.0\nM = 64\n"
        "[nonlinearity]\n"
        "term = damped coef=1.5 q=2.8 gamma=0.3\n"
        "term = weighted coef=1.0 q=2.7 weight=w.txt\n"
    )
    cfg = parse_config(text, source=str(tmp_path / "t.cfg"), base_dir=tmp_path)
    assert len(cfg.terms) == 2
    assert cfg.terms[0].gamma == 0.3
    assert len(cfg.terms[1].weight) == 64


def test_config_rejects_malformed_term():
    with pytest.raises(ConfigError, match="unknown term kind"):
        parse_config("[nonlinearity]\nterm = cubic coef=1\n", source="t")
    with pytest.raises(ConfigError, match="missing q"):
        parse_config("[nonlinearity]\nterm = power coef=1\n", source="t")
    with pytest.raises(ConfigError, match="unknown term key"):
        parse_config("[nonlinearity]\nterm = power coef=1 q=2.7 zap=3\n", source="t")


# ---------------------------------------------------------------------------
# branch CSV
# ---------------------------------------------------------------------------

def test_branch_csv_round_trip():
    import csv as _csv
    import io as _io

    rows = [BranchRow(1.0, -0.52, 1.2, 0.3, 2.5, 1e-9, True, 12)]
    text = emit_branch_csv(rows)
    parsed = list(_csv.reader(_io.StringIO(text)))
    assert parsed[0] == ["param", "energy", "I", "J", "multiplier", "residual", "converged"]
    assert float(parsed[1][0]) == 1.0
    assert float(parsed[1][1]) == -0.52
    assert parsed[1][6] == "true"


def test_branch_csv_empty_table():
    text = emit_branch_csv([])
    assert text == "param,energy,I,J,multiplier,residual,converged\r\n"


def test_branch_csv_nan_is_empty_cell():
    rows = [BranchRow(2.0, math.nan, math.nan, math.nan, None, math.nan, False, 0)]
    lines = emit_branch_csv(rows).splitlines()
    assert lines[1] == "2.0,,,,,,false"


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def test_envelope_round_trip_and_runtime_isolation():
    env = make_envelope({"a": 1}, {"r": 2.5}, 0.125)
    text = envelope_to_json(env)
    data = json.loads(text)
    assert envelope_to_json(data) == text  # lossless round trip
    assert "runtime" in data
    canonical = strip_runtime(text)
    assert "runtime" not in json.loads(canonical)


def test_envelope_runtime_records_the_numerics_build(monkeypatch):
    # the last bits of a result depend on the numpy/scipy/BLAS build and the
    # thread cap, so the volatile block names them
    import scipy

    monkeypatch.setenv("FCS_THREADS", "1")
    runtime = make_envelope({}, {}, 0.0)["runtime"]
    assert (runtime["numpy"], runtime["scipy"]) == (np.__version__, scipy.__version__)
    assert runtime["blas"] and "unknown" not in runtime["blas"]
    assert runtime["fcs_threads"] == "1"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_fcs_threads_caps_the_pools_before_numpy_loads():
    # `import fcs` sets the BLAS/OpenMP variables before numpy comes in, so
    # a matmul afterwards runs in the process's one thread
    src = str(Path(fcs.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(FCS_THREADS="1", PYTHONPATH=src)
    code = (
        "import os, fcs, numpy as np; a = np.ones((600, 600)); a @ a; "
        "print(len(os.listdir('/proc/self/task')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "1"


DEFERRED = ("scipy.optimize", "scipy.interpolate", "scipy.fft", "scipy.special")

# a fresh interpreter imports the CLI, then runs one command through
# cli_main, and prints the deferred packages loaded after each step
_STARTUP = """
import contextlib, io, json, sys
from fcs.cli import cli_main
imported = sorted(m for m in DEFERRED if m in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli_main(sys.argv[1:])
print(json.dumps([rc, imported, sorted(m for m in DEFERRED if m in sys.modules)]))
"""


def _deferred_loads(argv, cwd):
    """The deferred packages a fresh ``fcs`` run of ``argv`` has loaded once
    the command has run; asserts that importing the CLI loads none."""
    src = str(Path(fcs.__file__).resolve().parents[1])
    env = {**os.environ, "FCS_THREADS": "1", "PYTHONPATH": src}
    code = f"DEFERRED = {DEFERRED!r}\n{_STARTUP}"
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, env=env, check=True, capture_output=True, text=True
    )
    rc, imported, loaded = json.loads(out.stdout.splitlines()[-1])
    assert rc == 0
    assert imported == [], argv
    return set(loaded)


def test_a_cli_run_loads_only_the_scipy_it_executes(tmp_path):
    # scipy.optimize (brentq), scipy.interpolate (PchipInterpolator) and
    # scipy.special (Bessel functions, the Beta function) are imported where
    # they are used, and fcs's FFTs are numpy's: an N = 3 eigen1, below the
    # dense cutoff or above it (where Newton runs fcs's own GMRES), and an
    # N = 3 sobolev load none of them ...
    grid = ["--s", "0.75", "--alpha", "2", "--R", "20"]
    above = str(operators._DENSE_MAX_M + 1)
    for argv in (
        ["eigen1", "--N", "3", *grid, "--M", "64"],
        ["eigen1", "--N", "3", *grid, "--M", above],
        ["sobolev", "--N", "3", *grid, "--M", "64"],
    ):
        assert _deferred_loads(argv, tmp_path) == set(), argv
    # ... N = 4 loads scipy.special for the Fourier-Bessel transform ...
    assert _deferred_loads(["eigen1", "--N", "4", *grid, "--M", "64"], tmp_path) == {"scipy.special"}
    # ... and each deferred path loads its own package on first use
    (tmp_path / "mp.cfg").write_text(
        "[params]\nN = 3\ns = 0.8\nalpha = 2.0\n[grid]\nR = 20.0\nM = 64\n"
        "[nonlinearity]\nterm = power coef=1.0 q=4.1\n[solver]\nmethod = mountain-pass\n"
    )
    for argv, pkg in [
        (["solve", "--config", "mp.cfg"], "scipy.optimize"),
        (["scaling-check", "--N", "3", *grid, "--M", "64"], "scipy.interpolate"),
    ]:
        assert pkg in _deferred_loads(argv, tmp_path), argv


def test_envelopes_look_up_the_commit_once(monkeypatch):
    from fcs import io

    calls = {"run": 0}
    run = io.subprocess.run

    def counting(*args, **kwargs):
        calls["run"] += 1
        return run(*args, **kwargs)

    io._commit_hash.cache_clear()
    monkeypatch.setattr(io.subprocess, "run", counting)
    first = make_envelope({"a": 1}, {"r": 2.5}, 0.125)
    second = make_envelope({"a": 2}, {"r": 3.5}, 0.25)
    assert calls["run"] == 1
    assert first["tool"]["commit"] == second["tool"]["commit"]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_commit_is_none_for_a_copy_another_repository_does_not_track(tmp_path, monkeypatch):
    # the package copied into lib/ of an unrelated repository: that
    # repository's HEAD is not this code's commit until lib/ is committed
    from fcs import io

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True, text=True,
        ).stdout.strip()

    git("init", "-q", ".")
    git("commit", "-q", "--allow-empty", "-m", "unrelated")
    lib = tmp_path / "lib" / "fcs"
    lib.mkdir(parents=True)
    shutil.copy(io.__file__, lib / "io.py")
    monkeypatch.setattr(io, "__file__", str(lib / "io.py"))
    try:
        io._commit_hash.cache_clear()
        assert io._commit_hash() is None
        git("add", "lib")
        git("commit", "-q", "-m", "vendor fcs")
        io._commit_hash.cache_clear()
        assert io._commit_hash() == git("rev-parse", "HEAD")
    finally:
        io._commit_hash.cache_clear()


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

def test_cli_exponents_json(capsys):
    rc = cli_main(["exponents", "--N", "3", "--s", "0.75", "--alpha", "2", "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert math.isclose(out["theta"], 1.75, rel_tol=1e-12)
    assert math.isclose(out["two_star_s_alpha"], 20.0 / 7.0, rel_tol=1e-9)
    assert math.isclose(out["p_rad"], 28.0 / 11.0, rel_tol=1e-9)


def test_cli_exponents_table(tmp_path, capsys):
    out = tmp_path / "exps.txt"
    rc = cli_main(["exponents", "--N", "3", "--s", "0.75", "--alpha", "2", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert out.read_text() == text
    rows = {k.strip(): v for k, v in (line.split(" = ") for line in text.splitlines())}
    assert list(rows) == ["theta", "sigma", "p_rad", "two_star_s", "two_star_s_alpha", "c_alpha", "regime"]
    assert len({line.index("=") for line in text.splitlines()}) == 1  # one column
    assert rows["theta"] == "1.75"
    assert rows["two_star_s_alpha"] == f"{20.0 / 7.0:.12g}"
    assert rows["regime"] == "above"


def test_cli_exponents_rejects_bad_params(capsys):
    rc = cli_main(["exponents", "--N", "3", "--s", "0.25", "--alpha", "2", "--json"])
    assert rc == 1
    assert "degenerate" in capsys.readouterr().err


def test_cli_eigen1_writes_outputs(tmp_path, capsys):
    out = tmp_path / "r.json"
    fld = tmp_path / "u.fld"
    rc = cli_main(
        [
            "eigen1",
            "--N", "3", "--s", "0.75", "--alpha", "2",
            "--R", "20", "--M", "64",
            "--out", str(out), "--field", str(fld),
        ]
    )
    assert rc == 0
    env = json.loads(out.read_text())
    assert env["report"]["converged"] is True
    assert env["report"]["multiplier"] > 0
    u = load_field(fld)
    assert u.grid.M == 64
    capsys.readouterr()


def test_cli_check_pohozaev_on_saved_field(tmp_path, capsys):
    fld = tmp_path / "u.fld"
    out = tmp_path / "r.json"
    assert cli_main(
        ["eigen1", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "64",
         "--out", str(out), "--field", str(fld)]
    ) == 0
    lam = json.loads(out.read_text())["report"]["multiplier"]
    capsys.readouterr()
    rc = cli_main(["check", "pohozaev", "--field", str(fld), "--lambda", str(lam)])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert set(rec) >= {"pohozaev_lhs", "pohozaev_rhs", "pohozaev_rel", "nehari"}
    rc = cli_main(["check", "identity", "--field", str(fld), "--lambda", str(lam)])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert "eigen_identity_rel" in rec
    # the record is always JSON: no --json flag
    assert cli_main(["check", "identity", "--field", str(fld), "--lambda", str(lam), "--json"]) == 1
    capsys.readouterr()


def test_cli_solve_minimize_with_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[params]\nN = 3\ns = 0.75\nalpha = 2.0\n"
        "[grid]\nR = 20.0\nM = 64\n"
        "[nonlinearity]\nterm = power coef=1.0 q=2.7\n"
        "[solver]\nmethod = minimize\n"
        f"[output]\njson = {tmp_path / 'min.json'}\n"
    )
    rc = cli_main(["solve", "--config", str(cfg)])
    assert rc == 0
    env = json.loads((tmp_path / "min.json").read_text())
    assert env["config"]["solver"]["method"] == "minimize"
    capsys.readouterr()


def test_cli_exit_code_two_on_nonconvergence(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = cli_main(
        ["eigen1", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "64",
         "--tol", "1e-15", "--max-iter", "1", "--out", str(out)]
    )
    capsys.readouterr()
    assert rc == 2
    env = json.loads(out.read_text())  # results still written
    assert env["report"]["converged"] is False


def test_cli_mountain_pass_without_a_negative_ray_is_a_solver_failure(tmp_path, capsys):
    # q* < q = 3.43 < 4 = 2*_s: a^4 Q beats a^q along every amplitude ray, so
    # the endpoint search finds no negative action (exit 2, no traceback)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[params]\nN = 3\ns = 0.75\nalpha = 2.0\n"
        "[grid]\nR = 20.0\nM = 128\n"
        "[nonlinearity]\nterm = power coef=1.0 q=3.43\n"
        "[solver]\nmethod = mountain-pass\n"
    )
    assert cli_main(["solve", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ")
    assert "Traceback" not in err


def test_cli_seed_that_underflows_is_a_solver_failure(tmp_path, capsys):
    # h = 5.9: the width-0.23 Gaussian seed peaks at e^-654, so its S and Q
    # underflow to 0 and no amplitude puts it on {I = 1}
    rc = cli_main(
        ["eigen1", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "100", "--M", "16",
         "--seed-width", "0.23", "--out", str(tmp_path / "r.json")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("solver failure: degenerate seed")
    assert "Traceback" not in err


def test_cli_mountain_pass_endpoint_that_underflows_is_a_solver_failure(tmp_path, capsys):
    # h = 35: the width-1 Gaussian of the endpoint search is zero on every
    # node, so there is no endpoint: a solver failure (exit 2), not an
    # input error (exit 1) about an endpoint the user never gave
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[params]\nN = 3\ns = 0.8\nalpha = 2.0\n"
        "[grid]\nR = 600.0\nM = 16\n"
        "[nonlinearity]\nterm = power coef=1.0 q=4.1\n"
        "[solver]\nmethod = mountain-pass\n"
    )
    assert cli_main(["solve", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver failure: no endpoint")
    assert "Traceback" not in err


def test_cli_mountain_pass_with_the_wrong_growth_class_is_a_validation_error(tmp_path, capsys):
    # q = 2.5 is subscaled at s = 0.75: the growth check runs before the
    # endpoint search, so this is invalid input (exit 1), not a solver failure
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[params]\nN = 3\ns = 0.75\nalpha = 2.0\n"
        "[grid]\nR = 20.0\nM = 64\n"
        "[nonlinearity]\nterm = power coef=1.0 q=2.5\n"
        "[solver]\nmethod = mountain-pass\n"
    )
    assert cli_main(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mountain_pass requires")
    assert "Traceback" not in err


def test_cli_sweep_below_the_threshold_is_a_validation_error(tmp_path, capsys):
    # 4s + alpha = 2.7 < N = 5: refused before the first row, no CSV
    cfg = tmp_path / "run.cfg"
    csv_path = tmp_path / "branch.csv"
    cfg.write_text(
        "[params]\nN = 5\ns = 0.3\nalpha = 1.5\n"
        "[grid]\nR = 20.0\nM = 32\n"
        "[nonlinearity]\nterm = power coef=1.0 q=2.7\n"
        "[solver]\nmethod = sweep\nsweep_term = 0\nsweep_from = 0.5\nsweep_to = 1.5\nsweep_steps = 2\n"
        f"[output]\ncsv = {csv_path}\n"
    )
    assert cli_main(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solver-facing modules refuse parameters with 4s + alpha < N")
    assert "Traceback" not in err
    assert not csv_path.exists()


def test_cli_determinism(tmp_path, capsys):
    # identical config (including output paths) and seed: byte-identical
    # JSON once the volatile runtime block is dropped
    out = tmp_path / "r.json"
    args = ["eigen1", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "64",
            "--out", str(out)]
    texts = []
    for _ in range(2):
        assert cli_main(args) == 0
        texts.append(strip_runtime(out.read_text()))
    capsys.readouterr()
    assert texts[0] == texts[1]


def test_cli_parser_reuse_leaks_nothing(tmp_path, capsys):
    # one parser serves every call in a process: a flag given in one call is
    # not a default in the next, and no default is mutated
    grid = ["--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "64"]
    out = tmp_path / "r.json"
    texts = []
    for tol in (["--tol", "1e-3"], []):
        assert cli_main(["eigen1", *grid, *tol, "--out", str(out)]) == 0
        texts.append(strip_runtime(out.read_text()))
    assert cli_main(["scaling-check", *grid]) == 0
    capsys.readouterr()
    assert _build_parser() is _build_parser()
    assert _build_parser().parse_args(["scaling-check"]).t == (0.5, 0.8, 1.25, 2.0)
    src = str(Path(fcs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys; from fcs.cli import cli_main; sys.exit(cli_main({['eigen1', *grid, '--out', str(out)]!r}))"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)
    assert texts[0] != texts[1]
    assert texts[1] == strip_runtime(out.read_text())


def test_cli_eigen1_small_sigma_converges(tmp_path, capsys):
    # sigma = 4s + alpha - N = 0.002: J is nearly flat along dilations, but
    # the amplitude ray still reaches {I = 1} and the ascent converges (at
    # sigma ~ 0 the state may depend on the ball)
    out = tmp_path / "r.json"
    rc = cli_main(
        ["eigen1", "--N", "3", "--s", "0.442", "--alpha", "1.234", "--R", "20", "--M", "128",
         "--out", str(out)]
    )
    assert "Traceback" not in capsys.readouterr().err
    assert rc == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["converged"] is True
    assert abs(rep["I"] - 1.0) <= 1e-8
    assert abs(rep["multiplier"] - 2.946597782285463) <= 1e-12 * 2.946597782285463


def test_cli_eigen1_wide_seed_reaches_the_width1_state(tmp_path, capsys):
    # a seed of width 5 at R = 20: no dilation is needed to reach {I = 1},
    # so nothing reads past the cutoff; the multiplier is the width-1 one
    out = tmp_path / "r.json"
    rc = cli_main(
        ["eigen1", "--N", "4", "--s", "0.75", "--alpha", "2.5", "--R", "20", "--M", "64",
         "--seed-width", "5", "--out", str(out)]
    )
    assert "Traceback" not in capsys.readouterr().err
    assert rc == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["converged"] is True
    assert abs(rep["multiplier"] - 2.818926174990945) <= 1e-10 * 2.818926174990945


@pytest.mark.parametrize("width", ["0", "-1", "inf", "nan"])
def test_cli_eigen1_rejects_an_invalid_seed_width(width, capsys):
    # a zero width is no seed and a negative one used to solve as its
    # absolute value: both are invalid input (exit 1), not a solver failure
    rc = cli_main(
        ["eigen1", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "64",
         "--seed-width", width]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "seed width" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_cli_eigen1_rejects_an_invalid_tolerance(tol, capsys):
    # res <= inf holds for any residual, so an infinite tolerance would
    # certify whatever Newton reached: invalid input (exit 1)
    rc = cli_main(
        ["eigen1", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "64",
         "--tol", tol]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "tolerance must be finite and positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["eigen1", "--N", "x"], id="bad-value"),
        pytest.param(["eigenl", "--N", "3"], id="unknown-command"),
        pytest.param(["eigen1", "--N", "3", "--bogus", "1"], id="unknown-flag"),
    ],
)
def test_cli_usage_errors_exit_as_validation_errors(argv, capsys):
    # exit 2 is reserved for solver non-convergence
    assert cli_main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_cli_scaling_check(capsys):
    rc = cli_main(
        ["scaling-check", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "96", "--json"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    for row in data["rows"]:
        assert abs(row["I_ratio_err"]) < 1e-3
        assert abs(row["J_ratio_err"]) < 1e-3
    assert data["scale_identity_err"] == 0.0


def test_cli_scaling_check_evaluates_each_field_once(capsys, monkeypatch):
    # one kernel matvec for the base field and one for each of the four
    # default dilations: Phi_1 is read off the I and J already computed
    calls = []
    sym_potential = operators._RieszKernel.sym_potential
    monkeypatch.setattr(operators._RieszKernel, "sym_potential", lambda k, v: calls.append(1) or sym_potential(k, v))
    assert cli_main(["scaling-check", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "96"]) == 0
    capsys.readouterr()
    assert len(calls) == 5


def test_cli_scaling_check_runs_without_the_fiber_projection(capsys, monkeypatch):
    # the dilation laws and scale(u, 1) = u are read on the seed field itself;
    # no module may reach the root solve onto {I = 1}
    def refuse(*args, **kwargs):
        raise AssertionError("scaling-check must not project")

    binders = [m for name, m in sys.modules.items() if name.split(".")[0] == "fcs" and hasattr(m, "project_to_M")]
    assert binders
    for module in binders:
        monkeypatch.setattr(module, "project_to_M", refuse)
    rc = cli_main(
        ["scaling-check", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "96", "--json"]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["scale_identity_err"] == 0.0


@pytest.mark.parametrize(
    "t, word",
    [
        pytest.param("1e200", "overflows", id="1e200"),  # t^theta overflows
        pytest.param("1e160", "overflows", id="1e160"),  # only t^sigma overflows
        pytest.param("1e-200", "underflows", id="1e-200"),  # t^sigma underflows to 0
    ],
)
def test_cli_scaling_check_overflow_is_a_validation_error(t, word, capsys):
    rc = cli_main(
        ["scaling-check", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "64",
         "--t", t, "--json"]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert word in err
    assert "Traceback" not in err


def test_cli_sweep_csv(tmp_path, capsys, monkeypatch):
    import fcs.cli

    grids = []

    def counting_make_grid(*args):
        grids.append(make_grid(*args))
        return grids[-1]

    monkeypatch.setattr(fcs.cli, "make_grid", counting_make_grid)
    cfg = tmp_path / "run.cfg"
    csv_path = tmp_path / "branch.csv"
    cfg.write_text(
        "[params]\nN = 3\ns = 0.75\nalpha = 2.0\n"
        "[grid]\nR = 20.0\nM = 64\n"
        "[nonlinearity]\nterm = power coef=1.0 q=2.7\n"
        "[solver]\nmethod = sweep\nsweep_term = 0\nsweep_from = 0.5\nsweep_to = 1.5\nsweep_steps = 2\nsweep_method = minimize\n"
        f"[output]\ncsv = {csv_path}\n"
    )
    rc = cli_main(["solve", "--config", str(cfg)])
    assert rc == 0
    assert len(grids) == 1  # the sweep's own grid, no unused one before it
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "param,energy,I,J,multiplier,residual,converged"
    assert len(lines) == 3
    capsys.readouterr()


_SWEEP_CFG = (
    "[params]\nN = 3\ns = 0.75\nalpha = 2.0\n[grid]\nR = 20.0\nM = 64\n"
    "[nonlinearity]\nterm = power coef=1.0 q=2.7\n"
    "[solver]\nmethod = sweep\nsweep_term = 0\nsweep_from = 0.5\nsweep_to = 1.5\nsweep_steps = 2\n"
)


@pytest.mark.parametrize(
    "argv, text",
    [
        pytest.param(["solve", "--method", "bogus"], "run.cfg: unknown solver method 'bogus'", id="method"),
        pytest.param(["sweep", "--sweep-method", "minimise"], "run.cfg: unknown sweep method 'minimise'", id="sweep-method"),
    ],
)
def test_cli_rejects_bad_method_flags_before_a_grid(argv, text, tmp_path, capsys, monkeypatch):
    # flags are validated with the config they override, before any work
    import fcs.cli

    grids = []
    monkeypatch.setattr(fcs.cli, "make_grid", lambda *args: grids.append(args))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(_SWEEP_CFG)
    assert cli_main([*argv, "--config", "run.cfg"]) == 1
    err = capsys.readouterr().err
    assert f"error: {text}" in err and "Traceback" not in err
    assert grids == []


def test_cli_runs_every_configured_method():
    import fcs.cli
    import fcs.config

    assert set(fcs.cli._RUNNERS) == fcs.config._METHODS


def test_cli_sweep_out_names_the_csv_and_writes_no_envelope(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(_SWEEP_CFG + "[output]\njson = env.json\ncsv = cfg.csv\n")
    assert cli_main(["sweep", "--config", "run.cfg", "--out", "x.csv"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "x.csv"]
    assert (tmp_path / "x.csv").read_text().splitlines()[0] == "param,energy,I,J,multiplier,residual,converged"
    assert capsys.readouterr().out == (tmp_path / "x.csv").read_bytes().decode()


_EIGEN_FLAGS = ["--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "64"]
_EIGEN_CFG = "[params]\nN = 3\ns = 0.75\nalpha = 2.0\n[grid]\nR = 20.0\nM = 64\n"


@pytest.mark.parametrize(
    "argv, cfg",
    [
        pytest.param(["check", "pohozaev", "--field", "missing.fld", "--lambda", "2.5"], None, id="check-field"),
        pytest.param(["eigen1", *_EIGEN_FLAGS, "--out", "missing/o.json"], None, id="envelope-out"),
        pytest.param(
            ["solve", "--config", "run.cfg"],
            _EIGEN_CFG + "[solver]\nmethod = eigen1\nseed = file\nseed_file = missing.fld\n",
            id="seed-file",
        ),
        pytest.param(
            ["solve", "--config", "run.cfg"],
            _EIGEN_CFG + "[nonlinearity]\nterm = weighted coef=1.0 q=2.7 weight=missing.txt\n"
            "[solver]\nmethod = minimize\n",
            id="weight-file",
        ),
    ],
)
def test_cli_file_errors_exit_as_validation_errors(argv, cfg, tmp_path, capsys, monkeypatch):
    # a missing or unwritable file is invalid input: exit 1, no traceback
    monkeypatch.chdir(tmp_path)
    if cfg is not None:
        (tmp_path / "run.cfg").write_text(cfg)
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err
    assert "Traceback" not in err


def test_cli_sweep_of_mountain_passes(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    csv_path = tmp_path / "branch.csv"
    cfg.write_text(
        "[params]\nN = 3\ns = 0.8\nalpha = 2.0\n"
        "[grid]\nR = 20.0\nM = 64\n"
        "[nonlinearity]\nterm = power coef=1.0 q=4.1\n"
        "[solver]\nmethod = sweep\nsweep_method = mountain-pass\nsweep_term = 0\n"
        "sweep_from = 1.0\nsweep_to = 2.0\nsweep_steps = 3\n"
        f"[output]\ncsv = {csv_path}\n"
    )
    assert cli_main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    rows = csv_path.read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["true"] * 3
    levels = [float(row.split(",")[1]) for row in rows]
    # a stronger nonlinearity lowers the pass
    assert levels[0] > levels[1] > levels[2] > 0.0


def test_cli_mountain_pass_sweep_row_equals_the_single_solve(tmp_path, capsys):
    # a mountain-pass row takes its endpoint from the width-1 Gaussian ray,
    # not from the previous row, so the second row is the single solve at
    # its coefficient, bit for bit
    head = "[params]\nN = 3\ns = 0.8\nalpha = 2.0\n[grid]\nR = 20.0\nM = 64\n"
    (tmp_path / "sweep.cfg").write_text(
        head + "[nonlinearity]\nterm = power coef=1.0 q=4.1\n"
        "[solver]\nmethod = sweep\nsweep_method = mountain-pass\nsweep_term = 0\n"
        f"sweep_from = 1.0\nsweep_to = 2.0\nsweep_steps = 2\n[output]\ncsv = {tmp_path / 'branch.csv'}\n"
    )
    (tmp_path / "single.cfg").write_text(
        head + "[nonlinearity]\nterm = power coef=2.0 q=4.1\n"
        f"[solver]\nmethod = mountain-pass\n[output]\njson = {tmp_path / 'single.json'}\n"
    )
    assert cli_main(["solve", "--config", str(tmp_path / "sweep.cfg")]) == 0
    assert cli_main(["solve", "--config", str(tmp_path / "single.cfg")]) == 0
    capsys.readouterr()
    param, energy, I, _, _, residual, converged = (tmp_path / "branch.csv").read_text().splitlines()[2].split(",")
    rep = json.loads((tmp_path / "single.json").read_text())["report"]
    assert (float(param), converged) == (2.0, "true") and rep["converged"]
    assert (float(energy), float(I), float(residual)) == (rep["energy"], rep["I"], rep["residual_dual"])


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_sweep_without_rows_is_invalid_input(steps, tmp_path, capsys):
    # a sweep of no rows certifies nothing: invalid input (exit 1) naming the
    # setting, from the config parser and from the --steps flag alike
    head = (
        "[params]\nN = 3\ns = 0.75\nalpha = 2.0\n[grid]\nR = 20.0\nM = 64\n"
        "[nonlinearity]\nterm = power coef=1.0 q=2.7\n"
        "[solver]\nmethod = sweep\nsweep_term = 0\nsweep_from = 0.5\nsweep_to = 1.5\n"
    )
    with pytest.raises(ConfigError, match=f"run.cfg: sweep_steps must be at least 1, got {steps}"):
        parse_config(head + f"sweep_steps = {steps}\n", source="run.cfg")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(head + f"sweep_steps = {steps}\n")
    assert cli_main(["solve", "--config", str(cfg)]) == 1
    assert f"sweep_steps must be at least 1, got {steps}" in capsys.readouterr().err
    cfg.write_text(head + "sweep_steps = 2\n")
    assert cli_main(["sweep", "--config", str(cfg), "--steps", steps]) == 1
    assert f"sweep_steps must be at least 1, got {steps}" in capsys.readouterr().err
    flags = ["sweep", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "64",
             "--from", "0.5", "--to", "1.5", "--steps", steps]
    assert cli_main(flags) == 1
    assert f"<flags>: sweep_steps must be at least 1, got {steps}" in capsys.readouterr().err


def test_cli_sobolev(tmp_path, capsys):
    rc = cli_main(
        ["sobolev", "--N", "3", "--s", "0.5", "--alpha", "2", "--R", "10", "--M", "96"]
    )
    assert rc == 0
    env = json.loads(capsys.readouterr().out)
    assert env["report"]["sobolev_constant"] > 0
    assert env["report"]["ps_threshold"] > 0
    # method = sobolev under solve reports the same
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[params]\nN = 3\ns = 0.5\nalpha = 2.0\n[grid]\nR = 10.0\nM = 96\n"
        f"[solver]\nmethod = sobolev\n[output]\njson = {tmp_path / 'sob.json'}\n"
    )
    assert cli_main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "sob.json").read_text())["report"] == env["report"]
    # the envelope is always JSON: no --json flag
    assert cli_main(["sobolev", "--N", "3", "--s", "0.5", "--alpha", "2", "--json"]) == 1
    capsys.readouterr()


def test_cli_seed_file(tmp_path, capsys):
    # a stored field can seed a solve through the config
    fld = tmp_path / "seed.fld"
    out1 = tmp_path / "a.json"
    assert cli_main(
        ["eigen1", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "64",
         "--out", str(out1), "--field", str(fld)]
    ) == 0
    cfg = tmp_path / "warm.cfg"
    out2 = tmp_path / "b.json"
    cfg.write_text(
        "[params]\nN = 3\ns = 0.75\nalpha = 2.0\n"
        "[grid]\nR = 20.0\nM = 64\n"
        "[solver]\nmethod = eigen1\nseed = file\nseed_file = seed.fld\n"
        f"[output]\njson = {out2}\n"
    )
    assert cli_main(["solve", "--config", str(cfg)]) == 0
    a = json.loads(out1.read_text())["report"]["multiplier"]
    b = json.loads(out2.read_text())["report"]["multiplier"]
    assert math.isclose(a, b, rel_tol=1e-10)
    capsys.readouterr()


def test_config_rejects_bad_seed():
    from fcs.config import ConfigError, parse_config

    with pytest.raises(ConfigError, match="unknown seed kind"):
        parse_config("[solver]\nseed = banana\n", source="t")
    with pytest.raises(ConfigError, match="requires seed_file"):
        parse_config("[solver]\nseed = file\n", source="t")


@pytest.mark.parametrize(
    "what, lam",
    [pytest.param("pohozaev", "nan", id="pohozaev-nan"), pytest.param("identity", "inf", id="identity-inf")],
)
def test_cli_check_rejects_a_nonfinite_lambda(what, lam, tmp_path, capsys, grid_small):
    # JSON has no NaN or Infinity: a non-finite lambda is invalid input
    fld = tmp_path / "u.fld"
    save_field(grid_small.field(np.exp(-grid_small.r ** 2)), fld)
    assert cli_main(["check", what, "--field", str(fld), "--lambda", lam]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "lambda must be finite" in err


def test_json_payloads_write_nonfinite_numbers_as_null():
    # an array is written as the list it holds, so a NaN inside it is null
    # too, not the token NaN, which is no JSON
    payload = {"b": [1.5, float("nan")], "a": {"x": np.float64(np.inf), "y": -2}, "c": np.array([[np.nan], [2.0]])}
    assert json.loads(envelope_to_json(payload), parse_constant=pytest.fail) == {
        "a": {"x": None, "y": -2}, "b": [1.5, None], "c": [[None], [2.0]]
    }
    finite = {"b": [1.5, 1e-300], "a": {"x": 0.1, "y": None}}
    assert envelope_to_json(finite) == json.dumps(finite, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_cli_scaling_check_rejects_a_nonfinite_t(t, capsys):
    rc = cli_main(["scaling-check", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "64", "--t", t])
    err = capsys.readouterr().err
    assert rc == 1
    assert "requires positive finite t values" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "term, name",
    [
        pytest.param("power coef=nan q=2.7", "coef", id="coef-nan"),
        pytest.param("power coef=1.0 q=nan", "q", id="q-nan"),
        pytest.param("damped coef=1.0 q=2.7 gamma=nan", "gamma", id="gamma-nan"),
        pytest.param("damped coef=1.0 q=2.7 gamma=inf", "gamma", id="gamma-inf"),
    ],
)
def test_cli_rejects_a_nonfinite_term_value(term, name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(_EIGEN_CFG + f"[nonlinearity]\nterm = {term}\n[solver]\nmethod = minimize\n")
    assert cli_main(["solve", "--config", "run.cfg"]) == 1
    assert capsys.readouterr().err == f"error: run.cfg:9: bad value for {name}\n"


def _term_cfg(term: str) -> str:
    return _EIGEN_CFG + f"[nonlinearity]\nterm = {term}\n[solver]\nmethod = minimize\n"


_WEIGHTED = "weighted coef=1.0 q=2.7 weight=w.txt"
# case -> (run.cfg text or None, w.txt text or None, the start of stderr)
_CONFIG_EXITS = {
    "gamma-negative": (_term_cfg("damped coef=1.0 q=2.7 gamma=-1"), None,
                       "error: run.cfg:9: damping exponent gamma must be positive\n"),
    "weight-file-missing": (_term_cfg(_WEIGHTED), None, "error: run.cfg:9: "),
    "weight-file-garbled": (_term_cfg(_WEIGHTED), "1.0 abc\n", "error: run.cfg:9: weight profile w.txt: "),
    "weight-file-nan": (_term_cfg(_WEIGHTED), "nan\n" * 64, "error: run.cfg:9: weight profile w.txt has non-finite samples\n"),
    "empty-term": (_term_cfg(""), None, "error: run.cfg:9: empty term\n"),
    "malformed-token": (_term_cfg("power coef=1.0 q"), None, "error: run.cfg:9: malformed term token 'q'\n"),
    "unparsable-number": (_term_cfg("power coef=one q=2.7"), None, "error: run.cfg:9: bad value for coef\n"),
    "weight-key-missing": (_term_cfg("weighted coef=1.0 q=2.7"), None,
                           "error: run.cfg:9: weighted term requires weight=FILE\n"),
    "weight-length": (_term_cfg(_WEIGHTED), "1.0\n" * 10,
                      "error: run.cfg:9: weight profile has 10 samples, grid has M=64\n"),
    "entry-outside-section": ("N = 3\n" + _EIGEN_CFG, None, "error: run.cfg:1: entry outside of any section\n"),
    "line-without-equals": (_EIGEN_CFG + "[solver]\nmethod minimize\n", None, "error: run.cfg:9: expected key = value\n"),
    "config-path-unreadable": (None, None, "error: run.cfg: "),
}


@pytest.mark.parametrize("case", list(_CONFIG_EXITS))
def test_cli_config_errors_carry_their_anchor(case, tmp_path, capsys, monkeypatch):
    # every config error, the nonlinearity's own and the weight file's
    # included, is one line anchored at run.cfg (and the line where it has
    # one), exit 1, no traceback; nothing reaches a solver
    text, weights, start = _CONFIG_EXITS[case]
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "run.cfg").write_text(text)
    if weights is not None:
        (tmp_path / "w.txt").write_text(weights)
    assert cli_main(["solve", "--config", "run.cfg"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(start) and err.count("\n") == 1


def test_cli_minimize_with_a_weighted_term(tmp_path, capsys, monkeypatch):
    # the weight 1 + exp(-r^2) on the grid's nodes; no Pohozaev balance for
    # an x-dependent f
    monkeypatch.chdir(tmp_path)
    r = np.arange(1, 129) * 20.0 / 129
    np.savetxt(tmp_path / "w.txt", 1.0 + np.exp(-r ** 2))
    (tmp_path / "run.cfg").write_text(
        "[params]\nN = 3\ns = 0.75\nalpha = 2.0\n[grid]\nR = 20.0\nM = 128\n"
        "[nonlinearity]\nterm = weighted coef=4.5 q=2.6 weight=w.txt\n"
        "[solver]\nmethod = minimize\n[output]\njson = out.json\n"
    )
    assert cli_main(["solve", "--config", "run.cfg"]) == 0
    capsys.readouterr()
    env = json.loads((tmp_path / "out.json").read_text())
    rep = env["report"]
    assert rep["converged"] and rep["residual_rel"] <= 1e-6
    assert math.isclose(rep["energy"], -1130.31, rel_tol=1e-5)
    assert rep["pohozaev_rel"] is None
    assert env["config"]["nonlinearity"] == [{"kind": "WeightedPowerTerm", "coef": 4.5, "q": 2.6, "weight_len": 128}]


def test_cli_solve_without_a_method_is_a_validation_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(_EIGEN_CFG)
    assert cli_main(["solve", "--config", "run.cfg"]) == 1
    assert "no solver method configured" in capsys.readouterr().err


def test_cli_check_identity_requires_lambda(tmp_path, capsys, grid_small):
    fld = tmp_path / "u.fld"
    save_field(grid_small.field(np.exp(-grid_small.r ** 2)), fld)
    assert cli_main(["check", "identity", "--field", str(fld)]) == 1
    assert "identity check requires --lambda" in capsys.readouterr().err


def _check_with_config(tmp_path, text):
    # check nehari of an N = 3, R = 20, M = 64 field under the config ``text``
    g = make_grid(ProblemParams(3, 0.75, 2.0), 20.0, 64)
    save_field(g.field(np.exp(-g.r ** 2)), tmp_path / "u.fld")
    (tmp_path / "run.cfg").write_text(text)
    return cli_main(["check", "nehari", "--field", "u.fld", "--config", "run.cfg"])


@pytest.mark.parametrize("key, value", [("N", "4"), ("s", "0.5"), ("alpha", "3.0"), ("R", "5.0"), ("M", "999")])
def test_cli_check_refuses_a_config_for_another_field(key, value, tmp_path, capsys, monkeypatch):
    # the field's header fixes the problem and the grid: a config that sets
    # one of them to another value is refused, naming the file and the key
    monkeypatch.chdir(tmp_path)
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in _EIGEN_CFG.splitlines()]
    assert _check_with_config(tmp_path, "\n".join(lines) + "\n[solver]\nlambda = 2.5\n") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: run.cfg: {key} = ") and "differs from the field's" in err


@pytest.mark.parametrize("given", ["", _EIGEN_CFG], ids=["omitted", "agreeing"])
def test_cli_check_accepts_a_config_that_omits_or_repeats_the_field_grid(given, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _check_with_config(tmp_path, given + "[solver]\nlambda = 2.5\n") == 0
    assert json.loads(capsys.readouterr().out)["grid"]["M"] == 64


def test_cli_sweep_json_writes_the_envelope_and_prints_only_the_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(_SWEEP_CFG + "[output]\njson = env.json\ncsv = out.csv\n")
    assert cli_main(["solve", "--config", "run.cfg"]) == 0
    assert capsys.readouterr().out == (tmp_path / "out.csv").read_bytes().decode()
    assert json.loads((tmp_path / "env.json").read_text())["report"] == {"rows": 2, "converged": 2}


def test_cli_eigen_deflated_saves_the_first_candidate(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(
        _EIGEN_CFG + "[solver]\nmethod = eigen-deflated\nk = 2\n[output]\njson = out.json\nfield = u.fld\n"
    )
    assert cli_main(["solve", "--config", "run.cfg"]) == 0
    capsys.readouterr()
    first = json.loads((tmp_path / "out.json").read_text())["report"]["candidates"][0]
    u = load_field(tmp_path / "u.fld")
    assert float(np.max(np.abs(u.values))) == first["solution_linf"]
    assert fcs.lp_norm(u, 2.0) == first["solution_l2"]


@pytest.mark.parametrize("raw, warns", [("abc", True), ("0", False)])
def test_cap_threads_sets_no_cap_for_a_bad_or_zero_value(raw, warns, monkeypatch, capsys):
    from fcs import _entry

    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in names:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("FCS_THREADS", raw)
    _entry._cap_threads()
    assert not any(var in os.environ for var in names)
    assert ("ignoring non-integer FCS_THREADS" in capsys.readouterr().err) == warns


# ---------------------------------------------------------------------------
# the library's refusals of bad input
# ---------------------------------------------------------------------------

def _load_truncated_header(tmp_path):
    (tmp_path / "short.fld").write_bytes(b"FCSF")
    load_field(tmp_path / "short.fld")


_PSTAR = ProblemParams(3, 0.75, 2.0)
# case -> (the call, given the N = 3 grid of R = 20, M = 64 and a scratch
# directory), the error it raises and the start of its message
_REFUSALS = {
    "seed-on-another-grid": (
        lambda g, _: fcs.eigen1(_PSTAR, g, fcs.SolverOptions(seed=make_grid(_PSTAR, 10.0, 64).zero_field())),
        ValueError, "seed field lives on a different grid",
    ),
    "unknown-seed-kind": (
        lambda g, _: fcs.eigen1(_PSTAR, g, fcs.SolverOptions(seed="ring")), ValueError, "unknown seed kind 'ring'",
    ),
    "deflation-k0": (lambda g, _: fcs.eigen_deflated(_PSTAR, g, 0), ValueError, "k must be >= 1"),
    "endpoint-on-another-grid": (
        lambda g, _: fcs.mountain_pass(_PSTAR, g, pure_power(1.0, 3.6), make_grid(_PSTAR, 40.0, 64).zero_field()),
        ValueError, "endpoint e lives on a different grid",
    ),
    "zero-endpoint": (
        lambda g, _: fcs.mountain_pass(_PSTAR, g, pure_power(1.0, 3.6), g.zero_field()),
        ValueError, "endpoint e must be nonzero",
    ),
    "weight-length": (
        lambda g, _: fcs.WeightedPowerTerm.from_profile(1.0, 2.7, np.ones(10)).f(g.r, g.r),
        ValueError, "weight profile length does not match the grid",
    ),
    "q6-outside-window": (
        lambda g, _: critical_family(1.0, 1.0, g.exps.two_star_s + 0.1, g.exps),
        ValueError, "intermediate exponent must lie in",
    ),
    "riesz-method": (
        lambda g, _: operators.riesz_potential(g.field(np.exp(-g.r ** 2)), method="fft"),
        ValueError, "unknown riesz method 'fft'",
    ),
    "truncated-header": (lambda _, tmp: _load_truncated_header(tmp), FieldFormatError, ".*short.fld: truncated header"),
    "eigen-of-zero": (
        lambda g, _: _Ray(g.zero_field()).eigen(), DegenerateSeedError, "degenerate seed: B\\(u\\) u vanished",
    ),
    "linking-negative-t": (
        lambda g, _: fcs.linking_probe(pure_power(1.0, 2.7), 1.0, [], [-0.5, 1.0]),
        ValueError, "t_range must be nonnegative",
    ),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_library_refuses_bad_input(case, tmp_path):
    call, error, message = _REFUSALS[case]
    g = make_grid(_PSTAR, 20.0, 64)
    with pytest.raises(error, match=message):
        call(g, tmp_path)


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

_FCS_MODULES = sorted(m.name for m in pkgutil.iter_modules(fcs.__path__))

# removed public names; README lists each with its replacement
_REMOVED_NAMES = (
    "inverse_transform",
    "frac_form",
    "precondition",
    "coulomb_sobolev_norm",
    "apply_fractional_laplacian",
    "check_embedding",
    "fiber_profile",
    "FiberPoint",
    "eigen_identity_residual",
)


@pytest.mark.parametrize("module", _FCS_MODULES)
def test_star_import_resolves_every_exported_name(module):
    # a stale __all__ entry makes ``import *`` raise AttributeError
    namespace: dict = {}
    exec(f"from fcs.{module} import *", namespace)
    exported = getattr(importlib.import_module(f"fcs.{module}"), "__all__", [])
    assert set(exported) <= set(namespace)


def test_removed_names_are_unreachable_from_fcs():
    for name in _REMOVED_NAMES:
        assert not hasattr(fcs, name)
        for module in _FCS_MODULES:
            assert not hasattr(importlib.import_module(f"fcs.{module}"), name), (module, name)
    # the keywords that became module constants, and the always-null field
    assert set(inspect.signature(fcs.estimate_sobolev_constant).parameters) == {"params", "grid"}
    assert set(inspect.signature(fcs.project_to_M).parameters) == {"u"}
    assert "ps_threshold_value" not in inspect.signature(fcs.pohozaev_residual).parameters
    assert "ps_threshold" not in fcs.DiagnosticsRecord.__dataclass_fields__


def test_removed_keywords_are_gone():
    # the seed field is the seed itself; J reads q* off its field's grid
    assert "seed_field" not in fcs.SolverOptions.__dataclass_fields__
    assert set(inspect.signature(fcs.J_functional).parameters) == {"u"}
