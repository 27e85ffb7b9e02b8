import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcs import ProblemParams, make_grid
from fcs.cli import cli_main
from fcs.config import ConfigError, parse_config
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
    # the flag is checked by the sweep itself, before its first row
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


def test_cli_eigen1_small_sigma_is_a_solver_failure(capsys):
    # sigma = 4s + alpha - N = 0.002: the seed cannot be projected onto the
    # manifold, which is a typed solver failure (exit 2), not a crash
    rc = cli_main(["eigen1", "--N", "3", "--s", "0.442", "--alpha", "1.234", "--R", "20", "--M", "128"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "degenerate seed" in err
    assert "Traceback" not in err


def test_cli_eigen1_too_wide_seed_is_a_solver_failure(capsys):
    # projecting this seed needs t > 1, which would read past the cutoff:
    # a typed solver failure (exit 2), not an invalid-input error (exit 1)
    rc = cli_main(
        ["eigen1", "--N", "4", "--s", "0.75", "--alpha", "2.5", "--R", "20", "--M", "64",
         "--seed-width", "5"]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "degenerate seed" in err and "beyond cutoff" in err
    assert "Traceback" not in err


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


def test_cli_sobolev(capsys):
    rc = cli_main(
        ["sobolev", "--N", "3", "--s", "0.5", "--alpha", "2", "--R", "10", "--M", "96", "--json"]
    )
    assert rc == 0
    env = json.loads(capsys.readouterr().out)
    assert env["report"]["sobolev_constant"] > 0
    assert env["report"]["ps_threshold"] > 0


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
