"""Golden CLI outputs: stored results of pinned command-line runs.

Each case runs ``fcs`` in-process, in a fresh directory, and compares what it
writes with ``tests/golden/<case>``.  Envelopes are stored without their
volatile ``runtime`` block and without ``tool.commit``.  Structure, strings,
booleans and integers must match exactly; floats must agree to 1e-12
relative.  Quantities at rounding level (the ``ROUNDING_KEYS``: dual
residuals, Nehari values and manifold defects of converged fields) may also
differ by up to ``ABS_FLOOR``, and so may the entries of ``VANISHING_KEYS``
whose stored value is below it.

The stored bytes are those of a one-thread run: thread-split BLAS
reductions move the last bits, so the script runs only with FCS_THREADS=1.
A change that moves a number on purpose regenerates the files and says why
in CHANGES.md::

    FCS_THREADS=1 python tests/test_golden.py --dry-run      # print what would move
    FCS_THREADS=1 python tests/test_golden.py --regenerate   # print it and rewrite the files
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fcs.cli import cli_main
from fcs.params import ProblemParams, compute_exponents

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12
ABS_FLOOR = 1e-12
ROUNDING_KEYS = {"residual_dual", "residual_rel", "residual", "nehari", "manifold_defect"}
# keys at rounding level only where they vanish: the dilation law of J holds
# to rounding at t = 2 (J_ratio_err -1.1e-16) and to ~6.7e-6 elsewhere
VANISHING_KEYS = {"J_ratio_err"}

_Q_STAR = repr(compute_exponents(ProblemParams(3, 0.75, 2.0)).two_star_s_alpha)
_MP_EXPS = compute_exponents(ProblemParams(3, 0.8, 2.0))
_NEAR_EXPS = compute_exponents(ProblemParams(3, 0.875, 2.0))


def _config(params: str, grid: str, terms: tuple[str, ...], solver: str, output: str) -> str:
    nonlinearity = "".join(f"term = {t}\n" for t in terms)
    return (
        f"[params]\n{params}\n[grid]\n{grid}\n"
        + (f"[nonlinearity]\n{nonlinearity}" if terms else "")
        + f"[solver]\n{solver}\n[output]\n{output}\n"
    )


_N3 = "N = 3\ns = 0.75\nalpha = 2.0"
_EIGEN1_N3 = ["eigen1", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "256"]
_MP = "N = 3\ns = 0.8\nalpha = 2.0"

# name -> (config file text or None, command lines, file the case compares)
CASES = {
    "eigen1-n2.json": (None, [["eigen1", "--N", "2", "--s", "0.75", "--alpha", "1.5", "--R", "20", "--M", "256"]], "out.json"),
    "eigen1-n3.json": (None, [_EIGEN1_N3], "out.json"),
    "eigen1-n4.json": (None, [["eigen1", "--N", "4", "--s", "0.75", "--alpha", "2.5", "--R", "20", "--M", "256"]], "out.json"),
    "eigen-deflated-k3.json": (
        _config(_N3, "R = 20.0\nM = 256", (), "method = eigen-deflated\nk = 3", "json = out.json"),
        [["solve", "--config", "run.cfg"]],
        "out.json",
    ),
    "minimize-damped.json": (
        _config(_N3, "R = 20.0\nM = 128", (f"damped coef=4.5 q={_Q_STAR} gamma=0.3",), "method = minimize", "json = out.json"),
        [["solve", "--config", "run.cfg"]],
        "out.json",
    ),
    "minimize-trivial.json": (
        _config(_N3, "R = 20.0\nM = 128", ("power coef=1.0 q=2.7",), "method = minimize", "json = out.json"),
        [["solve", "--config", "run.cfg"]],
        "out.json",
    ),
    "mountain-pass-q4.1.json": (
        _config(_MP, "R = 20.0\nM = 128", ("power coef=1.0 q=4.1",), "method = mountain-pass", "json = out.json"),
        [["solve", "--config", "run.cfg"]],
        "out.json",
    ),
    "mountain-pass-critical.json": (
        _config(
            _MP,
            "R = 20.0\nM = 128",
            tuple(f"power coef=1.0 q={q!r}" for q in (_MP_EXPS.two_star_s_alpha, 3.5, _MP_EXPS.two_star_s)),
            "method = mountain-pass",
            "json = out.json",
        ),
        [["solve", "--config", "run.cfg"]],
        "out.json",
    ),
    # lam = 2.5 < lam_1 = 2.659: the rays cross the Nehari set more than once,
    # and the barrier is the crossing where Phi is largest along the ray
    "mountain-pass-critical-lambda2.5.json": (
        _config(
            "N = 3\ns = 0.875\nalpha = 2.0",
            "R = 20.0\nM = 64",
            tuple(
                f"power coef={c} q={q!r}"
                for c, q in ((2.5, _NEAR_EXPS.two_star_s_alpha), (1.0, 3.8666666666666663), (1.0, _NEAR_EXPS.two_star_s))
            ),
            "method = mountain-pass",
            "json = out.json",
        ),
        [["solve", "--config", "run.cfg"]],
        "out.json",
    ),
    # a trivial row, a cold nontrivial row and a warm-started one
    "sweep-damped.csv": (
        _config(
            _N3,
            "R = 20.0\nM = 128",
            (f"damped coef=3.3 q={_Q_STAR} gamma=0.25",),
            "method = sweep\nsweep_term = 0\nsweep_from = 3.3\nsweep_to = 4.7\nsweep_steps = 3",
            "csv = out.csv",
        ),
        [["solve", "--config", "run.cfg"]],
        "out.csv",
    ),
    **{
        f"check-{what}.json": (
            None,
            [
                _EIGEN1_N3 + ["--field", "u.fld"],
                ["check", what, "--field", "u.fld", "--lambda", "{lambda}", "--out", "out.json"],
            ],
            "out.json",
        )
        for what in ("pohozaev", "nehari", "identity")
    },
    # the README example of the Sobolev constant
    "sobolev-n3.json": (None, [["sobolev", "--N", "3", "--s", "0.5", "--alpha", "2", "--R", "20", "--M", "512", "--out", "out.json"]], "out.json"),
    "scaling-check.csv": (None, [["scaling-check", "--N", "3", "--s", "0.75", "--alpha", "2", "--R", "20", "--M", "256", "--out", "out.csv"]], "out.csv"),
}


def _stripped(text: str) -> str:
    data = json.loads(text)
    data.pop("runtime", None)
    data.get("tool", {}).pop("commit", None)
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def run_case(name: str) -> str:
    """Run one case in the current directory and return its output text.

    Output paths are relative, so the echoed config does not depend on
    where the case runs."""
    cfg, commands, out = CASES[name]
    if cfg is not None:
        Path("run.cfg").write_text(cfg)
    lam = None
    for argv in commands:
        argv = [a.replace("{lambda}", repr(lam)) for a in argv]
        if argv[0] == "eigen1":
            argv += ["--out", "out.json"]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(argv)
        assert rc == 0, f"{name}: {argv} exited {rc}"
        if argv[0] == "eigen1":
            lam = json.loads(Path("out.json").read_text())["report"]["multiplier"]
    text = Path(out).read_text()
    return text if out.endswith(".csv") else _stripped(text)


def _compare(got, want, path: str = "$", key: str = "") -> list[str]:
    """Differences between two JSON values beyond the float tolerance;
    ``key`` is the name the values are stored under."""
    if type(got) is not type(want):  # bool, int and float are told apart
        return [f"{path}: type {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(set(got) ^ set(want))} differ"]
        return [d for k in want for d in _compare(got[k], want[k], f"{path}.{k}", k)]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in _compare(g, w, f"{path}[{i}]", key)]
    if isinstance(want, float):
        rounding = key in ROUNDING_KEYS or (key in VANISHING_KEYS and abs(want) < ABS_FLOOR)
        floor = ABS_FLOOR if rounding else 0.0
        close = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=floor)
        return [] if close else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _csv_rows(text: str) -> dict:
    def cell(c: str):
        try:
            return float(c)
        except ValueError:
            return c  # booleans and empty cells compare exactly

    reader = csv.DictReader(io.StringIO(text))
    return {"header": reader.fieldnames, "rows": [{k: cell(v) for k, v in row.items()} for row in reader]}


def _load(name: str, text: str):
    return _csv_rows(text) if name.endswith(".csv") else json.loads(text)


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_case(name)
    want = (GOLDEN / name).read_text()
    diffs = _compare(_load(name, got), _load(name, want))
    assert not diffs, f"{name} moved from its golden file:\n" + "\n".join(diffs[:20])


def test_compare_reports_moved_numbers_and_structure():
    want = {"a": 1.0, "b": [1, True, "x"], "nehari": 1e-15, "d": None, "e": 1e-15}
    assert _compare(want, want) == []
    assert _compare({**want, "a": 1.0 + 1e-11}, want)
    assert _compare({**want, "a": 1.0 + 1e-13}, want) == []
    assert _compare({**want, "nehari": 5e-13}, want) == []  # rounding level
    assert _compare({**want, "e": 5e-13}, want)
    assert _compare({**want, "b": [1, 1, "x"]}, want)  # bool is not an int
    assert _compare({**want, "b": [1.0, True, "x"]}, want)  # int is not a float
    assert _compare({**want, "d": 0.0}, want)
    assert _compare({k: v for k, v in want.items() if k != "d"}, want)
    vanishing = {"J_ratio_err": [6.7e-6, -1.1e-16]}
    assert _compare({"J_ratio_err": [6.7e-6, 5e-13]}, vanishing) == []  # rounding level where it vanishes
    assert _compare({"J_ratio_err": [6.7e-6 + 1e-13, -1.1e-16]}, vanishing)  # relative elsewhere


def what_moved(name: str, text: str, old: bytes | None) -> list[str]:
    """How a new output ``text`` differs from the stored bytes ``old``:
    "new", "unchanged" (same bytes), "within tolerance" (other bytes, no
    number moved) or "moved" followed by the moved keys."""
    if old is None:
        return ["new"]
    if text.encode() == old:
        return ["unchanged"]
    diffs = _compare(_load(name, text), _load(name, old.decode()))
    return ["moved", *diffs] if diffs else ["within tolerance"]


def test_what_moved_tells_bytes_tolerance_and_moved_keys_apart():
    old = '{"a": 1.0, "n": 2}\n'
    assert what_moved("x.json", old, None) == ["new"]
    assert what_moved("x.json", old, old.encode()) == ["unchanged"]
    assert what_moved("x.json", '{"a": 1.0000000000000002, "n": 2}\n', old.encode()) == ["within tolerance"]
    assert what_moved("x.json", '{"a": 1.5, "n": 3}\n', old.encode()) == ["moved", "$.a: 1.5 != 1.0", "$.n: 3 != 2"]
    assert what_moved("x.csv", "p,e\n1,2.0\n", b"p,e\n1,2.5\n") == ["moved", "$.rows[0].e: 2.0 != 2.5"]


def regenerate(write: bool = True) -> None:
    """Run every case and print how its output moved from the stored file;
    with ``write`` the output then replaces the stored file."""
    GOLDEN.mkdir(exist_ok=True)
    cwd = os.getcwd()
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                text = run_case(name)
            finally:
                os.chdir(cwd)
        path = GOLDEN / name
        status, *moved = what_moved(name, text, path.read_bytes() if path.exists() else None)
        print(f"{path}: {status}" + "".join(f"\n  {d}" for d in moved))
        if write:
            path.write_text(text, newline="")


if __name__ == "__main__":
    if sys.argv[1:] not in (["--regenerate"], ["--dry-run"]) or os.environ.get("FCS_THREADS") != "1":
        sys.exit(f"usage: FCS_THREADS=1 python {sys.argv[0]} --regenerate | --dry-run")
    regenerate(write=sys.argv[1] == "--regenerate")
