"""Workload definitions: seed -> solve inputs -> fcs config files.

Every input is one CLI solve.  ``generate`` is pure (stdlib ``random`` only)
so the same seed always yields the same inputs; ``render`` turns an input
into the config text the ``fcs`` command line reads.  Inputs are drawn in
stratified cycles: each cycle covers every stratum of the workload's input
range once, in a seed-shuffled order, so the mix of cheap and expensive
solves inside one timed run barely depends on the seed.  See WORKLOADS.md
for why each workload exists.
"""

from __future__ import annotations

import random

R = 20.0
TOL = 1e-6

# eigen-n3: large-M N = 3 eigenpair; seed widths inside criterion 6's range
EIGEN_N3 = {"N": 3, "s": 0.75, "alpha": 2.0, "M": 1024}
EIGEN_N3_WIDTHS = (0.5, 2.0)
EIGEN_N3_STRATA = 6

# eigen-general-n: Fourier-Bessel path, two N = 4 solves per N = 2 solve
EIGEN_GENERAL = (
    {"N": 4, "s": 0.75, "alpha": 2.5, "M": 256},
    {"N": 2, "s": 0.75, "alpha": 1.5, "M": 256},
)
EIGEN_GENERAL_WIDTH = 1.0

# mountain-pass: pure power q in [4.0, 4.25], then the critical family
MP_PARAMS = {"N": 3, "s": 0.8, "alpha": 2.0, "M": 128}
MP_Q_LOW = (4.0, 4.05, 4.1)
MP_Q_HIGH = (4.15, 4.2, 4.25)
MP_CRITICAL_Q6 = 3.5

# coercive-sweep: damped term at q = q*, 6 coefficient steps of 0.1 per sweep
SWEEP_PARAMS = {"N": 3, "s": 0.75, "alpha": 2.0, "M": 256}
SWEEP_Q = 2.857142857142857
SWEEP_GAMMAS = (0.2, 0.25, 0.3)
SWEEP_STARTS = (45, 46, 47, 48, 49, 50)  # coefficient start, in tenths
SWEEP_STEPS = 6

# known-defect probe: inputs the timed workloads avoid because they stall
# today, run with a capped iteration budget (WORKLOADS.md lists the numbers)
PROBE_MAX_ITER = 20
PROBES = (
    {"id": "eigen-n4-width2", "kind": "eigen", "N": 4, "s": 0.75, "alpha": 2.5, "M": 256, "width": 2.0},
    {"id": "eigen-n3-width3", "kind": "eigen", "N": 3, "s": 0.75, "alpha": 2.0, "M": 512, "width": 3.0},
    {"id": "eigen-n3-bump", "kind": "eigen", "N": 3, "s": 0.75, "alpha": 2.0, "M": 512, "seed": "bump"},
    {"id": "mp-q3.43", "kind": "mp", "N": 3, "s": 0.75, "alpha": 2.0, "M": 128, "q": 3.43},
)

# coercive-sweep runs but BENCHMARK.json does not score it (WORKLOADS.md says why)
NAMES = ("eigen-n3", "mountain-pass", "eigen-general-n", "coercive-sweep")
CYCLES = 40  # far more inputs than any run of <= 60 s can use


def eigen_input(params: dict, width: float) -> dict:
    return {"kind": "eigen", **params, "width": width}


def _cycle_eigen_n3(rng: random.Random) -> list[dict]:
    lo, hi = EIGEN_N3_WIDTHS
    k = EIGEN_N3_STRATA
    widths = [round(lo + (hi - lo) * (i + rng.random()) / k, 4) for i in range(k)]
    rng.shuffle(widths)
    return [eigen_input(EIGEN_N3, w) for w in widths]


def _cycle_eigen_general(rng: random.Random) -> list[dict]:
    # N = 4 twice per N = 2 solve: with an even split the median of a run
    # would flip between the two cost modes from seed to seed
    n4, n2 = EIGEN_GENERAL
    order = [n4, n4, n2]
    rng.shuffle(order)
    return [eigen_input(p, EIGEN_GENERAL_WIDTH) for p in order]


def _cycle_mountain_pass(rng: random.Random) -> list[dict]:
    # two pure powers per critical-family solve: a run holds only ~12 solves,
    # and an even split of the two cost modes would put the median between them
    pure = [rng.choice(MP_Q_LOW), rng.choice(MP_Q_HIGH)]
    rng.shuffle(pure)
    return [{"kind": "mp", **MP_PARAMS, "q": q} for q in pure] + [
        {"kind": "mp", **MP_PARAMS, "critical": MP_CRITICAL_Q6}
    ]


def _cycle_sweep(rng: random.Random) -> list[dict]:
    # every (gamma, start) pair once per cycle: sweep costs differ by input
    # up to 3x, so only a fixed mix keeps a run's mean and median seed-independent
    out = [
        {"kind": "sweep", **SWEEP_PARAMS, "gamma": gamma, "start": start}
        for gamma in SWEEP_GAMMAS
        for start in SWEEP_STARTS
    ]
    rng.shuffle(out)
    return out


_CYCLES = {
    "eigen-n3": _cycle_eigen_n3,
    "mountain-pass": _cycle_mountain_pass,
    "eigen-general-n": _cycle_eigen_general,
    "coercive-sweep": _cycle_sweep,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's solve inputs for ``seed``, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    cycle = _CYCLES[workload]
    return [inp for _ in range(CYCLES) for inp in cycle(rng)]


def sweep_values(inp: dict) -> list[float]:
    """Coefficients the sweep visits, rounded as the reference keys are."""
    return [round((inp["start"] + i) / 10.0, 6) for i in range(SWEEP_STEPS)]


def ref_key(inp: dict) -> str:
    """Reference-table key; the eigenpair does not depend on the seed width."""
    grid = f"N{inp['N']}-s{inp['s']}-a{inp['alpha']}-M{inp['M']}"
    if inp["kind"] == "eigen":
        return f"eigen:{grid}"
    if inp["kind"] == "mp":
        term = f"critical{inp['critical']}" if "critical" in inp else f"q{inp['q']}"
        return f"mp:{grid}:{term}"
    return f"sweep:{grid}:gamma{inp['gamma']}"


def render(inp: dict, out_dir: str, exps=None) -> tuple[str, str]:
    """CLI command (run as ``fcs COMMAND --config PATH``) and config text.

    ``exps`` is the fcs exponent table of the input's parameters; it is
    needed only for the critical family, whose exponents are q* and 2*_s.
    """
    lines = [
        "[params]",
        f"N = {inp['N']}",
        f"s = {inp['s']!r}",
        f"alpha = {inp['alpha']!r}",
        "",
        "[grid]",
        f"R = {R!r}",
        f"M = {inp['M']}",
        "",
    ]
    solver = [f"tol = {TOL!r}"]
    output = [f"json = {out_dir}/solve.json"]
    if inp["kind"] == "eigen":
        command = "eigen1"
        if inp.get("seed") == "bump":
            solver.append("seed = bump")
        else:
            solver.append(f"seed_width = {inp['width']!r}")
        output.append(f"field = {out_dir}/solve.fld")
    elif inp["kind"] == "mp":
        command = "solve"
        if "critical" in inp:
            terms = [
                f"power coef=1.0 q={exps.two_star_s_alpha!r}",
                f"power coef=1.0 q={inp['critical']!r}",
                f"power coef=1.0 q={exps.two_star_s!r}",
            ]
        else:
            terms = [f"power coef=1.0 q={inp['q']!r}"]
        lines += ["[nonlinearity]"] + [f"term = {t}" for t in terms] + [""]
        solver.insert(0, "method = mountain-pass")
        output.append(f"field = {out_dir}/solve.fld")
    else:
        command = "sweep"
        values = sweep_values(inp)
        lines += [
            "[nonlinearity]",
            f"term = damped coef={values[0]!r} q={SWEEP_Q!r} gamma={inp['gamma']!r}",
            "",
        ]
        solver = [
            "sweep_method = minimize",
            "sweep_term = 0",
            f"sweep_from = {values[0]!r}",
            f"sweep_to = {values[-1]!r}",
            f"sweep_steps = {SWEEP_STEPS}",
        ] + solver
        output.append(f"csv = {out_dir}/solve.csv")
    lines += ["[solver]"] + solver + ["", "[output]"] + output
    return command, "\n".join(lines) + "\n"
