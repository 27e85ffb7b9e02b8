"""Command-line interface.

Commands: exponents | eigen1 | solve | check {pohozaev,nehari,identity} |
scaling-check | sweep | sobolev.  eigen1, sweep and sobolev are solve with
the method fixed.  Their --out names the JSON envelope, except for sweep,
where it names the branch CSV and no envelope file is written.  Exit codes:
0 success, 1 validation error (command-line usage errors, missing or
unwritable files and input a solver refuses before any work included), 2
solver non-convergence (results are still written, with converged = false).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .diagnostics import (
    estimate_sobolev_constant,
    nehari_residual,
    pohozaev_residual,
    ps_threshold,
    sobolev_residual_dual,
)
from .energy import I_functional, J_functional, eigen_spec
from .grid import Field, make_grid
from .io import (
    FieldFormatError,
    emit_branch_csv,
    envelope_to_json,
    load_field,
    make_envelope,
    save_field,
)
from .params import compute_exponents
from .scaling import _Fiber, scale
from .solvers import (
    DegenerateSeedError,
    NoPassError,
    SolverOptions,
    eigen1,
    eigen_deflated,
    find_negative_energy_point,
    minimize_subscaled,
    mountain_pass,
    sweep,
)

__all__ = ["cli_main", "main"]


def _add_param_flags(p: argparse.ArgumentParser, grid_too: bool = True) -> None:
    p.add_argument("--config", type=str, default=None, help="run configuration file")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    if grid_too:
        p.add_argument("--R", type=float, default=None)
        p.add_argument("--M", type=int, default=None)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--seed-width", type=float, default=None)
    p.add_argument("--out", type=str, default=None, help="write the JSON envelope here")
    p.add_argument("--field", dest="out_field", metavar="FIELD", type=str, default=None,
                   help="write the solution field here")


# built once per process: parse_args fills a fresh namespace on every call,
# and no default is mutable
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fcs", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="derived exponents for (N, s, alpha)")
    p.set_defaults(cmd=_cmd_exponents)
    _add_param_flags(p, grid_too=False)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", type=str, default=None)

    # eigen1, sweep and sobolev are solve with the method fixed
    p = sub.add_parser("eigen1", help="first eigenpair of the scaled problem")
    p.set_defaults(cmd=_cmd_solve, run="eigen1")
    _add_param_flags(p)
    _add_solver_flags(p)

    p = sub.add_parser("solve", help="run the solver selected in the config")
    p.set_defaults(cmd=_cmd_solve, run=None)
    _add_param_flags(p)
    _add_solver_flags(p)
    p.add_argument("--method", type=str, default=None)

    p = sub.add_parser("check", help="identity diagnostics on a stored field")
    p.set_defaults(cmd=_cmd_check)
    p.add_argument("what", choices=["pohozaev", "nehari", "identity"])
    p.add_argument("--field", type=str, required=True)
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("scaling-check", help="verify the dilation laws on the grid")
    p.set_defaults(cmd=_cmd_scaling_check)
    _add_param_flags(p)
    p.add_argument("--t", type=float, nargs="*", default=(0.5, 0.8, 1.25, 2.0))
    p.add_argument("--out", type=str, default=None, help="write the check table as CSV")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sweep", help="parameter continuation over a coefficient")
    p.set_defaults(cmd=_cmd_solve, run="sweep", out_to="out_csv")
    _add_param_flags(p)
    _add_solver_flags(p)
    p.add_argument("--sweep-term", type=int, default=None)
    p.add_argument("--from", dest="sweep_from", type=float, default=None)
    p.add_argument("--to", dest="sweep_to", type=float, default=None)
    p.add_argument("--steps", dest="sweep_steps", type=int, default=None)
    p.add_argument("--sweep-method", type=str, default=None)

    p = sub.add_parser("sobolev", help="best-constant estimate and PS threshold")
    p.set_defaults(cmd=_cmd_solve, run="sobolev")
    _add_param_flags(p)
    p.add_argument("--out", type=str, default=None)
    return ap


_SETTINGS = {f.name for f in dataclasses.fields(RunConfig)}


def _merged_config(args) -> RunConfig:
    """The config file with every given flag laid over it, then validated."""
    cfg = load_config(args.config) if args.config else RunConfig()
    for dest, value in vars(args).items():
        if value is not None and dest in _SETTINGS:
            setattr(cfg, dest, value)
    if args.out is not None:
        cfg.out_json = None  # a sweep's --out names its CSV, and no envelope file is written
        setattr(cfg, getattr(args, "out_to", "out_json"), args.out)
    cfg.validate()
    return cfg


def _solver_options(cfg: RunConfig) -> SolverOptions:
    seed = load_field(Path(cfg.base_dir) / cfg.seed_file) if cfg.seed == "file" else cfg.seed
    return SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter, seed=seed, seed_width=cfg.seed_width)


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _emit_envelope(cfg: RunConfig, report_dict: dict, t0: float, to_stdout: bool = True) -> None:
    env = make_envelope(cfg.echo(), report_dict, time.perf_counter() - t0)
    text = envelope_to_json(env)
    if cfg.out_json:
        Path(cfg.out_json).write_text(text)
    if to_stdout:
        sys.stdout.write(text)


def _cmd_exponents(args) -> int:
    table = compute_exponents(_merged_config(args).problem())
    payload = {
        "theta": table.theta,
        "sigma": table.sigma,
        "p_rad": table.p_rad,
        "two_star_s": table.two_star_s,
        "two_star_s_alpha": table.two_star_s_alpha,
        "c_alpha": table.c_alpha,
        "regime": table.regime_flag.value,
    }
    if args.json:
        text = envelope_to_json(payload)
    else:
        text = "".join(f"{k:<16} = {v if k == 'regime' else format(v, '.12g')}\n" for k, v in payload.items())
    _write(text, args.out)
    return 0


def _grid(cfg: RunConfig, *required: str):
    params = cfg.problem()
    cfg.require("R", "M", *required)
    return make_grid(params, cfg.R, cfg.M)


def _run_report(cfg: RunConfig, report, t0: float) -> int:
    if cfg.out_field:
        save_field(report.solution, cfg.out_field)
    _emit_envelope(cfg, report.to_dict(), t0)
    return 0 if report.converged else 2


# Each runner looks up the solver by its module-global name when it runs, so
# a rebinding of that name (a test double, a profiler) sees the call.
def _run_eigen1(cfg: RunConfig, t0: float) -> int:
    grid = _grid(cfg)
    return _run_report(cfg, eigen1(grid.params, grid, _solver_options(cfg)), t0)


def _run_eigen_deflated(cfg: RunConfig, t0: float) -> int:
    grid = _grid(cfg)
    reports = eigen_deflated(grid.params, grid, cfg.k, _solver_options(cfg))
    if cfg.out_field:
        save_field(reports[0].solution, cfg.out_field)
    _emit_envelope(cfg, {"candidates": [r.to_dict() for r in reports]}, t0)
    return 0 if all(r.converged for r in reports) else 2


def _run_minimize(cfg: RunConfig, t0: float) -> int:
    grid = _grid(cfg)
    return _run_report(cfg, minimize_subscaled(grid.params, grid, cfg.spec(), _solver_options(cfg)), t0)


def _run_mountain_pass(cfg: RunConfig, t0: float) -> int:
    grid, spec = _grid(cfg), cfg.spec()
    e = find_negative_energy_point(grid.params, grid, spec)
    return _run_report(cfg, mountain_pass(grid.params, grid, spec, e, _solver_options(cfg)), t0)


def _run_sweep(cfg: RunConfig, t0: float) -> int:
    grid = _grid(cfg, "sweep_from", "sweep_to", "sweep_steps")
    spec = cfg.spec()
    values = np.linspace(cfg.sweep_from, cfg.sweep_to, cfg.sweep_steps)
    opts = _solver_options(cfg)
    rows = sweep(grid.params, grid, spec, cfg.sweep_term, values, opts, method=cfg.sweep_method)
    sys.stdout.write(emit_branch_csv(rows, cfg.out_csv))
    if cfg.out_json:
        payload = {"rows": len(rows), "converged": sum(r.converged for r in rows)}
        _emit_envelope(cfg, payload, t0, to_stdout=False)
    return 0 if all(r.converged for r in rows) else 2


def _run_sobolev(cfg: RunConfig, t0: float) -> int:
    grid = _grid(cfg)
    S = estimate_sobolev_constant(grid.params, grid)
    payload = {
        "sobolev_constant": S,
        "ps_threshold": ps_threshold(grid.params, S),
        "residual_dual": sobolev_residual_dual(grid.params, grid),
        "grid": grid.summary(),
    }
    _emit_envelope(cfg, payload, t0)
    return 0


# one runner per config._METHODS entry
_RUNNERS = {
    "eigen1": _run_eigen1,
    "eigen-deflated": _run_eigen_deflated,
    "minimize": _run_minimize,
    "mountain-pass": _run_mountain_pass,
    "sweep": _run_sweep,
    "sobolev": _run_sobolev,
}


def _cmd_solve(args) -> int:
    cfg = _merged_config(args)
    method = args.run or cfg.method  # the preset is not echoed as the configured method
    if method is None:
        raise ConfigError(f"{cfg.source}: no solver method configured (set [solver] method or --method)")
    return _RUNNERS[method](cfg, time.perf_counter())


def _cmd_check(args) -> int:
    u = load_field(args.field)
    cfg = _merged_config(args)
    p = u.grid.params  # the field's header fixes the problem and the grid: a config may only repeat them
    for key, own in (("N", p.N), ("s", p.s), ("alpha", p.alpha), ("R", u.grid.R), ("M", u.grid.M)):
        given = getattr(cfg, key)
        if given not in (None, own):
            raise ConfigError(f"{cfg.source}: {key} = {given!r} differs from the field's {key} = {own!r}")
    spec = cfg.spec()
    if spec.is_empty and cfg.lam is not None:
        # bare eigenpair check: lam |t|^(q*-2) t is the implied nonlinearity
        spec = eigen_spec(cfg.lam, u.grid.exps)
    if args.what == "pohozaev":
        rec = pohozaev_residual(u, spec, lam=cfg.lam)
        payload = rec.to_dict()
    elif args.what == "nehari":
        payload = {"nehari": nehari_residual(u, spec), "grid": u.grid.summary()}
    else:
        if cfg.lam is None:
            raise ConfigError("identity check requires --lambda (or [solver] lambda)")
        iu = I_functional(u)
        res = iu - cfg.lam * J_functional(u)  # as energy.Phi_lambda, sharing I(u) with the ratio
        payload = {
            "eigen_identity": res,
            "eigen_identity_rel": abs(res) / max(iu, 1e-300),
            "lambda": cfg.lam,
            "grid": u.grid.summary(),
        }
    _write(envelope_to_json(payload), args.out)
    return 0


_SCALING_COLUMNS = ("t", "I_ratio_err", "J_ratio_err", "phi_lambda_ratio_err", "composition_err")


def _cmd_scaling_check(args) -> int:
    grid = _grid(_merged_config(args))
    u = Field(grid, np.exp(-grid.r ** 2))
    base_I, base_J = I_functional(u), J_functional(u)
    fiber = _Fiber(u)
    rows = []
    for t in args.t:
        if not 0.0 < t < math.inf:  # nan fails both
            raise ConfigError("scaling-check requires positive finite t values")
        ut = fiber.at(t)
        try:
            t_sigma = t ** grid.exps.sigma
        except OverflowError:
            raise ValueError("dilation t^sigma overflows") from None
        if t_sigma == 0.0:
            raise ValueError("dilation t^sigma underflows")
        I_t, J_t = I_functional(ut), J_functional(ut)
        ratio_I = I_t / (t_sigma * base_I) - 1.0
        ratio_J = J_t / (t_sigma * base_J) - 1.0
        # composition against the analytic double dilation
        u2 = scale(fiber.at(math.sqrt(t)), math.sqrt(t))
        comp = float(np.max(np.abs(u2.values - ut.values))) / max(
            float(np.max(np.abs(ut.values))), 1e-300
        )
        # Phi_1 = I - J (energy.Phi_lambda at lam = 1) from the I and J
        # above: one evaluation of each field
        phi_ratio = (I_t - J_t) / (t_sigma * (base_I - base_J)) - 1.0
        rows.append((t, ratio_I, ratio_J, phi_ratio, comp))
    header = ",".join(_SCALING_COLUMNS)
    if args.json:
        payload = {
            "rows": [dict(zip(_SCALING_COLUMNS, row)) for row in rows],
            "scale_identity_err": float(np.max(np.abs(scale(u, 1.0).values - u.values))),
            "grid": grid.summary(),
        }
        sys.stdout.write(envelope_to_json(payload))
    else:
        sys.stdout.write(header + "\n" + "".join(",".join(f"{x:.6e}" for x in row) + "\n" for row in rows))
    if args.out:
        lines = [header, *(",".join(repr(float(x)) for x in row) for row in rows)]
        Path(args.out).write_text("\r\n".join(lines) + "\r\n")
    return 0


def cli_main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.cmd(args)
    except (ConfigError, FieldFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NoPassError, DegenerateSeedError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
