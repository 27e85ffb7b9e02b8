"""Command-line interface.

Commands: exponents | eigen1 | solve | check {pohozaev,nehari,identity} |
scaling-check | sweep | sobolev.  Exit codes: 0 success, 1 validation
error (command-line usage errors included), 2 solver non-convergence
(results are still written, with converged = false).
"""

from __future__ import annotations

import argparse
import json
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
)
from .energy import I_functional, J_functional, Phi_lambda, eigen_spec
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
from .scaling import _Fiber, project_to_M, scale
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
    p.add_argument("--field", type=str, default=None, help="write the solution field here")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fcs", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="derived exponents for (N, s, alpha)")
    _add_param_flags(p, grid_too=False)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("eigen1", help="first eigenpair of the scaled problem")
    _add_param_flags(p)
    _add_solver_flags(p)

    p = sub.add_parser("solve", help="run the solver selected in the config")
    _add_param_flags(p)
    _add_solver_flags(p)
    p.add_argument("--method", type=str, default=None)

    p = sub.add_parser("check", help="identity diagnostics on a stored field")
    p.add_argument("what", choices=["pohozaev", "nehari", "identity"])
    p.add_argument("--field", type=str, required=True)
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("scaling-check", help="verify the dilation laws on the grid")
    _add_param_flags(p)
    p.add_argument("--t", type=float, nargs="*", default=[0.5, 0.8, 1.25, 2.0])
    p.add_argument("--out", type=str, default=None, help="write the check table as CSV")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sweep", help="parameter continuation over a coefficient")
    _add_param_flags(p)
    _add_solver_flags(p)
    p.add_argument("--sweep-term", type=int, default=None)
    p.add_argument("--from", dest="sweep_from", type=float, default=None)
    p.add_argument("--to", dest="sweep_to", type=float, default=None)
    p.add_argument("--steps", dest="sweep_steps", type=int, default=None)
    p.add_argument("--sweep-method", type=str, default=None)

    p = sub.add_parser("sobolev", help="best-constant estimate and PS threshold")
    _add_param_flags(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", type=str, default=None)
    return ap


def _merged_config(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    for flag, attr in [
        ("N", "N"),
        ("s", "s"),
        ("alpha", "alpha"),
        ("R", "R"),
        ("M", "M"),
        ("tol", "tol"),
        ("max_iter", "max_iter"),
        ("seed_width", "seed_width"),
        ("method", "method"),
        ("sweep_term", "sweep_term"),
        ("sweep_from", "sweep_from"),
        ("sweep_to", "sweep_to"),
        ("sweep_steps", "sweep_steps"),
        ("sweep_method", "sweep_method"),
        ("lam", "lam"),
    ]:
        v = getattr(args, flag, None)
        if v is not None:
            setattr(cfg, attr, v)
    for flag, attr in [("out", "out_json"), ("field", "out_field")]:
        v = getattr(args, flag, None)
        if v is not None:
            setattr(cfg, attr, v)
    return cfg


def _solver_options(cfg: RunConfig) -> SolverOptions:
    seed = cfg.seed
    seed_field = None
    if seed == "file":
        seed = "field"
        seed_field = load_field(Path(cfg.base_dir) / cfg.seed_file)
    return SolverOptions(
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        seed=seed,
        seed_width=cfg.seed_width,
        seed_field=seed_field,
    )


def _emit_envelope(cfg: RunConfig, report_dict: dict, t0: float, to_stdout: bool = True) -> None:
    env = make_envelope(cfg.echo(), report_dict, time.perf_counter() - t0)
    text = envelope_to_json(env)
    if cfg.out_json:
        Path(cfg.out_json).write_text(text)
    if to_stdout:
        sys.stdout.write(text)


def _human_exponents(t) -> str:
    lines = [
        f"theta            = {t.theta:.12g}",
        f"sigma            = {t.sigma:.12g}",
        f"p_rad            = {t.p_rad:.12g}",
        f"two_star_s       = {t.two_star_s:.12g}",
        f"two_star_s_alpha = {t.two_star_s_alpha:.12g}",
        f"c_alpha          = {t.c_alpha:.12g}",
        f"regime           = {t.regime_flag.value}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_exponents(args) -> int:
    cfg = _merged_config(args)
    table = compute_exponents(cfg.problem())
    payload = {
        "theta": table.theta,
        "sigma": table.sigma,
        "p_rad": table.p_rad,
        "two_star_s": table.two_star_s,
        "two_star_s_alpha": table.two_star_s_alpha,
        "c_alpha": table.c_alpha,
        "regime": table.regime_flag.value,
    }
    text = (
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if args.json
        else _human_exponents(table)
    )
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def _run_report(cfg: RunConfig, report, t0: float) -> int:
    if cfg.out_field:
        save_field(report.solution, cfg.out_field)
    _emit_envelope(cfg, report.to_dict(), t0)
    return 0 if report.converged else 2


def _cmd_eigen1(args) -> int:
    cfg = _merged_config(args)
    t0 = time.perf_counter()
    params = cfg.problem()
    cfg.require("R", "M")
    grid = make_grid(params, cfg.R, cfg.M)
    report = eigen1(params, grid, _solver_options(cfg))
    return _run_report(cfg, report, t0)


def _cmd_solve(args) -> int:
    cfg = _merged_config(args)
    if cfg.method is None:
        raise ConfigError(f"{cfg.source}: no solver method configured (set [solver] method or --method)")
    t0 = time.perf_counter()
    if cfg.method == "sobolev":
        return _cmd_sobolev_impl(cfg, t0)
    if cfg.method == "sweep":
        return _sweep_impl(cfg, t0)
    params = cfg.problem()
    cfg.require("R", "M")
    grid = make_grid(params, cfg.R, cfg.M)
    opts = _solver_options(cfg)
    if cfg.method == "eigen1":
        return _run_report(cfg, eigen1(params, grid, opts), t0)
    if cfg.method == "eigen-deflated":
        reports = eigen_deflated(params, grid, cfg.k, opts)
        payload = {"candidates": [r.to_dict() for r in reports]}
        if cfg.out_field:
            save_field(reports[0].solution, cfg.out_field)
        _emit_envelope(cfg, payload, t0)
        return 0 if all(r.converged for r in reports) else 2
    if cfg.method == "minimize":
        return _run_report(cfg, minimize_subscaled(params, grid, cfg.spec(), opts), t0)
    if cfg.method == "mountain-pass":
        spec = cfg.spec()
        e = find_negative_energy_point(params, grid, spec)
        return _run_report(cfg, mountain_pass(params, grid, spec, e, opts), t0)
    raise ConfigError(f"{cfg.source}: unsupported method {cfg.method!r}")


def _cmd_check(args) -> int:
    u = load_field(args.field)
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "lam", None) is not None:
        cfg.lam = args.lam
    spec = cfg.spec()
    if spec.is_empty and cfg.lam is not None:
        # bare eigenpair check: lam |t|^(q*-2) t is the implied nonlinearity
        spec = eigen_spec(cfg.lam, compute_exponents(u.grid.params))
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
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def _cmd_scaling_check(args) -> int:
    cfg = _merged_config(args)
    params = cfg.problem()
    cfg.require("R", "M")
    grid = make_grid(params, cfg.R, cfg.M)
    exps = compute_exponents(params)
    u = Field(grid, np.exp(-grid.r ** 2))
    base_I, base_J = I_functional(u), J_functional(u)
    um = project_to_M(u)
    fiber = _Fiber(u)
    rows = []
    for t in args.t:
        if t <= 0:
            raise ConfigError("scaling-check requires positive t values")
        ut = fiber.at(t)
        try:
            t_sigma = t ** exps.sigma
        except OverflowError:
            raise ValueError("dilation t^sigma overflows") from None
        if t_sigma == 0.0:
            raise ValueError("dilation t^sigma underflows")
        ratio_I = I_functional(ut) / (t_sigma * base_I) - 1.0
        ratio_J = J_functional(ut) / (t_sigma * base_J) - 1.0
        # composition against the analytic double dilation
        u2 = scale(fiber.at(math.sqrt(t)), math.sqrt(t))
        comp = float(np.max(np.abs(u2.values - ut.values))) / max(
            float(np.max(np.abs(ut.values))), 1e-300
        )
        phi_ratio = Phi_lambda(ut, 1.0) / (t_sigma * Phi_lambda(u, 1.0)) - 1.0
        rows.append((t, ratio_I, ratio_J, phi_ratio, comp))
    identity_err = float(np.max(np.abs(scale(um, 1.0).values - um.values)))
    payload = {
        "rows": [
            {
                "t": t,
                "I_ratio_err": a,
                "J_ratio_err": b,
                "phi_lambda_ratio_err": c,
                "composition_err": d,
            }
            for (t, a, b, c, d) in rows
        ],
        "scale_identity_err": identity_err,
        "grid": grid.summary(),
    }
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("t,I_ratio_err,J_ratio_err,phi_lambda_ratio_err,composition_err\n")
        for row in rows:
            sys.stdout.write(",".join(f"{x:.6e}" for x in row) + "\n")
    if args.out:
        lines = ["t,I_ratio_err,J_ratio_err,phi_lambda_ratio_err,composition_err"]
        lines += [",".join(repr(float(x)) for x in row) for row in rows]
        Path(args.out).write_text("\r\n".join(lines) + "\r\n")
    return 0


def _sweep_impl(cfg: RunConfig, t0: float) -> int:
    params = cfg.problem()
    cfg.require("R", "M", "sweep_from", "sweep_to", "sweep_steps")
    grid = make_grid(params, cfg.R, cfg.M)
    spec = cfg.spec()
    if not spec.terms:
        raise ConfigError(f"{cfg.source}: sweep requires a nonlinearity with at least one term")
    if not (0 <= cfg.sweep_term < len(spec.terms)):
        raise ConfigError(f"{cfg.source}: sweep_term {cfg.sweep_term} out of range")
    values = np.linspace(cfg.sweep_from, cfg.sweep_to, cfg.sweep_steps)
    rows = sweep(params, grid, spec, cfg.sweep_term, values, _solver_options(cfg), method=cfg.sweep_method)
    text = emit_branch_csv(rows, cfg.out_csv)
    sys.stdout.write(text)
    payload = {"rows": len(rows), "converged": sum(r.converged for r in rows)}
    if cfg.out_json:
        _emit_envelope(cfg, payload, t0, to_stdout=False)
    return 0 if all(r.converged for r in rows) else 2


def _cmd_sweep(args) -> int:
    cfg = _merged_config(args)
    if getattr(args, "out", None):
        cfg.out_csv = args.out
        cfg.out_json = None
    return _sweep_impl(cfg, time.perf_counter())


def _cmd_sobolev_impl(cfg: RunConfig, t0: float) -> int:
    params = cfg.problem()
    cfg.require("R", "M")
    grid = make_grid(params, cfg.R, cfg.M)
    S = estimate_sobolev_constant(params, grid)
    payload = {
        "sobolev_constant": S,
        "ps_threshold": ps_threshold(params, S),
        "grid": grid.summary(),
    }
    _emit_envelope(cfg, payload, t0)
    return 0


def _cmd_sobolev(args) -> int:
    cfg = _merged_config(args)
    if getattr(args, "out", None):
        cfg.out_json = args.out
    return _cmd_sobolev_impl(cfg, time.perf_counter())


_DISPATCH = {
    "exponents": _cmd_exponents,
    "eigen1": _cmd_eigen1,
    "solve": _cmd_solve,
    "check": _cmd_check,
    "scaling-check": _cmd_scaling_check,
    "sweep": _cmd_sweep,
    "sobolev": _cmd_sobolev,
}


def cli_main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return _DISPATCH[args.command](args)
    except (ConfigError, FieldFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NoPassError, DegenerateSeedError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
