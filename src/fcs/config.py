"""Run configuration: a small sectioned text format with strict validation.

Example::

    [params]
    N = 3
    s = 0.75
    alpha = 2.0

    [grid]
    R = 20.0
    M = 512

    [nonlinearity]
    term = power coef=1.0 q=2.7
    term = damped coef=1.5 q=2.857142857142857 gamma=0.05

    [solver]
    method = minimize
    tol = 1e-6
    max_iter = 5000
    seed = gaussian
    seed_width = 1.0

    [output]
    json = run.json
    field = run.fld

Unknown sections or keys are hard errors with file:line anchors; there are
deliberately no defaults for N, s, alpha, R, or M.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .energy import DampedPowerTerm, NonlinearitySpec, PowerTerm, WeightedPowerTerm
from .params import ProblemParams
from .solvers import _SWEEP_METHODS

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration; message carries a file:line anchor."""


_SECTION_KEYS = {
    "params": {"N", "s", "alpha"},
    "grid": {"R", "M"},
    "nonlinearity": {"term"},
    "solver": {
        "method",
        "tol",
        "max_iter",
        "seed",
        "seed_width",
        "seed_file",
        "k",
        "sweep_term",
        "sweep_from",
        "sweep_to",
        "sweep_steps",
        "sweep_method",
        "lambda",
    },
    "output": {"json", "field", "csv"},
}

_METHODS = {"eigen1", "eigen-deflated", "minimize", "mountain-pass", "sweep", "sobolev"}
_TERM_KINDS = {"power", "damped", "weighted"}


@dataclass
class RunConfig:
    """Parsed and validated run description."""

    source: str = "<flags>"
    base_dir: str = "."
    N: int | None = None
    s: float | None = None
    alpha: float | None = None
    R: float | None = None
    M: int | None = None
    terms: list = dc_field(default_factory=list)
    method: str | None = None
    tol: float = 1e-6
    max_iter: int = 5000
    seed: str = "gaussian"
    seed_width: float = 1.0
    seed_file: str | None = None
    k: int = 2
    sweep_term: int = 0
    sweep_from: float | None = None
    sweep_to: float | None = None
    sweep_steps: int | None = None
    sweep_method: str = "minimize"
    lam: float | None = None
    out_json: str | None = None
    out_field: str | None = None
    out_csv: str | None = None

    def require(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ConfigError(
                f"{self.source}: missing required setting(s): {', '.join(missing)} "
                f"(no silent defaults for problem or grid parameters)"
            )

    def problem(self) -> ProblemParams:
        self.require("N", "s", "alpha")
        try:
            return ProblemParams(self.N, self.s, self.alpha)
        except ValueError as exc:
            raise ConfigError(f"{self.source}: {exc}") from exc

    def spec(self) -> NonlinearitySpec:
        return NonlinearitySpec(tuple(self.terms))

    def echo(self) -> dict:
        """Canonical parsed form (what was validated, not the raw text)."""
        terms = []
        for t in self.terms:
            d = {"kind": type(t).__name__, "coef": t.coef, "q": t.q}
            if isinstance(t, DampedPowerTerm):
                d["gamma"] = t.gamma
            if isinstance(t, WeightedPowerTerm):
                d["weight_len"] = len(t.weight)
            terms.append(d)
        return {
            "params": {"N": self.N, "s": self.s, "alpha": self.alpha},
            "grid": {"R": self.R, "M": self.M},
            "nonlinearity": terms,
            "solver": {
                "method": self.method,
                "tol": self.tol,
                "max_iter": self.max_iter,
                "seed": self.seed,
                "seed_width": self.seed_width,
                "seed_file": self.seed_file,
                "k": self.k,
                "lambda": self.lam,
                "sweep": {
                    "term": self.sweep_term,
                    "from": self.sweep_from,
                    "to": self.sweep_to,
                    "steps": self.sweep_steps,
                    "method": self.sweep_method,
                },
            },
            "output": {"json": self.out_json, "field": self.out_field, "csv": self.out_csv},
        }


def _convert(source: str, line_no: int, key: str, raw: str):
    integer = {"N", "M", "max_iter", "k", "sweep_term", "sweep_steps"}
    floating = {"s", "alpha", "R", "tol", "seed_width", "sweep_from", "sweep_to", "lambda"}
    try:
        if key in integer:
            return int(raw)
        if key in floating:
            return float(raw)
    except ValueError:
        raise ConfigError(f"{source}:{line_no}: cannot parse {key} = {raw!r}") from None
    return raw


def _parse_term(source: str, line_no: int, raw: str, base_dir: Path, expected_m: int | None):
    parts = raw.split()
    if not parts:
        raise ConfigError(f"{source}:{line_no}: empty term")
    kind = parts[0]
    if kind not in _TERM_KINDS:
        raise ConfigError(
            f"{source}:{line_no}: unknown term kind {kind!r} (expected one of {sorted(_TERM_KINDS)})"
        )
    kv = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ConfigError(f"{source}:{line_no}: malformed term token {tok!r}")
        k, v = tok.split("=", 1)
        kv[k] = v

    def fget(name):
        if name not in kv:
            raise ConfigError(f"{source}:{line_no}: term missing {name}=")
        try:
            return float(kv.pop(name))
        except ValueError:
            raise ConfigError(f"{source}:{line_no}: bad value for {name}") from None

    if kind == "power":
        term = PowerTerm(fget("coef"), fget("q"))
    elif kind == "damped":
        term = DampedPowerTerm(fget("coef"), fget("q"), fget("gamma"))
    else:
        coef, q = fget("coef"), fget("q")
        wpath = kv.pop("weight", None)
        if wpath is None:
            raise ConfigError(f"{source}:{line_no}: weighted term requires weight=FILE")
        profile = np.loadtxt(base_dir / wpath, ndmin=1)
        if expected_m is not None and profile.size != expected_m:
            raise ConfigError(
                f"{source}:{line_no}: weight profile has {profile.size} samples, grid has M={expected_m}"
            )
        term = WeightedPowerTerm.from_profile(coef, q, profile)
    if kv:
        raise ConfigError(f"{source}:{line_no}: unknown term key(s): {', '.join(sorted(kv))}")
    return term


def parse_config(text: str, source: str = "<config>", base_dir: Path | None = None) -> RunConfig:
    base_dir = base_dir or Path(".")
    cfg = RunConfig(source=source)
    cfg.base_dir = str(base_dir)
    section = None
    pending_terms: list[tuple[int, str]] = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTION_KEYS:
                raise ConfigError(f"{source}:{line_no}: unknown section [{section}]")
            continue
        if section is None:
            raise ConfigError(f"{source}:{line_no}: entry outside of any section")
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTION_KEYS[section]:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r} in [{section}]")
        if section == "nonlinearity":
            pending_terms.append((line_no, value))
            continue
        attr = {
            "lambda": "lam",
            "json": "out_json",
            "field": "out_field",
            "csv": "out_csv",
        }.get(key, key)
        setattr(cfg, attr, _convert(source, line_no, key, value))
    if cfg.method is not None and cfg.method not in _METHODS:
        raise ConfigError(
            f"{source}: unknown solver method {cfg.method!r} (expected one of {sorted(_METHODS)})"
        )
    if cfg.sweep_method not in _SWEEP_METHODS:
        raise ConfigError(
            f"{source}: unknown sweep method {cfg.sweep_method!r} (expected one of {list(_SWEEP_METHODS)})"
        )
    if cfg.seed not in ("gaussian", "bump", "file"):
        raise ConfigError(f"{source}: unknown seed kind {cfg.seed!r}")
    if cfg.seed == "file" and cfg.seed_file is None:
        raise ConfigError(f"{source}: seed = file requires seed_file = PATH")
    for line_no, value in pending_terms:
        cfg.terms.append(_parse_term(source, line_no, value, base_dir, cfg.M))
    return cfg


def load_config(path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_config(text, source=str(path), base_dir=p.parent)
