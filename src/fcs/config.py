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
deliberately no defaults for N, s, alpha, R, or M.  One table, ``_KEYS``,
gives each key its section, type and ``RunConfig`` attribute; the parser and
the echo both read it, and command-line flags set the same attributes.
``RunConfig.validate`` checks the settings no single key can, once the file
and any flags are merged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .energy import DampedPowerTerm, NonlinearitySpec, PowerTerm, WeightedPowerTerm
from .params import ProblemParams
from .solvers import _SWEEP_METHODS

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration; message carries a file:line anchor."""


# every config key: (section, type, RunConfig attribute).  The echo nests the
# sweep_* keys under "sweep" with the prefix dropped; [nonlinearity] terms are
# parsed by _parse_term once the grid size is known.
_KEYS = {
    "N": ("params", int, "N"),
    "s": ("params", float, "s"),
    "alpha": ("params", float, "alpha"),
    "R": ("grid", float, "R"),
    "M": ("grid", int, "M"),
    "term": ("nonlinearity", str, "terms"),
    "method": ("solver", str, "method"),
    "tol": ("solver", float, "tol"),
    "max_iter": ("solver", int, "max_iter"),
    "seed": ("solver", str, "seed"),
    "seed_width": ("solver", float, "seed_width"),
    "seed_file": ("solver", str, "seed_file"),
    "k": ("solver", int, "k"),
    "lambda": ("solver", float, "lam"),
    "sweep_term": ("solver", int, "sweep_term"),
    "sweep_from": ("solver", float, "sweep_from"),
    "sweep_to": ("solver", float, "sweep_to"),
    "sweep_steps": ("solver", int, "sweep_steps"),
    "sweep_method": ("solver", str, "sweep_method"),
    "json": ("output", str, "out_json"),
    "field": ("output", str, "out_field"),
    "csv": ("output", str, "out_csv"),
}
_SECTIONS = {section for section, _, _ in _KEYS.values()}

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

    def validate(self) -> None:
        """Check the settings that no single key can, on the merged file and flags."""
        if self.method is not None and self.method not in _METHODS:
            raise ConfigError(
                f"{self.source}: unknown solver method {self.method!r} (expected one of {sorted(_METHODS)})"
            )
        if self.sweep_method not in _SWEEP_METHODS:
            raise ConfigError(
                f"{self.source}: unknown sweep method {self.sweep_method!r} "
                f"(expected one of {list(_SWEEP_METHODS)})"
            )
        # a sweep of no rows would certify nothing and exit 0
        if self.sweep_steps is not None and self.sweep_steps < 1:
            raise ConfigError(f"{self.source}: sweep_steps must be at least 1, got {self.sweep_steps}")
        if self.seed not in ("gaussian", "bump", "file"):
            raise ConfigError(f"{self.source}: unknown seed kind {self.seed!r}")
        if self.seed == "file" and self.seed_file is None:
            raise ConfigError(f"{self.source}: seed = file requires seed_file = PATH")
        if self.lam is not None and not math.isfinite(self.lam):
            raise ConfigError(f"{self.source}: lambda must be finite, got {self.lam!r}")

    def echo(self) -> dict:
        """Canonical parsed form (what was validated, not the raw text)."""
        out: dict = {"nonlinearity": [_echo_term(t) for t in self.terms]}
        for key, (section, _, attr) in _KEYS.items():
            if section != "nonlinearity":
                node = out.setdefault(section, {})
                if key.startswith("sweep_"):
                    node, key = node.setdefault("sweep", {}), key[len("sweep_"):]
                node[key] = getattr(self, attr)
        return out


def _echo_term(t) -> dict:
    d = {"kind": type(t).__name__, "coef": t.coef, "q": t.q}
    if isinstance(t, DampedPowerTerm):
        d["gamma"] = t.gamma
    if isinstance(t, WeightedPowerTerm):
        d["weight_len"] = len(t.weight)
    return d


def _parse_term(raw: str, base_dir: Path, expected_m: int | None):
    """One [nonlinearity] term; every error is a ``ValueError`` or an
    ``OSError``, which ``parse_config`` anchors at the term's line."""
    parts = raw.split()
    if not parts:
        raise ValueError("empty term")
    kind = parts[0]
    if kind not in _TERM_KINDS:
        raise ValueError(f"unknown term kind {kind!r} (expected one of {sorted(_TERM_KINDS)})")
    kv = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ValueError(f"malformed term token {tok!r}")
        k, v = tok.split("=", 1)
        kv[k] = v

    def fget(name):
        if name not in kv:
            raise ValueError(f"term missing {name}=")
        try:
            value = float(kv.pop(name))
        except ValueError:
            value = math.nan  # unparsable: rejected with the non-finite values
        if not math.isfinite(value):
            raise ValueError(f"bad value for {name}")
        return value

    if kind == "power":
        term = PowerTerm(fget("coef"), fget("q"))
    elif kind == "damped":
        term = DampedPowerTerm(fget("coef"), fget("q"), fget("gamma"))
    else:
        coef, q = fget("coef"), fget("q")
        wpath = kv.pop("weight", None)
        if wpath is None:
            raise ValueError("weighted term requires weight=FILE")
        try:
            profile = np.loadtxt(base_dir / wpath, ndmin=1)
        except ValueError as exc:  # numpy's parse error does not name the file
            raise ValueError(f"weight profile {wpath}: {exc}") from None
        if not np.all(np.isfinite(profile)):
            raise ValueError(f"weight profile {wpath} has non-finite samples")
        if expected_m is not None and profile.size != expected_m:
            raise ValueError(f"weight profile has {profile.size} samples, grid has M={expected_m}")
        term = WeightedPowerTerm.from_profile(coef, q, profile)
    if kv:
        raise ValueError(f"unknown term key(s): {', '.join(sorted(kv))}")
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
            if section not in _SECTIONS:
                raise ConfigError(f"{source}:{line_no}: unknown section [{section}]")
            continue
        if section is None:
            raise ConfigError(f"{source}:{line_no}: entry outside of any section")
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if _KEYS.get(key, (None,))[0] != section:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r} in [{section}]")
        if section == "nonlinearity":
            pending_terms.append((line_no, value))
            continue
        _, kind, attr = _KEYS[key]
        try:
            setattr(cfg, attr, kind(value))
        except ValueError:
            raise ConfigError(f"{source}:{line_no}: cannot parse {key} = {value!r}") from None
    cfg.validate()
    for line_no, value in pending_terms:
        try:
            cfg.terms.append(_parse_term(value, base_dir, cfg.M))
        except (ValueError, OSError) as exc:  # the term's own checks, the weight file's and numpy's
            raise ConfigError(f"{source}:{line_no}: {exc}") from None
    return cfg


def load_config(path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_config(text, source=str(path), base_dir=p.parent)
