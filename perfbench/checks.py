"""Result check: read back what a solve wrote and recompute its certificate.

Every timed solve is checked here, outside its timed region.  The check
reads the JSON envelope, the FCSF field and the branch CSV the CLI wrote,
recomputes the identities with public ``fcs`` calls on a grid of the
checker's own, and compares lambda / levels / energies with the committed
references (references.json) at the relative tolerance stated there.  It
returns ``"ok"`` or the reason the solve counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from fcs.config import load_config
from fcs.diagnostics import nehari_residual, pohozaev_residual
from fcs.energy import I_functional, Phi, eigen_spec, grad_Phi
from fcs.grid import Field, make_grid
from fcs.io import load_field
from fcs.operators import DualField, apply_A, apply_B, dual_norm
from fcs.params import compute_exponents

import workloads

NEHARI_REL_TOL = 1e-8
MANIFOLD_TOL = 1e-8
SWEEP_RESIDUAL_MAX = 1e-9


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(b), 1e-300)


class Checker:
    def __init__(self, references: dict):
        self.values = references["values"]
        self.rel_tol = references["rel_tol"]
        self.pohozaev_rel_tol = references["pohozaev_rel_tol"]
        self._grids = {}

    def _field(self, path: Path) -> Field:
        # the checker's own grid, so a solve's caches are never reused here
        u = load_field(path)
        g = u.grid
        key = (g.params, g.R, g.M)
        if key not in self._grids:
            self._grids[key] = make_grid(g.params, g.R, g.M)
        return Field(self._grids[key], u.values)

    def check(self, inp: dict, rc, out_dir: Path, cfg_path: Path) -> str:
        if rc != 0:
            return f"exit code {rc}"
        try:
            ref = self.values[workloads.ref_key(inp)]
        except KeyError:
            return f"no reference for {workloads.ref_key(inp)}"
        env = json.loads((out_dir / "solve.json").read_text())
        rep = env["report"]
        if inp["kind"] == "sweep":
            return self._check_sweep(inp, rep, out_dir / "solve.csv", ref)
        if rep["converged"] is not True:
            return "report says not converged"
        u = self._field(out_dir / "solve.fld")
        if inp["kind"] == "eigen":
            return self._check_eigen(rep, u, ref)
        return self._check_level(rep, u, load_config(cfg_path).spec(), ref)

    def _check_common(self, rep: dict, u: Field, spec, resid: float, ref: dict) -> str:
        res0 = rep["residual_dual"] / rep["residual_rel"] if rep["residual_rel"] else 0.0
        if not (res0 > 0.0) or resid / res0 > workloads.TOL:
            return f"recomputed residual_rel {resid / res0 if res0 else math.inf:.3e} > tol"
        scale = apply_A(u).pair(u)
        neh = abs(nehari_residual(u, spec)) / scale
        if neh > NEHARI_REL_TOL:
            return f"Nehari residual {neh:.3e}"
        poh = pohozaev_residual(u, spec).pohozaev_rel
        if not _close(poh, ref["pohozaev_rel"], self.pohozaev_rel_tol):
            return f"Pohozaev {poh!r} vs reference {ref['pohozaev_rel']!r}"
        if not _close(poh, rep["pohozaev_rel"], self.pohozaev_rel_tol):
            return f"Pohozaev {poh!r} vs report {rep['pohozaev_rel']!r}"
        return "ok"

    def _check_eigen(self, rep: dict, u: Field, ref: dict) -> str:
        lam = rep["multiplier"]
        if not _close(lam, ref["lambda"], self.rel_tol):
            return f"lambda {lam!r} vs reference {ref['lambda']!r}"
        if abs(I_functional(u) - 1.0) > MANIFOLD_TOL:
            return f"|I - 1| = {abs(I_functional(u) - 1.0):.3e}"
        resid = dual_norm(DualField(u.grid, apply_A(u).values - lam * apply_B(u).values))
        spec = eigen_spec(lam, compute_exponents(u.grid.params))
        return self._check_common(rep, u, spec, resid, ref)

    def _check_level(self, rep: dict, u: Field, spec, ref: dict) -> str:
        level = Phi(u, spec)
        if not _close(level, rep["energy"], self.rel_tol):
            return f"recomputed level {level!r} vs report {rep['energy']!r}"
        if not _close(level, ref["level"], self.rel_tol):
            return f"level {level!r} vs reference {ref['level']!r}"
        if "level_exceeds_ps_threshold" in ref and rep.get("level_exceeds_ps_threshold") != ref["level_exceeds_ps_threshold"]:
            return "concentration-threshold flag differs from the reference"
        return self._check_common(rep, u, spec, dual_norm(grad_Phi(u, spec)), ref)

    def _check_sweep(self, inp: dict, rep: dict, csv_path: Path, ref: dict) -> str:
        values = workloads.sweep_values(inp)
        if rep.get("rows") != len(values) or rep.get("converged") != len(values):
            return f"envelope rows/converged {rep.get('rows')}/{rep.get('converged')}"
        with csv_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(values):
            return f"CSV has {len(rows)} rows"
        for row, c in zip(rows, values):
            if row["converged"] != "true":
                return f"row {c}: not converged"
            if abs(float(row["param"]) - c) > 1e-9:
                return f"row param {row['param']} != {c}"
            energy, I, J = float(row["energy"]), float(row["I"]), float(row["J"])
            want = ref["energy"][f"{c:.1f}"]
            if not _close(energy, want, self.rel_tol):
                return f"row {c}: energy {energy!r} vs reference {want!r}"
            if not (I > 0.0 and J > 0.0) or float(row["residual"]) > SWEEP_RESIDUAL_MAX:
                return f"row {c}: I={I} J={J} residual={row['residual']}"
        return "ok"

