"""Regenerate references.json: the lambda / level / energy every timed input must reproduce.

Run from the root of a checkout (takes a few minutes):

    FCS_THREADS=1 python3 perfbench/make_references.py

Each reference key is solved from several inputs that must agree (every
eigen seed-width stratum end, every sweep start that visits a coefficient);
the script fails if they disagree by more than the tolerance the check uses.
"""

from __future__ import annotations

import json
import shutil
import sys

import worker
import workloads

REL_TOL = 1e-8
POHOZAEV_REL_TOL = 1e-4


def _spread(values: list[float]) -> float:
    ref = values[0]
    return max(abs(v - ref) for v in values) / abs(ref)


def main() -> int:
    worker.pin_threads()
    sys.path.insert(0, str(worker.ROOT / "src"))

    out_dir = worker.ROOT / ".perfbench_out" / "references"
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = worker.Runner(out_dir, checker=None)
    groups: dict[str, list[dict]] = {}

    def record(inp: dict) -> None:
        rc, dt, err = runner.solve(inp)
        if rc != 0:
            raise SystemExit(f"{workloads.ref_key(inp)}: exit code {rc}: {err}")
        rep = json.loads((out_dir / "solve.json").read_text())["report"]
        if inp["kind"] == "sweep":
            lines = (out_dir / "solve.csv").read_text().splitlines()[1:]
            rep = {"energy": {f"{float(ln.split(',')[0]):.1f}": float(ln.split(",")[1]) for ln in lines}}
        groups.setdefault(workloads.ref_key(inp), []).append(rep)
        print(f"{workloads.ref_key(inp)}  {dt:.2f} s", flush=True)

    for width in (*workloads.EIGEN_N3_WIDTHS, 1.0):
        record(workloads.eigen_input(workloads.EIGEN_N3, width))
    for params in workloads.EIGEN_GENERAL:
        for width in (workloads.EIGEN_GENERAL_WIDTH, 0.75):
            record(workloads.eigen_input(params, width))
    for q in workloads.MP_Q_LOW + workloads.MP_Q_HIGH:
        record({"kind": "mp", **workloads.MP_PARAMS, "q": q})
    record({"kind": "mp", **workloads.MP_PARAMS, "critical": workloads.MP_CRITICAL_Q6})
    for gamma in workloads.SWEEP_GAMMAS:
        for start in workloads.SWEEP_STARTS:
            record({"kind": "sweep", **workloads.SWEEP_PARAMS, "gamma": gamma, "start": start})
    shutil.rmtree(out_dir, ignore_errors=True)

    values = {}
    for key, reps in groups.items():
        if key.startswith("sweep:"):
            energies: dict[str, list[float]] = {}
            for rep in reps:
                for c, e in rep["energy"].items():
                    energies.setdefault(c, []).append(e)
            worst = max(_spread(v) for v in energies.values())
            values[key] = {"energy": {c: v[0] for c, v in sorted(energies.items())}}
        else:
            level = "lambda" if key.startswith("eigen:") else "level"
            field = "multiplier" if level == "lambda" else "energy"
            worst = _spread([r[field] for r in reps])
            poh = _spread([r["pohozaev_rel"] for r in reps])
            if poh > POHOZAEV_REL_TOL:
                raise SystemExit(f"{key}: Pohozaev residuals disagree by {poh:.2e}")
            values[key] = {level: reps[0][field], "pohozaev_rel": reps[0]["pohozaev_rel"]}
            if "level_exceeds_ps_threshold" in reps[0]:
                values[key]["level_exceeds_ps_threshold"] = reps[0]["level_exceeds_ps_threshold"]
        print(f"{key}: {len(reps)} solves agree to {worst:.2e}")
        if worst > REL_TOL:
            raise SystemExit(f"{key}: solves disagree by {worst:.2e} > {REL_TOL}")
    doc = {
        "note": "generated by make_references.py with FCS_THREADS=1",
        "rel_tol": REL_TOL,
        "pohozaev_rel_tol": POHOZAEV_REL_TOL,
        "values": values,
    }
    (worker.HERE / "references.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
