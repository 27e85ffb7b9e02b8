"""One workload in its own process: closed-loop CLI solves, each checked.

Started by run.py from the root of a checkout.  Pins the BLAS/FFT pools
through fcs's ``FCS_THREADS`` contract before numpy loads, imports fcs from
``src/``, generates the inputs from the seed and prints ``ready``; run.py
times process start to that line as set-up.  Then one client runs solves
back to back through ``fcs.cli.cli_main`` until ``--seconds`` are used up,
each on the fresh grid the CLI builds, and prints one JSON line of raw
results.  With ``--trace 1`` it first runs the known-defect probe, then
alternates an untraced and a traced solve of each input, so the tracing
overhead is measured on the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import stats
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUTPUTS = ("solve.json", "solve.fld", "solve.csv")


def pin_threads() -> None:
    spec = importlib.util.spec_from_file_location("_fcs_entry", ROOT / "src" / "fcs" / "_entry.py")
    entry = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(entry)
    entry._cap_threads()


class Runner:
    def __init__(self, out_dir: Path, checker):
        import fcs.cli
        from fcs.params import ProblemParams, compute_exponents

        self.cli = fcs.cli
        self.out_dir = out_dir
        self.cfg_path = out_dir / "solve.cfg"
        self.checker = checker
        self._params = ProblemParams
        self._exps = compute_exponents

    def solve(self, inp: dict, extra_args: tuple = ()) -> tuple:
        """Run one CLI solve; returns (exit code or None, seconds, error text)."""
        exps = self._exps(self._params(inp["N"], inp["s"], inp["alpha"]))
        command, text = workloads.render(inp, str(self.out_dir.relative_to(ROOT)), exps)
        for name in OUTPUTS:
            (self.out_dir / name).unlink(missing_ok=True)
        self.cfg_path.write_text(text)
        argv = [command, "--config", str(self.cfg_path), *extra_args]
        sink_out, sink_err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                rc = self.cli.cli_main(argv)
        except (Exception, SystemExit) as exc:  # a raised solve is a failed solve
            rc, error = None, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        return rc, dt, error or sink_err.getvalue().strip()

    def check(self, inp: dict, rc, error: str) -> str:
        if rc is None:
            return error
        try:
            return self.checker.check(inp, rc, self.out_dir, self.cfg_path)
        except (OSError, ValueError, KeyError) as exc:
            return f"check could not read the outputs: {exc!r}"

    def bytes_written(self) -> int:
        return sum((self.out_dir / n).stat().st_size for n in OUTPUTS if (self.out_dir / n).exists())


def run_probes(runner: Runner) -> dict:
    """Known-defect inputs under a capped --max-iter: converged, ascent iterations, exit code."""
    out = {}
    for probe in workloads.PROBES:
        rc, _, _ = runner.solve(probe, ("--max-iter", str(workloads.PROBE_MAX_ITER)))
        converged, ascent = 0, 0
        path = runner.out_dir / "solve.json"
        if rc is not None and path.exists():
            rep = json.loads(path.read_text())["report"]
            converged = int(rep["converged"] is True)
            ascent = rep.get("iterations_ascent", 0)
        out[f"probe.{probe['id']}.converged"] = converged
        out[f"probe.{probe['id']}.iterations_ascent"] = ascent
        out[f"probe.{probe['id']}.exit_code"] = -1 if rc is None else rc
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import fcs  # noqa: F401  (the import is part of set-up)

    import checks

    inputs = workloads.generate(args.workload, args.seed)
    out_dir = Path(args.out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    references = json.loads((HERE / "references.json").read_text())
    runner = Runner(out_dir, checks.Checker(references))
    print("ready", flush=True)
    try:
        if not args.setup_only:
            print(json.dumps(_measure(args, inputs, runner)), flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


def _measure(args, inputs: list[dict], runner: Runner) -> dict:
    times, outcomes, unit_times, traced, traced_t, untraced_t = [], [], [], [], [], []
    result = {"threads": os.environ.get("FCS_THREADS", "")}
    deadline = time.perf_counter() + args.seconds
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        result["probes"] = run_probes(runner)
        tracer = tracer_mod.Tracer()
    # in a traced run each input is solved twice, untraced then traced
    modes = (False, True) if tracer is not None else (False,)
    i = 0
    while True:
        inp = inputs[i % len(inputs)]
        unit_start = time.perf_counter()
        for traced_solve in modes:
            if traced_solve:
                tracer.begin_solve()
                tracer.install()
                try:
                    rc, dt, error = runner.solve(inp)
                finally:
                    tracer.uninstall()
                per_solve = tracer.reduce(inp["N"], inp["M"])
                per_solve["io.bytes_written"] = runner.bytes_written()
                traced.append(per_solve)
                traced_t.append(dt)
            else:
                rc, dt, error = runner.solve(inp)
                untraced_t.append(dt)
            outcome = runner.check(inp, rc, error)
            if traced_solve and outcome == "ok" and per_solve["grid.grids_per_solve"] != 1:
                outcome = f"built {per_solve['grid.grids_per_solve']} grids in one solve"
            if outcome != "ok":
                print(f"solve {len(times)} ({workloads.ref_key(inp)}): {outcome}", file=sys.stderr)
            times.append(dt)
            outcomes.append(outcome)
        unit_times.append(time.perf_counter() - unit_start)
        i += 1
        # stop when the next solve would likely overrun the measured time
        if deadline - time.perf_counter() < stats.median(unit_times):
            break

    result.update(
        {
            "times": times,
            "outcomes": outcomes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    if tracer is not None:
        result["per_layer"] = tracer_mod.aggregate(traced)
        result["per_layer"]["trace.overhead_s"] = stats.median(traced_t) - stats.median(untraced_t)
        result["traced_solves"] = len(traced)
    return result


if __name__ == "__main__":
    sys.exit(main())
