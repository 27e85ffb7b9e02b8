"""Certified-solve benchmark for fcs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eigen-n3 --seed 1 --seconds 28 --trace 0

Workloads: eigen-n3, mountain-pass, eigen-general-n, coercive-sweep (see
WORKLOADS.md).  The workload runs in a process of its own (worker.py), one
client in a closed loop: each solve goes through ``fcs.cli.cli_main`` and is
checked against recomputed certificates and committed references before the
next one starts.  Set-up -- interpreter start, ``import fcs`` and input
generation -- is timed in that process and in two more that stop after it;
the median of the three is ``setup_s``.  BLAS/FFT pools are pinned with
``FCS_THREADS=1``.

The last line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics (per solve, from a traced run) with
``--trace 1``.  The exit code is 0 when a result was printed, 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats
import workloads

HERE = Path(__file__).resolve().parent
THREADS = "1"
SETUP_RUNS = 3
# every child is killed if the whole run would pass this many seconds
LIMIT_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)  # let FCS_THREADS decide
    env["FCS_THREADS"] = THREADS
    return env


def _start_worker(args, out_dir: Path, setup_only: bool, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it and the seconds until it printed ``ready``."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(out_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env())
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker exceeded its time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def measure(args) -> dict:
    deadline = time.monotonic() + LIMIT_S
    out_root = Path(".perfbench_out")
    setups = []
    for k in range(SETUP_RUNS - 1):
        proc, setup = _start_worker(args, out_root / f"setup-{os.getpid()}-{k}", True, deadline)
        _finish(proc, deadline)
        setups.append(setup)
    proc, setup = _start_worker(args, out_root / f"run-{os.getpid()}", False, deadline)
    setups.append(setup)
    out = _finish(proc, deadline).strip()
    try:
        raw = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError("worker printed no result") from None
    raw["setups"] = setups
    try:
        out_root.rmdir()
    except OSError:
        pass  # another run still uses it
    return raw


def summarize(args, raw: dict) -> dict:
    times, outcomes = raw["times"], raw["outcomes"]
    failed = sum(1 for o in outcomes if o != "ok")
    ratio = stats.failed_ratio(outcomes)
    tail, pct, beyond = stats.tail(times)
    p50 = stats.median(times)
    print(f"workload {args.workload}  seed {args.seed}  FCS_THREADS={raw['threads']}  solves {len(times)}")
    print(f"failed_ratio {ratio:.4f}  ({failed} of {len(times)})")
    if args.trace:
        metrics = dict(raw["per_layer"])
        metrics.update(raw["probes"])
        print(f"traced solves {raw['traced_solves']} (each paired with an untraced solve of the same input)")
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g}")
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = {
            "solve_p50_s": p50,
            "solve_tail_s": tail,
            "solves_per_s": (len(times) - failed) / sum(times),
            "setup_s": stats.median(raw["setups"]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = {"solve_p50_s": "s", "solve_tail_s": "s", "solves_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        print(f"  solve_tail_s is p{pct:.1f} of {len(times)} solves, {beyond} beyond it")
    return {
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("per_iteration"):
        return "ratio"
    if name.endswith("exit_code"):
        return "code"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must lie in (0, 60]")
    if not (Path("src") / "fcs" / "cli.py").is_file():
        print("error: run from the root of an fcs checkout (src/fcs is missing)", file=sys.stderr)
        return 2
    try:
        raw = measure(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summarize(args, raw)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
