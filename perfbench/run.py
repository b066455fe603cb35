#!/usr/bin/env python3
"""Order-study benchmark for spde-taylor.

    python3 perfbench/run.py --workload order-heat-mult --seed 2024 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  Each workload runs in its own worker
process (``worker.py``) with BLAS/OpenMP pinned to one thread.  With
``--trace 0`` the run reports the end-to-end metrics; ``setup_s`` is the
median over ``SETUP_RUNS`` worker processes, each timed from launch to its
first timed op.  Times are reported at the host's nominal speed: each is
bracketed by a machine-speed probe (``speed.py``) and rescaled by it, and
the printed table gives the raw wall-clock figures beside them.  With
``--trace 1`` one worker wraps the package's layer
boundaries (``spans.py``) and reports per-layer metrics; its spans are
written under ``.perfbench/``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("order-heat-mult", "variance-heat-add", "symbolic-expand")
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def launch(args, extra: list[str], timeout: float) -> dict:
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), *extra,
               "--launched-at", repr(time.monotonic())]
    before = speed.probe()
    try:
        done = subprocess.run(command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} worker exceeded {timeout:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} worker exited with code {done.returncode}")
    result = json.loads(lines[-1])
    result["setup_wall_s"] = result["setup_s"]
    result["setup_s"] = speed.nominal(result["setup_s"],
                                      speed.bracket(before, result["setup_probe"]))
    return result


def read_text(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def git_commit() -> str:
    head = read_text(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = read_text(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine() -> dict:
    cpu_model = "unknown"
    for line in (read_text(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read_text(index / "level")
        if level in ("2", "3"):
            caches[f"l{level}"] = read_text(index / "size")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def attempted_ops(main: dict) -> int:
    """Timed ops plus run-level output checks."""
    return main["ops"] + len(main["checks"])


def failed_ops(main: dict) -> int:
    return main["failed_ops"] + sum(not c["ok"] for c in main["checks"])


def run_workload(args) -> dict:
    """Metrics, checks and record of one workload."""
    budget = args.seconds + 150
    if args.trace:
        main = launch(args, [], budget)
        setups = [main["setup_s"]]
        setups_wall = [main["setup_wall_s"]]
        metrics = main["layer"]
    else:
        # Set-up probes run before and after the measuring worker, so the
        # median spans the whole run rather than one moment of the machine.
        before = [launch(args, ["--setup-only"], SETUP_TIMEOUT_S)
                  for _ in range(SETUP_RUNS // 2)]
        main = launch(args, [], budget)
        after = [launch(args, ["--setup-only"], SETUP_TIMEOUT_S)
                 for _ in range(SETUP_RUNS - 1 - len(before))]
        setups = [p["setup_s"] for p in (*before, main, *after)]
        setups_wall = [p["setup_wall_s"] for p in (*before, main, *after)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (main["ops"] / main["body_s"], "1/s"),
            "op_ms_p50": (main["op_ms_p50"], "ms"),
            "op_ms_p90": (main["op_ms_p90"], "ms"),
            "peak_rss_mb": (main["peak_rss_mb"], "MB"),
            "ok_frac": (1.0 - failed_ops(main) / attempted_ops(main), "frac"),
        }
    return {"main": main, "setups": setups, "setups_wall": setups_wall, "metrics": metrics,
            "attempted": attempted_ops(main), "failed": failed_ops(main)}


def print_report(args, out: dict) -> None:
    main = out["main"]
    print(f"== {args.workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    notes = {
        "setup_s": "median of " + " ".join(f"{s:.3f}" for s in out["setups"])
                   + "; wall " + " ".join(f"{s:.3f}" for s in out["setups_wall"]),
        "ops_per_s": f"{main['ops']} ops in {main['body_s']:.2f} s nominal, "
                     f"{main['wall_s']:.2f} s wall",
        "op_ms_p50": f"n={main['ops']}, wall {main['wall_op_ms_p50']:.4g}",
        "op_ms_p90": f"n={main['ops']}, wall {main['wall_op_ms_p90']:.4g}",
        "ok_frac": f"failed_frac {out['failed'] / out['attempted']:g} "
                   f"({out['failed']} of {out['attempted']}: {main['ops']} ops "
                   f"+ {len(main['checks'])} run checks)",
    }
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:<34} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    for check in main["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        print(f"  check {status} {check['name']}  {check['detail']}")
    if "probe_ms_p50" in main:
        print(f"  speed probe: median {main['probe_ms_p50']:.4g} ms over {main['probes']} "
              f"blocks, nominal {1e3 * speed.NOMINAL_PROBE_S:.4g} ms")
    if main.get("missing"):
        print(f"  not traced (missing): {', '.join(main['missing'])}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "grid_points": main["grid_points"],
              **main["versions"], **machine()}
    print("  record " + json.dumps(record, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "spde_taylor" / "__init__.py").is_file():
        print(f"no spde_taylor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            results[name] = run_workload(one)
            print_report(one, results[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    prefix = len(names) > 1
    metrics = {
        (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
        for name, out in results.items()
        for metric, (value, unit) in out["metrics"].items()
    }
    failed = sum(out["failed"] for out in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(out["attempted"] for out in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
