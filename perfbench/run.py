"""soslift benchmark: end-to-end and per-layer metrics of the soslift CLI.

Run from the root of a soslift checkout:

    python3 perfbench/run.py --workload lift-stream --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Each workload runs in a fresh, single-threaded interpreter (perfbench/worker.py)
as a closed loop with one client.  With ``--trace 0`` the result holds the
end-to-end metrics, measured with tracing off; with ``--trace 1`` it holds
the per-layer metrics of a separate traced run.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  The full result, with
its environment block, and the spans of a traced run are written under
perfbench/out/.

The benchmark exits 2 without a result when the checkout holds no soslift
sources.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# a result must be printed within this many seconds of the start
TIME_LIMIT_S = 170
HASH_SEED = "0"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def git_rev(root: Path) -> str | None:
    """HEAD commit, when the checkout is a git repository and git is installed."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def l3_bytes() -> int | None:
    """Size of cpu0's level-3 cache from sysfs; None where it is not exposed."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def environment(root: Path, workload: str, seed: int, trace: int, worker: dict) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": git_rev(root),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "soslift": worker.get("soslift"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "l3_bytes": l3_bytes(),
        "machine": platform.machine(),
        "PYTHONHASHSEED": HASH_SEED,
        "threads": 1,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "note": "lift_fibers.bytes_out, generate_up_to.bytes_held and export_tree.bytes "
                "are computed from array and string sizes, not measured",
    }


def run_worker(root: Path, workload: str, seed: int, seconds: float, trace: int,
               deadline: float, spans_out: Path) -> dict | None:
    """One worker process; its result, or None when it fails or overruns."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # the worker's own children (set-up interpreters) share its group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{workload}: worker did not finish in time", file=sys.stderr)
        return None
    if proc.returncode != 0 or not stdout.strip():
        print(f"{workload}: worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict | None:
    """One workload in a fresh worker process; None when it does not finish."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    worker = run_worker(root, workload, seed, seconds, trace, deadline,
                        out_dir / f"{stem}.spans.jsonl")
    if worker is None:
        return None
    attempted, failed, metrics = worker["attempted"], worker["failed"], worker["metrics"]
    spec = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    if trace:
        # a layer the workload never enters has no span and no counter
        metrics = {m["name"]: 0 for m in spec} | metrics
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    report = dict(result, fail_ratio=failed / attempted,
                  environment=environment(root, workload, seed, trace, worker),
                  all_metrics=metrics, worker=worker)
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"environment": report["environment"]}))
    print(f"{workload}: fail_ratio {report['fail_ratio']} ({failed}/{attempted} ops), "
          f"{len(worker['pass_walls_s'])} timed passes")
    for name, m in result["metrics"].items():
        print(f"{workload}  {name:<44} {m['value']:>16.6g} {m['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="soslift benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS],
                        help="one workload, or all of them untraced and traced (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run (one workload only)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "soslift" / "cli.py").is_file():
        print("error: no soslift sources under src/soslift; run from the root of a checkout",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        deadline = time.monotonic() + TIME_LIMIT_S
        result = run_workload(root, args.workload, args.seed, args.seconds, args.trace, deadline)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            deadline = time.monotonic() + TIME_LIMIT_S
            result = run_workload(root, workload, args.seed, args.seconds, trace, deadline)
            if result is None:
                return 1
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
