"""Run one workload in this process and print its result as one JSON line.

Started by run.py in a fresh single-threaded interpreter, from the root of a
soslift checkout.  The workload is a closed loop with one client: each op is
an in-process ``cli.main(argv)`` call whose stdout goes to a SHA-256 sink,
and the next op starts when the previous one returns.

The first pass is untimed: it warms the process and runs every correctness
check, with only ``lift_fibers`` wrapped to record the lifted levels.  Timed
passes follow within a window of ``--seconds`` (see Window).  With
``--trace 0`` they give the end-to-end metrics: set-up samples (see
SETUP_CODE) are taken between ops, spread over the same stretch of time,
every op and set-up sample is timed against a reference kernel run on
either side of it (see REFERENCE_S), and the peak RSS is read after the
window.  With ``--trace 1`` each op runs untraced and then traced, back to
back: per-layer metrics and the tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import soslift  # noqa: E402
from soslift import cli, farey, perm_sets  # noqa: E402
from soslift.perm_core import Permutation  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import SAME_OUTPUT, SAMPLE_ROWS, WORKLOADS, Op  # noqa: E402

GOLDEN_FILE = Path(__file__).with_name("golden.json")

# setup_s: a fresh interpreter imports soslift and runs one tiny lift, as a
# CLI user waits for it.  It is timed by the CPU time of that interpreter:
# it runs on one thread and reads only cached files, so this is its wall
# time less the time the host gives to other tenants.
SETUP_CODE = (
    "import contextlib, io, sys\n"
    "sys.path.insert(0, 'src')\n"
    "from soslift import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    sys.exit(cli.main(['lift', '--to-m', '3']))\n"
)
SETUP_MIN = 24

# On a shared host other tenants slow every process on it, by up to a half
# and for stretches of seconds to minutes: more than a run lasts, so no
# statistic within one run can take it out.  The reference kernel is fixed
# work that uses no soslift code.  It is timed just before and just after
# every op and set-up sample, and each sample is divided by the mean of its
# two neighbours.  The end-to-end times are the medians of these ratios,
# scaled by REFERENCE_S, about the kernel's time on an idle 2-vCPU x86-64
# VM: seconds as they would read on that host.  A change to soslift moves the ratios; the
# host's speed moves both sides of them.
REFERENCE_S = 0.014


class HashSink(io.TextIOBase):
    """Write-only text stream that hashes what it is given and counts lines.

    ``keep`` selects the 0-based line numbers whose text is retained: None
    keeps none, the string "all" keeps every line.
    """

    def __init__(self, keep=None):
        self._hash = hashlib.sha256()
        self.bytes = 0
        self.lines = 0
        self._keep = keep
        self._current: list[str] = []
        self.kept: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        data = s.encode()
        self._hash.update(data)
        self.bytes += len(data)
        if self._keep is None:
            self.lines += s.count("\n")
            return len(s)
        pieces = s.split("\n")
        for k, piece in enumerate(pieces):
            wanted = self._keep == "all" or self.lines in self._keep
            if wanted:
                self._current.append(piece)
            if k < len(pieces) - 1:
                if wanted:
                    self.kept.append("".join(self._current))
                self._current = []
                self.lines += 1
        return len(s)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class OpResult:
    op: Op
    seconds: float
    rc: object  # exit code, or "exception"
    digest: str  # SHA-256 of stdout
    sink: HashSink
    error: str  # captured stderr
    problems: list[str] = field(default_factory=list)


def run_op(op: Op, seed: int, tracer: Tracer | None = None, keep=None) -> OpResult:
    """Run one CLI call with its stdout hashed; never raises."""
    argv = op.build_argv(seed)
    sink = HashSink(keep)
    err = io.StringIO()
    rc: object = None
    # each CLI command starts in a fresh process, so no op pays for
    # collecting the garbage an earlier op left
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(argv)
            else:
                tracer.op = op.name
                rc = tracer.call("cli.main", cli.main, argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        err.write(traceback.format_exc())
        rc = "exception"
    seconds = time.perf_counter() - start
    return OpResult(op, seconds, rc, sink.hexdigest(), sink, err.getvalue())


class Window:
    """The measuring window of --seconds: passes run while one more fits.

    The first pass always runs; a further pass starts only if a pass as long
    as the last one would end within the window.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.end = time.perf_counter() + seconds
        self.last_start: float | None = None

    def next_pass_fits(self) -> bool:
        now = time.perf_counter()
        fits = self.last_start is None or now + (now - self.last_start) <= self.end
        self.last_start = now
        return fits

    def share_elapsed(self) -> float:
        return 1 - max(0.0, self.end - time.perf_counter()) / self.seconds


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds() -> float:
    """CPU seconds (user + system) of one fresh interpreter running SETUP_CODE."""
    start = _children_cpu_s()
    # no timeout: Popen.wait polls in steps of up to 50 ms when given one;
    # run.py ends this interpreter with the worker's process group
    subprocess.run([sys.executable, "-c", SETUP_CODE], check=True)
    return _children_cpu_s() - start


def reference_kernel() -> int:
    """The reference work: dict and tuple churn as in perm_sets and
    perm_core, then int64 array arithmetic as in lift_fibers.  It holds
    under a megabyte, so it does not move the peak RSS."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(32000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        acc ^= key
    rows = sorted(tuple((j * k) % 97 for j in range(8)) for k in range(2000))
    acc += len(rows)
    a = np.arange(8192, dtype=np.int64)
    for k in range(200):
        acc += int(((a * (k + 31) + 7) % 200).min())
    return acc


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def check_outputs(results, workload: str, golden: dict) -> None:
    """Checks that hold on every pass: exit code, golden hash, route agreement."""
    by_name = {r.op.name: r for r in results}
    for r in results:
        if r.rc != 0:
            r.problems.append(f"exit {r.rc}: {r.error.strip()[-2000:]}")
        elif golden.get(r.op.name) != r.digest:
            r.problems.append(f"stdout sha256 {r.digest} != golden {golden.get(r.op.name)}")
    for first, second in SAME_OUTPUT[workload]:
        if by_name[first].digest != by_name[second].digest:
            by_name[second].problems.append(f"output differs from {first}")


def sample_rows(op: Op, seed: int) -> set[int]:
    rows = farey.totient_sum(op.v_degree)
    rng = random.Random(f"{seed}:{op.name}")
    return set(rng.sample(range(rows), min(SAMPLE_ROWS, rows)))


def check_content(results, tracer: Tracer) -> None:
    """Checks of the first pass: row counts, lifted levels, in_V, records."""
    by_name = {r.op.name: r for r in results}
    for r in results:
        op = r.op
        if op.v_degree is not None:
            want = farey.totient_sum(op.v_degree)
            if r.sink.lines != want:
                r.problems.append(f"{r.sink.lines} rows, expected totient sum {want}")
            for line in r.sink.kept:
                try:
                    if op.row_format == "json":
                        perm = Permutation.from_json(json.loads(line))
                    else:
                        perm = Permutation.parse(line)
                except (ValueError, KeyError, TypeError):
                    perm = None
                if perm is None or perm.m != op.v_degree or not perm_sets.in_V(perm):
                    r.problems.append(f"row not in V_{op.v_degree}: {line[:80]}")
                    break
        if op.records:
            lines = [ln for ln in r.sink.kept if ln]
            if not lines or not all(ln.startswith("PASS ") for ln in lines):
                r.problems.append("a verification record did not pass")
    phi = farey.totients(max((lv[1] for lv in tracer.levels), default=1))
    for op_name, m, rows, branching in tracer.levels:
        if rows != farey.totient_sum(m) or branching != phi[m]:
            by_name[op_name].problems.append(
                f"lifted level {m}: {rows} rows, {branching} branching; "
                f"expected {farey.totient_sum(m)}, {phi[m]}")


def checked_pass(workload: str, seed: int, golden: dict, tracer: Tracer) -> list[OpResult]:
    """The untimed first pass: warm-up and every correctness check."""
    ops = WORKLOADS[workload]
    keeps = {op.name: sample_rows(op, seed) for op in ops if op.v_degree is not None}
    keeps.update({op.name: "all" for op in ops if op.records})
    tracer.install(levels_only=True)
    try:
        results = [run_op(op, seed, tracer, keeps.get(op.name)) for op in ops]
    finally:
        tracer.uninstall()
    check_outputs(results, workload, golden)
    check_content(results, tracer)
    return results


def measure(ops, args, golden: dict, tally) -> dict:
    """Timed passes within the window: end-to-end metrics.

    wall_s is the sum over ops of each op's median time relative to the
    reference (see REFERENCE_S); setup_s is the median of the set-up
    samples relative to it.  The set-up samples are taken between ops,
    spread evenly over the window.  The raw times are kept beside them.
    """
    walls: list[float] = []
    cpus: list[float] = []
    op_seconds: dict[str, list[float]] = {op.name: [] for op in ops}
    op_relative: dict[str, list[float]] = {op.name: [] for op in ops}
    setups: list[float] = []
    setup_relative: list[float] = []
    refs = [reference_seconds()]

    def relative(seconds: float) -> float:
        """seconds over the mean of the reference samples on either side"""
        refs.append(reference_seconds())
        return seconds / ((refs[-2] + refs[-1]) / 2)

    def sample_setup() -> None:
        setups.append(setup_seconds())
        setup_relative.append(relative(setups[-1]))

    window = Window(args.seconds)
    while window.next_pass_fits():
        results = []
        cpu = 0.0
        for op in ops:
            cpu_start = time.process_time()
            results.append(run_op(op, args.seed))
            cpu += time.process_time() - cpu_start
            op_seconds[op.name].append(results[-1].seconds)
            op_relative[op.name].append(relative(results[-1].seconds))
            while len(setups) < SETUP_MIN * window.share_elapsed():
                sample_setup()
        check_outputs(results, args.workload, golden)
        tally(results)
        walls.append(sum(r.seconds for r in results))
        cpus.append(cpu)
    while len(setups) < SETUP_MIN:
        sample_setup()

    wall_s = REFERENCE_S * sum(statistics.median(v) for v in op_relative.values())
    rows = sum(r.sink.lines for r in results if r.op.emits_rows)
    return {
        "metrics": {
            "wall_s": wall_s,
            "rows_per_s": rows / wall_s,
            "setup_s": REFERENCE_S * statistics.median(setup_relative),
            # the peak of every pass so far; none ran with the full tracer
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "raw_wall_s": sum(statistics.median(v) for v in op_seconds.values()),
        "raw_setup_s": statistics.median(setups),
        "pass_walls_s": walls,
        "pass_cpu_s": cpus,
        "op_seconds": op_seconds,
        "setup_samples_s": setups,
        "reference_samples_s": refs,
    }


def measure_traced(ops, args, golden: dict, tally, tracer: Tracer) -> dict:
    """Per-layer metrics from traced passes within the window.

    Each op runs untraced and then traced, back to back, so that the
    tracing overhead is a difference of two runs close in time.
    """
    walls: list[float] = []
    traced_walls: list[float] = []
    layer_runs: list[dict] = []
    spans: list[list[list]] = []  # one span list per traced pass
    window = Window(args.seconds)
    while window.next_pass_fits():
        tracer.reset()
        plain, traced = [], []
        for op in ops:
            plain.append(run_op(op, args.seed))
            tracer.install()
            try:
                traced.append(run_op(op, args.seed, tracer))
            finally:
                tracer.uninstall()
        for results in (plain, traced):
            check_outputs(results, args.workload, golden)
            tally(results)
        tracer.counters["cli.bytes_out"] = sum(r.sink.bytes for r in traced)
        walls.append(sum(r.seconds for r in plain))
        traced_walls.append(sum(r.seconds for r in traced))
        layer_runs.append(tracer.layer_metrics())
        spans.append(tracer.spans)

    names = sorted(set().union(*layer_runs))
    layers = {name: statistics.median(run.get(name, 0) for run in layer_runs) for name in names}
    layers["trace.wall_s"] = statistics.median(traced_walls)
    layers["trace.overhead_s"] = statistics.median(t - w for t, w in zip(traced_walls, walls))
    if args.spans_out:
        with open(args.spans_out, "w") as fh:
            for k, pass_spans in enumerate(spans):
                for name, start, end, parent, op in pass_spans:
                    fh.write(json.dumps({"pass": k, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
    return {"metrics": layers, "pass_walls_s": walls, "traced_pass_walls_s": traced_walls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="file for the spans of the traced passes (JSON lines)")
    args = parser.parse_args(argv)

    ops = WORKLOADS[args.workload]
    golden = json.loads(GOLDEN_FILE.read_text())
    tracer = Tracer()
    failures: list[str] = []
    attempted = failed = 0

    def tally(results) -> None:
        nonlocal attempted, failed
        for r in results:
            attempted += 1
            if r.problems:
                failed += 1
                failures.append(f"{r.op.name}: {'; '.join(r.problems)}")

    tally(checked_pass(args.workload, args.seed, golden, tracer))
    if args.trace:
        result = measure_traced(ops, args, golden, tally, tracer)
    else:
        result = measure(ops, args, golden, tally)
        result["metrics"]["ok_ratio"] = (attempted - failed) / attempted

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result.update(attempted=attempted, failed=failed,
                  numpy=np.__version__, soslift=soslift.__version__)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
