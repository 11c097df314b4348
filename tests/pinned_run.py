"""Run one soslift command as a child process and check what it prints.

    python tests/pinned_run.py --sha256 H [--lines N] [--peak-mb B] -- ARGV...

runs ``python -m soslift.cli ARGV...`` with stdout on a pipe, read 1 MiB at
a time, and exits 0 only if the child exits 0, its stdout hashes to the
SHA-256 H, holds N lines (when --lines is given), and the child's peak RSS
(its ru_maxrss, from os.wait4) stays under B MB (when --peak-mb is given).
The child inherits the environment, so PYTHONPATH must reach soslift.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="run one soslift command and check its stdout")
    p.add_argument("--sha256", required=True, help="the SHA-256 of stdout, in hex")
    p.add_argument("--lines", type=int, help="the number of lines of stdout")
    p.add_argument("--peak-mb", type=float, help="a bound on the child's peak RSS, in MB")
    p.add_argument("argv", nargs="+", help="the soslift.cli arguments, after --")
    args = p.parse_args(argv)
    with subprocess.Popen([sys.executable, "-m", "soslift.cli", *args.argv],
                          stdout=subprocess.PIPE) as proc:
        digest, lines = hashlib.sha256(), 0
        while chunk := proc.stdout.read(1 << 20):
            digest.update(chunk)
            lines += chunk.count(b"\n")
        # the rusage of this child alone: RUSAGE_CHILDREN would also count the
        # children of a shell that execs this script in its own process
        _, wait_status, usage = os.wait4(proc.pid, 0)
        status = proc.returncode = os.waitstatus_to_exitcode(wait_status)
    peak_mb = usage.ru_maxrss / 1024
    print(f"{' '.join(args.argv)}: exit {status}, {lines} lines, sha256 {digest.hexdigest()}, "
          f"peak RSS {peak_mb:.1f} MB")
    failures = []
    if status != 0:
        failures.append(f"exit status {status}")
    if digest.hexdigest() != args.sha256:
        failures.append(f"sha256 is not {args.sha256}")
    if args.lines is not None and lines != args.lines:
        failures.append(f"{lines} lines, not {args.lines}")
    if args.peak_mb is not None and peak_mb >= args.peak_mb:
        failures.append(f"peak RSS {peak_mb:.1f} MB, not under {args.peak_mb:g} MB")
    for message in failures:
        print(f"error: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
