"""Record the SHA-256 of every benchmark op's stdout into golden.json.

Run from the root of a soslift checkout, at a commit whose output is known
to be right:

    python3 perfbench/golden.py

The benchmark fails an op whose stdout hash differs from the recorded one,
so a change that claims a speed-up must leave every output byte-identical.
"""
from __future__ import annotations

import json
import sys

from worker import GOLDEN_FILE, run_op
from workloads import WORKLOADS

# the seed only feeds `verify --seed`, whose report does not depend on it
SEED = 0


def main() -> int:
    golden = {}
    for ops in WORKLOADS.values():
        for op in ops:
            result = run_op(op, SEED)
            if result.rc != 0:
                print(f"{op.name}: exit {result.rc}\n{result.error}", file=sys.stderr)
                return 1
            golden[op.name] = result.digest
            print(f"{op.name} {result.digest}")
    GOLDEN_FILE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
