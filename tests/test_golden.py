"""Every benchmark op's stdout still hashes to its entry in perfbench/golden.json.

Each op runs through ``cli.main`` with seed 0, as ``perfbench/golden.py``
runs it, and its stdout is hashed as it is written.  Nothing under
perfbench/ is changed.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from soslift.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 0


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks its module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


OPS = [op for ops in _workloads().values() for op in ops]
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


class _HashSink(io.TextIOBase):
    def __init__(self):
        self.hash = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.hash.update(s.encode())
        return len(s)


def test_every_op_has_a_golden_hash() -> None:
    assert sorted(op.name for op in OPS) == sorted(GOLDEN)


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_op_stdout_matches_golden(op) -> None:
    sink = _HashSink()
    with contextlib.redirect_stdout(sink):
        assert main(op.build_argv(SEED)) == 0
    assert sink.hash.hexdigest() == GOLDEN[op.name]
