"""Every benchmark op's stdout still hashes to its entry in perfbench/golden.json.

Each op runs through ``cli.main`` with seed 0, as ``perfbench/golden.py``
runs it, and its stdout is hashed as it is written.  The ops also run once
under the benchmark's tracer, which wraps soslift functions by name, so a
renamed or deleted name shows here as well as in a traced benchmark run.
Nothing under perfbench/ is changed.
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


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks its module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


OPS = [op for ops in _perfbench_module("workloads").WORKLOADS.values() for op in ops]
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


def _soslift_bindings() -> dict:
    """Every attribute of every soslift module, and of the classes the tracer patches."""
    from soslift import perm_core
    found = {(name, attr): value for name, module in sys.modules.items()
             if name == "soslift" or name.startswith("soslift.")
             for attr, value in vars(module).items()}
    for cls in (perm_core.PermClass, perm_core.Permutation):
        found.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    return found


def test_every_op_matches_golden_under_the_tracer() -> None:
    tracer = _perfbench_module("tracing").Tracer()
    before = _soslift_bindings()
    tracer.install()
    try:
        patched = list(tracer._patches)
        assert patched
        for op in OPS:
            sink = _HashSink()
            tracer.op = op.name
            with contextlib.redirect_stdout(sink):
                assert tracer.call("cli.main", main, op.build_argv(SEED)) == 0, op.name
            assert sink.hash.hexdigest() == GOLDEN[op.name], op.name
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["cli.main.calls"] == len(OPS)
    assert metrics["perm_sets.verify_theorems.failed"] == 0
    for obj, attr, original in patched:
        assert getattr(obj, attr) is original, attr
    after = _soslift_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_the_workers_checked_pass_finds_no_problem(monkeypatch: pytest.MonkeyPatch) -> None:
    """The worker's own content checks, as its untimed first pass runs them:
    row counts, sampled rows in V, the lifted levels against phi, and the
    verification records."""
    # the worker imports tracing and workloads by name, and puts src/ on
    # sys.path; monkeypatch restores sys.path afterwards
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = _perfbench_module("worker")
    golden = json.loads(worker.GOLDEN_FILE.read_text())
    for workload in worker.WORKLOADS:
        results = worker.checked_pass(workload, SEED, golden, worker.Tracer())
        assert [r.op.name for r in results] == [op.name for op in worker.WORKLOADS[workload]]
        assert {r.op.name: r.problems for r in results if r.problems} == {}, workload
