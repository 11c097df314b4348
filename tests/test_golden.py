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
import importlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import soslift
from soslift.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = str(Path(soslift.__file__).resolve().parents[1])
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
    # install imports each module it wraps; with every module loaded first,
    # before and after hold the same modules whichever tests ran earlier
    for module in ("cli", "farey", "lifting", "perm_core", "perm_sets", "sos", "trees"):
        importlib.import_module(f"soslift.{module}")
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


LAYERS = _perfbench_module("tracing").LAYERS


@pytest.mark.parametrize("module", sorted({layer[0] for layer in LAYERS}))
def test_the_tracer_reaches_each_layer_module_from_a_fresh_package(module: str) -> None:
    """The tracer reads each module it wraps as getattr(soslift, module); in
    an interpreter that has imported only the package, that imports the
    module, which then holds every function the tracer wraps in it."""
    names = [layer[1] for layer in LAYERS if layer[0] == module]
    code = (f"import sys\nsys.path.insert(0, {SRC!r})\nimport soslift\n"
            f"assert 'soslift.{module}' not in sys.modules\n"
            f"loaded = getattr(soslift, {module!r})\n"
            f"assert loaded is sys.modules['soslift.{module}']\n"
            f"assert all(callable(getattr(loaded, name)) for name in {names!r})\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_the_tracer_leaves_no_wrapper_in_the_modules_it_imports() -> None:
    """Installed where only cli is loaded, as in a fresh CLI process, the
    tracer imports the other modules itself while it wraps; once it is
    uninstalled no soslift module holds one of its wrappers."""
    code = f"""
import sys
sys.path[:0] = [{SRC!r}, {str(PERFBENCH)!r}]
from soslift import cli
from tracing import Tracer
tracer = Tracer()
tracer.install()
tracer.uninstall()
wrapper_file = tracer._traced.__code__.co_filename
left = [(name, attr) for name, module in list(sys.modules.items()) if name.split(".")[0] == "soslift"
        for attr, value in vars(module).items()
        if getattr(getattr(value, "__code__", None), "co_filename", None) == wrapper_file]
assert left == [], left
"""
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


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
