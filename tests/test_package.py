"""The package's lazy exports and the modules each command loads.

``soslift`` resolves its public names on first use, and each CLI command
imports the modules it runs, so the import graph is checked at run time in
fresh interpreters: ``lift`` loads nothing of farey, sos, perm_sets or trees,
the run-time side of test_lifting_imports_only_numpy_and_perm_core.
"""
from __future__ import annotations

import importlib
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import soslift

ROOT = Path(__file__).resolve().parents[1]

# the package's public names, by the module that defines each
EXPORTS = {
    "farey": ("FareyInterval", "farey_intervals", "farey_sequence", "farey_terms",
              "format_fraction", "parse_fraction", "totient_sum", "totients"),
    "lifting": ("Level", "generate_up_to", "iter_levels", "lift_fibers", "lift_level", "project"),
    "perm_core": ("PermClass", "Permutation", "gamma", "psi", "shift", "shift_closure",
                  "supermod_m"),
    "perm_sets": ("enumerate_class", "in_V", "verify_theorems"),
    "sos": ("SuranyiTable", "suranyi_table", "tau_from_alpha", "verify_invariants"),
    "trees": ("Tree", "build_farey_tree", "build_gen_tree", "check_isomorphism", "export_tree"),
}


def _loaded_in_child(code: str) -> list[str]:
    """The soslift modules loaded after code runs, its stdout discarded, in a
    fresh interpreter."""
    src = str(Path(soslift.__file__).resolve().parents[1])
    child = "\n".join([
        "import contextlib, io, json, sys",
        f"sys.path.insert(0, {src!r})",
        "with contextlib.redirect_stdout(io.StringIO()):",
        textwrap.indent(code, "    "),
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'soslift')))",
    ])
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    return json.loads(out)


def test_every_former_export_is_its_modules_object() -> None:
    assert sorted(soslift.__all__) == sorted(name for names in EXPORTS.values() for name in names)
    for module, names in EXPORTS.items():
        loaded = importlib.import_module(f"soslift.{module}")
        assert getattr(soslift, module) is loaded
        for name in names:
            assert getattr(soslift, name) is getattr(loaded, name), name


def test_an_unknown_name_is_an_attribute_error() -> None:
    assert not hasattr(soslift, "no_such_name")
    with pytest.raises(ImportError):
        from soslift import no_such_name  # noqa: F401


def test_importing_the_package_loads_no_module() -> None:
    assert _loaded_in_child("import soslift") == ["soslift"]


def test_lifting_loads_neither_farey_nor_sos() -> None:
    assert _loaded_in_child("import soslift.lifting") == [
        "soslift", "soslift.lifting", "soslift.perm_core"]


# each command with the modules it loads beyond soslift, cli, lifting and perm_core
COMMANDS = {
    "lift --to-m 3": [],
    "project --perm 2413": [],
    "farey --m 5": ["farey"],
    "tau --m 5 --alpha 2/5": ["farey", "sos"],
    "enumerate --set V --m 5 --method lift": ["farey", "perm_sets", "sos"],
    "verify --m-max 3": ["farey", "perm_sets", "sos"],
    "sosrec --m 4": ["farey", "perm_sets", "sos"],
    "tree --depth 3": ["farey", "sos", "trees"],
    "verify-tree --depth 3": ["farey", "sos", "trees"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(command: str) -> None:
    code = f"from soslift import cli\nassert cli.main({command.split()!r}) == 0"
    base = ["soslift", "soslift.cli", "soslift.lifting", "soslift.perm_core"]
    assert _loaded_in_child(code) == sorted(base + [f"soslift.{m}" for m in COMMANDS[command]])


def test_readme_quick_start_runs_as_written() -> None:
    """Each line of the README's quick-start block that ends in a comment
    evaluates to a value whose repr the comment begins with."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if not comment:
            exec(code, namespace)
            continue
        shown = repr(eval(code, namespace))
        assert comment == shown or comment.startswith(shown + ","), (line, shown)
        checked += 1
    assert checked == 5
