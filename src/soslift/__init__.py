"""Sos permutations: enumeration, degree lifting, Farey correspondence, trees.

The names below, and the modules themselves, are loaded on first use
(PEP 562): ``import soslift`` loads no module of the package, and reading
``soslift.lift_fibers`` loads lifting and perm_core alone.
"""
import sys

# every public name of the package, and every module, mapped to its module
_MODULE_OF = {
    **{name: "farey" for name in (
        "FareyInterval", "farey_intervals", "farey_sequence", "farey_terms", "format_fraction",
        "parse_fraction", "totient_sum", "totients")},
    **{name: "lifting" for name in (
        "Level", "generate_up_to", "iter_levels", "lift_fibers", "lift_level", "project")},
    **{name: "perm_core" for name in (
        "PermClass", "Permutation", "gamma", "psi", "shift", "shift_closure", "supermod_m")},
    **{name: "perm_sets" for name in ("enumerate_class", "in_V", "verify_theorems")},
    **{name: "sos" for name in (
        "SuranyiTable", "suranyi_table", "tau_from_alpha", "verify_invariants")},
    **{name: "trees" for name in (
        "Tree", "build_farey_tree", "build_gen_tree", "check_isomorphism", "export_tree")},
    **{module: module for module in (
        "cli", "farey", "lifting", "perm_core", "perm_sets", "sos", "trees")},
}

__all__ = [name for name, module in _MODULE_OF.items() if name != module]
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module that holds name; a module's own name gives the module."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ is seen by -X importtime, which importlib.import_module is not
    __import__(f"{__name__}.{_MODULE_OF[name]}")
    module = sys.modules[f"{__name__}.{_MODULE_OF[name]}"]
    return module if _MODULE_OF[name] == name else getattr(module, name)
