"""The benchmark's workloads: each is a fixed list of soslift CLI calls (ops).

One pass runs every op of a workload once, in order.  This module is plain
data and imports nothing from soslift, so run.py can read it even where
the package is missing.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One CLI call.

    ``argv`` may hold the placeholder ``{seed}``, replaced by the workload
    seed.  ``v_degree`` marks an op whose output is the class V of that
    degree, one row per line: its row count and a seeded sample of its rows
    are checked.  ``records`` marks a verify-style op whose every output
    record must read PASS.
    """

    name: str
    argv: tuple[str, ...]
    v_degree: int | None = None
    row_format: str = "oneline"
    records: bool = False

    def build_argv(self, seed: int) -> list[str]:
        return [a.replace("{seed}", str(seed)) for a in self.argv]

    @property
    def emits_rows(self) -> bool:
        """Whether the op prints permutation rows, one per line."""
        return self.argv[0] in ("lift", "enumerate")


WORKLOADS: dict[str, tuple[Op, ...]] = {
    # the streamed recursion: lifting.lift_fibers is most of the time; Farey,
    # sos, trees and brute force never run
    "lift-stream": (
        Op("lift-200", ("lift", "--to-m", "200"), v_degree=200),
    ),
    # the three exact routes agree at moderate degree: retained levels,
    # Farey, sos tables, trees, JSON and DOT output
    "crosscheck": (
        Op("enum-V170-lift-json",
           ("enumerate", "--set", "V", "--m", "170", "--method", "lift", "--format", "json"),
           v_degree=170, row_format="json"),
        Op("enum-V100-farey", ("enumerate", "--set", "V", "--m", "100", "--method", "farey"),
           v_degree=100),
        Op("enum-V100-lift", ("enumerate", "--set", "V", "--m", "100", "--method", "lift"),
           v_degree=100),
        Op("verify-tree-45", ("verify-tree", "--depth", "45"), records=True),
        Op("tree-26-both-json", ("tree", "--depth", "26", "--kind", "both", "--format", "json")),
    ),
    # brute force over S_8 and S_9: pure-Python perm_sets / perm_core work
    # that bypasses lifting
    "verify-brute": (
        Op("verify-8", ("verify", "--m-max", "8", "--seed", "{seed}"), records=True),
        Op("sosrec-8", ("sosrec", "--m", "8")),
        Op("enum-X8", ("enumerate", "--set", "X", "--m", "8")),
        Op("enum-SstarTilde8", ("enumerate", "--set", "SstarTilde", "--m", "8")),
        Op("enum-V9-brute", ("enumerate", "--set", "V", "--m", "9"), v_degree=9),
        Op("enum-V9-lift", ("enumerate", "--set", "V", "--m", "9", "--method", "lift"), v_degree=9),
    ),
}

# pairs of ops in one workload whose outputs must be byte-equal: the same
# class produced by two independent routes
SAME_OUTPUT: dict[str, tuple[tuple[str, str], ...]] = {
    "lift-stream": (),
    "crosscheck": (
        ("enum-V100-farey", "enum-V100-lift"),
    ),
    "verify-brute": (
        ("enum-X8", "enum-SstarTilde8"),
        ("enum-V9-brute", "enum-V9-lift"),
    ),
}

# rows per V-producing op whose membership in V is re-checked with in_V
SAMPLE_ROWS = 24
