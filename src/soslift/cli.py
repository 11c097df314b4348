"""Command-line entry point.

Exit codes: 0 on success and when every verification check passes, 1 when a
verification check fails or the reader closes stdout before the output ends
(no traceback is printed), 2 on usage errors (including malformed
permutation or fraction tokens).  Output is deterministic: sets print one
permutation per line, trees and reports print a single JSON document.

``lift`` and ``enumerate --method lift`` print V_M block by block: each
block of whole theta(1) groups is decoded, sorted and checked in one buffer
just before it is written.  A row that is not a permutation therefore ends
the command with exit 2 and one error line after the blocks before its own
are printed; stdout then holds those whole blocks and nothing of the
failing one.

Each command imports the modules it runs when it runs: only lifting and
perm_core load with this module, so ``lift`` and ``project`` start without
farey, sos, perm_sets or trees.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import islice

import numpy as np

from . import lifting
from .lifting import MAX_LIFT_DEGREE, Level, lift_fibers, lift_level, project, sorted_blocks
from .perm_core import (LABELS, METHODS, Permutation, _json_values, _rows_in, check_degree,
                        format_rows, report_passed, scratch_rows)

DEFAULT_SEED = 1729
# the commands' size policy, not the library's: --force above FORCE_THRESHOLD for a lift or
# a Farey table, and a brute-force cap of ENV_MAX_BRUTE_M if set, else DEFAULT_MAX_BRUTE_M
FORCE_THRESHOLD = 500
DEFAULT_MAX_BRUTE_M = 10
ENV_MAX_BRUTE_M = "SOSLIFT_MAX_BRUTE_M"


def _check_force(M: int, force: bool) -> None:
    """Refuse target degrees below 1, above 2000, and above 500 without --force."""
    check_degree(M, MAX_LIFT_DEGREE, "target degree")
    if M > FORCE_THRESHOLD and not force:
        raise ValueError(f"degree {M} > {FORCE_THRESHOLD} needs force=True "
                         "(soslift lift --force, soslift enumerate --force)")


def _check_brute_cap(m: int, verify: bool = False) -> None:
    """Refuse brute force above the cap; for verify, an m_max outside [2, cap], named so."""
    raw = os.environ.get(ENV_MAX_BRUTE_M)
    try:
        cap = DEFAULT_MAX_BRUTE_M if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"{ENV_MAX_BRUTE_M} must be an integer, got {raw!r}") from None
    check_degree(cap, None, ENV_MAX_BRUTE_M)
    if verify and not 2 <= m <= cap:
        raise ValueError(f"m_max must lie in [2, {cap}] for exhaustive checks, got {m}; "
                         f"set {ENV_MAX_BRUTE_M} to raise the cap")
    if m > cap:
        raise ValueError(f"method 'brute' refused at degree {m} (cap {cap}); "
                         f"set {ENV_MAX_BRUTE_M} to raise it")


def _print_rows(blocks, m: int, fmt: str) -> None:
    """One write to the text stream sys.stdout per scratch_rows(m) rows of each block.

    format_rows holds a piece's text about 4 times over, 8 bytes or fewer
    per value each time, so printing holds at most about 4 * SCRATCH_BYTES
    beyond the rows.  Each block is released before the next is asked for,
    so only one block of rows is alive at a time.
    """
    piece = scratch_rows(m)
    for rows in blocks:
        for start in range(0, len(rows), piece):
            sys.stdout.write(format_rows(rows[start:start + piece], m, fmt))
        del rows


def _print_report(records: list[dict], fmt: str) -> int:
    if fmt == "json":
        import json
        print(json.dumps({"passed": report_passed(records), "checks": records}, indent=2))
    else:
        for r in records:
            status = "PASS" if r["passed"] else "FAIL"
            detail = f"  [{r['detail']}]" if r["detail"] else ""
            print(f"{status} m={r['m']}: {r['check']}{detail}")
    return 0 if report_passed(records) else 1


def _cmd_enumerate(args) -> int:
    from . import perm_sets
    perm_sets.check_route(args.set, args.m, args.method)
    if args.method != "brute":
        _check_force(args.m, args.force)
    elif args.set not in ("VL0", "VL1"):
        _check_brute_cap(args.m)
    if args.method == "lift":  # streamed as lift streams it, one block at a time
        _print_rows(sorted_blocks(lifting.lift_level(args.m)), args.m, args.format)
        return 0
    cls = perm_sets.enumerate_class(args.set, args.m, args.method)
    _print_rows([cls.as_array()], cls.m, args.format)
    return 0


def _read_parents(path: str, m: int) -> Level:
    """V of degree m from a JSON-lines file, one row per non-blank line.

    The rows are read in blocks of at most lifting.BLOCK_BYTES of int64
    values.  Level.from_rows checks each block, a refusal naming the row's
    index in the file, and only the block's two columns are kept.
    """
    import json
    from array import array

    block_rows = max(1, lifting.BLOCK_BYTES // (8 * m))
    firsts, lasts, read = [], [], 0
    with open(path, encoding="utf-8") as fh:
        lines = filter(str.strip, fh)
        while True:
            values = array("q")  # the int64 values of the block's rows, in file order
            for line in islice(lines, block_rows):
                row = _json_values(json.loads(line))
                if len(row) != m:
                    raise ValueError(f"degree mismatch in V: expected {m}, got {len(row)}")
                values.extend(row)
            block = Level.from_rows(np.frombuffer(values, dtype=np.int64).reshape(-1, m), read)
            firsts.append(block.first)
            lasts.append(block.last)
            read += len(block)
            if len(block) < block_rows:
                return Level(m, np.concatenate(firsts), np.concatenate(lasts))


def _cmd_lift(args) -> int:
    if args.from_m is not None:
        check_degree(args.from_m, None, "source degree")  # the target degree has the ceiling
    if args.input and args.from_m is None:
        raise ValueError("--input holds V of degree --from-m and cannot be combined with --to-m")
    target = args.to_m if args.to_m is not None else args.from_m + 1
    _check_force(target, args.force)
    if args.input:
        try:
            parents = _read_parents(args.input, args.from_m)
        except (OSError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            # ValueError covers undecodable bytes, bad JSON, rows outside V and
            # rows whose degree is not --from-m; OverflowError, values beyond int64;
            # RecursionError, JSON nested deeper than the decoder recurses
            raise ValueError(f"cannot read {args.input}: {type(exc).__name__}: {exc}") from None
        if len(parents) == 0:
            raise ValueError(f"no permutations read from {args.input}")
        level = lift_fibers(parents)[0]
    else:
        level = lift_level(target)
    _print_rows(sorted_blocks(level), level.m, args.format)
    return 0


def _cmd_project(args) -> int:
    theta = Permutation.parse(args.perm)
    print(project(theta).one_line())
    return 0


def _cmd_tau(args) -> int:
    from .farey import parse_fraction
    from .sos import tau_from_alpha
    alpha = parse_fraction(args.alpha)
    print(tau_from_alpha(args.m, alpha).one_line())
    return 0


def _cmd_farey(args) -> int:
    from . import farey
    check_degree(args.m, MAX_LIFT_DEGREE, "order")
    num, den = farey.farey_terms(args.m)
    if args.format == "json":
        for piece in farey.farey_json_pieces(args.m, num, den):
            sys.stdout.write(piece)
        sys.stdout.write("\n")
    else:  # labelled 4096 terms at a time, and each pass builds only the labels it writes
        for start in range(0, len(num), 4096):
            terms = farey.term_labels(num[start:start + 4096], den[start:start + 4096])
            sys.stdout.write((" " if start else "") + " ".join(terms))
        sys.stdout.write("\n")
        for start in range(0, len(num) - 1, 4095):  # each slice starts at the last of the one before
            terms = farey.term_labels(num[start:start + 4096], den[start:start + 4096])
            sys.stdout.write("\n".join(farey.interval_labels(terms)) + "\n")
    return 0


def _cmd_tree(args) -> int:
    from .trees import build_farey_tree, build_gen_tree, write_tree
    if args.with_y_levels and args.kind == "farey":
        raise ValueError("--with-y-levels applies to the generation tree, not to --kind farey")
    trees = []
    if args.kind in ("gen", "both"):
        trees.append(build_gen_tree(args.depth))
    if args.kind in ("farey", "both"):
        trees.append(build_farey_tree(args.depth))
    write_tree(sys.stdout.write, *trees, format=args.format, with_y_levels=args.with_y_levels)
    sys.stdout.write("\n")
    return 0


def _cmd_verify(args) -> int:
    _check_brute_cap(args.m_max, verify=True)
    from .perm_sets import verify_theorems
    from .sos import verify_invariants
    records = verify_theorems(args.m_max)
    records += verify_invariants(args.m_max, samples=args.samples, seed=args.seed)
    return _print_report(records, args.format)


def _cmd_verify_tree(args) -> int:
    from .trees import check_isomorphism
    return _print_report(check_isomorphism(args.depth), args.format)


def _cmd_sosrec(args) -> int:
    import json

    from .perm_sets import enumerate_class
    check_degree(args.m, None)
    _check_brute_cap(args.m)
    found, v = (enumerate_class(label, args.m).as_array() for label in ("SosRec", "V"))
    v_inverses = np.empty_like(v)  # inverse(theta)(theta(i)) = i; distinct as the rows of V
    v_inverses[np.arange(len(v))[:, None], v - 1] = np.arange(1, args.m + 1)
    known = _rows_in(found, v_inverses)
    # the rows are distinct on both sides, so all of v_inverses is found when
    # that many rows of found are known
    contains_sos = int(known.sum()) == len(v_inverses)
    doc = {
        "m": args.m,
        "recurrence_count": len(found),
        "sos_count": len(v_inverses),
        "recurrence_contains_sos": contains_sos,
        "sets_equal": contains_sos and bool(known.all()),
        "recurrence_only": format_rows(found[~known], args.m, "oneline").splitlines(),
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"m={doc['m']}: recurrence solutions {doc['recurrence_count']}, "
              f"Sos permutations {doc['sos_count']}, equal: {doc['sets_equal']}")
        for line in doc["recurrence_only"]:
            print(f"recurrence-only: {line}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="soslift",
        description="Enumerate, lift, and cross-verify the inverses of Sos permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate a permutation class")
    p.add_argument("--set", required=True, choices=LABELS)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--method", choices=METHODS, default="brute")
    p.add_argument("--force", action="store_true",
                   help="allow degrees above 500 for --method lift or farey")
    p.add_argument("--format", choices=("oneline", "json"), default="oneline")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("lift", help="lift the class V by one degree or recurse from degree 1")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from-m", type=int, help="lift V of this degree one step")
    group.add_argument("--to-m", type=int, help="run the recursion up to this degree")
    p.add_argument("--input", help="JSON-lines file holding V of degree --from-m")
    p.add_argument("--force", action="store_true", help="allow degrees above 500")
    p.add_argument("--format", choices=("oneline", "json"), default="oneline")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("project", help="map a class-V permutation to its degree-(m-1) parent")
    p.add_argument("--perm", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("tau", help="print tau for a rational angle")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", required=True, help='fraction "p/q"')
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("farey", help="print the order-m Farey sequence and intervals")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_farey)

    p = sub.add_parser("tree", help="export the generation and/or interval tree")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--kind", choices=("gen", "farey", "both"), default="gen")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--with-y-levels", action="store_true",
                   help="interleave the lifted fixed-point rows (generation tree only)")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("verify", help="run the theorem suite and formula invariants")
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--samples", type=int, default=200, help="random rationals per degree")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("verify-tree", help="check the tree isomorphism level by level")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify_tree)

    p = sub.add_parser("sosrec", help="explore the recurrence predicate exhaustively")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_sosrec)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; a closed pipe would
        # raise there too, so the rest of the output goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
