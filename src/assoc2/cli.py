"""Command-line front end.

Subcommands: assoc enumerate, wn enumerate, counts, gf solve, verify
eulerian, cd-index, audit.  Exit status 0 means success / all checks passed,
1 means a verification or audit failure, 2 means invalid input.  All outputs
are byte-stable for a fixed input and version.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import audit as au
from . import poset as ps
from . import series as se
from . import trees as tr
from . import twoassoc as ta

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def parse_nvector(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; the engine checks their values."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"could not parse n from {text!r}; expected a comma-separated list")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="assoc2",
                                description="Exact face-poset engine for associahedra "
                                            "and 2-associahedra")
    sub = p.add_subparsers(dest="command", required=True)

    assoc = sub.add_parser("assoc", help="associahedron operations")
    assoc_sub = assoc.add_subparsers(dest="subcommand", required=True)
    enum_k = assoc_sub.add_parser("enumerate", help="enumerate the face poset of K_r")
    enum_k.add_argument("--r", type=int, required=True)
    enum_k.add_argument("--format", choices=["table", "json", "dot"], default="table")
    enum_k.set_defaults(run=cmd_assoc_enumerate)

    wn = sub.add_parser("wn", help="2-associahedron operations")
    wn_sub = wn.add_subparsers(dest="subcommand", required=True)
    enum_w = wn_sub.add_parser("enumerate", help="enumerate the face poset of W_n")
    enum_w.add_argument("--n", required=True)
    enum_w.add_argument("--format", choices=["table", "json", "dot"], default="table")
    enum_w.add_argument("--max-elements", type=int, default=ta.DEFAULT_MAX_ELEMENTS)
    enum_w.set_defaults(run=cmd_wn_enumerate)

    counts = sub.add_parser("counts", help="three-oracle count table for W_n")
    counts.add_argument("--n", required=True)
    counts.add_argument("--max-degree", type=int, default=None)
    counts.add_argument("--format", choices=["table", "json"], default="table")
    counts.set_defaults(run=cmd_counts)

    gf = sub.add_parser("gf", help="generating-function operations")
    gf_sub = gf.add_subparsers(dest="subcommand", required=True)
    gf_solve = gf_sub.add_parser("solve", help="solve the counting fixed point")
    gf_solve.add_argument("--tree", default=".",
                          help="tree text, e.g. '(..)' (default: the one-leaf tree)")
    gf_solve.add_argument("--max-degree", type=int, required=True)
    gf_solve.add_argument("--format", choices=["table", "json"], default="json")
    gf_solve.set_defaults(run=cmd_gf_solve)

    verify = sub.add_parser("verify", help="verification commands")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    eul = verify_sub.add_parser("eulerian", help="verify the completed W_n is Eulerian")
    eul.add_argument("--n", required=True)
    eul.add_argument("--format", choices=["table", "json"], default="table")
    eul.set_defaults(run=cmd_verify_eulerian)

    cd = sub.add_parser("cd-index", help="cd-index of a verified completed poset")
    group = cd.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", default=None)
    group.add_argument("--r", type=int, default=None)
    cd.add_argument("--format", choices=["table", "json"], default="table")
    cd.set_defaults(run=cmd_cd_index)

    aud = sub.add_parser("audit", help="run the verification suite")
    aud.add_argument("--profile", choices=["desk"], default="desk")
    aud.add_argument("--format", choices=["table", "json"], default="table")
    aud.set_defaults(run=cmd_audit)
    return p


def _emit_poset(poset: ps.RankedPoset, fmt: str, out) -> None:
    if fmt == "json":
        out.write(poset.to_json() + "\n")
    elif fmt == "dot":
        out.write(poset.to_dot())
    else:
        counts = poset.rank_counts()
        out.write("rank\tfaces\n")
        for r in sorted(counts):
            out.write(f"{r}\t{counts[r]}\n")
        out.write(f"total\t{len(poset)}\n")


def cmd_assoc_enumerate(args, out) -> int:
    _emit_poset(tr.enumerate_Kr(args.r), args.format, out)
    return EXIT_OK


def cmd_wn_enumerate(args, out) -> int:
    n = parse_nvector(args.n)
    poset = ta.enumerate_Wn(n, max_elements=args.max_elements)
    _emit_poset(poset, args.format, out)
    return EXIT_OK


def cmd_counts(args, out) -> int:
    n = parse_nvector(args.n)
    rep = au.audit_counts(n, args.max_degree)
    if args.format == "json":
        out.write(rep.to_json() + "\n")
    else:
        out.write("tree\tm\tenumerated\trecurrence\tseries\tagree\n")
        for c in rep.checks:
            o = c["observed"]
            verdict = "AGREE" if c["pass"] else "DISAGREE"
            out.write(f"{c['params']['tree']}\t{c['params']['m']}\t"
                      f"{o['enumeration']}\t{o['recurrence']}\t{o['series']}\t{verdict}\n")
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_gf_solve(args, out) -> int:
    try:
        tree = tr.parse_tree(args.tree)
    except ValueError as exc:
        raise UsageError(f"bad tree text: {exc}")
    series = se.solve_F(tree, args.max_degree)
    if args.format == "json":
        out.write(series.to_json() + "\n")
    else:
        out.write("n\tt_poly\n")
        for nvec in sorted(series.terms):
            out.write(f"{','.join(map(str, nvec))}\t{series.terms[nvec]!r}\n")
    return EXIT_OK


def cmd_verify_eulerian(args, out) -> int:
    n = parse_nvector(args.n)
    rep = au.audit_eulerian(n)
    if args.format == "json":
        out.write(rep.to_json() + "\n")
    else:
        out.write(rep.to_text() + "\n")
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_cd_index(args, out) -> int:
    if args.n is not None:
        n = parse_nvector(args.n)
        poset = ta.enumerate_Wn(n).complete_with_min("F^min")
        name = "W_(" + ",".join(map(str, n)) + ")^"
    else:
        poset = tr.enumerate_Kr(args.r).complete_with_min("K^min")
        name = f"K_{args.r}^"
    # the cd-index only exists for Eulerian posets: verify first, refuse otherwise
    res = poset.verify_eulerian()
    if not res.is_eulerian:
        out.write(f"FAIL {name} is not Eulerian "
                  f"({len(res.unbalanced)} unbalanced intervals); refusing cd-index\n")
        return EXIT_FAIL
    cd = ps.cd_index(poset)
    if args.format == "json":
        doc = {"poset": name, "cd_index": {w if w else "1": c for w, c in sorted(cd.terms.items())},
               "weight": cd.weight}
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        out.write(f"{name}: {cd}\n")
    return EXIT_OK


def cmd_audit(args, out) -> int:
    rep = au.audit_desk()
    if args.format == "json":
        out.write(rep.to_json() + "\n")
    else:
        out.write(rep.to_text() + "\n")
    return EXIT_OK if rep.passed else EXIT_FAIL


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(args, out)
    except (ps.NonEulerianError, ta.VerificationError, ArithmeticError) as exc:
        # before ValueError: NonEulerianError is a PosetError, hence a ValueError
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
