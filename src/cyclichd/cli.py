"""Command-line interface.

Subcommands: recognize, witness, ranges, enumerate, count, verify.  Exit
codes: 0 affirmative, 1 negative decision, 2 usage or validation error,
3 capacity exceeded, 141 (128 + SIGPIPE) stdout closed before the output
was written.  Degrees are passed as comma-separated decimal strings and
emitted as strings in JSON documents, since entries can exceed any
fixed-width integer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from .analysis import exact_count, lower_bound_report, product_digits
from .errors import CapacityError, DomainError, ValidationError
from .oracle import ENUMERATE_CAP, enumerate_chd
from .ranges import range_of
from .recognizer import DegreeSequence, recognize
from .selfcheck import run_all
from .witness import Witness, build_witness, edge_vertices, materialize_edges

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_PIPE = 141


def _parse_degrees(text: str) -> DegreeSequence:
    tokens = [t.strip() for t in text.split(",")]
    entries = []
    for tok in tokens:
        if not tok:
            raise ValidationError("empty degree token")
        # int() would also take '1_0', '+1' and non-ASCII digits
        if not (tok.isascii() and tok.isdigit()):
            raise ValidationError(f"invalid degree token {tok!r}")
        # only the int<->str digit limit is left to refuse an ASCII digit run
        try:
            entries.append(int(tok))
        except ValueError:
            raise CapacityError(
                f"degree token of {len(tok)} digits exceeds the "
                f"{sys.get_int_max_str_digits()}-digit limit for integer "
                "conversion") from None
    return DegreeSequence(tuple(entries))


def _positive_order(text: str) -> int:
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"order must be a positive integer, got {text!r}")
    return int(text)


def _decision_document(
    w: DegreeSequence,
    with_edges: bool = False,
    max_edges: int = 4096,
) -> tuple[dict[str, Any], Witness | None]:
    assignment = recognize(w)
    doc: dict[str, Any] = {
        "n": w.n,
        "degrees": [str(v) for v in w.entries],
        "is_cyclic_hyper_degree": assignment is not None,
    }
    if assignment is None:
        return doc, None
    wit = build_witness(w, assignment)
    doc["N"] = wit.N
    doc["permutation"] = [p + 1 for p in wit.perm]
    doc["starts"] = [str(s) for s in wit.starts]
    if with_edges:
        if wit.N > max_edges:
            raise CapacityError(
                f"witness has {wit.N} edges, above --max-edges {max_edges}; "
                "rerun without --edges or raise the cap"
            )
        edges = materialize_edges(wit, cap=max_edges)
        doc["edges"] = [edge_vertices(e) for e in edges]
        doc["includes_empty_edge"] = any(e == 0 for e in edges)
    return doc, wit


def _print_document(doc: dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc))
        return
    print(f"n: {doc['n']}")
    print("degrees: " + ",".join(doc["degrees"]))
    yes = doc["is_cyclic_hyper_degree"]
    print(f"cyclic hyper degree: {'yes' if yes else 'no'}")
    if yes:
        print(f"N: {doc['N']}")
        print("permutation: " + ",".join(str(p) for p in doc["permutation"]))
        print("starts: " + ",".join(doc["starts"]))
    if "edges" in doc:
        for k, verts in enumerate(doc["edges"]):
            print(f"edge {k}: {{{','.join(str(v) for v in verts)}}}")
        if doc.get("includes_empty_edge"):
            print("note: the hypergraph includes the empty edge")


def _cmd_recognize(args: argparse.Namespace) -> int:
    w = _parse_degrees(args.degrees)
    doc, _ = _decision_document(w)
    _print_document(doc, args.json)
    return EXIT_YES if doc["is_cyclic_hyper_degree"] else EXIT_NO


def _cmd_witness(args: argparse.Namespace) -> int:
    w = _parse_degrees(args.degrees)
    doc, _ = _decision_document(
        w, with_edges=args.edges, max_edges=args.max_edges
    )
    _print_document(doc, args.json)
    return EXIT_YES if doc["is_cyclic_hyper_degree"] else EXIT_NO


def _cmd_ranges(args: argparse.Namespace) -> int:
    r = range_of(args.i, args.N, args.n)
    doc = {
        "n": args.n,
        "i": args.i,
        "N": str(args.N),
        "lo": str(r.lo),
        "hi": str(r.hi),
        "size": str(r.size),
    }
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"columns: i={args.i} of order n={args.n}, window N={args.N}")
        print(f"attainable sums: [{r.lo}, {r.hi}] ({r.size} values)")
    return EXIT_YES


def _cmd_enumerate(args: argparse.Namespace) -> int:
    for t in enumerate_chd(args.n):
        print(",".join(str(v) for v in t))
    return EXIT_YES


def _cmd_count(args: argparse.Namespace) -> int:
    # the product is the largest number printed, and it is at least the bound
    limit = sys.get_int_max_str_digits()
    digits = product_digits(args.n)
    if limit and digits > limit:
        raise CapacityError(
            f"order {args.n} prints a {digits}-digit product, above the "
            f"{limit}-digit limit for integer conversion")
    report = lower_bound_report(args.n)
    print(f"n: {report.n}")
    print(f"M: {report.M}")
    print("B: " + ",".join(str(b) for b in report.B))
    print(f"product: {report.product}")
    print(f"bound: {report.bound}")
    print(f"satisfied: {'yes' if report.satisfied else 'no'}")
    if args.exact:
        if args.n > ENUMERATE_CAP:
            raise CapacityError(
                f"exact counting stops at order {ENUMERATE_CAP}, got {args.n}"
            )
        print(f"exact: {exact_count(args.n)}")
    return EXIT_YES if report.satisfied else EXIT_NO


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(args.n, seed=args.seed, samples=args.samples)
    all_ok = True
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        yes = "" if r.accepted is None else f", {r.accepted} yes"
        print(f"{r.name}: {status} ({r.checked} checked, "
              f"{r.failures} failures{yes})")
        for note in r.notes:
            print(f"  {note}")
        all_ok = all_ok and r.ok
    return EXIT_YES if all_ok else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclichd",
        description="Recognize cyclic hyper degree sequences and build "
        "explicit hypergraph witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="decide a degree sequence")
    p.add_argument("--degrees", required=True,
                   help="comma-separated non-negative integers")
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("witness", help="decide and print a full certificate")
    p.add_argument("--degrees", required=True,
                   help="comma-separated non-negative integers")
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.add_argument("--edges", action="store_true",
                   help="include the explicit edge list")
    p.add_argument("--max-edges", type=int, default=4096,
                   help="edge materialization cap (default 4096)")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("ranges", help="attainable window sums of one column")
    p.add_argument("--i", type=int, required=True, help="column index (1-based)")
    p.add_argument("--N", type=int, required=True, help="window length")
    p.add_argument("--n", type=int, required=True, help="table order")
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(func=_cmd_ranges)

    p = sub.add_parser("enumerate",
                       help="list all cyclic hyper degrees at small order")
    p.add_argument("--n", type=_positive_order, required=True,
                   help="number of vertices")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("count", help="lower-bound report, optionally exact")
    p.add_argument("--n", type=_positive_order, required=True,
                   help="number of vertices")
    p.add_argument("--exact", action="store_true",
                   help="also enumerate the exact count (small orders)")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="self-check against brute-force oracles")
    p.add_argument("--n", type=_positive_order, required=True,
                   help="order to check")
    p.add_argument("--samples", type=int, default=1000,
                   help="sample count for non-exhaustive orders (default 1000)")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed (default 0)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_YES
    try:
        code = args.func(args)
        # a reader that left early shows only once buffered output is flushed
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # send the interpreter's final flush of what is left to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
