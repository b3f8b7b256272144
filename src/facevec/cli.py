"""Command-line interface with stable, scriptable text output.

Primary results go to stdout, diagnostics to stderr.  Exit statuses:
0 success, 1 verification failure found, 2 usage error, 3 input format
error, 4 resource guard exceeded, 5 internal invariant violation or any
other unexpected error.  A reader that closes stdout early ends the command
with 0 and no message.
"""
from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import replace
from itertools import groupby, islice
from pathlib import Path

from . import verify as verify_mod
from .combinat import CanonicalRep, ffk_canonical, kk_canonical
from .complexes import vec_entry
from .construct import ConstructionTrace, _construct_pair, construct_balanced
from .errors import GuardExceeded, InputFormatError, InvariantViolation
from .graphs import clique_vector, parse_graph
from .revlex import LevelSpec, _residue_coloring, revlex_tails

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_GUARD = 4
EXIT_INVARIANT = 5


def _read_source(source: str) -> str:
    try:
        if source == "-":
            return sys.stdin.read()
        path = Path(source)
        if not path.exists():
            raise InputFormatError(f"no such input file: {source}")
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {source}: {exc}") from None


def _load_graph(args):
    return parse_graph(_read_source(args.graph), fmt=args.format)


def _vec_line(vec) -> str:
    return " ".join(str(x) for x in vec)


def _rep_text(rep: CanonicalRep) -> str:
    if not rep.terms:
        return "(empty)"
    parts = []
    for n, j in rep.terms:
        rho = rep.budget_at(j)
        parts.append(f"C({n},{j})" if rho is None else f"C({n},{j})_{rho}")
    return " + ".join(parts)


FACET_BLOCK = 4096  # facet lines per write


def _write_facets(facets, out) -> None:
    """One "facet v1 v2 ..." line per facet, in the order given, written a
    block of lines at a time."""
    for size, run in groupby(facets, len):
        line = ("facet " + " ".join(["%d"] * size) + "\n").__mod__
        while block := list(islice(run, FACET_BLOCK)):
            out.write("".join(map(line, block)))


def _print_complex(coloring: dict[int, int] | None, facets, out) -> None:
    """The coloring line, if any, one entry per vertex (its keys), then
    ``facets``: the complex's facets in printed order, smaller facets first
    and each size in rev-lex order."""
    if coloring is not None:
        line = " ".join(f"{v}:{c}" for v, c in sorted(coloring.items()))
        print(f"coloring {line}".rstrip(), file=out)
    _write_facets(facets, out)


def _print_trace(trace: ConstructionTrace, out, depth: int = 0) -> None:
    tag = f"trace[{depth}]"
    levels = ",".join(f"{s}:{m}" for s, m in trace.base_levels)
    head = f"{tag} kind={trace.kind} k={trace.k} colors={trace.colors} levels={levels}"
    if trace.pivot is not None:
        nn = ",".join(str(v) for v in trace.non_neighbors) or "-"
        head += f" pivot={trace.pivot} non-neighbors={nn}"
    print(head, file=out)
    for i, step in enumerate(trace.steps):
        print(
            f"{tag} step i={i} v={step.vertex} a={step.a} b={step.b} adds={step.added_vertex}",
            file=out,
        )
    if trace.sub is not None:
        _print_trace(trace.sub, out, depth + 1)


def _record_line(rec: verify_mod.GraphRecord) -> str:
    def vec(v):
        return ",".join(str(x) for x in v) if v else "-"

    return (
        f"graph={rec.graph_id} r={rec.colors}"
        f" cliquevec={vec(rec.clique_vec)} facevec={vec(rec.face_vec)}"
        f" margins={vec(rec.margins)}"
        f" equal={int(rec.vectors_equal)} coloring={int(rec.coloring_ok)}"
        f" balanced={int(rec.balanced_ok)} ok={int(rec.ok)}"
        f" error={rec.error or '-'}"
    )


def _cmd_cliquevec(args, out) -> int:
    g = _load_graph(args)
    print(_vec_line(clique_vector(g)), file=out)
    return EXIT_OK


def _canonical_rep(args) -> CanonicalRep:
    """The plain expansion of --m at --k, or the colored one when --r is set."""
    return kk_canonical(args.m, args.k) if args.r is None else ffk_canonical(args.m, args.k, args.r)


def _cmd_bound(args, out) -> int:
    rep = _canonical_rep(args)
    print(f"{args.m} = {_rep_text(rep)}; bound = {rep.successor_bound()}", file=out)
    return EXIT_OK


def _cmd_canonical(args, out) -> int:
    print(_rep_text(_canonical_rep(args)), file=out)
    return EXIT_OK


def _cmd_revlex(args, out) -> int:
    vec, facets = revlex_tails(LevelSpec.parse(args.levels), args.colors)
    print(f"face-vector {_vec_line(vec)}", file=out)
    if args.emit_faces:  # the vertices are the first L_1 1-sets
        _print_complex(None if args.colors is None else
                       _residue_coloring(range(1, vec_entry(vec, 1) + 1), args.colors), facets, out)
    return EXIT_OK


def _cmd_construct(args, out) -> int:
    g = _load_graph(args)
    cc, report = construct_balanced(g)
    print(f"colors {report.colors}", file=out)
    print(f"clique-vector {_vec_line(report.clique_vec)}", file=out)
    print(f"face-vector {_vec_line(report.face_vec)}", file=out)
    _print_complex(cc.coloring, report.facets, out)
    if args.trace:
        print("margins " + (_vec_line(report.margins) or "-"), file=out)
    return EXIT_OK


def _cmd_construct_pair(args, out) -> int:
    g = _load_graph(args)
    cv = clique_vector(g)
    r = args.r if args.r is not None else max(len(cv) - 1, 1)
    cc, trace, face_vec, facets = _construct_pair(g, r, args.k, cv)
    print(f"colors {r}", file=out)
    print(f"k {args.k}", file=out)
    print(f"targets {vec_entry(cv, args.k)} {vec_entry(cv, args.k + 1)}", file=out)
    print(f"face-vector {_vec_line(face_vec)}", file=out)
    _print_complex(cc.coloring, facets, out)
    if args.trace:
        _print_trace(trace, out)
    return EXIT_OK


def _print_exhaustive_records(n: int, out) -> int:
    """One record line per graph on n vertices, in mask order, one write per
    line; each distinct clique vector's line is formatted once, on its first
    sight, as a head and a tail around the mask."""
    rows, memo = verify_mod.exhaustive_sweep(n)
    templates: dict[int, tuple[str, str]] = {}
    ok = True
    write = out.write
    for first, vectors in rows:
        for mask, packed in enumerate(vectors, first):
            template = templates.get(packed)
            if template is None:
                record = replace(memo[packed], graph_id=f"mask:{n}:\0")
                ok = ok and record.ok
                head, _, tail = _record_line(record).partition("\0")
                template = templates[packed] = head, tail + "\n"
            write(f"{template[0]}{mask}{template[1]}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _print_summary(report: verify_mod.VerificationReport, out) -> int:
    print(f"graphs {report.total} pass {report.passes} fail {len(report.failures)}", file=out)
    for rec in report.failures:
        print("FAIL " + _record_line(rec), file=out)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def _random_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"random verification needs integer N, TRIALS and SEED, got {text!r}") from None


def _cmd_verify(args, out) -> int:
    if (args.graph, args.exhaustive, args.random).count(None) != 2:
        raise ValueError("verify takes one of <graph>, --exhaustive or --random")
    if args.exhaustive is not None:
        if args.output == "records":
            return _print_exhaustive_records(args.exhaustive, out)
        return _print_summary(verify_mod.exhaustive_verify(args.exhaustive), out)
    if args.random is not None:
        n, p, trials, seed = args.random
        records = verify_mod.iter_random_records(
            _random_int(n), p, _random_int(trials), _random_int(seed))
    else:
        records = [verify_mod.verify_graph(_load_graph(args))]
    if args.output == "plain":
        return _print_summary(verify_mod.tally(records), out)
    ok = True
    for rec in records:
        print(_record_line(rec), file=out)
        ok = ok and rec.ok
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facevec",
        description="Clique vectors, shadow bounds, rev-lex complexes, and "
        "balanced complexes with prescribed face counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_arg(p):
        p.add_argument("graph", help="graph file (edge list or graph6), or - for stdin")
        p.add_argument("--format", choices=["edges", "graph6"], default=None,
                       help="input format; default auto-detects by first byte")

    p = sub.add_parser("cliquevec", help="print the clique vector of a graph")
    add_graph_arg(p)
    p.set_defaults(func=_cmd_cliquevec)

    p = sub.add_parser("kk-bound", help="canonical representation and shadow bound")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_bound, r=None)

    p = sub.add_parser("ffk-bound", help="colored canonical representation and bound")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("canonical", help="print the canonical term list only")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("revlex", help="build a (colored) rev-lex complex")
    p.add_argument("--levels", required=True, help='e.g. "3:99,4:146"')
    p.add_argument("--colors", type=int, default=None)
    p.add_argument("--emit-faces", action="store_true", help="also print the facet list")
    p.set_defaults(func=_cmd_revlex)

    p = sub.add_parser("construct", help="balanced complex with a graph's clique vector")
    add_graph_arg(p)
    p.add_argument("--trace", action="store_true", help="also print bound margins")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("construct-pair", help="match clique counts at levels k and k+1")
    add_graph_arg(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=None, help="color budget; default clique number")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_construct_pair)

    p = sub.add_parser("verify", help="construct and recount by brute force")
    p.add_argument("graph", nargs="?", default=None)
    p.add_argument("--format", choices=["edges", "graph6"], default=None)
    p.add_argument("--exhaustive", type=int, default=None, metavar="N")
    p.add_argument("--random", nargs=4, default=None, metavar=("N", "P", "TRIALS", "SEED"))
    p.add_argument("--output", choices=["plain", "records"], default="plain")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = args.func(args, out)
        except InputFormatError as exc:
            print(f"facevec: input error: {exc}", file=err)
            return EXIT_INPUT
        except GuardExceeded as exc:
            print(f"facevec: resource guard: {exc}", file=err)
            return EXIT_GUARD
        except InvariantViolation as exc:
            print(f"facevec: internal invariant violated: {exc}", file=err)
            return EXIT_INVARIANT
        except ValueError as exc:
            print(f"facevec: usage error: {exc}", file=err)
            return EXIT_USAGE
        except BrokenPipeError:  # the reader has gone: ``main`` ends quietly
            raise
        except Exception as exc:  # last resort: one line and exit 5, never a traceback
            print(f"facevec: internal error: {type(exc).__name__}: {exc}", file=err)
            return EXIT_INVARIANT
    for warning in caught:  # an error returned above, so its line stays the only one
        print(f"facevec: warning: {warning.message}", file=err)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # A closed stdout pipe (``| head``) is a normal end: point stdout at
        # the null device so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)
