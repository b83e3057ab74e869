"""Command-line front end.

Every verb reads JSON (a file path or `-` for stdin) and writes JSON with
sorted keys to stdout.  Exit codes: 0 success, 1 domain error, 2 bad input,
141 stdout closed before the output was written.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from typing import Any, List, Optional

from . import io
from .errors import ParseError, StellarError
from .group import degree, gamma_graph, has_circuit, surface_quotient
from .invariants import classify_flat_quotient, h1, sphere_workflow, structure_report
from .lens import lens_structure
from .manifold import check_manifold
from .moves import collapse_greedy, prism, subdivide, weld
from .structure import build_structure


def _read(path: str) -> Any:
    try:
        if path == "-":
            return io.loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as handle:
            return io.loads(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _emit(data: Any) -> None:
    print(io.dumps(data))


def _parse_simplex_arg(text: str) -> tuple:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from exc
    if not parts:
        raise ParseError("empty simplex argument")
    return parts


def _group_json(group) -> dict:
    return {
        "rank": group.rank,
        "torsion": list(group.torsion),
        "group": group.describe(),
    }


def _report_json(report) -> dict:
    out = {
        "flat": report.flat,
        "degree": list(report.degree),
        "h1": _group_json(report.h1),
        "conclusion": report.conclusion,
        "evidence": report.evidence,
    }
    if report.surface is not None:
        out["surface"] = {"kind": report.surface.kind, "chi": report.surface.chi}
    if report.collapsed_to_point is not None:
        out["collapses_to_point"] = report.collapsed_to_point
    if report.prism_cells is not None:
        out["prism_cells"] = {str(d): n for d, n in sorted(report.prism_cells.items())}
    if report.gamma is not None:
        out["gamma"] = _gamma_json(report.gamma, report.gamma_has_circuit)
    return out


def _gamma_json(gamma, circuit) -> dict:
    return {
        "vertices": list(gamma.vertices),
        "edges": [list(e) for e in gamma.edges],
        "has_circuit": circuit,
    }


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` leaves it
    unchanged and returns a fresh namespace each call."""
    parser = argparse.ArgumentParser(
        prog="stellar",
        description="Simplicial complexes over Z2: moves, structures, invariants.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def with_input(p):
        p.add_argument("input", help="JSON file, or - for stdin")
        return p

    with_input(sub.add_parser("chi", help="Euler characteristic of a complex"))
    with_input(sub.add_parser("boundary", help="mod-2 boundary of a complex"))
    p = with_input(sub.add_parser("subdivide", help="star a simplex at a fresh vertex"))
    p.add_argument("simplex", help="comma-separated vertices, e.g. 1,2")
    p.add_argument("vertex", type=int)
    p = with_input(sub.add_parser("weld", help="inverse subdivision"))
    p.add_argument("simplex", help="comma-separated vertices to restore")
    p.add_argument("vertex", type=int, help="vertex to erase")
    with_input(sub.add_parser("prism", help="prism over a uniform complex"))
    with_input(sub.add_parser("check", help="manifold check via vertex links"))
    p = with_input(sub.add_parser("structure", help="build an apex structure"))
    p.add_argument("--budget", type=int, default=100_000)
    with_input(sub.add_parser("degree", help="degree string of a structure"))
    p = with_input(sub.add_parser("gamma", help="graph of high-order edge classes"))
    p.add_argument("--dot", metavar="FILE", help="also write Graphviz dot")
    p = sub.add_parser("lens", help="lens shell structure")
    p.add_argument("q", type=int)
    p.add_argument("p", type=int)
    with_input(sub.add_parser("h1", help="first homology of a complex or structure"))
    with_input(sub.add_parser("classify", help="surface class of a flat quotient"))
    p = with_input(sub.add_parser("sphere-check", help="full sphere workflow"))
    p.add_argument("--budget", type=int, default=100_000)
    with_input(sub.add_parser("collapse", help="greedy free-face collapse"))
    return parser


def _dispatch(args: argparse.Namespace) -> None:
    if getattr(args, "budget", 0) < 0:
        raise ParseError(f"--budget must be at least 0, got {args.budget}")
    if args.verb == "chi":
        k = io.parse_complex(_read(args.input))
        _emit({"chi": k.euler_characteristic()})
    elif args.verb == "boundary":
        k = io.parse_complex(_read(args.input))
        _emit(io.complex_to_json(k.boundary()))
    elif args.verb == "subdivide":
        k = io.parse_complex(_read(args.input))
        _emit(io.complex_to_json(subdivide(k, _parse_simplex_arg(args.simplex), args.vertex)))
    elif args.verb == "weld":
        k = io.parse_complex(_read(args.input))
        _emit(io.complex_to_json(weld(k, _parse_simplex_arg(args.simplex), args.vertex)))
    elif args.verb == "prism":
        k = io.parse_complex(_read(args.input))
        _emit(io.complex_to_json(prism(k)))
    elif args.verb == "check":
        k = io.parse_complex(_read(args.input))
        report = check_manifold(k)
        # how many links each certificate decided; "null" counts undecided links
        certificates = {"exact": 0, "collapse": 0, "null": 0}
        for name in report.link_certificates.values():
            certificates[name or "null"] += 1
        _emit(
            {
                "is_manifold": report.is_manifold,
                "closed": report.closed,
                "dimension": report.dimension,
                "bad_vertices": report.bad_vertices,
                "undecided_vertices": report.unknown_vertices,
                "certificates": certificates,
                "summary": report.describe(),
            }
        )
    elif args.verb == "structure":
        k = io.parse_complex(_read(args.input))
        result = build_structure(k, budget=args.budget)
        _emit(io.structure_to_json(result.structure))
    elif args.verb == "degree":
        structure = io.parse_structure(_read(args.input))
        _emit({"degree": list(degree(structure))})
    elif args.verb == "gamma":
        structure = io.parse_structure(_read(args.input))
        gamma = gamma_graph(structure)
        if args.dot:
            try:
                with open(args.dot, "w", encoding="utf-8") as handle:
                    handle.write(gamma.to_dot() + "\n")
            except OSError as exc:
                raise ParseError(f"cannot write {args.dot}: {exc}") from exc
        _emit(_gamma_json(gamma, has_circuit(gamma)))
    elif args.verb == "lens":
        _emit(io.structure_to_json(lens_structure(args.q, args.p)))
    elif args.verb == "h1":
        data = _read(args.input)
        if isinstance(data, dict) and "sphere" in data:
            group = h1(io.parse_structure(data))
        else:
            group = h1(io.parse_complex(data))
        _emit(_group_json(group))
    elif args.verb == "classify":
        structure = io.parse_structure(_read(args.input))
        surface = classify_flat_quotient(surface_quotient(structure))
        _emit(
            {
                "kind": surface.kind,
                "chi": surface.chi,
                "orientable": surface.orientable,
                "boundary_circles": surface.boundary_circles,
                "detail": surface.detail,
            }
        )
    elif args.verb == "sphere-check":
        data = _read(args.input)
        if isinstance(data, dict) and "sphere" in data:
            report = structure_report(io.parse_structure(data))
        else:
            report = sphere_workflow(io.parse_complex(data), budget=args.budget)
        _emit(_report_json(report))
    elif args.verb == "collapse":
        k = io.parse_complex(_read(args.input))
        residue = collapse_greedy(k)
        _emit(
            {
                "residue": io.complex_to_json(residue),
                "collapsible": len(residue) == 1 and residue.dimension() == 0,
            }
        )
    else:  # pragma: no cover - argparse enforces the verb set
        raise ParseError(f"unknown verb {args.verb}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _dispatch(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush
        # at exit raises nothing, and exit as a process killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ParseError as exc:
        print(io.dumps({"error": str(exc), "kind": "parse"}), file=sys.stderr)
        return 2
    except StellarError as exc:
        print(io.dumps({"error": str(exc), "kind": "domain"}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
