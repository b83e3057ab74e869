"""Command-line front end.

Every verb but `lens` reads JSON (a file path or `-` for stdin), and every
verb writes JSON with sorted keys to stdout.  Exit codes: 0 success, 1
domain error, 2 bad input, 141 stdout closed before the output was written.
An error goes to stderr as JSON, `{"error": ..., "kind": "parse"}` for bad
input and `"kind": "domain"` otherwise; a malformed argument is bad input as
much as a malformed file.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from functools import lru_cache
from typing import Any, List, NoReturn, Optional

from . import io
from .complexes import Complex
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


def _complex_or_structure(data: Any):
    """A structure when the JSON object has a "sphere", else a complex."""
    if isinstance(data, dict) and "sphere" in data:
        return io.parse_structure(data)
    return io.parse_complex(data)


def _refuse(message: str) -> NoReturn:
    """The `error` of every parser: a malformed argument is a parse error."""
    raise ParseError(message)


def _budget(text: str) -> int:
    try:
        budget = int(text)
    except ValueError as exc:
        raise ParseError(f"--budget must be an integer, got {text!r}") from exc
    if budget < 0:
        raise ParseError(f"--budget must be at least 0, got {budget}")
    return budget


def _parse_simplex_arg(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from exc


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


def _check(k, args) -> dict:
    report = check_manifold(k)
    # how many links each certificate decided; "null" counts undecided links
    certificates = {"exact": 0, "collapse": 0, "null": 0}
    for name in report.link_certificates.values():
        certificates[name or "null"] += 1
    return {
        "is_manifold": report.is_manifold,
        "closed": report.closed,
        "dimension": report.dimension,
        "bad_vertices": report.bad_vertices,
        "undecided_vertices": report.unknown_vertices,
        "certificates": certificates,
        "summary": report.describe(),
    }


def _gamma(structure, args) -> dict:
    gamma = gamma_graph(structure)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(gamma.to_dot() + "\n")
        except OSError as exc:
            raise ParseError(f"cannot write {args.dot}: {exc}") from exc
    return _gamma_json(gamma, has_circuit(gamma))


def _sphere_check(source, args) -> dict:
    if isinstance(source, Complex):
        return _report_json(sphere_workflow(source, budget=args.budget))
    return _report_json(structure_report(source))


def _collapse(k, args) -> dict:
    residue = collapse_greedy(k)
    return {
        "residue": io.complex_to_json(residue),
        "collapsible": len(residue) == 1 and residue.dimension() == 0,
    }


def _arg(*names: str, **options: Any) -> tuple:
    return names, options


_BUDGET = _arg("--budget", type=_budget, default=100_000)

# verb: (help, reader of its JSON input or None for no input, answer to what
# the reader returns and the arguments, extra arguments)
_VERBS = {
    "chi": ("Euler characteristic of a complex", io.parse_complex,
            lambda k, args: {"chi": k.euler_characteristic()}),
    "boundary": ("mod-2 boundary of a complex", io.parse_complex,
                 lambda k, args: io.complex_to_json(k.boundary())),
    "subdivide": ("star a simplex at a fresh vertex", io.parse_complex,
                  lambda k, args: io.complex_to_json(subdivide(k, args.simplex, args.vertex)),
                  _arg("simplex", type=_parse_simplex_arg, help="comma-separated vertices, e.g. 1,2"),
                  _arg("vertex", type=int)),
    "weld": ("inverse subdivision", io.parse_complex,
             lambda k, args: io.complex_to_json(weld(k, args.simplex, args.vertex)),
             _arg("simplex", type=_parse_simplex_arg, help="comma-separated vertices to restore"),
             _arg("vertex", type=int, help="vertex to erase")),
    "prism": ("prism over a uniform complex", io.parse_complex,
              lambda k, args: io.complex_to_json(prism(k))),
    "check": ("manifold check via vertex links", io.parse_complex, _check),
    "structure": ("build an apex structure", io.parse_complex,
                  lambda k, args: io.structure_to_json(build_structure(k, args.budget).structure),
                  _BUDGET),
    "degree": ("degree string of a structure", io.parse_structure,
               lambda structure, args: {"degree": list(degree(structure))}),
    "gamma": ("graph of high-order edge classes", io.parse_structure, _gamma,
              _arg("--dot", metavar="FILE", help="also write Graphviz dot")),
    "lens": ("lens shell structure", None,
             lambda _, args: io.structure_to_json(lens_structure(args.q, args.p)),
             _arg("q", type=int), _arg("p", type=int)),
    "h1": ("first homology of a complex or structure", _complex_or_structure,
           lambda source, args: _group_json(h1(source))),
    "classify": ("surface class of a flat quotient", io.parse_structure,
                 lambda s, args: asdict(classify_flat_quotient(surface_quotient(s)))),
    "sphere-check": ("full sphere workflow", _complex_or_structure, _sphere_check, _BUDGET),
    "collapse": ("greedy free-face collapse", io.parse_complex, _collapse),
}


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` leaves it
    unchanged and returns a fresh namespace each call."""
    parser = argparse.ArgumentParser(
        prog="stellar",
        description="Simplicial complexes over Z2: moves, structures, invariants.",
    )
    parser.error = _refuse
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (summary, reader, answer, *extras) in _VERBS.items():
        p = sub.add_parser(verb, help=summary)
        p.error = _refuse
        if reader is not None:
            p.add_argument("input", help="JSON file, or - for stdin")
        for names, options in extras:
            p.add_argument(*names, **options)
        p.set_defaults(read=reader, answer=answer)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        source = args.read(_read(args.input)) if args.read else None
        print(io.dumps(args.answer(source, args)))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush
        # at exit raises nothing, and exit as a process killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except SystemExit:  # argparse's help action, once the help is printed
        return 0
    except ParseError as exc:
        print(io.dumps({"error": str(exc), "kind": "parse"}), file=sys.stderr)
        return 2
    except StellarError as exc:
        print(io.dumps({"error": str(exc), "kind": "domain"}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
