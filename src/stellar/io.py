"""JSON encoding and decoding of complexes, equivalences, and structures."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from .complexes import Complex, Simplex
from .errors import ParseError
from .quotient import RegularEquivalence, StellarStructure


def _labels(values: List[Any]) -> bool:
    """Whether every value is a vertex label: a positive int that is not a bool."""
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            return False
    return True


def _as_simplex(value: Any, where: str) -> Simplex:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{where}: expected a nonempty array of vertex labels")
    if not _labels(value):
        raise ParseError(f"{where}: vertex labels must be positive integers")
    if sorted(set(value)) != value:
        raise ParseError(
            f"{where}: vertices must be strictly increasing, got {value}"
        )
    return tuple(value)


def parse_complex(data: Any) -> Complex:
    if not isinstance(data, dict) or "generators" not in data:
        raise ParseError('expected an object with a "generators" array')
    gens = data["generators"]
    if not isinstance(gens, list):
        raise ParseError('"generators" must be an array')
    return Complex(
        _as_simplex(g, f"generators[{i}]") for i, g in enumerate(gens)
    )


def complex_to_json(k: Complex) -> Dict[str, Any]:
    return {"generators": [list(g) for g in k.sorted_generators()]}


def parse_equivalence(data: Any) -> RegularEquivalence:
    if not isinstance(data, dict):
        raise ParseError("expected an equivalence object")
    classes = data.get("vertex_classes", [])
    pairs = data.get("generator_pairs", [])
    if not isinstance(classes, list) or not isinstance(pairs, list):
        raise ParseError('"vertex_classes" and "generator_pairs" must be arrays')
    parsed_classes: List[List[int]] = []
    for i, c in enumerate(classes):
        if not isinstance(c, list) or not c:
            raise ParseError(f"vertex_classes[{i}]: expected a nonempty array")
        if not _labels(c):
            raise ParseError(f"vertex_classes[{i}]: labels must be positive")
        parsed_classes.append(c)
    parsed_pairs: List[Tuple[Simplex, Simplex]] = []
    for i, entry in enumerate(pairs):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"generator_pairs[{i}]: expected a two-element array")
        g = _as_simplex(entry[0], f"generator_pairs[{i}][0]")
        p = _as_simplex(entry[1], f"generator_pairs[{i}][1]")
        parsed_pairs.append((g, p))
    return RegularEquivalence.build(parsed_classes, parsed_pairs)


def equivalence_to_json(eq: RegularEquivalence) -> Dict[str, Any]:
    return {
        "vertex_classes": sorted(sorted(c) for c in eq.vertex_classes),
        "generator_pairs": [
            [list(g), list(p)] for g, p in sorted(eq.generator_pairs)
        ],
    }


def parse_structure(data: Any) -> StellarStructure:
    if not isinstance(data, dict):
        raise ParseError("expected a structure object")
    for key in ("apex", "sphere", "equivalence"):
        if key not in data:
            raise ParseError(f'structure is missing "{key}"')
    apex = data["apex"]
    if not _labels([apex]):
        raise ParseError('"apex" must be a positive integer')
    sphere = parse_complex(data["sphere"])
    eq = parse_equivalence(data["equivalence"])
    structure = StellarStructure(apex, sphere, eq)
    if "closed" in data:
        closed = data["closed"]
        if not isinstance(closed, bool):
            raise ParseError('"closed" must be true or false')
        if closed != structure.is_closed:
            raise ParseError(
                f"structure claims closed={closed} but the pairing says otherwise"
            )
    return structure


def structure_to_json(structure: StellarStructure) -> Dict[str, Any]:
    return {
        "apex": structure.apex,
        "sphere": complex_to_json(structure.sphere),
        "equivalence": equivalence_to_json(structure.equivalence),
        "closed": structure.is_closed,
    }


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep for the decoder
        raise ParseError(f"invalid JSON: {exc}") from exc


def dumps(data: Any) -> str:
    return json.dumps(data, sort_keys=True, indent=2)
