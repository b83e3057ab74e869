"""Seeded input generators with known answers.

Every input carries the answer known from how it was built: stellar moves
preserve PL type, so a subdivided sphere is a sphere, and the staircase
products are the manifolds they are built as.  Generators take the loaded
`stellar` modules as an argument, so that set-up can time a fresh import.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple


class ControlError(RuntimeError):
    """A generated negative control failed its own self-check."""


@dataclass
class Item:
    """One benchmark input.

    `expected` is "sphere", "non_sphere" or "manifold".  `h1` is the known
    first homology as (rank, torsion) where the construction fixes it.
    `payload` is what the timed call receives; `source` is the complex or
    structure it was made from, used by the cross-checks.
    """

    ident: str
    expected: str
    payload: Any
    source: Any
    h1: Optional[Tuple[int, Tuple[int, ...]]] = None


def cycle(lib, n: int, start: int = 1):
    vs = list(range(start, start + n))
    return lib.complexes.Complex(
        tuple(sorted((vs[i], vs[(i + 1) % n]))) for i in range(n)
    )


def cycle_join(lib, a: int, b: int):
    """C_a * C_b, a 3-sphere with a*b facets."""
    return cycle(lib, a, 1).join(cycle(lib, b, a + 1))


def staircase_product(lib, k, l):
    """Triangulate |k| x |l| by the staircase rule on ordered vertices.

    Vertex (a, b) gets label (a - 1) * max(l) + b, which preserves the
    lexicographic order, so the result can be multiplied again.
    """
    width = l.max_label()
    out = []
    for s in k.generators:
        for t in l.generators:
            p, q = len(s) - 1, len(t) - 1
            for ups in itertools.combinations(range(p + q), p):
                i = j = 0
                verts = [(s[0] - 1) * width + t[0]]
                for step in range(p + q):
                    if step in ups:
                        i += 1
                    else:
                        j += 1
                    verts.append((s[i] - 1) * width + t[j])
                out.append(tuple(verts))
    return lib.complexes.Complex(out)


# The 6-vertex real projective plane.
RP2_6 = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]

# name -> (builder, known H1 as (rank, torsion))
CONTROLS: List[Tuple[str, Callable, Tuple[int, Tuple[int, ...]]]] = [
    (
        "S2xS1",
        lambda lib: staircase_product(lib, lib.complexes.standard_sphere(2), cycle(lib, 4)),
        (1, ()),
    ),
    (
        "T3",
        lambda lib: staircase_product(
            lib, staircase_product(lib, cycle(lib, 3), cycle(lib, 3)), cycle(lib, 3)
        ),
        (3, ()),
    ),
    (
        "RP2xS1",
        lambda lib: staircase_product(lib, lib.complexes.Complex(RP2_6), cycle(lib, 3)),
        (1, (2,)),
    ),
]


def negative_controls(lib) -> List[Tuple[str, Any, Tuple[int, Tuple[int, ...]]]]:
    """Build the closed non-sphere 3-manifolds and verify them before use."""
    out = []
    for name, build, known in CONTROLS:
        m = build(lib)
        report = lib.manifold.check_manifold(m)
        if not (report.is_manifold is True and report.closed and report.dimension == 3):
            raise ControlError(f"{name}: expected a closed 3-manifold, got {report.describe()}")
        group = lib.invariants.h1(m)
        if (group.rank, group.torsion) != known:
            raise ControlError(f"{name}: expected H1 {known}, got {group.describe()}")
        out.append((name, m, known))
    return out


def random_subdivision(lib, rng: random.Random, k, moves: int):
    """Apply `moves` stellar subdivisions at random faces of random facets."""
    for _ in range(moves):
        g = rng.choice(k.sorted_generators())
        a = tuple(sorted(rng.sample(g, rng.randint(1, len(g)))))
        k = lib.moves.subdivide(k, a, lib.complexes.LabelAllocator(k).fresh())
    return k


def fingerprint(items: List[Item]) -> str:
    """Hash of every input and its known answer, stable across processes."""
    h = hashlib.sha256()
    for item in items:
        src = item.source
        if hasattr(src, "sphere"):
            body = [src.apex, sorted(src.sphere.generators), sorted(src.equivalence.generator_pairs)]
        else:
            body = sorted(src.generators)
        h.update(json.dumps([item.ident, item.expected, item.h1, body]).encode())
    return h.hexdigest()[:16]
