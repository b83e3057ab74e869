"""Lens shells: twisted bipyramid structures on the 2-sphere.

The shell for parameters (q, p) identifies the northern and southern
triangle fans of a bipyramid with a rotation by p steps.  The naive q-gon
version is not regular — every equatorial triangle has two equivalent
vertices — so it is repaired by subdividing the offending edges, which
doubles the equator.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Dict, List, Optional, Set, Tuple

from .complexes import Complex, LabelAllocator, Simplex, UnionFind
from .errors import EquivalenceError, StructureError
from .quotient import Matching, RegularEquivalence, StellarStructure, pair_matching

MatchingTable = Dict[Tuple[Simplex, Simplex], Matching]


def _tri(*vs: int) -> Simplex:
    return tuple(sorted(vs))


def _bipyramid(q: int) -> Tuple[List[Simplex], List[Simplex]]:
    """The northern and southern fans of the q-gon bipyramid: poles 1 and 2,
    equator 3..q+2, and triangle k of each fan on the equator edge k, from
    3 + k to 3 + (k + 1) % q."""
    rim = [(3 + k, 3 + (k + 1) % q) for k in range(q)]
    return [_tri(1, *e) for e in rim], [_tri(2, *e) for e in rim]


def _structure(
    tris: List[Simplex], classes: List[List[int]], pairs: List[Tuple[Simplex, Simplex]]
) -> StellarStructure:
    """The structure on the sphere of `tris`, about the least fresh label."""
    sphere = Complex(tris)
    equivalence = RegularEquivalence.build(classes, pairs)
    return StellarStructure(LabelAllocator(sphere).fresh(), sphere, equivalence)


def coarse_lens(q: int, p: int) -> Tuple[StellarStructure, MatchingTable]:
    """The q-gon bipyramid with the shift-p fan pairing.

    Not regular for q >= 3: each triangle has two equatorial (hence
    equivalent) vertices.  The explicit per-pair vertex matchings are
    returned alongside, since the classes alone do not determine them.
    """
    north, south = _bipyramid(q)
    eq = [3 + k % q for k in range(q + p + 1)]  # equator vertex k mod q
    table: MatchingTable = {
        (g, south[(k + p) % q]): {1: 2, eq[k]: eq[k + p], eq[k + 1]: eq[k + p + 1]}
        for k, g in enumerate(north)
    }
    return _structure(north + south, [[1, 2], eq[:q]], list(table)), table


def _violating_edges(structure: StellarStructure) -> List[Simplex]:
    cls = structure.equivalence.class_of(structure.sphere)
    return sorted(e for e in structure.sphere.faces_of_dim(1) if cls[e[0]] == cls[e[1]])


def make_regular(
    structure: StellarStructure,
    matchings: Optional[MatchingTable] = None,
) -> Tuple[StellarStructure, MatchingTable]:
    """Repair an equivalence whose pairs join vertices within a class.

    Each round takes the orbit, under the pair matchings and their
    inverses, of the smallest edge with equivalent endpoints.  One pass
    over the generators subdivides every orbit edge at a fresh midpoint,
    and the midpoints form one new vertex class; pairs and matchings are
    refined to match.  Fails if a generator holds two orbit edges; when
    none does, the stars of the orbit edges are disjoint and the pass
    equals subdividing them one by one.

    The rounds end: each removes its orbit's edges and adds no violating
    edge, since every new edge joins a midpoint to a vertex that was there
    before the round, and the midpoints form a class of their own.  So each
    round starts at a violating edge of the input, in sorted order, that no
    earlier orbit took.
    """
    sphere = structure.sphere
    equivalence = structure.equivalence
    cls_list = [sorted(c) for c in equivalence.vertex_classes]
    pairs = list(equivalence.generator_pairs)
    if matchings is None:
        cls = equivalence.class_of(sphere)
        matchings = {(g, h): pair_matching(g, h, cls) for g, h in pairs}
    table = dict(matchings)
    alloc = LabelAllocator(sphere)
    alloc.note(structure.apex)

    repaired: Set[Simplex] = set()
    for start in _violating_edges(structure):
        if start in repaired:
            continue
        # the orbit is the class of `start` when each edge e of a paired
        # generator is joined to its image phi(e).  The edges are numbered
        # as met, `start` first, so the orbit is the class rooted at 0
        number = {start: 0}
        joins = [
            [number.setdefault(f, len(number)) for f in (e, _tri(*(phi[v] for v in e)))]
            for (g, _), phi in table.items()
            for e in combinations(g, 2)
        ]
        edges = UnionFind(len(number))
        edges.union_all([e for e, _ in joins], [image for _, image in joins])
        faces = list(number)
        orbit = {faces[i] for i in edges.members()[0]}
        repaired |= orbit
        mid = {e: alloc.fresh() for e in sorted(orbit)}
        held: Dict[Simplex, Tuple[Simplex, int]] = {}
        gens: List[Simplex] = []
        for g in sphere.generators:
            inside = [e for e in combinations(g, 2) if e in orbit]
            if len(inside) > 1:
                raise StructureError(
                    f"generator {g} contains {len(inside)} edges of one repair orbit"
                )
            if not inside:
                gens.append(g)
                continue
            (e,) = inside
            (c,) = tuple(v for v in g if v not in e)
            held[g] = e, c
            gens.extend(_tri(c, u, mid[e]) for u in e)
        sphere = Complex(gens)
        new_table: MatchingTable = {}
        for (g, h), phi in table.items():
            if g not in held:
                new_table[(g, h)] = phi
                continue
            e, c = held[g]
            img = _tri(*(phi[v] for v in e))
            for u in e:
                child = (_tri(c, u, mid[e]), _tri(phi[c], phi[u], mid[img]))
                new_table[child] = {c: phi[c], u: phi[u], mid[e]: mid[img]}
        table = new_table
        pairs = list(table)
        cls_list.append(sorted(mid.values()))

    equivalence = RegularEquivalence.build(cls_list, pairs)
    out = StellarStructure(structure.apex, sphere, equivalence)
    problems, cls = out._diagnose()
    if problems:
        raise EquivalenceError("; ".join(problems))
    # the repaired matchings must be the ones the vertex classes give
    for (g, h), phi in table.items():
        if pair_matching(g, h, cls) != phi:
            raise StructureError(
                f"repaired matching of ({g}, {h}) disagrees with the vertex classes"
            )
    return out, table


def fold_structure(q: int = 4) -> StellarStructure:
    """Bipyramid folded across its equator: each northern triangle is glued
    to its southern mirror image, poles identified, equator fixed.  The
    quotient is a disk (the northern fan), and the resulting cone is a
    3-sphere."""
    if q < 3:
        raise StructureError("fold needs a q-gon equator with q >= 3")
    north, south = _bipyramid(q)
    return _structure(north + south, [[1, 2]], list(zip(north, south)))


def lens_structure(q: int, p: int) -> StellarStructure:
    """The lens shell for coprime parameters, as a regular structure."""
    if q < 2 or not 1 <= p < q:
        raise StructureError("lens parameters need q >= 2 and 1 <= p < q")
    if gcd(q, p) != 1:
        raise StructureError(f"lens parameters must be coprime, got ({q}, {p})")
    if q == 2:
        # the coarse 2-gon is degenerate, so build the repaired form directly:
        # a square bipyramid with the antipodal pairing
        north, south = _bipyramid(4)
        pairs = [(g, south[(k + 2) % 4]) for k, g in enumerate(north)]
        return _structure(north + south, [[1, 2], [3, 5], [4, 6]], pairs)
    coarse, table = coarse_lens(q, p)
    repaired, _ = make_regular(coarse, table)
    return repaired
