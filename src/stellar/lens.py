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


def coarse_lens(q: int, p: int) -> Tuple[StellarStructure, MatchingTable]:
    """The q-gon bipyramid with the shift-p fan pairing.

    Not regular for q >= 3: each triangle has two equatorial (hence
    equivalent) vertices.  The explicit per-pair vertex matchings are
    returned alongside, since the classes alone do not determine them.
    """
    north, south = 1, 2
    eq = [3 + k for k in range(q)]
    tris = []
    for k in range(q):
        tris.append(_tri(north, eq[k], eq[(k + 1) % q]))
        tris.append(_tri(south, eq[k], eq[(k + 1) % q]))
    sphere = Complex(tris)
    pairs: List[Tuple[Simplex, Simplex]] = []
    table: MatchingTable = {}
    for k in range(q):
        g = _tri(north, eq[k], eq[(k + 1) % q])
        h = _tri(south, eq[(k + p) % q], eq[(k + p + 1) % q])
        pairs.append((g, h))
        table[(g, h)] = {
            north: south,
            eq[k]: eq[(k + p) % q],
            eq[(k + 1) % q]: eq[(k + p + 1) % q],
        }
    classes = [[north, south], eq]
    equivalence = RegularEquivalence.build(classes, pairs)
    apex = LabelAllocator(sphere).fresh()
    return StellarStructure(apex, sphere, equivalence), table


def _violating_edges(structure: StellarStructure) -> List[Simplex]:
    cls = structure.equivalence.class_of(structure.sphere)
    out: Set[Simplex] = set()
    for e in structure.sphere.faces_of_dim(1):
        if cls[e[0]] == cls[e[1]]:
            out.add(e)
    return sorted(out)


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
    north, south = 1, 2
    eq = [3 + k for k in range(q)]
    tris = []
    pairs = []
    for k in range(q):
        up = _tri(north, eq[k], eq[(k + 1) % q])
        down = _tri(south, eq[k], eq[(k + 1) % q])
        tris.append(up)
        tris.append(down)
        pairs.append((up, down))
    equivalence = RegularEquivalence.build([[north, south]], pairs)
    sphere = Complex(tris)
    return StellarStructure(LabelAllocator(sphere).fresh(), sphere, equivalence)


def lens_structure(q: int, p: int) -> StellarStructure:
    """The lens shell for coprime parameters, as a regular structure."""
    if q < 2 or not 1 <= p < q:
        raise StructureError("lens parameters need q >= 2 and 1 <= p < q")
    if gcd(q, p) != 1:
        raise StructureError(f"lens parameters must be coprime, got ({q}, {p})")
    if q == 2:
        # the coarse 2-gon is degenerate, so build the repaired form directly:
        # a square bipyramid with the antipodal pairing
        north, south = 1, 2
        eq = [3, 4, 5, 6]
        tris = []
        pairs = []
        for k in range(4):
            tris.append(_tri(north, eq[k], eq[(k + 1) % 4]))
            tris.append(_tri(south, eq[k], eq[(k + 1) % 4]))
        for k in range(4):
            pairs.append(
                (
                    _tri(north, eq[k], eq[(k + 1) % 4]),
                    _tri(south, eq[(k + 2) % 4], eq[(k + 3) % 4]),
                )
            )
        classes = [[north, south], [eq[0], eq[2]], [eq[1], eq[3]]]
        equivalence = RegularEquivalence.build(classes, pairs)
        sphere = Complex(tris)
        return StellarStructure(LabelAllocator(sphere).fresh(), sphere, equivalence)
    coarse, table = coarse_lens(q, p)
    repaired, _ = make_regular(coarse, table)
    return repaired
