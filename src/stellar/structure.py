"""Building a pairing structure on a closed manifold.

The construction cones one generator off at a fresh apex, then grows the
apex's star one generator at a time until it swallows the whole manifold.
Each step is a bistellar flip: the star generator apex * f and the residual
generator p on the other side of f are replaced by the join of the edge
(apex, w) with the boundary of f.  That is what subdividing f at a fresh
vertex and welding it back onto (apex, w) amounts to, so the complex stays
in the same stellar class throughout.  Only the apex link and the residual
generators are kept.  When the far vertex v of p already has a copy on the
link, w is a fresh copy of v; the copies are remembered as an equivalence
on the final sphere.

The input must be a closed pseudomanifold: every codimension-one face lies
in exactly two generators.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .complexes import Complex, LabelAllocator, Simplex, cofaces, simplex_boundary
from .errors import BudgetExceeded, EquivalenceError, StructureError
from .quotient import (
    QuotientComplex,
    RegularEquivalence,
    StellarStructure,
    _euler_identity,
)


@dataclass
class BuildStep:
    """One absorption step, for tracing."""

    generator: Simplex
    shared_face: Simplex
    split: Optional[Tuple[int, int]]  # (fresh copy, original) when a cut happened


@dataclass
class BuildResult:
    structure: StellarStructure
    steps: List[BuildStep] = field(default_factory=list)


def build_structure(m: Complex, budget: int = 100_000) -> BuildResult:
    """Grow a structure (apex, sphere, equivalence) on a closed manifold.

    Requires a uniform, closed, connected complex of dimension >= 1 in which
    every codimension-one face lies in exactly two generators.  Each step
    absorbs the smallest residual generator that has a face on the apex
    sphere, across the first such face in lexicographic order.
    """
    if not m or not m.is_uniform():
        raise StructureError("input must be a nonempty uniform complex")
    if m.dimension() < 1:
        raise StructureError("input must have dimension >= 1")
    if not m.is_connected():
        raise StructureError("input must be connected")
    around = cofaces(m.generators)
    for fp, gs in sorted(around.items()):  # also rules out a boundary
        if len(gs) != 2:
            raise StructureError(
                f"face {fp} lies in {len(gs)} generators; the input is not a pseudomanifold"
            )

    alloc = LabelAllocator(m)
    apex = alloc.fresh()
    first = min(m.generators)
    residual: Set[Simplex] = set(m.generators) - {first}
    # root label of every vertex; a split copy points back to its original
    root: Dict[int, int] = {v: v for v in m.vertices()}
    link: Set[Simplex] = set()
    on_link: Counter = Counter()  # original -> link generators holding it or a copy
    facing: Dict[Simplex, Simplex] = {}  # face of m with a residual coface -> its link copy
    frontier: List[Simplex] = []  # heap of residual generators touching the link
    steps: List[BuildStep] = []

    def add_to_link(gens: Set[Simplex], absorbed: Simplex) -> None:
        if not link.isdisjoint(gens):
            raise StructureError(
                f"absorbing {absorbed} adds faces already on the apex sphere"
            )
        for h in gens:
            link.add(h)
            fp = tuple(sorted(root[u] for u in h))
            on_link.update(fp)
            across = next(g for g in around[fp] if g != absorbed)
            if across in residual:
                facing[fp] = h
                heapq.heappush(frontier, across)

    add_to_link(simplex_boundary(first), first)
    while residual:
        if len(steps) >= budget:
            raise BudgetExceeded(f"structure build exceeded {budget} steps")
        while frontier and frontier[0] not in residual:
            heapq.heappop(frontier)
        if not frontier:
            raise StructureError(
                "no residual generator touches the apex sphere along a facet"
            )
        p = heapq.heappop(frontier)
        fp = next(e for e in itertools.combinations(p, len(p) - 1) if e in facing)
        f = facing.pop(fp)
        (v,) = tuple(x for x in p if x not in fp)
        w = v
        if on_link[v]:  # v is on the sphere already: absorb p at a fresh copy
            w = alloc.fresh()
            root[w] = v
        alloc.fresh()  # as subdivide-then-weld: a midpoint of f that the weld erases
        residual.remove(p)
        link.remove(f)
        on_link.subtract(fp)
        add_to_link({tuple(sorted(e + (w,))) for e in simplex_boundary(f)}, p)
        steps.append(BuildStep(p, f, None if w == v else (w, v)))

    sphere = Complex(link)
    copies: Dict[int, List[int]] = {}
    for u in sphere.vertices():
        copies.setdefault(root[u], []).append(u)
    classes = [c for c in copies.values() if len(c) > 1]
    class_id = RegularEquivalence.build(classes, ()).class_of(sphere)

    groups: Dict[frozenset, List[Simplex]] = {}
    for g in sphere.sorted_generators():
        groups.setdefault(frozenset(class_id[v] for v in g), []).append(g)
    pairs = []
    for key, gens in sorted(groups.items(), key=lambda kv: kv[1][0]):
        if len(gens) == 2:
            pairs.append((gens[0], gens[1]))
        elif len(gens) > 2:
            raise StructureError(
                f"{len(gens)} sphere generators share the class profile of {gens[0]}"
            )
    eq = RegularEquivalence.build(classes, pairs)
    structure = StellarStructure(apex=apex, sphere=sphere, equivalence=eq)
    return BuildResult(structure=structure, steps=steps)


def verify_structure(result_or_structure, m: Complex) -> List[str]:
    """Sanity diagnostics for a structure built over the manifold `m`."""
    return _verify(result_or_structure, m)[0]


def _verify(
    result_or_structure, m: Complex
) -> Tuple[List[str], Optional[QuotientComplex]]:
    """`verify_structure`'s diagnostics, and the quotient the Euler identity
    was checked on (None when an earlier problem stopped the check).  The
    quotient's construction validates the structure, so a valid structure
    is validated once, and its quotient tells closedness; an invalid one is
    validated again for the list."""
    structure = (
        result_or_structure.structure
        if isinstance(result_or_structure, BuildResult)
        else result_or_structure
    )
    out: List[str] = []
    quotient: Optional[QuotientComplex] = None
    try:
        quotient = QuotientComplex.from_structure(structure)
    except EquivalenceError:
        out = structure.validate()
    if not (quotient._closed() if quotient is not None else structure.is_closed):
        out.append("pairing does not cover every sphere generator")
    if structure.sphere.dimension() != m.dimension() - 1:
        out.append("sphere has the wrong dimension")
    if out:
        return out, None
    if not _euler_identity(quotient, m):
        out.append("cell count of the quotient fails the Euler identity")
    return out, quotient
