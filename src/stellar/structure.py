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
in exactly two generators.  The build runs on numbers: generators in
sorted order, and each codimension-one face by its two positions among the
generators' facets, which the facet pairing of `complexes` matches.  The
two link copies of each face that no step crossed are the pairs of the
equivalence.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .complexes import Complex, LabelAllocator, Simplex, _facet_list, _partners
from .errors import BudgetExceeded, EquivalenceError, StructureError
from .quotient import QuotientComplex, RegularEquivalence, StellarStructure, _euler_identity


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

    Steps cross shared facets only, so the build never absorbs all of a
    disconnected input and ends on a refusal; connectivity is searched only
    there, and a disconnected input is refused as such first.
    """
    if not m or not m.is_uniform():
        raise StructureError("input must be a nonempty uniform complex")
    if m.dimension() < 1:
        raise StructureError("input must have dimension >= 1")

    def refuse(error: Exception) -> Exception:
        return error if m.is_connected() else StructureError("input must be connected")

    # gens[i] is generator i: its facet k sits at position at = (n + 1) i + k
    # of `below`, drops its vertex n - k, and is also the facet at position
    # partner[at], of generator partner[at] // (n + 1)
    gens = sorted(m.generators)
    n = len(gens[0]) - 1
    below = _facet_list(gens, n)
    partner = _partners(below)
    if partner is None or -1 in partner:
        count = Counter(below)
        fp = min(f for f, c in count.items() if c != 2)
        raise refuse(StructureError(
            f"face {fp} lies in {count[fp]} generators; the input is not a pseudomanifold"
        ))

    alloc = LabelAllocator(m)
    apex = alloc.fresh()
    residual = [False] + [True] * (len(gens) - 1)
    root: Dict[int, int] = {}  # an absorbed far vertex or a copy of one -> its original
    link: Set[Simplex] = set()
    # original -> link faces holding it or a copy: n for each vertex of gens[0]
    on_link = Counter(dict.fromkeys(gens[0], n))
    facing: Dict[int, Simplex] = {}  # a residual generator's facet position -> its link copy
    frontier: List[int] = []  # heap of residual generators touching the link
    pairs: List[Tuple[Simplex, Simplex]] = []  # the link copies of each uncrossed face
    steps: List[BuildStep] = []

    def add_to_link(new: List[Tuple[Simplex, int]], absorbed: Simplex) -> None:
        """Put the faces of `new`, each with the facet position of its face of m, on the link."""
        if not link.isdisjoint(h for h, _ in new):
            raise refuse(StructureError(
                f"absorbing {absorbed} adds faces already on the apex sphere"
            ))
        for h, at in new:
            link.add(h)
            across = partner[at] // (n + 1)
            if residual[across]:
                facing[partner[at]] = h
                heapq.heappush(frontier, across)
            else:  # both cofaces are in, and the face was not crossed
                pairs.append((facing.pop(at), h))

    add_to_link(list(zip(below, range(n + 1))), gens[0])
    while len(steps) < len(gens) - 1:
        if len(steps) >= budget:
            raise refuse(BudgetExceeded(f"structure build exceeded {budget} steps"))
        while frontier and not residual[frontier[0]]:
            heapq.heappop(frontier)
        if not frontier:
            raise refuse(StructureError(
                "no residual generator touches the apex sphere along a facet"
            ))
        i = heapq.heappop(frontier)
        p, base = gens[i], (n + 1) * i
        k = next(k for k in range(n + 1) if base + k in facing)
        f = facing.pop(base + k)
        v = p[n - k]
        w = alloc.fresh() if on_link[v] else v  # v on the sphere already: a fresh copy
        root[w] = v
        alloc.fresh()  # as subdivide-then-weld: a midpoint of f that the weld erases
        residual[i] = False
        link.remove(f)
        for u in p:  # each vertex of f leaves f and joins n - 1 new faces; v joins n
            on_link[u] += n - 2
        on_link[v] += 2
        # the new face without x lies on the facet of p without x's original
        fw = sorted(f + (w,))
        new = zip(itertools.combinations(fw, n), reversed(fw))
        add_to_link([(h, base + n - p.index(root.get(x, x))) for h, x in new if x != w], p)
        steps.append(BuildStep(p, f, None if w == v else (w, v)))

    sphere = Complex(link)
    copies: Dict[int, List[int]] = {}
    for u in sphere.vertices():
        copies.setdefault(root.get(u, u), []).append(u)
    classes = [c for c in copies.values() if len(c) > 1]
    eq = RegularEquivalence.build(classes, pairs)
    structure = StellarStructure(apex=apex, sphere=sphere, equivalence=eq)
    return BuildResult(structure=structure, steps=steps)


def verify_structure(result_or_structure, m: Complex) -> List[str]:
    """Sanity diagnostics for a structure built over the manifold `m`."""
    return _verify(result_or_structure, m.dimension(), m.euler_characteristic())[0]


def _verify(
    result_or_structure, dim: int, chi: int
) -> Tuple[List[str], Optional[QuotientComplex]]:
    """`verify_structure`'s diagnostics for a structure over a manifold of
    dimension `dim` and Euler characteristic `chi`, and the quotient the
    Euler identity was checked on (None when an earlier problem stopped the
    check).  The caller gives chi: `verify_structure` counts it, and
    `sphere_workflow` knows it from its manifold check.  The quotient's
    construction validates the structure on its face numbers, and its
    quotient tells closedness; an invalid one is validated once, and the
    refusal carries the list."""
    structure = (
        result_or_structure.structure
        if isinstance(result_or_structure, BuildResult)
        else result_or_structure
    )
    out: List[str] = []
    quotient: Optional[QuotientComplex] = None
    try:
        quotient = QuotientComplex.from_structure(structure)
    except EquivalenceError as refusal:
        out = refusal.reasons
    if not (quotient._closed() if quotient is not None else structure.is_closed):
        out.append("pairing does not cover every sphere generator")
    if structure.sphere.dimension() != dim - 1:
        out.append("sphere has the wrong dimension")
    if out:
        return out, None
    if not _euler_identity(quotient, dim, chi):
        out.append("cell count of the quotient fails the Euler identity")
    return out, quotient
