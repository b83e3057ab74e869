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
in exactly two generators.  The order of the steps is decided on numbers
alone, by the one walk of the dual graph, `complexes._dual_tree`:
generators in sorted order, and each codimension-one face by its two
positions among the generators' facets, which the facet pairing of
`complexes` matches.  `_crossings` adds what a build needs to each step:
whether its far vertex gets a copy, the budget, and the refusal of an
input the walk does not span.  `build_structure` follows that order with
the link's faces, and `sphere_workflow` on the manifold's facet pairing;
recognition walks the same tree with none of these.  The two link copies
of each face that no step crossed are the pairs of the equivalence.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .complexes import Complex, LabelAllocator, Simplex, _dual_tree, _facet_list, _partners
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


def _refusal(m: Complex, error: Exception) -> Exception:
    """The build's refusal of `m`: `error`, unless `m` is disconnected, which
    is named instead.  Connectivity is searched only here."""
    return error if m.is_connected() else StructureError("input must be connected")


def _crossings(
    m: Complex, gens: List[Simplex], partner: Sequence[int], budget: int
) -> Iterator[Tuple[int, int, bool]]:
    """The build's steps on the sorted generators `gens` of the closed
    pseudomanifold `m`, whose facet places `partner` pairs as `_partners`
    does: the steps (i, k) of `_dual_tree`, each with copied, which holds
    when the far vertex that facet k of generator i drops has been on the
    sphere, which it has not left, since a step keeps the vertices of the
    face it crosses when n >= 2 and a circle's vertex leaves with its second
    edge.  A walk that stops short, or runs past `budget` steps, ends on a
    refusal, the one place connectivity is searched, and a disconnected
    input is refused as such."""
    n = len(gens[0]) - 1
    seen = set(gens[0])  # the vertices that have been on the sphere
    walk = _dual_tree(gens, partner)
    for step in range(len(gens) - 1):
        if step >= budget:
            raise _refusal(m, BudgetExceeded(f"structure build exceeded {budget} steps"))
        ik = next(walk, None)
        if ik is None:
            raise _refusal(m, StructureError(
                "no residual generator touches the apex sphere along a facet"
            ))
        i, k = ik
        yield i, k, gens[i][n - k] in seen
        seen.add(gens[i][n - k])


def build_structure(m: Complex, budget: int = 100_000) -> BuildResult:
    """Grow a structure (apex, sphere, equivalence) on a closed manifold.

    Requires a uniform, closed, connected complex of dimension >= 1 in which
    every codimension-one face lies in exactly two generators.  Each step
    absorbs the smallest residual generator that has a face on the apex
    sphere, across the first such face in lexicographic order
    (`_crossings`).
    """
    if not m or not m.is_uniform():
        raise StructureError("input must be a nonempty uniform complex")
    if m.dimension() < 1:
        raise StructureError("input must have dimension >= 1")
    gens = sorted(m.generators)
    n = len(gens[0]) - 1
    below = _facet_list(gens, n)
    partner = _partners(below)
    if partner is None or -1 in partner:
        count = Counter(below)
        fp = min(f for f, c in count.items() if c != 2)
        raise _refusal(m, StructureError(
            f"face {fp} lies in {count[fp]} generators; the input is not a pseudomanifold"
        ))

    alloc = LabelAllocator(m)
    apex = alloc.fresh()
    root: Dict[int, int] = {}  # an absorbed far vertex or a copy of one -> its original
    # an absorbed generator's facet place -> its copy on the link, while the
    # generator across it is residual
    facing = dict(zip(range(n + 1), below))
    pairs: List[Tuple[Simplex, Simplex]] = []  # the link copies of each uncrossed face
    steps: List[BuildStep] = []
    for i, k, copied in _crossings(m, gens, partner, budget):
        p, base = gens[i], (n + 1) * i
        f = facing.pop(partner[base + k])
        v = p[n - k]
        w = alloc.fresh() if copied else v
        root[w] = v
        alloc.fresh()  # as subdivide-then-weld: a midpoint of f that the weld erases
        # the new face without x lies on the facet of p without x's original;
        # each holds w, which no face on the link holds, so the faces stay distinct
        fw = sorted(f + (w,))
        for h, x in zip(itertools.combinations(fw, n), reversed(fw)):
            if x != w:
                at = base + n - p.index(root.get(x, x))
                if partner[at] in facing:  # both cofaces are in, and the face was not crossed
                    pairs.append((facing.pop(partner[at]), h))
                else:
                    facing[at] = h
        steps.append(BuildStep(p, f, None if w == v else (w, v)))

    sphere = Complex(itertools.chain.from_iterable(pairs))
    copies: Dict[int, List[int]] = {}
    for u in sphere.vertices():
        copies.setdefault(root.get(u, u), []).append(u)
    eq = RegularEquivalence.build([c for c in copies.values() if len(c) > 1], pairs)
    return BuildResult(StellarStructure(apex=apex, sphere=sphere, equivalence=eq), steps)


def verify_structure(result_or_structure, m: Complex) -> List[str]:
    """Sanity diagnostics for a structure built over the manifold `m`.

    The quotient's construction validates the structure on its face
    numbers, and its quotient tells closedness; an invalid one is validated
    once, and the refusal carries the list.  The Euler identity is checked
    on that quotient when nothing else is wrong."""
    structure = result_or_structure
    if isinstance(structure, BuildResult):
        structure = structure.structure
    out: List[str] = []
    quotient: Optional[QuotientComplex] = None
    try:
        quotient = QuotientComplex.from_structure(structure)
    except EquivalenceError as refusal:
        out = refusal.reasons
    if not (quotient._closed() if quotient is not None else structure.is_closed):
        out.append("pairing does not cover every sphere generator")
    if structure.sphere.dimension() != m.dimension() - 1:
        out.append("sphere has the wrong dimension")
    if not out and not _euler_identity(quotient, m):
        out.append("cell count of the quotient fails the Euler identity")
    return out
