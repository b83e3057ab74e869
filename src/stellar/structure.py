"""Building a pairing structure on a closed manifold.

The construction subdivides one generator at a fresh apex, then grows the
apex's star one generator at a time until it swallows the whole manifold.
Each step is a subdivision followed by a weld, so the complex stays in the
same stellar class throughout.  Vertices that had to be split apart along
the way are remembered as an equivalence on the final sphere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .complexes import Complex, LabelAllocator, Simplex, UnionFind
from .errors import BudgetExceeded, StructureError
from .quotient import RegularEquivalence, StellarStructure
from .moves import subdivide, weld


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

    Requires a uniform, closed, connected complex of dimension >= 1.
    """
    if not m or not m.is_uniform():
        raise StructureError("input must be a nonempty uniform complex")
    if m.dimension() < 1:
        raise StructureError("input must have dimension >= 1")
    if not m.is_closed():
        raise StructureError("input must be closed")
    if not m.is_connected():
        raise StructureError("input must be connected")

    alloc = LabelAllocator(m)
    apex = alloc.fresh()
    first = min(m.sorted_generators())
    n = subdivide(m, first, apex)
    # root label of every vertex; a split copy points back to its original
    root: Dict[int, int] = {v: v for v in m.vertices()}
    steps: List[BuildStep] = []

    while True:
        q = n.residual((apex,))
        if not q:
            break
        if len(steps) >= budget:
            raise BudgetExceeded(f"structure build exceeded {budget} steps")
        lk = n.link((apex,))
        lk_verts = lk.vertices()
        # sphere facets indexed by the originals they are copies of
        by_roots: Dict[frozenset, List[Simplex]] = {}
        for f in lk.sorted_generators():
            by_roots.setdefault(frozenset(root[u] for u in f), []).append(f)
        lk_roots = {root[u] for u in lk_verts}
        pick: Optional[Tuple[Simplex, Simplex, Simplex]] = None
        for p in q.sorted_generators():
            for fp in sorted(itertools.combinations(p, len(p) - 1)):
                hit = by_roots.get(frozenset(fp))
                if hit:
                    pick = (p, fp, hit[0])
                    break
            if pick:
                break
        if pick is None:
            raise StructureError(
                "no residual generator touches the apex sphere along a facet"
            )
        p, fp, f = pick
        (v,) = tuple(x for x in p if x not in fp)
        before = len(q)
        if v not in lk_roots:
            attach = tuple(sorted(f + (v,)))
            if attach != p:
                n = n + Complex([p, attach])
            b = alloc.fresh()
            n = weld(subdivide(n, f, b), tuple(sorted((apex, v))), b)
            steps.append(BuildStep(p, f, None))
        else:
            d = alloc.fresh()
            n = n + Complex([p, tuple(sorted(f + (d,)))])
            b = alloc.fresh()
            n = weld(subdivide(n, f, b), tuple(sorted((apex, d))), b)
            root[d] = v
            steps.append(BuildStep(p, f, (d, v)))
        after = len(n.residual((apex,)))
        if after != before - 1:
            raise StructureError(
                f"absorbing {p} changed the residual size {before} -> {after}"
            )

    dsu = UnionFind()
    for v in root:
        dsu.union(v, root[v])

    sphere = n.link((apex,))
    sphere_verts = sphere.vertices()
    classes = sorted(
        sorted(g & sphere_verts)
        for g in dsu.groups().values()
        if len(g & sphere_verts) > 1
    )
    class_id = {}
    for i, c in enumerate(classes):
        for v in c:
            class_id[v] = i
    nxt = len(classes)
    for v in sorted(sphere.vertices()):
        if v not in class_id:
            class_id[v] = nxt
            nxt += 1

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
    from .quotient import euler_identity_check

    structure = (
        result_or_structure.structure
        if isinstance(result_or_structure, BuildResult)
        else result_or_structure
    )
    out = structure.validate()
    if not structure.is_closed:
        out.append("pairing does not cover every sphere generator")
    if structure.sphere.dimension() != m.dimension() - 1:
        out.append("sphere has the wrong dimension")
    if not out and not euler_identity_check(structure, m):
        out.append("cell count of the quotient fails the Euler identity")
    return out
