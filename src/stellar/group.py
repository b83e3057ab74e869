"""Permutation machinery attached to a structure: face classes, degree,
flatness, collapsible edges, orbit pairs, and the graph of high-order edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import FrozenSet, List, Set, Tuple

from .complexes import Simplex, UnionFind
from .errors import StructureError
from .quotient import StellarStructure, pair_matching

Permutation = Tuple[int, ...]  # image array over the sorted generator list


def _generators(structure: StellarStructure) -> List[Simplex]:
    return structure.sphere.sorted_generators()


def _require_closed(structure: StellarStructure) -> None:
    if not structure.is_closed:
        raise StructureError("structure is not closed: the pairing is partial")


def p0(structure: StellarStructure) -> Permutation:
    """The pairing as an involution on the sphere's generators."""
    _require_closed(structure)
    gens = _generators(structure)
    idx = {g: i for i, g in enumerate(gens)}
    image = list(range(len(gens)))
    for g, p in structure.equivalence.generator_pairs:
        image[idx[g]] = idx[p]
        image[idx[p]] = idx[g]
    return tuple(image)


def face_classes(structure: StellarStructure) -> List[FrozenSet[Simplex]]:
    """Partition of the facets of the sphere's generators.

    Two facets are identified when some pair's vertex matching carries one
    to the other; classes are the transitive closure.
    """
    sphere = structure.sphere
    cls = structure.equivalence.class_of(sphere)
    uf = UnionFind(
        f for g in sphere.generators for f in itertools.combinations(g, len(g) - 1)
    )
    for g, p in structure.equivalence.generator_pairs:
        phi = pair_matching(g, p, cls)
        for f in itertools.combinations(g, len(g) - 1):
            uf.union(f, tuple(sorted(phi[v] for v in f)))
    return sorted((frozenset(s) for s in uf.groups().values()), key=sorted)


def p_alpha(structure: StellarStructure, alpha: FrozenSet[Simplex]) -> Permutation:
    """Involution swapping the two generators on either side of each facet
    in the class `alpha`; everything else is fixed."""
    gens = _generators(structure)
    idx = {g: i for i, g in enumerate(gens)}
    image = list(range(len(gens)))
    touched: Set[int] = set()
    for f in alpha:
        sf = set(f)
        cofaces = [g for g in gens if sf <= set(g)]
        if len(cofaces) != 2:
            raise StructureError(
                f"facet {tuple(sorted(f))} lies in {len(cofaces)} generators; "
                "the sphere is not closed there"
            )
        i, j = idx[cofaces[0]], idx[cofaces[1]]
        if i in touched or j in touched:
            raise StructureError(
                f"a generator contains two facets of the class of {tuple(sorted(f))}"
            )
        touched.update((i, j))
        image[i], image[j] = j, i
    return tuple(image)


def _compose(outer: Permutation, inner: Permutation) -> Permutation:
    return tuple(outer[x] for x in inner)


def _cycle_lengths(perm: Permutation) -> List[int]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        n = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            n += 1
        out.append(n)
    return out


def order_of(structure: StellarStructure, alpha: FrozenSet[Simplex]) -> int:
    """Order of the composite of the pairing with the class swap."""
    _require_closed(structure)
    comp = _compose(p0(structure), p_alpha(structure, alpha))
    return lcm(*_cycle_lengths(comp))


def degree(structure: StellarStructure) -> Tuple[int, ...]:
    """Distinct class orders, in decreasing order."""
    orders = {order_of(structure, a) for a in face_classes(structure)}
    return tuple(sorted(orders, reverse=True))


def is_flat(structure: StellarStructure) -> bool:
    return degree(structure) == (2,)


def flatness_equivalence_check(structure: StellarStructure) -> bool:
    """Degree (2,) holds exactly when every face class has at most two
    members.  Returns whether the two criteria agree (they always should)."""
    small = all(len(a) <= 2 for a in face_classes(structure))
    return is_flat(structure) == small


def _require_shell(structure: StellarStructure) -> None:
    if structure.sphere.dimension() != 2:
        raise StructureError("edge analysis needs a two-dimensional sphere")


def collapsible_edges(structure: StellarStructure) -> List[FrozenSet[Simplex]]:
    """Edge classes alpha with a generator F satisfying swap(pair(F)) = F."""
    _require_closed(structure)
    _require_shell(structure)
    p_pair = p0(structure)
    out = []
    for alpha in face_classes(structure):
        comp = _compose(p_alpha(structure, alpha), p_pair)
        if any(comp[i] == i for i in range(len(comp))):
            out.append(alpha)
    return out


def internally_flat_complexes(
    structure: StellarStructure,
) -> List[Tuple[FrozenSet[Simplex], FrozenSet[Simplex]]]:
    """Orbit pairs of the group generated by the order-2, non-collapsible
    edge swaps, with orbits matched up by the pairing involution."""
    _require_closed(structure)
    _require_shell(structure)
    gens = _generators(structure)
    collapsible = set(map(frozenset, collapsible_edges(structure)))
    perms = [
        p_alpha(structure, a)
        for a in face_classes(structure)
        if order_of(structure, a) == 2 and frozenset(a) not in collapsible
    ]
    # orbits under the generated group
    uf = UnionFind(range(len(gens)))
    for perm in perms:
        for i, j in enumerate(perm):
            uf.union(i, j)
    orbits = uf.groups()
    pair = p0(structure)
    done: Set[int] = set()
    out = []
    for root, members in sorted(orbits.items()):
        if root in done:
            continue
        image_root = uf.find(pair[root])
        if {uf.find(pair[i]) for i in members} != {image_root}:
            raise StructureError("the pairing does not carry orbits to orbits")
        done.update((root, image_root))
        out.append(
            (
                frozenset(gens[i] for i in members),
                frozenset(gens[i] for i in orbits[image_root]),
            )
        )
    return out


@dataclass(frozen=True)
class GammaGraph:
    """High-order edge classes seen as a multigraph on quotient vertices."""

    vertices: Tuple[int, ...]
    edges: Tuple[Tuple[int, int, int], ...]  # (vertex class, vertex class, order)

    def to_dot(self) -> str:
        lines = ["graph gamma {"]
        for v in self.vertices:
            lines.append(f"  v{v};")
        for a, b, order in self.edges:
            lines.append(f'  v{a} -- v{b} [label="{order}"];')
        lines.append("}")
        return "\n".join(lines)


def gamma_graph(structure: StellarStructure) -> GammaGraph:
    """One edge per order>2 edge class, between its quotient endpoints."""
    _require_closed(structure)
    _require_shell(structure)
    cls = structure.equivalence.class_of(structure.sphere)
    edges = []
    verts: Set[int] = set()
    for alpha in face_classes(structure):
        order = order_of(structure, alpha)
        if order <= 2:
            continue
        u, v = min(alpha)
        a, b = sorted((cls[u], cls[v]))
        verts.update((a, b))
        edges.append((a, b, order))
    return GammaGraph(tuple(sorted(verts)), tuple(sorted(edges)))


def has_circuit(gamma: GammaGraph) -> bool:
    """A multigraph has a circuit iff it has more edges than a forest allows."""
    uf = UnionFind(gamma.vertices)
    return not all(uf.union(a, b) for a, b, _ in gamma.edges)
