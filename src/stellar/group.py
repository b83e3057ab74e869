"""Permutation machinery attached to a structure: face classes, degree,
flatness, collapsible edges, orbit pairs, and the graph of high-order edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

from .complexes import Simplex, UnionFind, cofaces
from .errors import StructureError
from .quotient import QuotientComplex, StellarStructure, pair_matching

Permutation = Tuple[int, ...]  # image array over the sorted generator list
Swap = Dict[int, int]  # a class swap on its support: generator index -> image
ClassOrders = List[Tuple[FrozenSet[Simplex], int, int]]  # (class, degree entry, full order)


def _require_closed(structure: StellarStructure) -> None:
    if not structure.is_closed:
        raise StructureError("structure is not closed: the pairing is partial")


def p0(structure: StellarStructure) -> Permutation:
    """The pairing as an involution on the sphere's generators."""
    _require_closed(structure)
    gens = structure.sphere.sorted_generators()
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


def _cell_classes(quotient: QuotientComplex) -> List[FrozenSet[Simplex]]:
    """`face_classes` read off a structure's quotient: its cells one
    dimension below the sphere's, each as the set of its member faces.  A
    pair's matching identifies codimension-one faces with codimension-one
    faces only, so these are the same classes, in the same order."""
    d = quotient.sphere.dimension() - 1
    return [frozenset(quotient.members[c]) for c in quotient.cells.get(d, [])]


def _swap(idx: Dict[Simplex, int], around, alpha: FrozenSet[Simplex]) -> Swap:
    """The class swap over the generator index `idx` and its `cofaces` map,
    on the 2|alpha| generators it moves; every member of `alpha` must be a
    codimension-one face of the generators, as a sorted tuple."""
    swap: Swap = {}
    for f in alpha:
        hits = [idx[g] for g in around.get(f, ())]
        if len(hits) != 2:
            raise StructureError(
                f"facet {f} lies in {len(hits)} generators; "
                "the sphere is not closed there"
            )
        i, j = hits
        if i in swap or j in swap:
            raise StructureError(f"a generator contains two facets of the class of {f}")
        swap[i], swap[j] = j, i
    return swap


def _class_swap(structure: StellarStructure, alpha: FrozenSet[Simplex]) -> Swap:
    gens = structure.sphere.sorted_generators()
    alpha = frozenset(tuple(sorted(f)) for f in alpha)
    return _swap({g: i for i, g in enumerate(gens)}, cofaces(gens), alpha)


def p_alpha(structure: StellarStructure, alpha: FrozenSet[Simplex]) -> Permutation:
    """Involution swapping the two generators on either side of each facet
    in the class `alpha`; everything else is fixed.  `alpha` must be a class
    of facets of the sphere's generators, as `face_classes` gives them.

    This is the full permutation, the reference for the support-only swaps
    the queries below work with."""
    image = list(range(len(structure.sphere.generators)))
    for i, j in _class_swap(structure, alpha).items():
        image[i] = j
    return tuple(image)


def _analysis(structure: StellarStructure, classes: List[FrozenSet[Simplex]]):
    """What one query needs, built once: the generators, `p0`, and each of
    the face classes `classes` with its swap on the support, made as the
    caller reaches it."""
    pairing = p0(structure)
    gens = structure.sphere.sorted_generators()
    idx = {g: i for i, g in enumerate(gens)}
    around = cofaces(gens)
    return gens, pairing, ((a, _swap(idx, around, a)) for a in classes)


def _order(step: Callable[[int], int], starts: Iterable[int]) -> int:
    """Order of the permutation `step` on its cycles through `starts`."""
    seen: Set[int] = set()
    order = 1
    for x in starts:
        n = 0
        while x not in seen:
            seen.add(x)
            x = step(x)
            n += 1
        order = lcm(order, n or 1)
    return order


def _rotation(pairing: Permutation, swap: Swap) -> int:
    """Order of `p0 ∘ p_alpha` on the support of the swap.  Face classes are
    closed under the pair matchings, so the pairing maps the support onto
    itself and this walk never leaves it."""
    return _order(lambda x: pairing[swap[x]], swap)


def _orders(pairing: Permutation, swap: Swap) -> Tuple[int, int]:
    """Degree entry and full order of a class from its swap: the rotation's
    order, counted as at least 2, and the order of `p0 ∘ p_alpha` on all
    generators, where off the support the pairing's own transpositions add
    a factor 2 if there are any."""
    order = _rotation(pairing, swap)
    return max(2, order), (order if len(swap) == len(pairing) else lcm(order, 2))


def _class_orders(
    structure: StellarStructure, classes: List[FrozenSet[Simplex]]
) -> ClassOrders:
    """Each of the structure's face classes `classes` with its degree entry
    and full order, from one `_analysis` pass: what `degree`, `gamma_graph`
    and a report share.  A report passes the classes its quotient holds."""
    _, pairing, swaps = _analysis(structure, classes)
    return [(alpha, *_orders(pairing, swap)) for alpha, swap in swaps]


def order_of(structure: StellarStructure, alpha: FrozenSet[Simplex]) -> int:
    """Full order of the composite of the pairing with the class swap.

    This is the order of `p0 ∘ p_alpha` on all generators, the label of
    `alpha` in the Γ graph.  On the generators around `alpha` the composite
    has order |alpha| (see `degree_entry`); wherever `alpha` misses a
    generator it is the pairing's own transposition, so the full order is
    |alpha| when the class touches every generator and lcm(|alpha|, 2)
    otherwise.  Computed here on the full permutations, as the reference
    for the support-only orders of `degree` and `gamma_graph`.
    """
    pairing, swap = p0(structure), p_alpha(structure, alpha)
    return _order(lambda x: pairing[swap[x]], range(len(swap)))


def degree_entry(structure: StellarStructure, alpha: FrozenSet[Simplex]) -> int:
    """Order of the class's own rotation: `p0 ∘ p_alpha` restricted to the
    generators `p_alpha` moves.

    Those are the 2|alpha| generators around one face of the quotient (an
    edge, for a 2-sphere shell), and the pairing carries them to each other.
    The pairing and the class swap act on them as the two reflections of a
    2|alpha|-cycle, so their composite is two |alpha|-cycles and the entry
    is |alpha|.  A fold class, whose restriction is the identity (see
    `collapsible_edges`), counts as 2, so the entry is max(|alpha|, 2).
    """
    return _orders(p0(structure), _class_swap(structure, alpha))[0]


def degree(structure: StellarStructure) -> Tuple[int, ...]:
    """Distinct degree entries of the face classes, in decreasing order.

    Each entry is the order of the class's own rotation (`degree_entry`),
    not the full order of `order_of` that labels Γ: an entry exceeds 2
    exactly when the full order does, but an odd class of k members has
    entry k where its full order is 2k.
    """
    return _degree(_class_orders(structure, face_classes(structure)))


def _degree(orders: ClassOrders) -> Tuple[int, ...]:
    return tuple(sorted({entry for _, entry, _ in orders}, reverse=True))


def is_flat(structure: StellarStructure) -> bool:
    return degree(structure) == (2,)


def flatness_equivalence_check(structure: StellarStructure) -> bool:
    """Degree (2,) holds exactly when every face class has at most two
    members.  Returns whether the two criteria agree (they always should)."""
    small = all(len(a) <= 2 for a in face_classes(structure))
    return is_flat(structure) == small


def _require_shell(structure: StellarStructure) -> None:
    _require_closed(structure)
    if structure.sphere.dimension() != 2:
        raise StructureError("edge analysis needs a two-dimensional sphere")


def collapsible_edges(structure: StellarStructure) -> List[FrozenSet[Simplex]]:
    """Edge classes alpha with a generator F satisfying swap(pair(F)) = F."""
    _require_shell(structure)
    _, pairing, swaps = _analysis(structure, face_classes(structure))
    return [a for a, swap in swaps if _folds(pairing, swap)]


def _folds(pairing: Permutation, swap: Swap) -> bool:
    """Whether `swap ∘ pairing` fixes some generator.  Off the support that
    would be a fixed point of the pairing, which has none."""
    return any(swap[pairing[i]] == i for i in swap)


def internally_flat_complexes(
    structure: StellarStructure,
) -> List[Tuple[FrozenSet[Simplex], FrozenSet[Simplex]]]:
    """Orbit pairs of the group generated by the order-2, non-collapsible
    edge swaps, with orbits matched up by the pairing involution."""
    _require_shell(structure)
    gens, pair, swaps = _analysis(structure, face_classes(structure))
    uf = UnionFind(range(len(gens)))  # orbits under the generated group
    for _, swap in swaps:
        if _orders(pair, swap)[1] == 2 and not _folds(pair, swap):
            for i, j in swap.items():
                uf.union(i, j)
    orbits = uf.groups()
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
    """One edge per edge class of full order > 2 (`order_of`), between its
    quotient endpoints, labelled with that full order.

    These are the classes whose degree entry exceeds 2, but the label is the
    full order: 2q, not q, for the odd lens classes.
    """
    return _gamma(structure, _class_orders(structure, face_classes(structure)))


def _gamma(structure: StellarStructure, orders: ClassOrders) -> GammaGraph:
    _require_shell(structure)
    cls = structure.equivalence.class_of(structure.sphere)
    edges = []
    verts: Set[int] = set()
    for alpha, _, order in orders:
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
