"""Permutation machinery attached to a structure: face classes, degree,
flatness, collapsible edges, orbit pairs, and the graph of high-order edges.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import lcm
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from .complexes import Simplex, UnionFind, cofaces
from .errors import StructureError
from .quotient import QuotientComplex, StellarStructure, pair_matching

Permutation = Tuple[int, ...]  # image array over the sorted generator list
Swap = Dict[int, int]  # a class swap on its support: generator index -> image
Members = List[Tuple[Simplex, List[int]]]  # (class's cell, its member faces' numbers)
ClassOrders = List[Tuple[Simplex, int, int]]  # (class's cell, its number of members, full order)


def p0(structure: StellarStructure) -> Permutation:
    """The pairing as an involution on the sphere's generators: the
    stand-alone reference for the quotient's `_pairs`."""
    if not structure.is_closed:
        raise StructureError("structure is not closed: the pairing is partial")
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
    pairs = structure.equivalence.generator_pairs
    cells = itertools.chain(sphere.generators, *pairs)  # paired simplexes too
    facets = sorted({f for g in cells for f in itertools.combinations(g, len(g) - 1)})
    index = {f: i for i, f in enumerate(facets)}
    uf = UnionFind(len(facets))
    for g, p in pairs:
        phi = pair_matching(g, p, cls)
        for f in itertools.combinations(g, len(g) - 1):
            uf.union(index[f], index[tuple(sorted(phi[v] for v in f))])
    return [frozenset(map(facets.__getitem__, m)) for m in uf.members().values()]


def _closed_at(f: Simplex, hits: int) -> None:
    """Refuses the face `f`, which lies in `hits` generators, unless that
    is two."""
    if hits != 2:
        raise StructureError(f"facet {f} lies in {hits} generators; the sphere is not closed there")


def _swap(sides: Iterable[Tuple[Simplex, Sequence[int]]]) -> Swap:
    """A class swap on its support, from each member face of the class with
    the generators it lies in."""
    swap: Swap = {}
    for f, hits in sides:
        _closed_at(f, len(hits))
        i, j = hits
        if i in swap or j in swap:
            raise StructureError(f"a generator contains two facets of the class of {f}")
        swap[i], swap[j] = j, i
    return swap


def _class_swap(structure: StellarStructure, alpha: FrozenSet[Simplex]) -> Swap:
    """The swap of the class `alpha` through the `cofaces` map: the
    reference for the sides `_classes` reads off the quotient."""
    gens = structure.sphere.sorted_generators()
    idx = {g: i for i, g in enumerate(gens)}
    around = cofaces(gens)
    alpha = frozenset(tuple(sorted(f)) for f in alpha)
    return _swap((f, [idx[g] for g in around.get(f, ())]) for f in alpha)


def p_alpha(structure: StellarStructure, alpha: FrozenSet[Simplex]) -> Permutation:
    """Involution swapping the two generators on either side of each facet
    in the class `alpha`; everything else is fixed.  `alpha` must be a class
    of facets of the sphere's generators, as `face_classes` gives them.

    This is the full permutation, the reference for the class sizes the
    queries below count."""
    image = list(range(len(structure.sphere.generators)))
    for i, j in _class_swap(structure, alpha).items():
        image[i] = j
    return tuple(image)


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


def _classes(quotient: QuotientComplex) -> Members:
    """Each face class, by name, with its member faces' numbers: the
    quotient's cells one dimension below the sphere's, since a matching
    carries codimension-one faces to codimension-one faces, so
    `face_classes` in its order.  Each such face is counted in one `hits`
    array over the top generators' facet numbers, and `_closed_at` refuses,
    in class order, the first that lies in a number other than two; so a
    face class's size is its number of members."""
    q = quotient
    if not q._closed():
        raise StructureError("structure is not closed: the pairing is partial")
    dim = max(q._roots, default=-1)
    if dim < 0:
        return []
    if dim == 0:
        # a 0-sphere's one class is the empty face, which lies in every
        # generator, and which the face table leaves out: it is numbered -1
        _closed_at((), len(q._generators))
        return [((), [-1])]
    # the top generators are the face table's last level, which starts at
    # the first top root, and their facets are the (dim - 1)-faces
    top, classes = q._roots[dim][0], [q._classes[r] for r in q._roots[dim - 1]]
    hits = Counter(itertools.chain.from_iterable(q._facets[top:]))
    if len(hits) != top - q._roots[dim - 1][0] or set(hits.values()) != {2}:
        for f in itertools.chain.from_iterable(classes):
            _closed_at(q._faces[f], hits[f])
    return list(zip(map(q._faces.__getitem__, q._roots[dim - 1]), classes))


def _class_orders(q: QuotientComplex) -> ClassOrders:
    """Each face class, by name, with its number of members m and its full
    order: what `degree`, `gamma_graph` and a report share.  By
    `degree_entry` and `order_of`, a class of m faces among n generators
    has entry max(m, 2) and full order m if 2m = n, else lcm(m, 2); a
    class of one face is a fold (`collapsible_edges`).

    Those proofs need the 2m generators around a class to be distinct, so
    no generator has two facets in one class (`_swap`'s refusal), which a
    validated structure ensures: two facets of a generator differ in one
    vertex, and the faces of one cell meet the same vertex classes, so two
    of the generator's vertices would share a class.

    On a spine (`QuotientComplex._spine`), a class with m uncrossed facets
    on it has m faces, and each uncrossed facet is the cell of one pair, so
    n is twice their number (README "The spine of a build")."""
    if q.sphere is None:
        *_, classes, top = q._roots.values()  # the last two levels
        hits = Counter(itertools.chain.from_iterable(map(q._facets.__getitem__, top)))
        n, sizes = 2 * len(top), [(q._faces[r], hits[r]) for r in classes]
    else:
        n, sizes = len(q._generators), [(cell, len(members)) for cell, members in _classes(q)]
    return [(cell, m, m if 2 * m == n else lcm(m, 2)) for cell, m in sizes]


def order_of(structure: StellarStructure, alpha: FrozenSet[Simplex]) -> int:
    """Full order of the composite of the pairing with the class swap.

    This is the order of `p0 ∘ p_alpha` on all generators, the label of
    `alpha` in the Γ graph.  On the generators around `alpha` the composite
    has order |alpha| (see `degree_entry`); wherever `alpha` misses a
    generator it is the pairing's own transposition, so the full order is
    |alpha| when the class touches every generator and lcm(|alpha|, 2)
    otherwise.  Computed here on the full permutations, as the reference
    for the orders `degree` and `gamma_graph` count.
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
    Walked here on the class swap, as the reference for the entries
    `degree` counts.
    """
    pairing, swap = p0(structure), _class_swap(structure, alpha)
    return max(2, _order(lambda x: pairing[swap[x]], swap))


def degree(structure: StellarStructure) -> Tuple[int, ...]:
    """Distinct degree entries of the face classes, in decreasing order.

    Each entry is the order of the class's own rotation (`degree_entry`),
    not the full order of `order_of` that labels Γ: an entry exceeds 2
    exactly when the full order does, but an odd class of k members has
    entry k where its full order is 2k.
    """
    return _degree(_class_orders(QuotientComplex.from_structure(structure)))


def _degree(orders: ClassOrders) -> Tuple[int, ...]:
    return tuple(sorted({max(m, 2) for _, m, _ in orders}, reverse=True))


def is_flat(structure: StellarStructure) -> bool:
    return degree(structure) == (2,)


def flatness_equivalence_check(structure: StellarStructure) -> bool:
    """Degree (2,) holds exactly when every face class has at most two
    members.  Returns whether the two criteria agree (they always should)."""
    small = all(len(a) <= 2 for a in face_classes(structure))
    return is_flat(structure) == small


def surface_quotient(structure: StellarStructure) -> QuotientComplex:
    """The quotient of a structure over a 2-sphere.  Edge classes, Γ and
    the surface class describe such a structure only, so a structure whose
    sphere is not a uniform 2-complex is refused by name."""
    if set(map(len, structure.sphere.generators)) != {3}:
        raise StructureError("structure needs a uniform 2-complex as its sphere")
    return QuotientComplex.from_structure(structure)


def collapsible_edges(structure: StellarStructure) -> List[FrozenSet[Simplex]]:
    """Edge classes alpha with a generator F satisfying swap(pair(F)) = F:
    the classes of one edge.  F has one edge in alpha (see `_class_orders`),
    so swap(pair(F)) = F exactly when F's matching fixes that edge, and
    then no matching carries it to another."""
    quotient = surface_quotient(structure)
    faces = quotient._faces
    return [frozenset(map(faces.__getitem__, m)) for _, m in _classes(quotient) if len(m) == 1]


def internally_flat_complexes(
    structure: StellarStructure,
) -> List[Tuple[FrozenSet[Simplex], FrozenSet[Simplex]]]:
    """Orbit pairs of the group generated by the order-2, non-collapsible
    edge swaps, with orbits matched up by the pairing involution.  Those
    are the swaps of the classes of two edges: by `_class_orders` only a
    class of one or two edges has full order 2, and one of one edge folds.

    The pairing carries each orbit onto one orbit.  Let alpha = {e1, e2}
    be such a class.  No generator holds two faces of a class
    (`_class_orders`), so the generators g1, g1' on e1 and g2, g2' on e2
    are four.  g1's matching carries e1 into alpha; were that e1, g1's
    partner would be g1', the only other generator on e1, g2 could only
    pair with g2', and no chain of matchings would join e1 to e2.  So the
    pairing carries {g1, g1'} onto {g2, g2'}, each union this pass makes
    onto another, and each orbit into one orbit, and onto it, as it is an
    involution.  A generator on no such edge is paired with one on none."""
    quotient = surface_quotient(structure)
    gens = [quotient._faces[r] for r in quotient._generators]
    uf = UnionFind(len(gens))  # orbits under the generated group
    flat = {f for _, m in _classes(quotient) if len(m) == 2 for f in m}  # faces of those classes
    first: Dict[int, int] = {}  # such a face -> the first generator met around it
    for i, r in enumerate(quotient._generators):
        for f in flat.intersection(quotient._facets[r]):
            uf.union(first.setdefault(f, i), i)  # the second joins the first
    pair: Dict[int, int] = {}
    for i, j in quotient._pairs:
        pair[i], pair[j] = j, i
    orbits = uf.members()
    done: Set[int] = set()
    out = []
    for root, members in orbits.items():
        if root in done:
            continue
        image_root = uf.find(pair[root])[0]
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
    quotient = surface_quotient(structure)
    return _gamma(quotient, _class_orders(quotient))


def _gamma(quotient: QuotientComplex, orders: ClassOrders) -> GammaGraph:
    """Γ from `_class_orders`: an edge joins the vertex classes of its
    cell's name."""
    cls = quotient.vertex_class
    edges = []
    verts: Set[int] = set()
    for (u, v), _, order in orders:
        if order <= 2:
            continue
        a, b = sorted((cls[u], cls[v]))
        verts.update((a, b))
        edges.append((a, b, order))
    return GammaGraph(tuple(sorted(verts)), tuple(sorted(edges)))


def has_circuit(gamma: GammaGraph) -> bool:
    """A multigraph has a circuit iff it has more edges than a forest allows."""
    uf = UnionFind(max(gamma.vertices, default=-1) + 1)
    return not all(uf.union(a, b) for a, b, _ in gamma.edges)
