"""Simplicial complexes over Z2.

A complex is a finite set of generator simplexes; addition is symmetric
difference, so adding a simplex twice removes it.  A simplex is a sorted
tuple of distinct positive integer vertex labels.  The empty tuple is
permitted internally: it is the identity for the join and shows up as the
link of a generator inside itself.  Public parsers never accept it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .errors import ComplexError

Simplex = Tuple[int, ...]

EMPTY: Simplex = ()


def simplex(vertices: Iterable[int]) -> Simplex:
    """Normalize an iterable of vertex labels into a simplex tuple."""
    vs = list(vertices)
    for v in vs:  # before sorting, which raises TypeError on mixed types
        if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
            raise ComplexError(f"vertex labels must be positive integers, got {v!r}")
    vs.sort()
    vs = tuple(vs)
    if vs and vs[0] < 1:
        raise ComplexError(f"vertex labels must be positive integers, got {vs[0]!r}")
    if len(set(vs)) < len(vs):
        a = next(a for a, b in zip(vs, vs[1:]) if a == b)
        raise ComplexError(f"repeated vertex {a} in simplex {vs}")
    return vs


def all_faces(s: Simplex) -> Iterator[Simplex]:
    """All nonempty faces of `s`, including `s` itself."""
    for k in range(1, len(s) + 1):
        yield from itertools.combinations(s, k)


def simplex_boundary(s: Simplex) -> FrozenSet[Simplex]:
    """Faces of codimension one.  For a single vertex this is {()}."""
    if not s:
        raise ComplexError("the empty simplex has no boundary")
    return frozenset(tuple(v for v in s if v != skip) for skip in s)


def cofaces(gens: Iterable[Simplex]) -> Dict[Simplex, List[Simplex]]:
    """Codimension-one face -> the generators in `gens` containing it."""
    out: Dict[Simplex, List[Simplex]] = {}
    for g in gens:
        for f in itertools.combinations(g, len(g) - 1):
            out.setdefault(f, []).append(g)
    return out


class Complex:
    """An immutable set of generator simplexes with Z2 addition."""

    __slots__ = ("_gens",)

    def __init__(self, generators: Iterable[Simplex] = ()):
        gens = set()
        for g in generators:
            g = simplex(g)
            if g in gens:
                gens.discard(g)  # mod-2: a pair cancels
            else:
                gens.add(g)
        self._gens: FrozenSet[Simplex] = frozenset(gens)

    @classmethod
    def _of(cls, generators: Iterable[Simplex]) -> "Complex":
        """Trusted constructor for results built from valid complexes.

        Precondition: the generators are distinct, and each is a sorted
        tuple of distinct positive ints or `()`.  Nothing is checked and
        nothing cancels; input from outside goes through `Complex(...)`.
        """
        k = object.__new__(cls)
        k._gens = frozenset(generators)
        return k

    # -- basic protocol -------------------------------------------------

    @property
    def generators(self) -> FrozenSet[Simplex]:
        return self._gens

    def sorted_generators(self) -> List[Simplex]:
        return sorted(self._gens, key=lambda g: (len(g), g))

    def __len__(self) -> int:
        return len(self._gens)

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.sorted_generators())

    def __contains__(self, s) -> bool:
        return tuple(s) in self._gens

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self._gens == other._gens

    def __hash__(self) -> int:
        return hash(self._gens)

    def __bool__(self) -> bool:
        return bool(self._gens)

    def __repr__(self) -> str:
        inner = " + ".join(str(g) for g in self.sorted_generators())
        return f"Complex({inner or '0'})"

    def __add__(self, other: "Complex") -> "Complex":
        if not isinstance(other, Complex):
            return NotImplemented
        return Complex._of(self._gens ^ other._gens)

    # -- vertex bookkeeping ---------------------------------------------

    def vertices(self) -> FrozenSet[int]:
        return frozenset(itertools.chain.from_iterable(self._gens))

    def max_label(self) -> int:
        vs = self.vertices()
        return max(vs) if vs else 0

    def dimension(self) -> int:
        """Largest generator dimension; -1 for the empty complex or {()}."""
        if not self._gens:
            return -1
        return max(len(g) for g in self._gens) - 1

    def is_uniform(self) -> bool:
        dims = {len(g) for g in self._gens}
        return len(dims) <= 1

    # -- the calculus ----------------------------------------------------

    def boundary(self) -> "Complex":
        """Mod-2 sum of the codimension-one faces of every generator."""
        total: set = set()
        for g in self._gens:
            if len(g) < 2:
                raise ComplexError(
                    f"cannot take the boundary of {g}: generators must have dimension >= 1"
                )
            for f in itertools.combinations(g, len(g) - 1):
                if f in total:
                    total.remove(f)
                else:
                    total.add(f)
        return Complex._of(total)

    def is_closed(self) -> bool:
        return not self.boundary()

    def join(self, other: "Complex") -> "Complex":
        """Join: generators are unions; vertex sets must be disjoint."""
        if not isinstance(other, Complex):
            raise ComplexError("join expects a Complex")
        shared = self.vertices() & other.vertices()
        if shared:
            raise ComplexError(
                f"join requires disjoint vertex sets; shared labels {sorted(shared)}"
            )
        gens = []
        for g in self._gens:
            for h in other._gens:
                gens.append(tuple(sorted(g + h)))
        return Complex._of(gens)

    def link(self, a: Simplex) -> "Complex":
        """Faces whose join with `a` is a generator: {g \\ a : a <= g}.

        Treated as a set: coincident complements collapse to one face.
        """
        a = tuple(sorted(a))
        sa = set(a)
        out = set()
        for g in self._gens:
            if sa <= set(g):
                out.add(tuple(v for v in g if v not in sa))
        return Complex._of(out)

    def residual(self, a: Simplex) -> "Complex":
        """Generators not containing `a`."""
        sa = set(a)
        return Complex._of(g for g in self._gens if not sa <= set(g))

    # -- face counting -----------------------------------------------------

    def faces_of_dim(self, d: int) -> FrozenSet[Simplex]:
        out = set()
        for g in self._gens:
            if len(g) >= d + 1:
                out.update(itertools.combinations(g, d + 1))
        return frozenset(out)

    def closure(self) -> FrozenSet[Simplex]:
        """Every nonempty face of every generator."""
        out = set()
        for g in self._gens:
            out.update(all_faces(g))
        return frozenset(out)

    def f_vector(self) -> List[int]:
        """Entry i counts distinct i-dimensional faces."""
        dim = self.dimension()
        if dim < 0:
            return []
        return [len(self.faces_of_dim(d)) for d in range(dim + 1)]

    def euler_characteristic(self) -> int:
        chi = 0
        for i, q in enumerate(self.f_vector()):
            chi += q if i % 2 == 0 else -q
        return chi

    def is_connected(self) -> bool:
        """Connectivity of the union of generators (empty complex counts)."""
        return connected(self._gens)


def star_index(gens: Iterable[Simplex]) -> Dict[int, List[Simplex]]:
    """The star index: every vertex -> the generators of its link, that is
    the face opposite the vertex in each generator containing it, from one
    pass over `gens`.  For distinct generators the faces are distinct, and
    sorted generators give sorted links.  Let g < h hold v and first differ
    at g[i] < h[i].  Then g[i] is not v, or h, equal to g before i and above
    v from i on, would not hold v.  So g - v and h - v first differ at g[i]
    against h[i], or against h[i + 1] > v when h[i] is v: g - v < h - v."""
    out: Dict[int, List[Simplex]] = {}
    for g in gens:
        if g:
            # combinations drop the last vertex first, then the one before
            for f, v in zip(itertools.combinations(g, len(g) - 1), reversed(g)):
                out.setdefault(v, []).append(f)
    return out


def _facet_list(cells: Iterable[Simplex], d: int) -> List[Simplex]:
    """The facets of the d-simplexes `cells`, cell by cell; each cell's come
    in `combinations` order, which drops the last vertex first, as in
    `star_index`.  A point's one facet is the empty face."""
    faces = map(itertools.combinations, cells, itertools.repeat(d))
    return list(itertools.chain.from_iterable(faces))


class _FaceTable(NamedTuple):
    """Every face of a complex, ranked by (dimension, face).

    levels[d] lists the d-faces in order; a face's rank is its place in
    levels[0] + levels[1] + ....  facets[r] lists the ranks of the facets of
    the face of rank r.
    """

    levels: List[List[Simplex]]
    facets: List[Sequence[int]]

    @property
    def chi(self) -> int:
        return sum(-len(level) if d % 2 else len(level) for d, level in enumerate(self.levels))


def _face_table(
    top: List[Simplex], below: List[Simplex], lower: Iterable[Simplex] = ()
) -> _FaceTable:
    """The face table of the sorted top-dimensional cells `top`, whose facets
    `below` lists as `_facet_list` gives them, and of the lower cells
    `lower`, from one top-down pass; with no cells, the table is empty.

    Each level takes its facets with one `combinations` per cell and is
    sorted once, so ranking needs no key function; the facets' ranks are
    read off each level's position map at the end.  Vertices are ranked as
    their labels, so an edge's facets are its two ends, and become 1-tuples
    once ranked.
    """
    dim = len(top[0]) - 1 if top else -1
    extra: Dict[int, list] = {}
    for g in lower:
        extra.setdefault(len(g) - 1, []).append(g if len(g) > 1 else g[0])
    levels, faces = [top], [below]
    for d in range(dim - 1, -1, -1):
        if not d:  # the edges' ends, in `combinations` order
            faces[-1] = list(itertools.chain.from_iterable(levels[-1]))
        level = sorted(set(faces[-1]).union(extra.get(d, ())))
        levels.append(level)
        faces.append(_facet_list(level, d) if d > 1 else [])
    levels.reverse()
    faces.reverse()
    facets: List[Sequence[int]] = [()] * len(levels[0])
    for d in range(1, dim + 1):
        rank = dict(zip(levels[d - 1], itertools.count(len(facets) - len(levels[d - 1]))))
        # a d-cell has d + 1 facets, consecutive in faces[d]
        ranks = map(rank.__getitem__, faces[d])
        facets.extend(zip(*[ranks] * (d + 1)))
    if dim > 0:
        levels[0] = [(v,) for v in levels[0]]
    return _FaceTable(levels, facets)


def face_table(k: Complex) -> _FaceTable:
    """The face table of the nonempty generators of `k`: those of the top
    dimension, sorted, and the rest as lower cells, from one pass that
    groups the generators by size."""
    by_size: Dict[int, List[Simplex]] = {}
    for g in k.generators:
        by_size.setdefault(len(g), []).append(g)
    by_size.pop(0, None)  # the empty face
    size = max(by_size, default=0)
    top = sorted(by_size.pop(size, ()))
    return _face_table(top, _facet_list(top, size - 1), itertools.chain.from_iterable(by_size.values()))


def _partners(facets: Sequence[Hashable]) -> Optional[List[int]]:
    """The facet pairing of a complex's top cells, whose facets `facets`
    lists cell by cell: for each place, the place of the same facet in the
    one other cell that has it, or -1 when no other cell has it; None when a
    facet lies in a third cell."""
    first: Dict[Hashable, int] = {}  # facet -> the place it was first seen
    partner = [-1] * len(facets)
    for at, f in enumerate(facets):
        s = first.setdefault(f, at)
        if s != at:
            if partner[s] >= 0:
                return None
            partner[s], partner[at] = at, s
    return partner


def _dual_tree(top: Sequence[Simplex], partner: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """The steps of a spanning tree of the dual graph of a closed
    pseudomanifold, whose sorted top cells `top` have the facet pairing
    `partner` (`_partners`, with no -1): facet k of cell i is place
    (n + 1) i + k, and drops vertex n - k.  From cell 0, each step takes the
    least cell not yet taken with a facet on a taken one, across its least
    such facet k, and gives (i, k).  The heap holds each cell once, from the
    time a taken cell's facet first reaches it, and a cell is taken only
    when it is popped, so the least cell on the heap is the next step.  The
    walk returns when the heap empties: after N - 1 steps exactly when the
    dual graph is connected."""
    w = len(top[0])
    taken = bytearray(len(top))
    queued = bytearray(len(top))  # cells ever pushed onto the heap
    queued[0] = 1
    frontier = [0]  # a heap of the untaken cells next to taken ones, and cell 0
    while frontier:
        i = heapq.heappop(frontier)
        base = w * i
        if i:
            for k, at in enumerate(partner[base:base + w]):
                if taken[at // w]:
                    break
            yield i, k
        taken[i] = 1
        for at in partner[base:base + w]:
            j = at // w
            if not queued[j]:
                queued[j] = 1
                heapq.heappush(frontier, j)


def _uncrossed(below: Sequence[Simplex], partner: Sequence[int],
               steps: Iterable[Tuple[int, int]]) -> List[Simplex]:
    """The facets that no step (i, k) of `_dual_tree` crossed, each once, in
    the order of their lower place, of the cells whose facets `below` lists
    as `_facet_list` does, paired by `partner`: step (i, k) crosses place
    (n + 1) i + k and its partner."""
    w = len(below[0]) + 1
    crossed = bytearray(len(below))
    for i, k in steps:
        at = w * i + k
        crossed[at] = crossed[partner[at]] = 1
    return [below[at] for at, other in enumerate(partner) if at < other and not crossed[at]]


def connected(gens: Iterable[Simplex]) -> bool:
    """Whether the union of the simplexes `gens` is connected; an empty
    union is.  Each simplex joins its vertices to its first one."""
    index: Dict[int, int] = {}  # vertex -> its number in the union-find
    xs: List[int] = []
    ys: List[int] = []
    for g in gens:
        for v in g:
            ys.append(index.setdefault(v, len(index)))
            xs.append(index[g[0]])
    return _components(len(index), xs, ys) <= 1


def _components(n: int, xs: List[int], ys: List[int]) -> int:
    """The number of classes of 0..n-1 once xs[i] is joined to ys[i] for
    each i: each join that is not idle merges two classes.  The joins carry
    no sign."""
    return n - len(xs) + len(UnionFind(n).union_all(xs, ys))


class UnionFind:
    """Union-find on the integers 0..n-1 where each element carries a sign
    relative to its root.  The least element of a class is its root."""

    def __init__(self, n: int) -> None:
        self._parent = list(range(n))
        self._parity = [0] * n
        self.conflicts: Set[int] = set()  # roots of classes with clashing signs

    def find(self, x: int) -> Tuple[int, int]:
        """(root, parity of x against the root), with path compression."""
        parent, signs = self._parent, self._parity
        up = parent[x]
        if parent[up] == up:  # x is a root or hangs under one
            return up, signs[x]
        path = []
        parity = 0
        while parent[x] != x:
            path.append(x)
            parity ^= signs[x]
            x = parent[x]
        total = parity
        for node in path:  # a node's parity to the root is what is left
            above = signs[node]
            parent[node] = x
            signs[node] = parity
            parity ^= above
        return x, total

    def union(self, x: int, y: int, parity: int = 0) -> bool:
        """Record that x and y agree up to `parity`; False when they were
        one class already."""
        return not self.union_all((x,), (y,), (parity,))

    def union_all(
        self, xs: Iterable[int], ys: Iterable[int], parities: Optional[Iterable[int]] = None
    ) -> List[int]:
        """`union` of xs[i] and ys[i] up to parities[i], in order, each 0 when
        `parities` is None; gives the places i where the two were one class
        already.

        With no parities, on a union-find whose signs are all 0 and which has
        no conflict, every sign stays 0 and no conflict can arise or move, so
        the joins run without reading or writing a sign: they give the same
        idle places, roots and classes as the signed loop with every parity
        0.  Every connectivity question (`_components`) and the spanning
        forest of `homology_from_boundaries` take this loop; `union` and the
        quotient's identifications pass parities and keep the signed one."""
        parent, signs, conflicts, find = self._parent, self._parity, self.conflicts, self.find
        idle: List[int] = []
        if parities is None:
            if not conflicts and not any(signs):
                for i, x, y in zip(itertools.count(), xs, ys):
                    rx, ry = parent[x], parent[y]
                    if parent[rx] != rx:
                        rx = find(x)[0]
                    if parent[ry] != ry:
                        ry = find(y)[0]
                    if rx == ry:
                        idle.append(i)
                    elif rx < ry:
                        parent[ry] = rx
                    else:
                        parent[rx] = ry
                return idle
            parities = itertools.repeat(0)
        for i, x, y, parity in zip(itertools.count(), xs, ys, parities):
            rx, ry = parent[x], parent[y]
            if parent[rx] == rx:  # x is a root or hangs under one, as in `find`
                px = signs[x]
            else:
                rx, px = find(x)
            if parent[ry] == ry:
                py = signs[y]
            else:
                ry, py = find(y)
            if rx == ry:
                if px ^ py != parity:
                    conflicts.add(rx)
                idle.append(i)
                continue
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx
            signs[ry] = px ^ py ^ parity
            if ry in conflicts:
                conflicts.discard(ry)
                conflicts.add(rx)
        return idle

    def members(self) -> Dict[int, List[int]]:
        """Root -> members in increasing order.  Every element is hung
        straight under its root on the way: a parent is never greater than
        its child, so one increasing pass finds each parent done."""
        parent, signs = self._parent, self._parity
        groups: Dict[int, List[int]] = {}
        for x, up in enumerate(parent):
            if up == x:
                groups[x] = [x]
            else:
                root = parent[up]
                parent[x] = root
                signs[x] ^= signs[up]
                groups[root].append(x)
        return groups

    @property
    def flat(self) -> Tuple[List[int], List[int]]:
        """Each element's root and its parity against the root, as two lists
        indexed by element.  Exact after `members`, which hangs every element
        straight under its root, until the next `union`."""
        return self._parent, self._parity


def cone(a: int) -> Complex:
    """The complex consisting of the single vertex `a`."""
    return Complex([(a,)])


def standard_simplex(n: int) -> Complex:
    """The n-simplex on labels 1..n+1 as a one-generator complex."""
    if n < 0:
        raise ComplexError("dimension must be >= 0")
    return Complex([tuple(range(1, n + 2))])


def standard_sphere(n: int) -> Complex:
    """Boundary of the (n+1)-simplex: the standard n-sphere."""
    return standard_simplex(n + 1).boundary()


class LabelAllocator:
    """Deterministic fresh-label source: always max-seen + 1."""

    def __init__(self, k: Complex):
        self._next = k.max_label() + 1

    def fresh(self) -> int:
        v = self._next
        self._next += 1
        return v
