"""Stellar moves: subdivision, welding (the inverse), relabeling, prisms,
greedy collapse, and certified ball/sphere recognition.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from .complexes import (
    EMPTY,
    Complex,
    Simplex,
    cone,
    connected,
    simplex,
    simplex_boundary,
    star_connected,
    star_index,
)
from .errors import ComplexError, MoveError, WeldError
from .homology import complex_h1


def subdivide(k: Complex, a: Simplex, vertex: int) -> Complex:
    """Star the simplex `a` at the fresh vertex `vertex`.

    Replaces the open star of `a` with the cone from `vertex` over
    boundary(a) * link(a); the residual part of the complex is untouched.
    """
    a = simplex(a)
    if vertex in k.vertices():
        raise MoveError(f"subdivision vertex {vertex} already occurs in the complex")
    if vertex < 1:
        raise MoveError(f"subdivision vertex must be a positive label, got {vertex}")
    sa = set(a)
    if not any(sa <= set(g) for g in k.generators):
        raise MoveError(f"simplex {a} is not a face of any generator")
    bdy = Complex(simplex_boundary(a)) if len(a) > 1 else Complex([EMPTY])
    starred = cone(vertex).join(bdy).join(k.link(a))
    return starred + k.residual(a)


def weld_factor(k: Complex, a: Simplex, vertex: int) -> Complex:
    """Factor link(vertex) as boundary(a) * B and return B, or raise."""
    a = simplex(a)
    if vertex not in k.vertices():
        raise WeldError(f"vertex {vertex} does not occur in the complex")
    if any(set(a) <= set(g) for g in k.generators):
        raise WeldError(f"simplex {a} is already a face of the complex")
    lk = k.link((vertex,))
    if len(a) == 1:
        # boundary of a vertex is the join identity; B is the whole link
        if a[0] in lk.vertices():
            raise WeldError(f"target vertex {a[0]} occurs in the link of {vertex}")
        return lk
    bdy = simplex_boundary(a)
    sa = set(a)
    b_parts: Set[Simplex] = set()
    for h in lk.generators:
        f = tuple(v for v in h if v in sa)
        if f not in bdy:
            raise WeldError(
                f"link generator {h} does not extend a codimension-one face of {a}"
            )
        b_parts.add(tuple(v for v in h if v not in sa))
    b = Complex._of(b_parts)
    if len(lk) != len(bdy) * len(b):
        raise WeldError(
            f"link of {vertex} does not factor through boundary({a}): "
            f"{len(lk)} generators vs {len(bdy)} x {len(b)}"
        )
    for f in bdy:
        for h in b.generators:
            if tuple(sorted(f + h)) not in lk:
                raise WeldError(
                    f"link of {vertex} is missing {tuple(sorted(f + h))}; not a join"
                )
    return b


def weld(k: Complex, a: Simplex, vertex: int) -> Complex:
    """Inverse subdivision: erase `vertex`, restoring the simplex `a`.

    Defined only when link(vertex) = boundary(a) * B for some complex B.
    """
    a = simplex(a)
    b = weld_factor(k, a, vertex)
    if not b:
        raise WeldError(f"vertex {vertex} has an empty link")
    return Complex._of([a]).join(b) + k.residual((vertex,))


def relabel(k: Complex, mapping: Dict[int, int]) -> Complex:
    """Rename vertices; labels outside the mapping are unchanged."""
    verts = k.vertices()
    image = {mapping.get(v, v) for v in verts}
    if len(image) != len(verts):
        raise MoveError("relabeling map is not injective on the vertex set")
    return Complex(tuple(sorted(mapping.get(v, v) for v in g)) for g in k.generators)


def prism_offset(k: Complex) -> int:
    """Label offset for prism copies: the next power of ten above max label."""
    top = k.max_label()
    offset = 10
    while offset <= top:
        offset *= 10
    return offset


def prism(k: Complex) -> Complex:
    """Prism over a uniform complex.

    Each generator (i1 < ... < ir) yields the r generators
    {i1..ik, i_k', ..., i_r'} where primed labels live in a fresh copy of
    the vertex set at a power-of-ten offset.
    """
    if not k.is_uniform():
        raise MoveError("prism requires a uniform complex")
    if not k:
        return Complex()
    off = prism_offset(k)
    gens = []
    for g in k.generators:
        r = len(g)
        for cut in range(1, r + 1):
            gens.append(tuple(sorted(g[:cut] + tuple(v + off for v in g[cut - 1:]))))
    return Complex(gens)


# ---------------------------------------------------------------------------
# move records


@dataclass(frozen=True)
class Subdivide:
    simplex: Simplex
    vertex: int

    op = "subdivide"

    def apply(self, k: Complex) -> Complex:
        return subdivide(k, self.simplex, self.vertex)

    def inverse(self) -> "Weld":
        return Weld(self.simplex, self.vertex)

    def to_json(self) -> dict:
        return {"op": "subdivide", "simplex": list(self.simplex), "vertex": self.vertex}


@dataclass(frozen=True)
class Weld:
    simplex: Simplex
    vertex: int

    op = "weld"

    def apply(self, k: Complex) -> Complex:
        return weld(k, self.simplex, self.vertex)

    def inverse(self) -> Subdivide:
        return Subdivide(self.simplex, self.vertex)

    def to_json(self) -> dict:
        return {"op": "weld", "simplex": list(self.simplex), "vertex": self.vertex}


@dataclass(frozen=True)
class Relabel:
    mapping: Tuple[Tuple[int, int], ...]

    op = "relabel"

    def apply(self, k: Complex) -> Complex:
        return relabel(k, dict(self.mapping))

    def inverse(self) -> "Relabel":
        return Relabel(tuple(sorted((b, a) for a, b in self.mapping)))

    def to_json(self) -> dict:
        return {"op": "relabel", "mapping": {str(a): b for a, b in self.mapping}}


Move = Subdivide | Weld | Relabel


@dataclass
class MoveSequence:
    moves: List[Move] = field(default_factory=list)

    def apply(self, k: Complex) -> Complex:
        for m in self.moves:
            k = m.apply(k)
        return k

    def inverse(self) -> "MoveSequence":
        return MoveSequence([m.inverse() for m in reversed(self.moves)])

    def to_json(self) -> list:
        return [m.to_json() for m in self.moves]


# ---------------------------------------------------------------------------
# collapse


def free_face_collapse(
    dim: Mapping[Hashable, int],
    facets_of: Callable[[Hashable], Iterable[Hashable]],
) -> Set[Hashable]:
    """Greedy free-face collapse of a cell poset; returns the cells left.

    `dim` gives every cell's dimension and `facets_of` its codimension-one
    faces, each once.  A cell is free when exactly one live cell lies above
    it.  The live cells stay closed under faces, so that coface is one
    dimension up and maximal.  The free cell least by (dimension, cell) goes
    first, together with its coface.  Cofaces count as distinct cells, not
    as incidences.

    The cells are ranked once by (dimension, cell): bucketed by dimension,
    each bucket sorted on its own.  The collapse runs on the ranks: the
    least rank on the heap is the least free cell.
    """
    buckets: Dict[int, List[Hashable]] = {}
    for c, d in dim.items():
        buckets.setdefault(d, []).append(c)
    cells = [c for d in sorted(buckets) for c in sorted(buckets[d])]
    rank = {c: i for i, c in enumerate(cells)}
    facets = [[rank[f] for f in facets_of(c)] for c in cells]
    cofaces: List[List[int]] = [[] for _ in cells]
    for c, below in enumerate(facets):
        for f in below:
            cofaces[f].append(c)
    live = [len(up) for up in cofaces]  # live cofaces per cell
    alive = [True] * len(cells)

    # every free cell is on the heap: a cell is pushed whenever it may have
    # become free, that is when its count is 1 and either the count has just
    # dropped or its coface has just become maximal.  Stale entries are
    # skipped.  Counts only fall, so no other cell can be free.  The ranks
    # in order already form a heap
    heap = [c for c, n in enumerate(live) if n == 1]
    while heap:
        f = heapq.heappop(heap)
        if live[f] != 1:  # dead cells keep a count of 0
            continue
        up = next(u for u in cofaces[f] if alive[u])
        if live[up]:
            continue
        alive[f] = alive[up] = False
        below = facets[f] + facets[up]
        for x in below:
            live[x] -= 1
        # cells below the pair lost a coface; those left maximal may now
        # free their own facets
        for x in below:
            if alive[x]:
                if live[x] == 1:
                    heapq.heappush(heap, x)
                elif not live[x]:
                    for y in facets[x]:
                        if live[y] == 1:
                            heapq.heappush(heap, y)
    return {c for c, a in zip(cells, alive) if a}


def _facets(s: Simplex) -> Iterable[Simplex]:
    return itertools.combinations(s, len(s) - 1) if len(s) > 1 else ()


def collapse_greedy(k: Complex) -> Complex:
    """Greedy free-face collapse on the full face closure.

    A face is free when it has exactly one proper coface.  Ties are broken
    by (dimension, lexicographic) order.  Returns the residue as a complex
    of its maximal faces.
    """
    alive = free_face_collapse({f: len(f) - 1 for f in k.closure()}, _facets)
    return Complex(alive - {h for g in alive for h in _facets(g)})


# ---------------------------------------------------------------------------
# recognition


class Recognition(Enum):
    BALL = "ball"
    SPHERE = "sphere"
    NEITHER = "neither"
    UNKNOWN = "unknown"


def _vertex_degrees(k: Complex) -> Dict[int, int]:
    deg: Dict[int, int] = {}
    for g in k.generators:
        for v in g:
            deg[v] = deg.get(v, 0) + 1
    return deg


def _graph_shape(g: Complex) -> Recognition:
    """A graph given by its edges: circle (SPHERE), arc (BALL) or NEITHER."""
    if g.dimension() != 1 or not g.is_uniform():
        return Recognition.NEITHER
    deg = _vertex_degrees(g)
    if any(d > 2 for d in deg.values()) or not g.is_connected():
        return Recognition.NEITHER
    ends = sum(1 for d in deg.values() if d == 1)
    if ends == 0:
        return Recognition.SPHERE
    if ends == 2:
        return Recognition.BALL
    return Recognition.NEITHER


def _surface_edges(k: Complex) -> Optional[Dict[Simplex, List[int]]]:
    """Edge -> opposite vertices, for a uniform 2-complex `k` that is a
    connected surface; else None.

    One pass over the triangles builds the map and refuses an edge in more
    than two of them.  Then no vertex of a vertex link has degree above 2,
    so a link is an arc or a circle exactly when it is connected.  The link
    of v is walked on the map: from a neighbour u of v on to the vertices
    opposite the edge uv.  The complex is connected when its edges are.
    """
    opposite: Dict[Simplex, List[int]] = {}
    for a, b, c in k.generators:
        for e, v in (((a, b), c), ((a, c), b), ((b, c), a)):
            across = opposite.setdefault(e, [])
            if len(across) == 2:
                return None
            across.append(v)
    around: Dict[int, List[int]] = {}
    for a, b in opposite:
        around.setdefault(a, []).append(b)
        around.setdefault(b, []).append(a)
    for v, nbrs in around.items():
        seen = {nbrs[0]}
        todo = [nbrs[0]]
        while todo:
            u = todo.pop()
            for w in opposite[(v, u) if v < u else (u, v)]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) != len(nbrs):
            return None
    start = next(iter(around))
    seen = {start}
    todo = [start]
    while todo:
        for w in around[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return opposite if len(seen) == len(around) else None


def _recognize_dim2(k: Complex) -> Recognition:
    """Exact recognition of a uniform 2-complex.

    Connectivity, closedness and the Euler characteristic come from the
    edge map of `_surface_edges`.  A surface's rim (its edges in one
    triangle) is a disjoint union of circles, since every rim vertex has an
    arc for its link; a connected surface with chi = 2 and no rim is a
    sphere, and one with chi = 1 and a single rim circle is a disk.
    """
    opposite = _surface_edges(k)
    if opposite is None:
        return Recognition.NEITHER
    chi = len(k.vertices()) - len(opposite) + len(k)
    rim = [e for e, across in opposite.items() if len(across) == 1]
    if not rim:
        return Recognition.SPHERE if chi == 2 else Recognition.NEITHER
    if chi == 1 and connected(rim):
        return Recognition.BALL
    return Recognition.NEITHER


# The certificate behind a decided recognition: "exact" when no collapse was
# needed (dimension <= 2, or a refuting invariant: connectivity, chi, H1, a
# vertex link), "collapse" for the link test plus a collapse to a vertex.
EXACT = "exact"
COLLAPSE = "collapse"


Verdict = Tuple[Recognition, Optional[str]]
# generator set -> the finished recognition of that complex, shared by the
# recursion of one top-level call and dropped when the call returns
Seen = Dict[FrozenSet[Simplex], Verdict]


def recognize(k: Complex) -> Recognition:
    """Decide ball/sphere: exact through dimension 2, certified above.

    For dimension >= 3 the certificates are tried in this order:

    1. Connectivity and the Euler characteristic (0 or 2 when closed, by
       parity of the dimension; 1 with boundary) can refute.
    2. Every vertex link is recognised, recursively.  A link that is NEITHER
       makes the complex NEITHER.  When every link is a sphere (or, with
       boundary, a sphere or a ball), the complex is a PL manifold; it is a
       ball when it collapses to a vertex and, if closed, a sphere when it
       does so after its least generator is removed.
    3. Nontrivial H1 refutes.

    Unknown means no certificate was found: a vertex link was undecided, or
    the collapse stopped short while H1 is trivial.  It never means that the
    complex was silently accepted.

    One call recognises each distinct link once: the verdict depends only on
    the generator set, and the edge link lk(vw) is met twice, as the link of
    w in lk(v) and of v in lk(w).
    """
    return _recognize(k, {})[0]


def _recognize(k: Complex, seen: Seen) -> Verdict:
    """`recognize`, with the certificate that decided it (None for Unknown).
    A complex whose verdict is in `seen` is not recognised again; a finished
    recognition goes into it."""
    verdict = seen.get(k.generators)
    if verdict is None:
        verdict = seen[k.generators] = _certify(k, seen)
    return verdict


def _certify(k: Complex, seen: Seen) -> Verdict:
    if not k.is_uniform():
        raise ComplexError("recognition requires a uniform complex")
    if not k:
        return Recognition.NEITHER, EXACT
    dim = k.dimension()
    if dim == 0:
        n = len(k)
        shapes = {1: Recognition.BALL, 2: Recognition.SPHERE}
        return shapes.get(n, Recognition.NEITHER), EXACT
    if dim == 1:
        return _graph_shape(k), EXACT
    if dim == 2:
        return _recognize_dim2(k), EXACT

    # one star pass gives the vertex links and connectivity: v is joined to
    # every vertex of lk(v)
    star = star_index(k.generators)
    if not star_connected(star):
        return Recognition.NEITHER, EXACT

    faces = k.closure()
    closed = k.is_closed()
    chi = sum(1 if len(f) % 2 else -1 for f in faces)
    if chi != (1 if not closed else 0 if dim % 2 else 2):
        return Recognition.NEITHER, EXACT
    target = Recognition.SPHERE if closed else Recognition.BALL

    links = _link_test(star, target, seen)
    if links is Recognition.NEITHER:
        return Recognition.NEITHER, EXACT
    if links is target:
        # closed: each facet of the least generator lies in another
        # generator, so removing the generator leaves the closure of the rest
        rest = faces - {min(k.generators)} if closed else faces
        # the live cells stay closed under faces, so a lone one is a vertex
        if len(free_face_collapse({f: len(f) - 1 for f in rest}, _facets)) == 1:
            return target, COLLAPSE

    if not complex_h1(k).is_trivial():
        return Recognition.NEITHER, EXACT
    return Recognition.UNKNOWN, None


def _link_test(
    star: Mapping[int, List[Simplex]], target: Recognition, seen: Seen
) -> Recognition:
    """NEITHER when some vertex link in the star index `star` is NEITHER;
    else `target` when every link is a sphere, or, for a ball `target`, a
    sphere or a ball; else UNKNOWN.  Each link is recognised by `_recognize`
    in full."""
    allowed = {Recognition.SPHERE, target}
    verdict = target
    for gens in star.values():
        shape = _recognize(Complex._of(gens), seen)[0]
        if shape is Recognition.NEITHER:
            return shape
        if shape not in allowed:
            verdict = Recognition.UNKNOWN
    return verdict
