"""Stellar moves: subdivision, welding (the inverse), relabeling, prisms,
greedy collapse, and certified ball/sphere recognition.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .complexes import (
    EMPTY,
    Complex,
    Simplex,
    _components,
    _dual_tree,
    _face_table,
    _facet_list,
    _partners,
    _uncrossed,
    cone,
    face_table,
    simplex,
    simplex_boundary,
    star_index,
)
from .errors import ComplexError, MoveError, WeldError
from .homology import table_h1


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
# collapse


def _collapse_ranks(facets: Sequence[Sequence[int]], hi: int, gone: Iterable[int]) -> List[int]:
    """Greedy free-face collapse of the cells 0, 1, ..., n - 1 above a rank
    floor; returns each cell's count of live cofaces, -1 for a dead cell.

    facets[c] is the tuple of the codimension-one faces of cell c, each
    once.  The cells in `gone` are dropped up front; each must be maximal.
    A cell is free when exactly one live cell lies above it.  The live cells
    stay closed under faces, so that coface is one dimension up and maximal.
    The least free cell goes first, together with its coface.  Cofaces count
    as distinct cells, not as incidences.

    The floor `hi` is the first cell of a level.  The facets of a cell below
    it are not counted, so a cell whose cofaces all lie below it never
    becomes free, and a cell below it that goes takes none of its facets'
    counts down.  At hi = 0 this is the whole greedy.  With `hi` the first
    tetrahedron it is phase 1 of `_collapses`: the pairs whose free cell has
    dimension >= 2, with cofaces counted from the cells of dimension >= 3
    alone; no vertex or edge is ever free.

    Each cell keeps two numbers, not a coface list: how many live cofaces it
    has (-1 once it is dead) and the XOR of their ranks.  Both change as a
    coface dies, so the XOR of a cell with one live coface is that coface.
    """
    live = [0] * len(facets)  # live cofaces per cell; -1 for a dead cell
    above = [0] * len(facets)  # XOR of the ranks of the live cofaces
    for c in range(hi, len(facets)):
        for f in facets[c]:
            live[f] += 1
            above[f] ^= c
    for c in gone:
        live[c] = -1
        if c >= hi:
            for f in facets[c]:
                live[f] -= 1
                above[f] ^= c

    # every free cell is on the heap: a cell is pushed when it becomes free,
    # that is when its count drops to 1 under a maximal coface, or when its
    # one coface becomes maximal.  Counts only fall, so no other cell can be
    # free, and a free cell stops being free only when its coface goes with
    # another facet, which drops its count.  So an entry is stale exactly
    # when its count is no longer 1, and is skipped.  The cells in order
    # already form a heap
    heap = [c for c, n in enumerate(live) if n == 1 and not live[above[c]]]
    while heap:
        f = heapq.heappop(heap)
        if live[f] != 1:
            continue  # stale
        up = above[f]
        below = facets[f] if f >= hi else ()
        for x in below:
            live[x] -= 1
            above[x] ^= f
        top = facets[up]
        for x in top:
            live[x] -= 1
            above[x] ^= up
        live[f] = live[up] = -1
        # cells below the pair lost a coface.  One left with one coface,
        # which is maximal, is free now; one left maximal frees its facets
        # that have it as their only coface, except those in `lost`, which
        # the first branch pushes
        lost = below + top
        for x in lost:
            n = live[x]
            if n == 1:
                if not live[above[x]]:
                    heapq.heappush(heap, x)
            elif not n:
                for y in facets[x]:
                    if live[y] == 1 and y not in lost:
                        heapq.heappush(heap, y)
    return live


def _collapses(
    facets: Sequence[Sequence[int]], sizes: Sequence[int], gone: Iterable[int]
) -> List[int]:
    """The cells of dimension >= 2 that the greedy, `_collapse_ranks(facets,
    0, gone)`, leaves, in order, for cells ranked by (dimension, face) with
    `sizes` cells in each level from the vertices up, through at least the
    triangles; no vertex is read, nor the facets of a vertex or an edge.

    Phase 1 is `_collapse_ranks` with its floor at the first tetrahedron;
    phase 2, `_peel`, removes (edge, triangle) pairs off a plain list,
    counting the triangles phase 1 left.  A pair whose free cell is a
    vertex or an edge takes it with a maximal edge or triangle, so it never
    changes which cell of dimension >= 2 is free, and stays valid after
    phase 1; and a triangle with a free edge stays removable until it goes,
    so phase 2's order leaves the same triangles (proof in README
    "Certificates").
    """
    tris = sizes[0] + sizes[1]
    live = _collapse_ranks(facets, tris + sizes[2], gone)
    _peel(facets, live, range(tris, tris + sizes[2]), range(sizes[0], tris))
    return [c for c in range(tris, len(facets)) if live[c] >= 0]


def _peel(
    facets: Sequence[Sequence[int]], live: List[int], tris: Iterable[int], edges: Iterable[int]
) -> None:
    """Phase 2 of the collapse: remove (edge, triangle) pairs off a plain
    list until no edge is free, that is, lies in one live triangle, a
    maximal one.  Cells are numbered so that `facets[t]` lists the edges of
    the triangle t; `live[t]` counts t's live cofaces (0 when t is maximal,
    -1 once it is dead), and `live[e]` is 0 for each edge e of `edges`.
    Each triangle of `tris` that goes gets -1; an edge's entry becomes its
    count of live triangles."""
    above = [0] * len(live)  # as in `_collapse_ranks`, for the edges
    for t in tris:
        if live[t] >= 0:
            for f in facets[t]:
                live[f] += 1
                above[f] ^= t
    free = [e for e in edges if live[e] == 1 and not live[above[e]]]
    while free:
        e = free.pop()
        if live[e] != 1:
            continue  # its triangle went with another edge
        t = above[e]
        live[t] = -1
        for x in facets[t]:
            live[x] -= 1
            above[x] ^= t
            if live[x] == 1 and not live[above[x]]:
                free.append(x)


def _facets(s: Simplex) -> Iterable[Simplex]:
    return itertools.combinations(s, len(s) - 1) if len(s) > 1 else ()


def collapse_greedy(k: Complex) -> Complex:
    """Greedy free-face collapse on the full face closure.

    A face is free when it has exactly one proper coface.  Ties are broken
    by (dimension, lexicographic) order.  Returns the residue as a complex
    of its maximal faces.
    """
    table = face_table(k)
    cells = list(itertools.chain.from_iterable(table.levels))
    live = _collapse_ranks(table.facets, 0, ())
    alive = {cells[c] for c, n in enumerate(live) if n >= 0}
    return Complex(alive - {h for g in alive for h in _facets(g)})


# ---------------------------------------------------------------------------
# recognition


class Recognition(Enum):
    BALL = "ball"
    SPHERE = "sphere"
    NEITHER = "neither"
    UNKNOWN = "unknown"


def _recognize_low(top: List[Simplex], dim: int, n0: int) -> Recognition:
    """Exact recognition of the complex of the generators `top`, uniform of
    dimension 0, 1 or 2, on `n0` vertices, from its dual graph.

    The facet pairing of the generators (`_partners`) refuses a facet in a
    third generator and gives the two generators on each shared facet, the
    edges of the dual graph, which must be connected (`_dual_connected`).
    The complex is closed when every facet lies in two generators.  Closed,
    it is a sphere, and with a rim a ball; at dimension 2 this needs chi = 2
    (closed) or 1.

    At dimension 0 the one facet is the empty face: one or two points are a
    ball or S^0, and a third point refutes.  At dimension 1 a connected graph
    with no vertex in three edges is a path or a cycle, a cycle exactly when
    it has as many vertices as edges.  At dimension 2 every edge lies in at
    most two triangles, so each vertex link is a disjoint union of arcs and
    circles.  Splitting each vertex into one copy per link component gives a
    surface S' with the same edges and triangles, connected because the dual
    graph is, and with at least as many vertices, so chi(S') >= chi.  A
    connected closed surface has chi <= 2, with equality only for the
    sphere; one with a rim has chi <= 1, with equality only for the disk.
    So chi = 2 (closed) or 1 (with a rim) forces chi(S') = chi: no vertex
    was split, and the complex is S' itself.
    """
    partner = _partners(_facet_list(top, dim))
    if partner is None or not _dual_connected(partner, dim + 1):
        return Recognition.NEITHER
    closed = -1 not in partner
    if dim == 2:
        # a shared facet takes two places, a lone one one
        edges = (len(partner) + partner.count(-1)) // 2
        chi = n0 - edges + len(top)
        if chi != (2 if closed else 1):
            return Recognition.NEITHER
    return Recognition.SPHERE if closed else Recognition.BALL


def _dual_connected(partner: List[int], w: int) -> bool:
    """Whether the cells of the facet pairing `partner`, whose places come w
    to a cell, are connected through shared facets."""
    pairs = [(s // w, t // w) for s, t in enumerate(partner) if s < t]
    return _components(len(partner) // w, [a for a, _ in pairs], [b for _, b in pairs]) == 1


# The certificate behind a decided recognition: "exact" when no collapse was
# needed (dimension <= 2, or a refuting invariant: the facet pairing, chi,
# H1, a vertex link), "collapse" for the link test plus a collapse to a vertex.
EXACT = "exact"
COLLAPSE = "collapse"


Verdict = Tuple[Recognition, Optional[str]]
# order type (`_order_type`) -> the finished recognition of a complex of
# that order type, for the recursion of one top-level call
Seen = Dict[Tuple[int, ...], Verdict]


def recognize(k: Complex) -> Recognition:
    """Decide ball/sphere: exact through dimension 2, certified above.

    Every dimension starts from the generators' facet pairing: a facet in a
    third generator, or a dual graph that is not connected, refutes (the
    latter, in a closed 3-complex, once the corner pass below has run).
    Below dimension 3 the pairing and chi decide (`_recognize_low`).

    For dimension >= 3 the certificates are then tried in this order:

    1. The Euler characteristic (0 or 2 when closed, by parity of the
       dimension; 1 with boundary) can refute.
    2. Every vertex link is recognised, recursively.  A link that is NEITHER
       makes the complex NEITHER.  When every link is a sphere (or, with
       boundary, a sphere or a ball), the complex is a PL manifold; it is a
       ball when it collapses to a vertex and, if closed, a sphere when it
       does so after its least generator is removed.
    3. Nontrivial H1 refutes.

    A closed 3-complex recognises no link: the closed-3 rule decides in one
    pass over its tetrahedra's corners whether every link is a 2-sphere,
    with the recursion's verdict (`_closed_3_manifold`, proof at
    `_certify`).  The collapse then runs along the dual tree that the workflow's build
    crosses, and peels the triangles it leaves uncrossed, M's spine; no
    face table of the tetrahedra is built, and one of the spine only when
    H1 is needed.

    Unknown means no certificate was found: a vertex link was undecided, or
    the collapse stopped short while H1 is trivial.  It never means that the
    complex was silently accepted.

    One call recognises each link once up to an order-preserving renaming
    of its vertices: a link is looked up by its order type, read off its
    sorted generators (`_order_type`).  Such a renaming keeps the
    (dimension, lexicographic) rank of every face, so the face table, chi,
    closedness, the order of the vertex links, the dual tree and the greedy
    collapse are the same, and so are the verdict and the certificate; a
    general isomorphism can reorder the collapse (README "Certificates").
    The table lives for one top-level call; nothing is kept between calls.
    """
    if not k.is_uniform():
        raise ComplexError("recognition requires a uniform complex")
    if not k:
        return Recognition.NEITHER
    dim = k.dimension()
    if dim < 0:
        raise ComplexError(
            "recognition requires a vertex: {()} is the (-1)-dimensional complex"
        )
    return _recognize(sorted(k.generators), dim, {})[0]


def _recognize(top: List[Simplex], dim: int, seen: Seen) -> Verdict:
    """`recognize` for the sorted generators `top` of a nonempty uniform
    complex of dimension `dim` >= 0, with the certificate that decided it
    (None for Unknown), unless `seen` has it; a finished recognition goes
    into `seen`.  Its vertex links are uniform of dimension `dim` - 1 and
    come sorted (`star_index`), so none of this is checked again."""
    key, n0 = _order_type(top, dim)
    verdict = seen.get(key)
    if verdict is None:
        verdict = seen[key] = _certify(top, dim, n0, seen)
    return verdict


def _order_type(top: List[Simplex], dim: int) -> Tuple[Tuple[int, ...], int]:
    """The order type of the sorted `dim`-simplexes `top`, and their vertex
    count: `dim`, then the vertices of `top` in turn, renumbered 1..n in
    increasing order.  Such a renaming keeps the order of sorted tuples, so
    two complexes have one key exactly when it carries one onto the other.
    `dim` fixes the width: four triangles and three tetrahedra can have the
    same twelve ranks."""
    flat = list(itertools.chain.from_iterable(top))
    rank = dict(zip(sorted(set(flat)), itertools.count(1)))
    return (dim, *map(rank.__getitem__, flat)), len(rank)


def _certify(top: List[Simplex], dim: int, n0: int, seen: Seen) -> Verdict:
    """`recognize`'s certificates for the complex k of the sorted generators
    `top`, on `n0` vertices, which `_recognize` has not seen.

    Every dimension opens with the facet pairing of the generators
    (`_partners`), read on the facets themselves before any face table; a
    facet in a third generator is refused before chi or any vertex link is
    looked at, and so is a dual graph that is not connected, except in a
    closed 3-complex, where the dual tree's walk finds it.  The recursion
    would give the same verdict, NEITHER with an exact certificate:
    - a facet f in a third generator puts the facet f - u of lk(u) in a
      third generator of lk(u), for every vertex u of f, and so on down to
      `_recognize_low`, which refuses it;
    - when the dual graph is not connected, either the 1-skeleton is not,
      and neither the links nor a collapse certify k, or two dual
      components share a vertex u.  Two generators of lk(u) share a facet
      exactly when the generators of k they come from share a facet at u,
      so the dual graph of lk(u) is not connected either, and lk(u) is
      refused the same way, down to `_recognize_low`.
    In a closed 3-complex the walk `_dual_tree` spans the dual graph exactly
    when it is connected, and the corner pass never answers UNKNOWN, so a
    walk that stops short is the same refusal.  A connected dual graph makes
    the 1-skeleton connected, so no other connectivity check is made; the
    collapse then certifies when it leaves no cell above the edges, since
    what is left has chi = 1 and is a tree, which collapses to a vertex.
    The complex is closed when every facet lies in two generators.

    A closed 3-complex M, with its least tetrahedron dropped, collapses
    along the walk: each step's tetrahedron goes through the triangle it is
    crossed at, whose other tetrahedron is gone.  What is left is M's
    spine Q, the complex of the uncrossed triangles (`_uncrossed`, README
    "The spine of a build"), which `sphere_workflow` reports on too.  One
    dict numbers Q's edges, all of M's even if the walk stops short, for
    the closed-3 rule's E and for phase 2, `_peel`: one loop over Q's
    triangles (a, b, c) numbers (a, b), (a, c) and (b, c) in turn, the
    order of `combinations`, each edge when first met.  A face table is
    built only when triangles are left, of Q, for H1: Q is M less an open
    ball, so H1(Q) = H1(M).  Every other complex builds the face table of
    its generators once the pairing has passed, for chi and H1, and
    collapses on it (`_collapses`: the greedy `_collapse_ranks` with its
    floor at the first tetrahedron, then `_peel`).

    A closed 3-complex recognises none of its vertex links: the closed-3
    rule, `_closed_3_manifold`, checks chi = 0 and makes one pass,
    `_closed_3_links`, which decides whether they are all 2-spheres.
    Every triangle lies in exactly two tetrahedra (F = 2T), so each vertex
    link is a closed pseudo-surface, and counting each vertex, edge and
    triangle of a link as the edge, triangle and tetrahedron at v it comes
    from gives sum over v of chi(lk v) = 2E - 3F + 4T = 2E - 2T, so
    sum over v of (2 - chi(lk v)) = 2V - 2E + 2T = 2 chi(k) = 0.  A closed
    pseudo-surface with a connected dual graph has chi <= 2, with equality
    only for the 2-sphere (splitting its vertices, as in `_recognize_low`).
    So every term is >= 0 when every link's dual graph is connected, hence
    0, and every link is a 2-sphere; a link whose dual graph is not
    connected is NEITHER.  The verdict is the one the recursion gives: a
    closed 3-pseudomanifold with chi = 0 and connected links is a
    3-manifold (Seifert & Threlfall, 1934).  Every other complex from
    dimension 3 up recognises its vertex links (`_link_verdicts`) and stops
    at the first NEITHER.
    """
    if dim <= 2:
        return _recognize_low(top, dim, n0), EXACT

    # the facet pairing, on the facets themselves, before any face table
    below = _facet_list(top, dim)
    partner = _partners(below)
    if partner is None:
        return Recognition.NEITHER, EXACT
    closed = -1 not in partner
    if dim == 3 and closed:
        steps = list(_dual_tree(top, partner))
        spine = _uncrossed(below, partner, steps)
        m = len(spine)
        number: Dict[Simplex, int] = {}  # edge -> its number, each edge of M once
        edge = number.setdefault
        facets = []  # each triangle's edges in `combinations` order
        for a, b, c in spine:
            facets.append((edge((a, b), m + len(number)), edge((a, c), m + len(number)),
                           edge((b, c), m + len(number))))
        # a walk that stops short leaves a dual graph that is not connected
        if len(steps) < len(top) - 1 or not _closed_3_manifold(top, partner, n0, len(number)):
            return Recognition.NEITHER, EXACT
        # peel the spine: a triangle's entry is 0 while it is in
        live = [0] * (m + len(number))
        _peel(facets, live, range(m), range(m, len(live)))
        if 0 not in live[:m]:
            return Recognition.SPHERE, COLLAPSE
        spine.sort()
        table = _face_table(spine, _facet_list(spine, 2))  # H1(Q) = H1(M)
    else:
        if not _dual_connected(partner, dim + 1):
            return Recognition.NEITHER, EXACT
        table = _face_table(top, below)
        if table.chi != (1 if not closed else 0 if dim % 2 else 2):
            return Recognition.NEITHER, EXACT
        target = Recognition.SPHERE if closed else Recognition.BALL
        shapes = set()
        for _, (shape, _) in _link_verdicts(top, dim - 1, seen):
            if shape is Recognition.NEITHER:
                return shape, EXACT
            shapes.add(shape)
        # every link a sphere or, for a ball target, a sphere or a ball
        if shapes <= {Recognition.SPHERE, target}:
            # closed: each facet of the least generator lies in another
            # generator, so dropping the generator leaves the closure of the rest
            first = len(table.facets) - len(top)
            sizes = list(map(len, table.levels))
            if not _collapses(table.facets, sizes, [first] if closed else []):
                return target, COLLAPSE

    if not table_h1(*table).is_trivial():
        return Recognition.NEITHER, EXACT
    return Recognition.UNKNOWN, None


def _closed_3_manifold(top: List[Simplex], partner: List[int], n0: int, edges: int) -> bool:
    """The closed-3 rule: whether the closed 3-pseudomanifold of the sorted
    tetrahedra `top`, with the facet pairing `partner` (`_partners` of their
    `_facet_list`, with no -1), `n0` vertices and `edges` edges, has every
    vertex link a 2-sphere: chi = 0 and every link's dual graph is connected
    (`_closed_3_links`).  When every link is a 2-sphere, sum over v of
    (2 - chi(lk v)) = 2 chi = 0, so the rule accepts; when it accepts, every
    link is a 2-sphere (`_certify`).  `_certify`, `check_manifold` and
    `sphere_workflow` all decide closed 3-complexes by it, and each counts V
    and E once (README "Certificates": one closed-3 rule)."""
    # closed, so F = 2T and chi = V - E + F - T = V - E + T
    return not n0 - edges + len(top) and _closed_3_links(partner, n0)


# A tetrahedron t's corner at its vertex in place p is numbered 4t + 3 - p,
# the number of its facet that drops that vertex: facet 4t + i drops the
# vertex in place 3 - i.  Entry i lists the corners of the vertices of facet
# 4t + i, in increasing vertex order, less 4t + i
_FACET_CORNERS = ((3, 2, 1), (2, 1, -1), (1, -1, -2), (-1, -2, -3))


def _closed_3_links(partner: List[int], n0: int) -> bool:
    """Whether every vertex link of a closed 3-complex, whose tetrahedra
    have the facet pairing `partner` and whose vertices number `n0`, has a
    connected dual graph.  Every triangle lies in exactly two tetrahedra, so
    with chi = 0 this holds exactly when every vertex link is a 2-sphere
    (`_certify`).

    The corner of a tetrahedron at v is a triangle of lk(v), and two corners
    at v are adjacent in the dual graph of lk(v) when their tetrahedra share
    a triangle at v.  So one union-find on the corners joins, across each
    triangle, the corners of its three vertices, and every link's dual graph
    is connected when the corners fall into one class per vertex.  One pass
    over the pairing lists the joins, by the rows of `_FACET_CORNERS`, and
    they carry no sign (`UnionFind.union_all`).
    """
    # the two facets on each triangle, the lower first.  Taken in the order
    # of the lower one, the unions below seldom leave a deep tree to search
    firsts: List[int] = []
    seconds: List[int] = []
    for s, t in enumerate(partner):
        if s < t:
            a, b, c = _FACET_CORNERS[s & 3]
            firsts += s + a, s + b, s + c
            a, b, c = _FACET_CORNERS[t & 3]
            seconds += t + a, t + b, t + c
    return _components(len(partner), firsts, seconds) == n0


def _link_verdicts(top: List[Simplex], dim: int, seen: Seen) -> Iterator[Tuple[int, Verdict]]:
    """Each vertex of the sorted generators `top` in increasing order, with
    the verdict and the certificate of its link, of dimension `dim`, from
    `_recognize`; `star_index` gives every link sorted."""
    links = star_index(top)
    for v in sorted(links):
        yield v, _recognize(links[v], dim, seen)
