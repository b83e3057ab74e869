import heapq
import itertools
import random

import pytest

import stellar
from stellar import (
    Complex,
    ComplexError,
    MoveError,
    QuotientComplex,
    Recognition,
    StructureError,
    WeldError,
    check_manifold,
    collapse_greedy,
    cone,
    fold_structure,
    lens_structure,
    prism,
    recognize,
    relabel,
    standard_simplex,
    standard_sphere,
    subdivide,
    weld,
)
from stellar.complexes import (
    LabelAllocator,
    _facet_list,
    _partners,
    cofaces,
    connected,
    face_table,
    star_index,
)
from stellar.invariants import quotient_collapses_to_point
from stellar.structure import _crossings
from stellar.moves import (
    _closed_3_links,
    _collapse_ranks,
    _collapses,
    _dual_connected,
    _facets,
    _link_verdicts,
    _order_type,
    _recognize,
    _recognize_low,
    prism_offset,
    weld_factor,
)


def low(k, dim):
    """`_recognize_low` of the complex `k`."""
    return _recognize_low(sorted(k.generators), dim, len(k.vertices()))


def recognised(k):
    """`_recognize` of the complex `k`, with its certificate."""
    return _recognize(sorted(k.generators), k.dimension(), {})


def test_subdivide_edge_of_circle():
    circle = standard_sphere(1)  # boundary of (1,2,3)
    assert subdivide(circle, (1, 2), 4) == Complex([(1, 4), (2, 4), (1, 3), (2, 3)])


def test_subdivide_full_generator():
    tri = Complex([(1, 2, 3)])
    assert subdivide(tri, (1, 2, 3), 4) == Complex([(1, 2, 4), (1, 3, 4), (2, 3, 4)])


def test_subdivide_rejects_used_or_missing():
    circle = standard_sphere(1)
    with pytest.raises(MoveError):
        subdivide(circle, (1, 2), 3)  # label in use
    with pytest.raises(MoveError):
        subdivide(circle, (1, 2, 3), 4)  # not a face
    with pytest.raises(MoveError, match="^subdivision vertex must be a positive label, got 0$"):
        subdivide(circle, (1, 2), 0)
    # the star of the empty simplex is the whole complex: starring it would
    # cone the complex, which is no stellar move
    with pytest.raises(MoveError, match="^cannot subdivide the empty simplex$"):
        subdivide(circle, (), 4)


def test_weld_undoes_subdivide_random():
    rng = random.Random(3)
    complexes = [standard_sphere(2), standard_sphere(3), standard_simplex(3)]
    for _ in range(200):
        k = rng.choice(complexes)
        g = rng.choice(k.sorted_generators())
        size = rng.randint(1, len(g))
        a = tuple(sorted(rng.sample(g, size)))
        fresh = LabelAllocator(k).fresh()
        sub = subdivide(k, a, fresh)
        assert sub.euler_characteristic() == k.euler_characteristic()
        assert sub.is_closed() == k.is_closed()
        assert weld_factor(sub, a, fresh) == k.link(a)
        assert weld(sub, a, fresh) == k


def test_weld_rejects_when_link_does_not_factor():
    s2 = standard_sphere(2)
    with pytest.raises(WeldError):
        weld(s2, (5, 6), 1)  # 1's link is a triangle, not a suspension
    with pytest.raises(WeldError):
        weld(s2, (1, 2), 3)  # (1,2) is a face already
    # every link generator extends a face of (1, 2), but the link's two
    # generators are not the four of boundary((1, 2)) * {(3,), (4,)}
    with pytest.raises(WeldError) as caught:
        weld(Complex([(1, 3, 5), (2, 4, 5)]), (1, 2), 5)
    assert str(caught.value) == (
        "link of 5 does not factor through boundary((1, 2)): 2 generators vs 2 x 2"
    )


def test_relabel():
    k = Complex([(1, 2), (2, 3)])
    assert relabel(k, {1: 9}) == Complex([(2, 9), (2, 3)])
    with pytest.raises(MoveError):
        relabel(k, {1: 3})  # collides with an existing vertex


def test_prism_of_edge():
    k = Complex([(1, 2)])
    assert prism_offset(k) == 10
    assert prism(k) == Complex([(1, 11, 12), (1, 2, 12)])


def test_prism_refuses_a_complex_that_is_not_uniform():
    with pytest.raises(MoveError, match="^prism requires a uniform complex$"):
        prism(Complex([(1, 2, 3), (4, 5)]))


def test_prism_of_triangle_counts():
    p = prism(Complex([(1, 2, 3)]))
    assert len(p) == 3
    assert p.is_uniform() and p.dimension() == 3
    # chi of a prism equals chi of the base
    assert p.euler_characteristic() == 1


def test_prism_matches_subdivision_construction():
    rng = random.Random(17)
    for _ in range(20):
        dim = rng.choice([1, 2])
        gens = set()
        for _ in range(rng.randint(1, 4)):
            gens.add(tuple(sorted(rng.sample(range(1, 8), dim + 1))))
        k = Complex(gens)
        off = prism_offset(k)
        apex = off * 10  # guaranteed fresh, away from both copies
        coned = cone(apex).join(k)
        built = coned
        for b in sorted(k.vertices(), reverse=True):
            built = subdivide(built, tuple(sorted((apex, b))), b + off)
        assert built.residual((apex,)) == prism(k)
        expected_link = Complex(
            tuple(v + off for v in g) for g in k.generators
        )
        assert built.link((apex,)) == expected_link


def assert_collapses_agree(k):
    """The quotient collapse of the trivial quotient reaches a point exactly
    when the greedy collapse of the complex ends in one vertex."""
    residue = collapse_greedy(k)
    to_vertex = len(residue) == 1 and residue.dimension() == 0
    assert quotient_collapses_to_point(QuotientComplex.from_complex(k)) is to_vertex


def subdivided_ball():
    """A 3-ball: the 3-simplex after four stellar subdivisions."""
    ball = standard_simplex(3)
    for a, v in [((1, 2), 5), ((1, 3, 4, 5), 6), ((2, 5), 7), ((3, 4, 6), 8)]:
        ball = subdivide(ball, a, v)
    return ball


def test_collapse_simplex_to_vertex():
    assert collapse_greedy(Complex([(1, 2, 3)])) == Complex([(3,)])
    assert collapse_greedy(standard_simplex(3)).dimension() == 0
    ball = subdivided_ball()
    assert collapse_greedy(ball) == Complex([(8,)])
    for k in (Complex([(1, 2, 3)]), standard_simplex(3), ball):
        assert_collapses_agree(k)


def test_collapse_greedy_takes_generators_of_every_dimension():
    # a triangle with a triangle of edges hung on its vertex 3, a disjoint
    # edge, a lone vertex, and an edge (2, 3) that is also a face
    k = Complex([(1, 2, 3), (3, 7), (7, 8), (3, 8), (4, 5), (6,), (2, 3)])
    assert collapse_greedy(k) == Complex([(5,), (6,), (3, 7), (3, 8), (7, 8)])


def test_collapse_circle_has_no_free_face():
    circle = standard_sphere(1)
    assert collapse_greedy(circle) == circle
    assert_collapses_agree(circle)


def greedy_left(facets, gone=()):
    """The ranks of the cells that the greedy, `_collapse_ranks` with its
    floor at 0, leaves, in order."""
    return [c for c, n in enumerate(_collapse_ranks(facets, 0, gone)) if n >= 0]


def ranked_collapse(dim, facets_of):
    """`_collapse_ranks` on a cell poset with the cells ranked by (dimension,
    cell); returns the cells left."""
    cells = sorted(dim, key=lambda c: (dim[c], c))
    rank = {c: i for i, c in enumerate(cells)}
    return {cells[c] for c in greedy_left([[rank[f] for f in facets_of(c)] for c in cells])}


def reference_collapse(dim, facets_of):
    """The free-face collapse as first written: cofaces listed afresh on
    every query, the same heap order."""
    cofaces = {c: set() for c in dim}
    for c in dim:
        for f in facets_of(c):
            cofaces[f].add(c)
    alive = set(dim)

    def live_cofaces(c):
        return [u for u in cofaces[c] if u in alive]

    heap = sorted((d, c) for c, d in dim.items())
    while heap:
        _, f = heapq.heappop(heap)
        if f not in alive:
            continue
        up = live_cofaces(f)
        if len(up) != 1 or live_cofaces(up[0]):
            continue
        alive -= {f, up[0]}
        for x in itertools.chain(facets_of(f), facets_of(up[0])):
            if x in alive:
                heapq.heappush(heap, (dim[x], x))
                if not live_cofaces(x):
                    for y in facets_of(x):
                        heapq.heappush(heap, (dim[y], y))
    return alive


# the 7-vertex torus and the 6-vertex projective plane
TORUS7 = Complex(
    tuple(sorted((i + a) % 7 + 1 for a in shape))
    for i in range(7)
    for shape in ((0, 1, 3), (0, 2, 3))
)
RP2_6 = Complex([
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
])


def minus_least_facet(k):
    return k.residual(min(k.generators))


def subdivided_3_spheres(random_subdivision):
    rng = random.Random(31)
    return [random_subdivision(rng, standard_sphere(3), moves) for moves in (4, 8, 12)]


def octahedron(poles, equator):
    """The suspension of the 4-cycle `equator` from the two `poles`."""
    return [
        tuple(sorted((pole, equator[i], equator[(i + 1) % 4])))
        for pole in poles
        for i in range(4)
    ]


OCTAHEDRON = Complex(octahedron((1, 2), (3, 4, 5, 6)))
# two octahedra glued at two antipodal vertices
DOUBLE_OCTAHEDRON = Complex(octahedron((1, 2), (3, 4, 5, 6)) + octahedron((1, 2), (7, 8, 9, 10)))


def collapse_inputs(random_subdivision, non_sphere_controls):
    ball = subdivided_ball()
    s3 = subdivide(standard_sphere(3), (1, 2), 6)
    # the surfaces and the 3-manifolds minus a generator leave order-dependent
    # residues: 8, 54 and 28 generators for S^2 x S^1, T^3 and RP^2 x S^1
    closed = [TORUS7, RP2_6, s3, *subdivided_3_spheres(random_subdivision), *non_sphere_controls]
    return [
        Complex([(1, 2, 3)]),
        standard_simplex(3),
        ball,
        standard_sphere(1),
        *map(minus_least_facet, closed),
    ]


def quotient_poset(q):
    """The cell dimensions and facets `quotient_collapses_to_point` collapses."""
    dim = {c: d for d, group in q.cells.items() for c in group}
    facets = {c: set() for c in dim}
    for c, d in dim.items():
        if d:
            faces = (f for m in q.members[c] for f in itertools.combinations(m, d))
            facets[c] = {q.cell_of(f)[0] for f in faces}
    return dim, facets.__getitem__


def test_collapse_removal_order_is_pinned(random_subdivision, non_sphere_controls):
    # residues of the greedy order, a theta graph and a triangle
    assert collapse_greedy(minus_least_facet(TORUS7)) == Complex(
        [(3, 6), (3, 7), (5, 6), (5, 7), (6, 7)]
    )
    assert collapse_greedy(minus_least_facet(RP2_6)) == Complex(
        [(4, 5), (4, 6), (5, 6)]
    )
    for k in collapse_inputs(random_subdivision, non_sphere_controls):
        dim = {f: len(f) - 1 for f in k.closure()}
        assert ranked_collapse(dim, _facets) == reference_collapse(dim, _facets)
        q = quotient_poset(QuotientComplex.from_complex(k))
        assert ranked_collapse(*q) == reference_collapse(*q)
    # quotients with cells in three or more cofaces: two edge cells of
    # lens_structure(17, 3) lie in 17 triangle cells, and the vertex cells of
    # fold_structure(6) in 3 or 6 edge cells.  The lens quotient has no free
    # cell, so each is also collapsed without its least triangle cell
    for s in (lens_structure(17, 3), fold_structure(6)):
        dim, facets_of = quotient_poset(QuotientComplex.from_structure(s))
        least = min(c for c, d in dim.items() if d == 2)
        for cells in (dim, {c: d for c, d in dim.items() if c != least}):
            assert ranked_collapse(cells, facets_of) == reference_collapse(cells, facets_of)
    # integer cells whose labels disagree with their dimensions: the faces of
    # the torus minus a facet, renamed by a seeded shuffle
    faces = sorted(minus_least_facet(TORUS7).closure())
    name = dict(zip(faces, random.Random(1).sample(range(len(faces)), len(faces))))
    dim = {name[f]: len(f) - 1 for f in faces}
    below = {name[f]: [name[h] for h in _facets(f)] for f in faces}
    assert ranked_collapse(dim, below.__getitem__) == reference_collapse(dim, below.__getitem__)


def test_collapse_frees_the_facets_of_a_cell_left_maximal():
    # a loop at each of two vertices, both on the boundary of one two-cell.
    # The vertices are free at once but their loops are not maximal; the
    # first loop goes with the two-cell, which leaves the second loop
    # maximal, and only then can its vertex go.  In a simplicial complex a
    # free cell's coface is always maximal, so only cell posets reach this
    dim = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2}
    below = {0: [], 1: [], 2: [0], 3: [1], 4: [2, 3]}
    assert reference_collapse(dim, below.__getitem__) == {0}
    assert ranked_collapse(dim, below.__getitem__) == {0}


def test_closure_minus_a_generator_of_a_closed_complex(random_subdivision, non_sphere_controls):
    # recognition collapses closure(k) - {g} for the least generator g of a
    # closed k: every facet of g lies in a second generator, so that set is
    # the closure of the rest
    closed = [standard_sphere(2), standard_sphere(3), standard_sphere(4), OCTAHEDRON,
              TORUS7, RP2_6, *subdivided_3_spheres(random_subdivision),
              *non_sphere_controls]
    for k in closed:
        assert k.is_closed()
        g = min(k.generators)
        assert k.closure() - {g} == minus_least_facet(k).closure()
    # with boundary the identity fails: the disk (1,2,3) + (2,3,4) loses the
    # faces of (1,2,3) that no other generator has
    disk = Complex([(1, 2, 3), (2, 3, 4)])
    assert disk.closure() - {(1, 2, 3)} != minus_least_facet(disk).closure()


def face_table_zoo(random_subdivision, non_sphere_controls):
    """Closed complexes of dimension 2 and 3, then a 3-ball and a book of
    three triangles, which are not closed."""
    closed = [standard_sphere(2), standard_sphere(3), OCTAHEDRON, TORUS7, RP2_6,
              *subdivided_3_spheres(random_subdivision), *non_sphere_controls]
    return closed, [subdivided_ball(), Complex([(1, 2, 3), (1, 2, 4), (1, 2, 5)])]


def top_pairing(table):
    """The facet pairing of a face table's top cells, read on their facets'
    ranks: the pairing `_certify` reads on the facets themselves."""
    return _partners(list(itertools.chain.from_iterable(table.facets[-len(table.levels[-1]):])))


def test_face_table_gives_chi_closedness_and_ranks(random_subdivision, non_sphere_controls):
    closed, bounded = face_table_zoo(random_subdivision, non_sphere_controls)
    # two tetrahedron boundaries sharing the edge (1, 2), which lies in four
    # triangles: closed, yet no pseudomanifold, as is the book of three
    # triangles, which is not closed
    four = standard_sphere(2) + Complex([(1, 2, 5, 6)]).boundary()
    closed.append(four)
    # points, a graph and lower cells beside the top ones, where vertices
    # are ranked as their labels
    lower = [Complex([(1,), (2,)]), Complex([(1, 2), (2, 3), (1, 3), (3, 4)]),
             Complex([(1, 2, 3), (3, 4), (5,)])]
    for k in closed + bounded + lower:
        table = face_table(k)
        assert table.chi == k.euler_characteristic()
        # the cells in rank order are the closure by (dimension, face), and
        # each cell's facet ranks name its facets
        cells = list(itertools.chain.from_iterable(table.levels))
        assert cells == sorted(k.closure(), key=lambda f: (len(f), f))
        assert [[cells[r] for r in rs] for rs in table.facets] == [list(_facets(c)) for c in cells]
        if k in lower:
            continue
        assert k.is_closed() is (k in closed)
        partner = top_pairing(table)
        if k in (four, bounded[-1]):
            assert partner is None
        else:  # closed exactly when every facet has a partner
            assert (-1 not in partner) is k.is_closed()


def test_dropping_the_least_generator_collapses_the_closure_without_it(
    random_subdivision, non_sphere_controls
):
    closed, bounded = face_table_zoo(random_subdivision, non_sphere_controls)
    for k in closed + bounded:
        table = face_table(k)
        cells = list(itertools.chain.from_iterable(table.levels))
        least = len(cells) - len(k)
        assert cells[least] == min(k.generators)
        left = {cells[c] for c in greedy_left(table.facets, [least])}
        rest = {f: len(f) - 1 for f in k.closure() - {min(k.generators)}}
        assert left == ranked_collapse(rest, _facets)
        left = {cells[c] for c in greedy_left(table.facets)}
        whole = {f: len(f) - 1 for f in k.closure()}
        assert left == ranked_collapse(whole, _facets)


def pinched_pair():
    """Two boundaries of the 5-simplex, on 1..6 and 6..11, sharing the vertex 6."""
    return Complex([(1, 2, 3, 4, 5, 6), (6, 7, 8, 9, 10, 11)]).boundary()


def test_collapses_leave_what_the_greedy_leaves_above_the_edges(
    random_subdivision, non_sphere_controls
):
    rng = random.Random(47)
    zoo = [*map(minus_least_facet, non_sphere_controls), pinched_pair(),
           pinched_pair().link((6,))]
    for dim in range(2, 6):
        for base in (standard_simplex(dim), standard_sphere(dim)):
            for moves in range(0, 10 if dim < 5 else 5):
                k = random_subdivision(rng, base, moves)
                # a random subcomplex whose maximal cells stop at every level
                gens = k.sorted_generators()
                part = [g if rng.random() < 0.7 else g[:rng.randint(2, dim)] for g in gens]
                zoo += [k, Complex(set(part) | {gens[0]})]
    for k in zoo:
        table = face_table(k)
        sizes = [len(level) for level in table.levels]
        edges = sizes[0] + sizes[1]
        least = len(table.facets) - sizes[-1]
        cells = list(itertools.chain.from_iterable(table.levels))
        for gone in ([], [least]):
            greedy = [c for c in greedy_left(table.facets, gone) if c >= edges]
            assert _collapses(table.facets, sizes, gone) == greedy
            # phase 1 is the greedy's own heap, so the first-written greedy,
            # which shares no code with it, checks the order as well
            dim = {f: len(f) - 1 for r, f in enumerate(cells) if r not in gone}
            reference = reference_collapse(dim, _facets)
            assert {cells[c] for c in greedy} == {f for f in reference if len(f) > 2}
    # the link at the pinch is two disjoint boundaries of the 4-simplex, closed
    # with chi = 0: the corner pass accepts it, and the tetrahedra the collapse
    # leaves refuse it
    two = pinched_pair().link((6,))
    table = face_table(two)
    least = len(table.facets) - len(two)
    assert _closed_3_links(top_pairing(table), 10) and table.chi == 0
    assert _collapses(table.facets, [len(level) for level in table.levels], [least])[-1] >= least
    assert recognised(two) == (Recognition.NEITHER, "exact")
    assert check_manifold(pinched_pair()).bad_vertices == [6]


def test_recognition_peels_the_workflows_spine(monkeypatch, ledger_zoo):
    # a closed 3-complex is recognised on the workflow's dual tree: the
    # triangles that recognition lists, and peels when the closed-3 rule
    # passes, are the top cells of the spine that the workflow reports on,
    # from the same steps, and recognition certifies exactly when that spine
    # collapses to a point.  The exits: nothing left (the spheres), a dual
    # graph that is not connected (the link at the pinch of two boundaries
    # of the 5-simplex, which the build refuses and nothing peels) and
    # triangles left (the staircase controls, which H1 then refutes)
    peeled, listed = [], []
    uncrossed, peel = stellar.moves._uncrossed, stellar.moves._peel
    monkeypatch.setattr(stellar.moves, "_uncrossed", lambda *a: listed.append(uncrossed(*a)) or listed[-1])
    monkeypatch.setattr(stellar.moves, "_peel", lambda *a: peeled.append(listed[-1]) or peel(*a))
    exits = []
    for k in ledger_zoo[0]:
        peeled.clear()
        listed.clear()
        shape, _ = recognised(k)
        top = sorted(k.generators)
        below = _facet_list(top, 3)
        partner = _partners(below)
        assert len(listed) == 1, k
        if not peeled:
            assert shape is Recognition.NEITHER
            with pytest.raises(StructureError, match="input must be connected"):
                list(_crossings(k, top, partner, len(k)))
            exits.append("disconnected")
            continue
        spine = QuotientComplex._spine(top, below, partner, list(_crossings(k, top, partner, len(k))))
        assert len(peeled) == 1 and sorted(peeled[0]) == spine.cells[2], k
        collapsed = quotient_collapses_to_point(spine)
        assert (shape is Recognition.SPHERE) == collapsed, k
        exits.append("none" if collapsed else "triangles")
    assert exits.count("disconnected") == 1 and exits.count("triangles") == 3
    assert exits.count("none") == len(exits) - 4 == 248


def test_recognition_drops_the_least_generator_of_a_closed_complex(
    monkeypatch, random_subdivision
):
    # a closed 3-complex collapses along the dual tree from its least
    # generator (`_dual_tree` seeds its walk with the first of its sorted
    # tetrahedra); a bounded one collapses on its face table, dropping none
    dropped = []
    walk, collapse = stellar.moves._dual_tree, _collapses

    def walk_spy(top, partner):
        dropped.append([top[0]])
        return walk(top, partner)

    def spy(facets, sizes, gone):
        cells = list(itertools.chain.from_iterable(face_table(ball).levels))
        dropped.append([cells[c] for c in gone])
        return collapse(facets, sizes, gone)

    monkeypatch.setattr("stellar.moves._dual_tree", walk_spy)
    monkeypatch.setattr("stellar.moves._collapses", spy)
    sphere, ball = subdivided_3_spheres(random_subdivision)[-1], subdivided_ball()
    for k, shape in ((sphere, Recognition.SPHERE), (ball, Recognition.BALL)):
        dropped.clear()
        assert recognize(k) is shape
        assert dropped == ([[min(k.generators)]] if k.is_closed() else [[]])


def test_closed_3_recognition_builds_no_face_table_of_tetrahedra(
    monkeypatch, random_subdivision, non_sphere_controls
):
    # a 3-sphere is certified on its facet pairing and its spine with no face
    # table at all; S^2 x S^1 reads H1 off one, of the spine's triangles alone
    sizes = []
    real = stellar.complexes._face_table

    def spied(top, below, lower=()):
        sizes.append({len(t) for t in top})
        return real(top, below, lower)

    for module in (stellar.complexes, stellar.quotient, stellar.moves):
        monkeypatch.setattr(module, "_face_table", spied)
    for sphere in subdivided_3_spheres(random_subdivision):
        assert recognize(sphere) is Recognition.SPHERE
    assert sizes == []
    assert recognize(non_sphere_controls[0]) is Recognition.NEITHER
    assert sizes == [{3}]


def test_recognize_refuses_the_minus_one_dimensional_complex():
    # {()} is uniform and nonempty but has no vertex
    with pytest.raises(ComplexError, match="-1"):
        recognize(Complex([()]))
    assert recognize(Complex()) is Recognition.NEITHER


def shape_by_vertices(k, dim):
    """The shape of a point set or a graph by the per-vertex definition: one
    point is a ball and two are a sphere; a graph with every vertex in at
    most two edges that is connected is a circle with no ends and an arc
    with two."""
    if dim == 0:
        return {1: Recognition.BALL, 2: Recognition.SPHERE}.get(len(k), Recognition.NEITHER)
    degree = {}
    for v in itertools.chain.from_iterable(k.generators):
        degree[v] = degree.get(v, 0) + 1
    if max(degree.values()) > 2 or not connected(k.generators):
        return Recognition.NEITHER
    ends = sum(d == 1 for d in degree.values())
    return {0: Recognition.SPHERE, 2: Recognition.BALL}.get(ends, Recognition.NEITHER)


def test_recognize_dimension_zero_and_one():
    assert recognize(Complex([(1,)])) is Recognition.BALL
    assert recognize(Complex([(1,), (2,)])) is Recognition.SPHERE
    assert recognize(Complex([(1,), (2,), (3,)])) is Recognition.NEITHER
    circle = standard_sphere(1)
    assert recognize(circle) is Recognition.SPHERE
    arc = Complex([(1, 2), (2, 3)])
    assert recognize(arc) is Recognition.BALL
    wedge = Complex([(1, 2), (2, 3), (1, 3), (1, 4)])
    assert recognize(wedge) is Recognition.NEITHER
    two_cycles = standard_sphere(1) + Complex([(4, 5, 6)]).boundary()
    assert recognize(two_cycles) is Recognition.NEITHER
    # seeded point sets and graphs on at most 7 vertices against the
    # per-vertex rule
    rng = random.Random(17)
    shapes = {0: set(), 1: set()}
    for i in range(2400):
        dim = i % 2
        faces = list(itertools.combinations(range(1, rng.randint(dim + 1, 7) + 1), dim + 1))
        k = Complex(rng.sample(faces, rng.randint(1, min(len(faces), 8))))
        shape = shape_by_vertices(k, dim)
        assert recognize(k) is low(k, dim) is shape, sorted(k.generators)
        shapes[dim].add(shape)
    assert shapes[0] == shapes[1] == {Recognition.SPHERE, Recognition.BALL, Recognition.NEITHER}


# a pentagon coned from 6, and the torus on the vertices 11 to 17
DISK = Complex([(6, i, i % 5 + 1) for i in range(1, 6)])
TORUS_11 = relabel(TORUS7, {v: v + 10 for v in range(1, 8)})
# 2-complexes and their shapes: surfaces first, then complexes that are none
SURFACE_ZOO = {
    "tetrahedron_boundary": (standard_sphere(2), Recognition.SPHERE),
    "octahedron": (OCTAHEDRON, Recognition.SPHERE),
    "torus": (TORUS7, Recognition.NEITHER),
    "projective_plane": (RP2_6, Recognition.NEITHER),
    "triangle": (Complex([(1, 2, 3)]), Recognition.BALL),
    "disk": (DISK, Recognition.BALL),
    # inner triangle 1,2,3 and outer triangle 4,5,6
    "annulus": (
        Complex([(1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (1, 3, 6), (1, 4, 6)]),
        Recognition.NEITHER,
    ),
    "bow_tie": (Complex([(1, 2, 3), (1, 4, 5)]), Recognition.NEITHER),
    "book": (Complex([(1, 2, 3), (1, 2, 4), (1, 2, 5)]), Recognition.NEITHER),
    "two_spheres": (standard_sphere(2) + Complex([(5, 6, 7, 8)]).boundary(), Recognition.NEITHER),
    "double_octahedron": (DOUBLE_OCTAHEDRON, Recognition.NEITHER),
    # closed with chi = 2 and with a rim with chi = 1, but in two pieces:
    # every vertex link is connected, the dual graph is not
    "sphere_and_torus": (standard_sphere(2) + TORUS_11, Recognition.NEITHER),
    "disk_and_torus": (DISK + TORUS_11, Recognition.NEITHER),
}


def test_recognize_surfaces():
    for name, (k, shape) in SURFACE_ZOO.items():
        assert recognize(k) is shape, name
    s2 = standard_sphere(2)
    torus_like = s2 + subdivide(s2, (1, 2), 9) + Complex([(1, 2, 9)])
    # not a surface: the edge (1,2) now has odd incidence structure
    assert recognize(torus_like) in (Recognition.NEITHER, Recognition.UNKNOWN)


def surface_by_links(k):
    """The per-vertex surface test: the complex is connected, every edge lies
    in at most two triangles and every vertex link is connected."""
    degree = {}
    for g in k.generators:
        for e in itertools.combinations(g, 2):
            degree[e] = degree.get(e, 0) + 1
    links = star_index(k.generators).values()
    return connected(k.generators) and max(degree.values()) <= 2 and all(map(connected, links))


def surface_shape_by_links(k):
    """The shape by the per-vertex definition: a surface, as in
    `surface_by_links`, is a sphere when it is closed with chi = 2, a disk
    when its rim is one circle and chi = 1, and neither otherwise."""
    if not surface_by_links(k):
        return Recognition.NEITHER
    rim = k.boundary()  # the edges in one triangle
    chi = k.euler_characteristic()
    if not rim:
        return Recognition.SPHERE if chi == 2 else Recognition.NEITHER
    return Recognition.BALL if chi == 1 and rim.is_connected() else Recognition.NEITHER


def random_2_complexes(rng, random_subdivision, count):
    """`count` sets of triangles on 3 to 7 vertices, then `count` subdivided
    2-spheres with up to two triangles removed, each alone or wedged at one
    vertex or glued at two to a second such sphere."""
    for _ in range(count):
        triangles = list(itertools.combinations(range(1, rng.randint(3, 7) + 1), 3))
        yield Complex(rng.sample(triangles, rng.randint(1, len(triangles))))
    for _ in range(count):
        pieces = []
        for _ in range(rng.randint(1, 2)):
            k = random_subdivision(rng, standard_sphere(2), rng.randint(0, 6))
            for _ in range(rng.randint(0, 2)):
                k = k.residual(rng.choice(k.sorted_generators()))
            pieces.append(k)
        k = pieces[0]
        if len(pieces) == 2:
            glued = rng.randint(1, 2)
            ours = rng.sample(sorted(k.vertices()), glued)
            theirs = rng.sample(sorted(pieces[1].vertices()), glued)
            mapping = {v: v + k.max_label() for v in pieces[1].vertices()}
            mapping.update(zip(theirs, ours))
            k = k + relabel(pieces[1], mapping)
        yield k


def test_surface_test_matches_the_per_vertex_definition(random_subdivision):
    for name, (k, shape) in SURFACE_ZOO.items():
        assert low(k, 2) is surface_shape_by_links(k) is shape, name
    shapes = set()
    # closed and connected with chi = 2, yet no sphere, such as two spheres
    # glued at two vertices: only the dual graph or a vertex link refutes them
    pinched = 0
    for k in random_2_complexes(random.Random(41), random_subdivision, 500):
        shape = surface_shape_by_links(k)
        assert low(k, 2) is shape, sorted(k.generators)
        shapes.add(shape)
        if shape is Recognition.NEITHER and k.is_closed() and k.is_connected():
            pinched += k.euler_characteristic() == 2
    assert shapes == {Recognition.SPHERE, Recognition.BALL, Recognition.NEITHER}
    assert pinched


# disjoint unions that only connectivity refutes, one for each path that
# checks it: a graph and a closed surface with chi = 2 through the dual
# graph, and from dimension 3 up, through the 1-skeleton, a bounded complex
# with chi = 1 whose links the link test passes and a closed one with
# chi = 0 whose links the corner pass passes
DISJOINT_UNIONS = {
    "two_triangle_boundaries": standard_sphere(1) + Complex([(4, 5, 6)]).boundary(),
    "sphere_and_torus": standard_sphere(2) + TORUS_11,
    "ball_and_3_sphere": standard_simplex(3) + Complex([(5, 6, 7, 8, 9)]).boundary(),
    "two_3_spheres": standard_sphere(3) + Complex([(6, 7, 8, 9, 10)]).boundary(),
}


@pytest.mark.parametrize("name", DISJOINT_UNIONS)
def test_connectivity_alone_refutes_a_disjoint_union(name):
    k = DISJOINT_UNIONS[name]
    assert not connected(k.generators)
    assert recognised(k) == (Recognition.NEITHER, "exact")


def test_double_octahedron_is_refused_by_its_links_alone():
    # connected and closed, chi = 2 and every edge in exactly two triangles:
    # only the links of the glued vertices, two circles each, refute it
    k = DOUBLE_OCTAHEDRON
    assert k.is_connected() and k.is_closed() and k.euler_characteristic() == 2
    assert {len(up) for up in cofaces(k.generators).values()} == {2}
    assert recognize(k) is Recognition.NEITHER
    report = check_manifold(k.join(Complex([(11,), (12,)])))
    assert report.is_manifold is False
    assert report.bad_vertices == [1, 2, 11, 12]


def test_recognize_after_random_moves():
    rng = random.Random(23)
    for start, expected in [
        (standard_sphere(2), Recognition.SPHERE),
        (standard_simplex(2), Recognition.BALL),
        (standard_sphere(3), Recognition.SPHERE),
    ]:
        k = start
        for _ in range(3):
            g = rng.choice(k.sorted_generators())
            size = rng.randint(1, len(g))
            a = tuple(sorted(rng.sample(g, size)))
            k = subdivide(k, a, LabelAllocator(k).fresh())
        assert recognize(k) is expected


def test_subdivided_3_spheres_need_no_search(random_subdivision):
    rng = random.Random(29)
    for moves in range(1, 9):
        k = random_subdivision(rng, standard_sphere(3), moves)
        assert recognize(k) is Recognition.SPHERE


def test_h1_reads_the_face_table_of_the_recognition(monkeypatch, non_sphere_controls):
    # the collapse of S^2 x S^1 stops short, and H1 = Z refutes it from the
    # face table that recognition built, not from a second one
    built = []
    own = stellar.moves._face_table
    full = stellar.homology.face_table
    monkeypatch.setattr(stellar.moves, "_face_table", lambda *a: built.append("own") or own(*a))
    monkeypatch.setattr(stellar.homology, "face_table", lambda k: built.append("h1") or full(k))
    assert recognize(non_sphere_controls[0]) is Recognition.NEITHER
    assert built == ["own"]


@pytest.mark.parametrize(
    "pair",
    [Complex([(1, 2, 3, 4), (1, 2, 5, 6)]), Complex([(1, 2, 3, 4), (1, 5, 6, 7)])],
    ids=["sharing_an_edge", "sharing_a_vertex"],
)
def test_two_tetrahedra_are_no_ball(pair):
    # both collapse to a vertex and have chi = 1 and H1 = 0, but the link of
    # a shared vertex is two triangles: not a manifold
    assert collapse_greedy(pair).dimension() == 0
    assert recognize(pair) is Recognition.NEITHER
    assert check_manifold(pair).is_manifold is False
    coned = pair.join(cone(9))
    report = check_manifold(coned)
    assert report.is_manifold is False
    assert report.link_results[9] is Recognition.NEITHER


def suspension(triangles, poles):
    """The suspension from `poles`, two labels above every vertex, of the
    sorted `triangles`."""
    return Complex([t + (p,) for t in triangles for p in poles])


def link4_3_links(random_subdivision, cycle_join):
    """The distinct vertex links of the link4 benchmark's corpus at seed 0:
    96 subdivisions of each of its two 4-spheres, with 0 to 3 moves."""
    rng = random.Random(0)
    bases = [standard_sphere(4), cycle_join(3, 3).join(Complex([(101,), (102,)]))]
    links = {}
    for base in bases:
        for i in range(96):
            for lk in star_index(random_subdivision(rng, base, i % 4).generators).values():
                links.setdefault(frozenset(lk), Complex(lk))
    return list(links.values())


def test_closed_3_links_agree_with_the_link_recursion(
    random_subdivision, cycle_join, non_sphere_controls
):
    # on closed 3-complexes with chi = 0 the one corner pass accepts exactly
    # when every vertex link is recognised as a 2-sphere, and `recognize`,
    # which checks connectivity first, gives what the per-link recursion gave
    rng = random.Random(41)
    spheres = [
        standard_sphere(3),
        *(random_subdivision(rng, standard_sphere(3), n) for n in (2, 5, 9)),
        *(random_subdivision(rng, cycle_join(a, b), n)
          for a, b in ((3, 4), (5, 5)) for n in (0, 3, 6)),
        *link4_3_links(random_subdivision, cycle_join),
    ]
    # two disjoint 3-spheres: only the connectivity of the complex refutes
    two = standard_sphere(3) + Complex([(6, 7, 8, 9, 10)]).boundary()
    # X, the suspension of two octahedra glued at their poles 1 and 2: the
    # links at 1, 2, 11 and 12 are connected with chi = 2, but their dual
    # graphs are not, and neither is the dual graph of X
    x = suspension(DOUBLE_OCTAHEDRON.sorted_generators(), (11, 12))
    # a stacked 3-sphere whose vertices 5 and 10 have disjoint closed stars,
    # with 10 identified to 5 (chi = -1), summed along (1, 2, 3, 6) with the
    # suspension of RP^2 from 17 and 18 (chi = 1).  Its tetrahedra are
    # connected through triangles, and only the link of 5, two 2-spheres,
    # fails the dual-graph test: the links of 6 (where 17 is glued) and 18
    # are projective planes, with chi = 1, so 2 - chi sums to 0 over the links
    stacked = standard_sphere(3)
    facets = [(1, 2, 3, 4), (2, 3, 4, 6), (3, 4, 6, 7), (4, 6, 7, 8), (6, 7, 8, 9)]
    for v, facet in enumerate(facets, 6):
        stacked = subdivide(stacked, facet, v)
    rp2 = relabel(RP2_6, {v: v + 10 for v in range(1, 7)})
    gens = stacked.generators | suspension(rp2.sorted_generators(), (17, 18)).generators
    glue = {10: 5, 11: 1, 12: 2, 13: 3, 17: 6}
    gens -= {(1, 2, 3, 6), (11, 12, 13, 17)}
    pinched = Complex(tuple(sorted(glue.get(v, v) for v in g)) for g in gens)
    bad = {
        v: Complex(lk).euler_characteristic()
        for v, lk in star_index(pinched.generators).items()
        if low(Complex(lk), 2) is not Recognition.SPHERE
    }
    assert bad == {5: 4, 6: 1, 18: 1}
    assert len(spheres) > 1000
    for k, shape in [
        *((k, Recognition.SPHERE) for k in spheres),
        *((k, Recognition.NEITHER) for k in (*non_sphere_controls, two, x, pinched)),
    ]:
        table = face_table(k)
        partner = top_pairing(table)
        assert -1 not in partner and table.chi == 0
        links = {verdict for _, (verdict, _) in _link_verdicts(sorted(k.generators), 2, {})}
        assert _closed_3_links(partner, len(k.vertices())) is (links == {Recognition.SPHERE})
        assert recognize(k) is shape
    for k in non_sphere_controls:  # every link passes, and H1 refutes
        assert _closed_3_links(top_pairing(face_table(k)), len(k.vertices()))
    # every link of `two` is a 2-sphere, and `_certify` refutes it by connectivity
    assert _closed_3_links(top_pairing(face_table(two)), 10) and not connected(two.generators)
    assert connected(x.generators)
    assert Recognition.NEITHER in {verdict for _, (verdict, _) in _link_verdicts(sorted(x.generators), 2, {})}


def test_closed_3_links_refuse_a_triangle_in_four_tetrahedra():
    # two octahedra sharing the edge (3, 4), suspended from 11 and 12: the
    # triangles (3, 4, 11) and (3, 4, 12) lie in four tetrahedra each.  With
    # the poles 1, 7 and 2, 8, two tetrahedra from different octahedra come
    # first on each, so pairing each triangle's first two tetrahedra would
    # join the octahedra and leave every link connected; the facet pairing
    # refuses both labellings before any link pass
    for poles in ((1, 2), (7, 8)), ((1, 7), (2, 8)):
        octahedra = octahedron(poles[0], (3, 4, 5, 6)) + octahedron(poles[1], (3, 4, 9, 10))
        k = suspension(octahedra, (11, 12))
        up = cofaces(k.generators)
        assert len(up[(3, 4, 11)]) == len(up[(3, 4, 12)]) == 4
        assert k.is_closed() and connected(k.generators)
        assert top_pairing(face_table(k)) is None
        assert recognize(k) is Recognition.NEITHER


@pytest.mark.parametrize("name", ["two_tetrahedra_at_a_vertex", "book_of_three_tetrahedra",
                                  "x", "suspended_x", "cone_over_x"])
def test_the_facet_pairing_refuses_first(name):
    # a facet in a third generator, or a dual graph that is not connected
    # while the 1-skeleton is, is refused before chi and the links; the
    # recursion refuses the same inputs with the same certificate
    x = suspension(DOUBLE_OCTAHEDRON.sorted_generators(), (11, 12))
    k = {
        "two_tetrahedra_at_a_vertex": Complex([(1, 2, 3, 4), (1, 5, 6, 7)]),
        "book_of_three_tetrahedra": Complex([(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6)]),
        "x": x,
        "suspended_x": suspension(x.sorted_generators(), (13, 14)),
        "cone_over_x": x.join(cone(13)),
    }[name]
    assert connected(k.generators)
    partner = top_pairing(face_table(k))
    assert partner is None or not _dual_connected(partner, k.dimension() + 1)
    assert recognised(k) == (Recognition.NEITHER, "exact")


def renamed(gens):
    """The generators, in their order, with their vertices renumbered 1..n
    in increasing order."""
    rank = {v: i for i, v in enumerate(sorted(set().union(*gens)), 1)}
    return [tuple(map(rank.__getitem__, g)) for g in gens]


def reference_order_type(gens):
    """The order type as a set of renamed generators."""
    return frozenset(renamed(gens))


def test_sorted_generators_give_sorted_links_keyed_by_their_order_type(
    random_subdivision, ledger_zoo
):
    # removing v from two sorted tuples that hold it keeps their order, so
    # the star index of sorted generators lists every link sorted; and the
    # flat key of a sorted link names its order type, one key to one type
    rng = random.Random(47)
    corpus = [*ledger_zoo[0], *ledger_zoo[1]]
    corpus += [random_subdivision(rng, base(d), n)
               for d in range(1, 6) for base in (standard_sphere, standard_simplex)
               for n in (0, 2, 5, 8)]
    keys = {}
    for k in corpus:
        for lk in star_index(sorted(k.generators)).values():
            assert lk == sorted(lk) and len(set(lk)) == len(lk), k
            key, n0 = _order_type(lk, len(lk[0]) - 1)
            reference = reference_order_type(lk)
            assert n0 == len(set().union(*lk))
            assert keys.setdefault(key, reference) == reference, lk
    assert len(set(keys.values())) == len(keys) > 1000


def test_the_order_type_carries_the_width():
    # four disjoint triangles and three disjoint tetrahedra have the same
    # ranks, 1 to 12 in turn; one table serves every dimension of a call
    triangles = [(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12)]
    tetrahedra = [(1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)]
    assert _order_type(triangles, 2)[0][1:] == _order_type(tetrahedra, 3)[0][1:]
    seen = {}
    assert _recognize(triangles, 2, seen) == (Recognition.NEITHER, "exact")
    assert _recognize(tetrahedra, 3, seen) == (Recognition.NEITHER, "exact")
    assert len(seen) == 2
