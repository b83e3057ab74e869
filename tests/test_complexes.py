import heapq
import itertools
import random

import pytest

from stellar import (
    BudgetExceeded,
    Complex,
    ComplexError,
    QuotientComplex,
    cone,
    simplex,
    standard_simplex,
    standard_sphere,
    subdivide,
    weld,
)
from stellar.complexes import (
    LabelAllocator,
    UnionFind,
    _dual_tree,
    _facet_list,
    _partners,
    all_faces,
    cofaces,
    connected,
    simplex_boundary,
    star_index,
)
from stellar.homology import z2_rank
from stellar.structure import _crossings
from conftest import _random_subdivision
from test_moves import TORUS7


def random_complex(rng, dim=2, verts=8, gens=6):
    labels = list(range(1, verts + 1))
    out = set()
    while len(out) < gens:
        out.add(tuple(sorted(rng.sample(labels, dim + 1))))
    return Complex(out)


def test_simplex_normalizes_and_rejects_bad_input():
    assert simplex((2, 1)) == (1, 2)
    with pytest.raises(ComplexError):
        simplex((1, 1, 2))
    with pytest.raises(ComplexError):
        simplex((0, 1))


def test_non_integer_labels_raise_complex_error():
    # the labels' types are checked before sorting, which raises TypeError
    # on mixed types
    for gens in ([("a", 1)], [(None, 2)], [(2, 1.5)], [(True, 2)]):
        with pytest.raises(ComplexError, match="vertex labels must be positive integers"):
            Complex(gens)
    with pytest.raises(ComplexError, match="got None"):
        simplex((None, 2))
    with pytest.raises(ComplexError, match="got -1"):  # the least bad label
        simplex((3, 0, -1))


def test_addition_is_symmetric_difference():
    a = Complex([(1, 2), (2, 3)])
    b = Complex([(2, 3), (3, 4)])
    assert a + b == Complex([(1, 2), (3, 4)])
    assert a + a == Complex()


def test_boundary_of_triangle():
    assert Complex([(1, 2, 3)]).boundary() == Complex([(1, 2), (1, 3), (2, 3)])


def test_boundary_squares_to_zero_random():
    rng = random.Random(20)
    for _ in range(50):
        k = random_complex(rng, dim=rng.choice([2, 3]), verts=9, gens=rng.randint(2, 7))
        assert not k.boundary().boundary()


def test_boundary_rejects_vertices():
    with pytest.raises(ComplexError):
        Complex([(1,), (2,)]).boundary()


def test_standard_sphere_is_closed():
    for n in range(1, 4):
        s = standard_sphere(n)
        assert s.is_closed()
        assert s.euler_characteristic() == (2 if n % 2 == 0 else 0)


def test_join_disjointness_enforced():
    with pytest.raises(ComplexError):
        Complex([(1, 2)]).join(Complex([(2, 3)]))


def test_join_and_cone():
    arc = Complex([(1, 2), (2, 3)])
    coned = cone(9).join(arc)
    assert coned == Complex([(1, 2, 9), (2, 3, 9)])


def test_link_and_residual_decomposition():
    rng = random.Random(7)
    for _ in range(40):
        k = random_complex(rng, dim=2, verts=8, gens=5)
        for v in sorted(k.vertices()):
            a = (v,)
            rebuilt = cone(v).join(k.link(a)) + k.residual(a)
            assert rebuilt == k


def test_link_of_edge_in_join_of_circles():
    s3 = standard_sphere(1).join(Complex([(10, 11, 12)]).boundary())
    lk = s3.link((1, 10))
    assert lk == Complex([(2, 11), (2, 12), (3, 11), (3, 12)])


def test_f_vector_and_chi():
    s2 = standard_sphere(2)
    assert s2.f_vector() == [4, 6, 4]
    assert s2.euler_characteristic() == 2
    ball = standard_simplex(3)
    assert ball.f_vector() == [4, 6, 4, 1]
    assert ball.euler_characteristic() == 1


def test_f_vector_counts_the_closure():
    rng = random.Random(21)
    for _ in range(40):
        k = random_complex(rng, dim=rng.randint(1, 4), verts=8, gens=rng.randint(1, 7))
        if rng.random() < 0.5:  # lower generators too
            k = k + random_complex(rng, dim=rng.randint(0, 1), verts=8, gens=rng.randint(1, 4))
        counts = [0] * (k.dimension() + 1)
        for f in k.closure():
            counts[len(f) - 1] += 1
        assert k.f_vector() == counts


def test_connectedness():
    assert standard_sphere(2).is_connected()
    two_bits = Complex([(1, 2), (4, 5)])
    assert not two_bits.is_connected()
    # a sphere pair: S^0
    assert not Complex([(1,), (2,)]).is_connected()


def complex_zoo(rng):
    """Spheres, balls, non-manifolds, a non-uniform complex, the empty
    generator beside an edge, random complexes and subdivided spheres."""
    zoo = [standard_sphere(n) for n in range(0, 5)]
    zoo += [standard_simplex(n) for n in range(0, 4)]
    zoo += [
        Complex([(1, 2, 3), (1, 4, 5)]),
        Complex([(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)]),
        Complex([(1, 2, 3), (4, 5)]),
        Complex([(), (1, 2)]),
        standard_sphere(1).join(Complex([(10, 11, 12)]).boundary()),
    ]
    zoo += [random_complex(rng, dim=rng.choice([1, 2, 3]), verts=8, gens=6) for _ in range(20)]
    for start in (standard_sphere(3), standard_sphere(4)):
        k = start
        for _ in range(4):
            g = rng.choice(k.sorted_generators())
            a = tuple(sorted(rng.sample(g, rng.randint(1, len(g)))))
            k = subdivide(k, a, LabelAllocator(k).fresh())
            zoo.append(k)
    return zoo


def test_star_index_gives_every_vertex_link():
    for k in complex_zoo(random.Random(13)):
        links = star_index(k.generators)
        assert set(links) == k.vertices()
        for v, lk in links.items():
            assert Complex(lk) == k.link((v,)) and len(lk) == len(set(lk))


def test_connected_matches_a_spanning_forest():
    assert connected([]) and connected([()]) and connected([(4,)])
    assert not connected([(1, 2), (3, 4)])
    assert connected([(3, 4), (1, 2), (2, 3)])
    for k in complex_zoo(random.Random(17)):
        # a spanning forest has rank d1 edges over GF(2), so the complex is
        # connected exactly when b0 = #vertices - rank d1 is at most 1; d1
        # comes from the GF(2) oracle's boundary matrices
        d = QuotientComplex.from_complex(k).boundary_matrices()
        b0 = len(k.vertices()) - (z2_rank(d[0]) if d else 0)
        assert connected(k.generators) is (b0 <= 1), sorted(k.generators)


def test_partners_pair_each_facet_with_its_other_coface():
    # the facet pairing against `cofaces`: symmetric, -1 exactly on a lone
    # coface, and None exactly when some facet has three or more
    rng = random.Random(19)
    zoo = [k for k in complex_zoo(rng) if k.is_uniform() and k.dimension() >= 0]
    zoo += [random_complex(rng, dim=d, verts=d + 4, gens=rng.randint(1, 4))
            for d in range(5) for _ in range(8)]
    kinds = set()
    for k in zoo:
        gens = sorted(k.generators)
        w = len(gens[0])
        facets = [f for g in gens for f in itertools.combinations(g, w - 1)]
        up = cofaces(gens)
        partner = _partners(facets)
        if max(map(len, up.values())) > 2:
            assert partner is None, gens
            kinds.add("third")
            continue
        assert len(partner) == len(facets)
        for at, other in enumerate(partner):
            f, cell = facets[at], gens[at // w]
            if other < 0:
                assert up[f] == [cell], gens
                kinds.add("lone")
            else:
                assert facets[other] == f and partner[other] == at, gens
                assert sorted(up[f]) == sorted([cell, gens[other // w]]), gens
                kinds.add("pair")
        kinds.add(k.dimension())
    assert kinds == {0, 1, 2, 3, 4, "third", "lone", "pair"}


def test_union_find_merges_each_pair_of_classes_once():
    uf = UnionFind(4)
    assert uf.union(2, 3) and uf.union(3, 1)
    assert not uf.union(1, 2)  # already one class
    assert not uf.conflicts
    assert uf.find(3) == (1, 0)  # the least element is the root


def test_union_find_moves_a_parity_clash_to_the_smaller_root():
    uf = UnionFind(5)
    uf.union(3, 4, 1)
    assert not uf.union(4, 3, 0)  # 3 and 4 already differ in sign
    assert uf.conflicts == {3}
    uf.union(4, 1)  # the clashing class hangs under 1
    assert uf.conflicts == {1}
    assert uf.find(4) == (1, 0) and uf.find(3) == (1, 1)


def test_union_find_members_are_ascending_under_the_least_element():
    uf = UnionFind(7)
    for x, y in [(6, 4), (5, 2), (4, 2), (3, 0)]:
        uf.union(x, y)
    assert uf.members() == {0: [0, 3], 1: [1], 2: [2, 4, 5, 6]}
    assert list(uf.members()) == [0, 1, 2]


def reference_union_find(n, xs, ys, parities):
    """Each class's least element, each element's sign against it, and the
    classes whose signs clash, by a breadth-first search of the joins."""
    near = [[] for _ in range(n)]
    for x, y, p in zip(xs, ys, parities):
        near[x].append((y, p))
        near[y].append((x, p))
    root, sign, clash = [None] * n, [0] * n, set()
    for r in range(n):
        if root[r] is None:
            root[r], todo = r, [r]
            for x in todo:
                for y, p in near[x]:
                    if root[y] is None:
                        root[y], sign[y] = r, sign[x] ^ p
                        todo.append(y)
                    elif sign[y] != sign[x] ^ p:
                        clash.add(r)
    return root, sign, clash


def random_joins(rng, n, signed):
    m = rng.randint(0, 2 * n)
    xs = [rng.randrange(n) for _ in range(m)]
    ys = [rng.randrange(n) for _ in range(m)]
    return xs, ys, [rng.randint(0, 1) if signed else 0 for _ in range(m)]


def test_joins_without_signs_are_the_signed_joins_with_zero_parities():
    # `union_all` with no parities, on a union-find with no sign and no
    # conflict, joins without signs; it must write the same parents, idle
    # places and classes as the signed loop given zero parities
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 40)
        plain, signed = UnionFind(n), UnionFind(n)
        for _ in range(rng.randint(1, 4)):  # batches
            xs, ys, zeros = random_joins(rng, n, False)
            assert plain.union_all(xs, ys) == signed.union_all(xs, ys, zeros)
            assert plain.flat == signed.flat
        assert plain.members() == signed.members()
        assert plain.flat == signed.flat and not plain.conflicts and not any(plain.flat[1])


def test_joins_without_signs_keep_earlier_signs_and_conflicts():
    # a union-find that holds a sign or a conflict keeps the signed loop when
    # later given no parities: its parities and conflicts stay exact
    rng = random.Random(43)
    kinds = set()
    for _ in range(300):
        n = rng.randint(1, 40)
        uf = UnionFind(n)
        xs, ys, ps = random_joins(rng, n, True)
        uf.union_all(xs, ys, ps)
        kinds.add((any(uf.flat[1]), bool(uf.conflicts)))
        more = random_joins(rng, n, False)
        idle = uf.union_all(*more[:2])
        root, sign, clash = reference_union_find(n, xs + more[0], ys + more[1], ps + more[2])
        assert uf.conflicts == clash
        for x in range(n):
            r, p = uf.find(x)
            assert r == root[x]
            if r not in clash:
                assert p == sign[x]
        # which joins are idle depends on the classes alone, not on signs
        unsigned = UnionFind(n)
        unsigned.union_all(xs, ys)
        assert idle == unsigned.union_all(*more[:2])
    assert kinds >= {(True, False), (True, True)}
    # a conflict on classes whose signs are all 0 moves to the smaller root
    uf = UnionFind(3)
    uf.union(1, 2)
    uf.union(1, 2, 1)
    assert uf.conflicts == {1} and not any(uf.flat[1])
    assert uf.union_all([2], [0]) == []
    assert uf.conflicts == {0}


def reference_dual_tree(top, partner):
    """The dual tree's walk with a heap that holds a cell once per taken
    neighbour and drops a cell taken after it was pushed when it comes up."""
    w = len(top[0])
    residual = [False] + [True] * (len(top) - 1)
    frontier = sorted(partner[at] // w for at in range(w))
    while frontier:
        i = heapq.heappop(frontier)
        if not residual[i]:
            continue  # stale
        base = w * i
        for k, at in enumerate(partner[base:base + w]):
            if not residual[at // w]:
                break
        yield i, k
        residual[i] = False
        for at in partner[base:base + w]:
            if residual[at // w]:
                heapq.heappush(frontier, at // w)


def dual_tree_inputs(closed):
    """The closed complexes `closed`, seeded subdivided 3- and 4-spheres and
    every vertex link of theirs, two disjoint boundaries of the 4-simplex
    and two disjoint copies of the suspended 7-vertex torus."""
    rng = random.Random(47)
    spheres = [_random_subdivision(rng, standard_sphere(d), n)
               for d in (3, 4) for n in range(0, 13, 3)]
    out = list(closed) + spheres
    out += [Complex(lk) for k in spheres for _, lk in sorted(star_index(k.generators).items())]
    suspended = TORUS7.join(Complex([(8,), (9,)]))
    for k in (standard_sphere(3), suspended):
        out.append(k + Complex([tuple(v + 10 for v in g) for g in k.generators]))
    return out


def test_the_dual_tree_walk_takes_the_reference_steps(ledger_zoo):
    closed, _ = ledger_zoo
    short = 0
    for k in dual_tree_inputs(closed):
        top = sorted(k.generators)
        partner = _partners(_facet_list(top, len(top[0]) - 1))
        assert partner is not None and -1 not in partner
        steps = list(_dual_tree(top, partner))
        assert steps == list(reference_dual_tree(top, partner)), top
        short += len(steps) < len(top) - 1
    assert short == 3  # the two disjoint pairs, and the ledger's pinch link


def test_the_build_keeps_its_budget_on_the_walk():
    m = standard_sphere(3)
    top = sorted(m.generators)
    partner = _partners(_facet_list(top, 3))
    with pytest.raises(BudgetExceeded):
        list(_crossings(m, top, partner, 1))
    steps = [step[:2] for step in _crossings(m, top, partner, 4)]
    assert steps == list(_dual_tree(top, partner)) and len(steps) == 4


def test_closure_and_faces():
    k = Complex([(1, 2, 3)])
    assert k.closure() == frozenset(all_faces((1, 2, 3)))
    assert k.faces_of_dim(1) == frozenset({(1, 2), (1, 3), (2, 3)})


def test_simplex_boundary_of_vertex_is_join_identity():
    assert simplex_boundary((5,)) == {()}


def test_label_allocator_skips_used_labels():
    k = Complex([(1, 2, 7)])
    alloc = LabelAllocator(k)
    assert alloc.fresh() == 8
    assert alloc.fresh() == 9


def test_built_complexes_equal_their_validated_copies():
    """Results of the calculus are built without validation; each must be
    what the public constructor makes of its generators."""
    rng = random.Random(11)
    for start in (standard_sphere(2), standard_sphere(3), standard_simplex(3)):
        k = start
        for _ in range(6):
            g = rng.choice(k.sorted_generators())
            a = tuple(sorted(rng.sample(g, rng.randint(1, len(g)))))
            v = LabelAllocator(k).fresh()
            sub = subdivide(k, a, v)
            face = rng.choice(sorted(sub.closure()))
            whole = rng.choice(sub.sorted_generators())
            results = [
                sub,
                weld(sub, a, v),
                sub.link(face),
                sub.residual(face),
                sub.link(whole),
                sub.link(whole).join(cone(v + 1)),
                sub.join(Complex([(v + 1, v + 2, v + 3)]).boundary()),
                sub + k,
                sub.boundary(),
                Complex([whole]).boundary(),
            ]
            for r in results:
                assert r == Complex(list(r.generators))
            k = sub


def test_public_constructor_validates_and_cancels():
    assert Complex([(3, 1, 2), (2, 1)]).generators == {(1, 2, 3), (1, 2)}
    assert Complex([(1, 2), (2, 3), (2, 1)]) == Complex([(2, 3)])
    for bad in [(1, 1, 2), (0, 1), (-2, 3)]:
        with pytest.raises(ComplexError):
            Complex([bad])
