import math

import pytest

from stellar import (
    Complex,
    QuotientComplex,
    RegularEquivalence,
    StellarStructure,
    StructureError,
    build_structure,
    collapsible_edges,
    degree,
    degree_entry,
    face_classes,
    flatness_equivalence_check,
    fold_structure,
    gamma_graph,
    has_circuit,
    internally_flat_complexes,
    is_flat,
    lens_structure,
    standard_sphere,
    structure_report,
)
import stellar.group
from stellar.group import _class_orders, _classes, order_of, p0, p_alpha


def square_structure():
    """Antipodal pairing on a four-edge circle."""
    sphere = Complex([(1, 2), (2, 3), (3, 4), (1, 4)])
    eq = RegularEquivalence.build(
        [[1, 3], [2, 4]], [((1, 2), (3, 4)), ((2, 3), (1, 4))]
    )
    return StellarStructure(apex=9, sphere=sphere, equivalence=eq)


def test_square_circle_has_two_flat_vertex_classes():
    s = square_structure()
    assert s.validate() == [] and s.is_closed
    classes = face_classes(s)
    assert sorted(sorted(a) for a in classes) == [[(1,), (3,)], [(2,), (4,)]]
    assert all(order_of(s, a) == 2 for a in classes)
    assert degree(s) == (2,)
    assert is_flat(s)
    assert flatness_equivalence_check(s)


def test_octahedron_antipodal_structure_is_flat():
    s = lens_structure(2, 1)
    classes = face_classes(s)
    assert len(classes) == 6
    assert all(order_of(s, a) == 2 for a in classes)
    assert degree(s) == (2,)
    assert collapsible_edges(s) == []
    assert len(internally_flat_complexes(s)) == 1


def test_p0_and_p_alpha_are_involutions():
    for s in (square_structure(), fold_structure(4), lens_structure(5, 1)):
        pairing = p0(s)
        n = len(pairing)
        assert sorted(pairing) == list(range(n))
        assert all(pairing[pairing[i]] == i for i in range(n))
        assert all(pairing[i] != i for i in range(n))
        for alpha in face_classes(s):
            swap = p_alpha(s, alpha)
            assert all(swap[swap[i]] == i for i in range(n))


def test_a_partial_pairing_has_no_involution_and_no_degree():
    # the octahedron with poles 1 and 2 over the equator 3, 4, 5, 6, and only
    # the triangles on the equator edge (3, 4) paired
    sphere = Complex(
        tuple(sorted((pole, a, b))) for pole in (1, 2) for a, b in ((3, 4), (4, 5), (5, 6), (3, 6))
    )
    s = StellarStructure(9, sphere, RegularEquivalence.build([[1, 2]], [((1, 3, 4), (2, 3, 4))]))
    assert s.validate() == [] and not s.is_closed
    for partial in (p0, degree):
        with pytest.raises(StructureError, match="^structure is not closed: the pairing is partial$"):
            partial(s)


def test_fold_structure_is_flat():
    s = fold_structure(4)
    assert degree(s) == (2,)
    assert is_flat(s)
    assert flatness_equivalence_check(s)
    assert gamma_graph(s).edges == ()


def test_lens_degrees_frozen():
    expected = {
        2: (2,),
        3: (3, 2),
        4: (4, 2),
        5: (5, 2),
        6: (6, 2),
        7: (7, 2),
        8: (8, 2),
        9: (9, 2),
    }
    for q, deg in expected.items():
        twist = 1
        s = lens_structure(q, twist)
        assert degree(s) == deg, q
        assert flatness_equivalence_check(s), q
        assert is_flat(s) == (q == 2), q


def circle(n, start=1):
    vs = list(range(start, start + n))
    return Complex([tuple(sorted((vs[i], vs[(i + 1) % n]))) for i in range(n)])


def shell_structures():
    """The lens zoo for q <= 9, a fold, and built structures of 3-spheres."""
    out = [
        lens_structure(q, p)
        for q in range(2, 10)
        for p in range(1, q)
        if math.gcd(p, q) == 1
    ]
    out.append(fold_structure(4))
    for m in (standard_sphere(3), circle(3).join(circle(4, start=4))):
        out.append(build_structure(m).structure)
    return out


def support_cycle_lengths(perm, support):
    lengths = []
    seen = set()
    for start in sorted(support):
        if start in seen:
            continue
        n, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            n += 1
        lengths.append(n)
    return lengths


def test_degree_entry_is_the_order_of_the_class_rotation():
    # p0 and p_alpha act on the generators around a class of k edges as the
    # two reflections of a 2k-cycle, so their composite there is k-cycles;
    # off that support only p0's transpositions remain.  The degree entry
    # sees the support alone, the full order (the Γ label) sees both.
    for s in shell_structures():
        pairing = p0(s)
        cls = s.equivalence.class_of(s.sphere)
        high = []
        for alpha in face_classes(s):
            k = len(alpha)
            swap = p_alpha(s, alpha)
            comp = [pairing[x] for x in swap]
            support = {i for i, j in enumerate(swap) if i != j}
            assert set(support_cycle_lengths(comp, support)) == {k}, sorted(alpha)
            assert degree_entry(s, alpha) == max(k, 2), sorted(alpha)
            order = order_of(s, alpha)
            assert order in (k, math.lcm(k, 2)), sorted(alpha)
            if k >= 3:
                u, v = min(alpha)
                high.append((*sorted((cls[u], cls[v])), order))
        assert degree(s) == tuple(
            sorted({max(len(a), 2) for a in face_classes(s)}, reverse=True)
        )
        assert gamma_graph(s).edges == tuple(sorted(high))


def test_a_structure_on_the_empty_sphere_has_no_classes():
    s = StellarStructure(1, Complex(), RegularEquivalence.build([], []))
    assert s.validate() == [] and s.is_closed
    assert degree(s) == ()


def test_p_alpha_refuses_two_facets_of_one_generator():
    # (1, 3) and (1, 7) are both edges of the triangle (1, 3, 7); which of
    # them the refusal names depends on set order
    with pytest.raises(StructureError, match="^a generator contains two facets of the class of "):
        p_alpha(lens_structure(3, 1), frozenset({(1, 3), (1, 7)}))


def test_p_alpha_swaps_the_two_generators_on_each_facet():
    # reference: find the generators around each facet by scanning them all
    for s in shell_structures():
        gens = s.sphere.sorted_generators()
        for alpha in face_classes(s):
            expected = list(range(len(gens)))
            for f in alpha:
                i, j = [k for k, g in enumerate(gens) if set(f) <= set(g)]
                expected[i], expected[j] = j, i
            assert p_alpha(s, alpha) == tuple(expected), sorted(alpha)


def reference_structures(cycle_join):
    """The lens zoo for q <= 13, folds of 3..8 and built structures of C_a*C_b."""
    out = [
        lens_structure(q, p)
        for q in range(2, 14)
        for p in range(1, q)
        if math.gcd(p, q) == 1
    ]
    out += [fold_structure(n) for n in range(3, 9)]
    for a, b in ((3, 3), (3, 5), (4, 4), (6, 7)):
        out.append(build_structure(cycle_join(a, b)).structure)
    return out


def full_composite(s, alpha):
    pairing, swap = p0(s), p_alpha(s, alpha)
    return [pairing[x] for x in swap], swap


def test_support_swaps_match_the_full_permutations(cycle_join):
    # degree, Γ, fold detection and the internally flat orbits, recomputed
    # from the public full permutations p0, p_alpha and order_of alone
    for s in reference_structures(cycle_join):
        pairing = p0(s)
        classes = face_classes(s)
        cls = s.equivalence.class_of(s.sphere)
        entries, high, folds, flat_swaps = set(), [], [], []
        for alpha in classes:
            comp, swap = full_composite(s, alpha)
            support = {i for i, j in enumerate(swap) if i != j}
            entry = max(2, math.lcm(*support_cycle_lengths(comp, support)))
            assert degree_entry(s, alpha) == entry, sorted(alpha)
            entries.add(entry)
            order = order_of(s, alpha)
            assert order == math.lcm(*support_cycle_lengths(comp, range(len(comp))))
            if order > 2:
                u, v = min(alpha)
                high.append((*sorted((cls[u], cls[v])), order))
            folded = any(swap[j] == i for i, j in enumerate(pairing))
            if folded:
                folds.append(alpha)
            elif order == 2:
                flat_swaps.append(swap)
        assert degree(s) == tuple(sorted(entries, reverse=True))
        if s.sphere.dimension() != 2:
            continue
        gamma = gamma_graph(s)
        assert gamma.edges == tuple(sorted(high))
        assert gamma.vertices == tuple(sorted({c for a, b, _ in high for c in (a, b)}))
        assert collapsible_edges(s) == folds
        assert orbit_pairs(internally_flat_complexes(s)) == reference_orbit_pairs(
            s, pairing, flat_swaps
        )


def orbit_pairs(pairs):
    return sorted(tuple(sorted((tuple(sorted(a)), tuple(sorted(b))))) for a, b in pairs)


def reference_orbit_pairs(s, pairing, swaps):
    """Orbits of the generators under the given full swaps, each with the
    orbit the pairing carries it to, found by a plain graph search."""
    gens = s.sphere.sorted_generators()
    orbit_of = {}
    for start in range(len(gens)):
        if start in orbit_of:
            continue
        orbit, stack = {start}, [start]
        while stack:
            x = stack.pop()
            for swap in swaps:
                if swap[x] not in orbit:
                    orbit.add(swap[x])
                    stack.append(swap[x])
        for x in orbit:
            orbit_of[x] = frozenset(gens[i] for i in orbit)
    pairs = orbit_pairs((orbit_of[x], orbit_of[pairing[x]]) for x in range(len(gens)))
    return sorted(set(pairs))


def test_one_report_counts_the_classes_once(monkeypatch):
    # the degree and Γ come from one pass over the face classes, which
    # counts their faces: a report builds no swap and walks no cycle
    calls = {"_classes": 0, "_swap": 0, "_order": 0}

    def spy(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(stellar.group, name, spy(name, getattr(stellar.group, name)))
    report = structure_report(lens_structure(17, 3))
    assert report.gamma_has_circuit
    assert calls == {"_classes": 1, "_swap": 0, "_order": 0}


def test_face_classes_are_the_codimension_one_cells(cycle_join, non_sphere_controls):
    # the class pass reads each face class off the quotient by number and
    # counts its faces: its name, member numbers, sides, degree entry, full
    # order, folds and flat orbits match the stand-alone references
    structures = reference_structures(cycle_join) + [square_structure()]
    structures.append(lens_structure(17, 3))
    structures += [build_structure(m).structure for m in non_sphere_controls]
    for s in structures:
        q = QuotientComplex.from_structure(s)
        classes = face_classes(s)
        members = _classes(q)
        assert [frozenset(q.members[c]) for c, _ in members] == classes
        assert [m for _, m in members] == [q._classes[q._index[c]] for c, _ in members]
        around = {}  # face number -> the generators it lies in, by place
        for i, r in enumerate(q._generators):
            for f in q._facets[r]:
                around.setdefault(f, []).append(i)
        sides = [(c, [around[f] for f in m]) for c, m in members]
        orders = _class_orders(q)
        assert [c for c, _, _ in orders] == [c for c, _ in sides]
        pairing = p0(s)
        folds, flat_swaps = [], []
        for (cell, hits), (_, m, order), alpha in zip(sides, orders, classes):
            assert cell == min(alpha)
            swap = p_alpha(s, alpha)
            moved = {frozenset((i, j)) for i, j in enumerate(swap) if i != j}
            assert set(map(frozenset, hits)) == moved and len(hits) == len(alpha) == m
            assert max(m, 2) == degree_entry(s, alpha), sorted(alpha)
            assert order == order_of(s, alpha), sorted(alpha)
            if any(swap[j] == i for i, j in enumerate(pairing)):
                folds.append(alpha)
            elif order == 2:
                flat_swaps.append(swap)
        if s.sphere.dimension() == 2:
            assert collapsible_edges(s) == folds
            assert orbit_pairs(internally_flat_complexes(s)) == reference_orbit_pairs(
                s, pairing, flat_swaps
            )
    # a 0-sphere's one class is the empty face, which no face table lists
    s = build_structure(circle(3)).structure
    (alpha,) = face_classes(s)
    assert [c for c, _, _ in _class_orders(QuotientComplex.from_structure(s))] == [()]
    assert degree(s) == (degree_entry(s, alpha),) == (2,)


def unclosed_spheres():
    """Validated closed structures whose spheres are not closed
    pseudomanifolds: a disk, a book of four triangles on the edge (1, 2),
    four points in one class, and a square beside two points."""
    def structure(generators, classes, pairs):
        eq = RegularEquivalence.build(classes, pairs)
        return StellarStructure(apex=99, sphere=Complex(generators), equivalence=eq)

    return [
        structure([(1, 2, 3), (2, 3, 4)], [[1, 4]], [((1, 2, 3), (2, 3, 4))]),
        structure(
            [(1, 2, k) for k in range(3, 7)],
            [[3, 4], [5, 6]],
            [((1, 2, 3), (1, 2, 4)), ((1, 2, 5), (1, 2, 6))],
        ),
        structure([(1,), (2,), (3,), (4,)], [[1, 2, 3, 4]], [((1,), (2,)), ((3,), (4,))]),
        structure(
            [(1, 2), (2, 3), (3, 4), (1, 4), (5,), (6,)],
            [[1, 3], [2, 4], [5, 6]],
            [((1, 2), (3, 4)), ((2, 3), (1, 4)), ((5,), (6,))],
        ),
    ]


@pytest.mark.parametrize(
    "case, facet, hits",
    [(0, "(1, 2)", 1), (1, "(1, 2)", 4), (2, "()", 4), (3, "(5,)", 0)],
    ids=["disk", "book", "four_points", "square_and_two_points"],
)
def test_a_sphere_that_is_not_closed_is_refused_at_a_facet(case, facet, hits):
    # the class pass refuses a face that does not lie in exactly two
    # generators; over a sphere that is not a 2-complex, the edge analyses,
    # Γ and the report refuse it first by its dimension
    s = unclosed_spheres()[case]
    assert s.validate() == [] and s.is_closed
    refusal = f"facet {facet} lies in {hits} generators; the sphere is not closed there"
    with pytest.raises(StructureError) as caught:
        degree(s)
    assert str(caught.value) == refusal
    if s.sphere.dimension() != 2:
        refusal = "structure needs a uniform 2-complex as its sphere"
    for query in (gamma_graph, collapsible_edges, internally_flat_complexes, structure_report):
        with pytest.raises(StructureError) as caught:
            query(s)
        assert str(caught.value) == refusal, query.__name__


def test_lens_gamma_is_a_single_cycle_edge():
    for q in (3, 4, 5):
        g = gamma_graph(lens_structure(q, 1))
        assert len(g.edges) >= 1
        assert has_circuit(g) == (len(g.edges) > len(g.vertices) - 1)


def test_built_sphere_structures_have_forest_gamma():
    for m in (standard_sphere(3),):
        s = build_structure(m).structure
        g = gamma_graph(s)
        assert not has_circuit(g)
        assert degree(s)[-1] == 2


def test_collapsible_edges_on_fold():
    # folding a bipyramid onto itself leaves the equator edges collapsible
    assert len(collapsible_edges(fold_structure(4))) == 4


def test_internally_flat_on_fold():
    s = fold_structure(4)
    pairs = internally_flat_complexes(s)
    assert len(pairs) == 1
    covered = set()
    for a, b in pairs:
        covered |= set(a) | set(b)
    assert covered <= set(s.sphere.generators)


def test_edge_analysis_requires_two_dimensional_sphere():
    s = square_structure()
    assert degree(s) == (2,)  # degree itself is fine in any dimension
    with pytest.raises(StructureError):
        collapsible_edges(s)


def test_gamma_dot_output():
    g = gamma_graph(lens_structure(3, 1))
    dot = g.to_dot()
    assert dot.startswith("graph gamma {")
    assert 'label="6"' in dot


def test_has_circuit_detects_parallel_edges():
    from stellar.group import GammaGraph

    assert has_circuit(GammaGraph((0, 1), ((0, 1, 4), (0, 1, 6))))
    assert not has_circuit(GammaGraph((0, 1, 2), ((0, 1, 4), (1, 2, 6))))


def test_has_circuit_on_vertex_ids_with_gaps():
    from stellar.group import GammaGraph

    assert not has_circuit(GammaGraph((0, 5, 9), ((0, 5, 4), (5, 9, 6))))
    assert has_circuit(GammaGraph((0, 5, 9), ((0, 5, 4), (5, 9, 6), (0, 9, 8))))
    assert not has_circuit(GammaGraph((), ()))
