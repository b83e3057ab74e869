import re
from math import gcd

import pytest

from stellar import (
    Complex,
    EquivalenceError,
    LabelAllocator,
    StructureError,
    QuotientComplex,
    coarse_lens,
    degree,
    fold_structure,
    is_flat,
    lens_structure,
    make_regular,
    subdivide,
)
from stellar.homology import AbelianGroup
from stellar.lens import _tri, _violating_edges
from stellar.quotient import RegularEquivalence, StellarStructure, pair_matching


def reference_make_regular(structure, matchings=None):
    """The sequential repair, kept as the reference for `make_regular`: each
    round recomputes the violating edges, grows the orbit of the smallest by
    sweeps over every pair, and subdivides the orbit's edges one `subdivide`
    call at a time."""
    sphere = structure.sphere
    equivalence = structure.equivalence
    cls_list = [sorted(c) for c in equivalence.vertex_classes]
    pairs = list(equivalence.generator_pairs)
    if matchings is None:
        cls = equivalence.class_of(sphere)
        matchings = {(g, h): pair_matching(g, h, cls) for g, h in pairs}
    table = dict(matchings)
    alloc = LabelAllocator(sphere)
    alloc.note(structure.apex)
    while True:
        bad = _violating_edges(
            StellarStructure(
                structure.apex, sphere, RegularEquivalence.build(cls_list, pairs)
            )
        )
        if not bad:
            break
        orbit = {bad[0]}
        grew = True
        while grew:
            grew = False
            for (g, h), phi in table.items():
                inv = {b: a for a, b in phi.items()}
                for e in list(orbit):
                    for side, m in ((g, phi), (h, inv)):
                        if set(e) <= set(side):
                            img = _tri(*(m[v] for v in e))
                            if img not in orbit:
                                orbit.add(img)
                                grew = True
        for g in sphere.generators:
            inside = [e for e in orbit if set(e) <= set(g)]
            if len(inside) > 1:
                raise StructureError(
                    f"generator {g} contains {len(inside)} edges of one repair orbit"
                )
        mid = {e: alloc.fresh() for e in sorted(orbit)}
        for e in sorted(orbit):
            sphere = subdivide(sphere, e, mid[e])
        new_table = {}
        for (g, h), phi in table.items():
            inside = [e for e in orbit if set(e) <= set(g)]
            if not inside:
                new_table[(g, h)] = phi
                continue
            (e,) = inside
            img = _tri(*(phi[v] for v in e))
            (c,) = tuple(v for v in g if v not in e)
            for u in e:
                child = (_tri(c, u, mid[e]), _tri(phi[c], phi[u], mid[img]))
                new_table[child] = {c: phi[c], u: phi[u], mid[e]: mid[img]}
        table = new_table
        pairs = list(table)
        cls_list.append(sorted(mid.values()))
    equivalence = RegularEquivalence.build(cls_list, pairs)
    return StellarStructure(structure.apex, sphere, equivalence), table


def _equator_class(q):
    """The q-gon bipyramid with its equator in one class and no pairs: every
    equator edge is its own orbit, so the repair takes q rounds."""
    eq = [3 + k for k in range(q)]
    tris = [_tri(pole, eq[k], eq[(k + 1) % q]) for k in range(q) for pole in (1, 2)]
    return StellarStructure(q + 3, Complex(tris), RegularEquivalence.build([eq], []))


def test_coarse_lens_violates_regularity():
    s, table = coarse_lens(5, 1)
    assert len(s.sphere) == 10
    assert s.equivalence.problems(s.sphere)
    assert len(_violating_edges(s)) == 5  # the equator edges
    assert len(table) == 5


def test_make_regular_repairs_the_equator():
    for q, p in [(3, 1), (4, 1), (5, 1), (5, 2), (7, 3)]:
        coarse, table = coarse_lens(q, p)
        repaired, new_table = make_regular(coarse, table)
        assert repaired.validate() == []
        assert repaired.is_closed
        assert _violating_edges(repaired) == []
        # repaired matchings must equal the class-derived ones
        cls = repaired.equivalence.class_of(repaired.sphere)
        for (g, h), phi in new_table.items():
            assert pair_matching(g, h, cls) == phi


def test_make_regular_matches_the_sequential_reference():
    lenses = [(q, p) for q in range(3, 14) for p in range(1, q) if gcd(q, p) == 1]
    cases = [coarse_lens(q, p) for q, p in lenses + [(65, 8)]]
    # the matchings=None path: one round on a tetrahedron, q on a q-gon bipyramid
    tetra = StellarStructure(
        5,
        Complex([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]),
        RegularEquivalence.build([[1, 2]], []),
    )
    cases += [(tetra, None), (_equator_class(5), None), (_equator_class(40), None)]
    for structure, table in cases:
        got, got_table = make_regular(structure, table)
        want, want_table = reference_make_regular(structure, table)
        assert got == want
        assert list(got_table.items()) == list(want_table.items())


def test_make_regular_refuses_two_orbit_edges_in_one_generator():
    # round 1 splits (1, 2); round 2's orbit {(1, 3), (1, 4)} lies in (1, 3, 4)
    pair = ((1, 2, 3), (1, 2, 4))
    s = StellarStructure(
        5,
        Complex([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]),
        RegularEquivalence.build([[1, 2, 3, 4]], [pair]),
    )
    message = r"generator \(1, 3, 4\) contains 2 edges of one repair orbit"
    with pytest.raises(StructureError, match=message):
        make_regular(s, {pair: {1: 1, 2: 2, 3: 4}})


def test_make_regular_is_idempotent_on_regular_input():
    s = fold_structure(4)
    repaired, _ = make_regular(s)
    assert repaired.sphere == s.sphere
    assert repaired.equivalence == s.equivalence


def test_make_regular_checks_the_table_against_the_classes():
    # the fold is regular, so no round runs and only the final checks act;
    # a table may name a pair in either order
    s = fold_structure(4)
    cls = s.equivalence.class_of(s.sphere)
    pairs = s.equivalence.generator_pairs
    forward = {(g, h): pair_matching(g, h, cls) for g, h in pairs}
    backward = {(h, g): pair_matching(h, g, cls) for g, h in pairs}
    up, down = (1, 3, 4), (2, 3, 4)
    for table, pair, swapped in [
        (forward, (up, down), {1: 2, 3: 4, 4: 3}),
        (backward, (down, up), {2: 1, 3: 4, 4: 3}),
    ]:
        assert make_regular(s, table) == (s, table)
        message = re.escape(f"repaired matching of {pair} disagrees with the vertex classes")
        with pytest.raises(StructureError, match=message):
            make_regular(s, {**table, pair: swapped})
    # a pair the structure does not have is matched from the classes too
    stray = (up, (1, 4, 5))
    message = re.escape("no vertex of (1, 4, 5) is equivalent to vertex 3 of (1, 3, 4)")
    with pytest.raises(EquivalenceError, match=message):
        make_regular(s, {**forward, stray: {1: 1, 3: 4, 4: 5}})
    bad_apex = StellarStructure(1, s.sphere, s.equivalence)
    with pytest.raises(EquivalenceError, match="^apex 1 occurs in the sphere$"):
        make_regular(bad_apex, forward)


def test_lens_structure_validation():
    with pytest.raises(StructureError):
        lens_structure(1, 1)
    with pytest.raises(StructureError):
        lens_structure(4, 2)  # not coprime
    with pytest.raises(StructureError):
        lens_structure(5, 0)
    with pytest.raises(StructureError):
        lens_structure(5, 5)


def test_lens_two_is_the_antipodal_octahedron():
    s = lens_structure(2, 1)
    assert len(s.sphere) == 8
    assert s.sphere.is_closed()
    assert s.is_closed and s.validate() == []
    assert is_flat(s)
    assert QuotientComplex.from_structure(s).h1() == AbelianGroup(0, (2,))


def test_lens_invariant_table():
    for q, p in [(3, 1), (4, 1), (5, 1), (5, 2), (7, 2), (65, 8)]:
        s = lens_structure(q, p)
        assert s.validate() == []
        assert s.is_closed
        assert s.sphere.is_closed()
        q_complex = QuotientComplex.from_structure(s)
        assert q_complex.h1() == AbelianGroup(0, (q,))
        assert q_complex.euler_characteristic() == 1
        assert not is_flat(s)


def test_fold_structure_shape():
    s = fold_structure(4)
    assert s.validate() == []
    assert s.is_closed
    assert len(s.sphere) == 8
    assert s.equivalence.vertex_classes == (frozenset({1, 2}),)
    assert degree(s) == (2,)
