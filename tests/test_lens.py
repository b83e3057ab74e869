from itertools import count
from math import gcd

import pytest

from stellar import (
    Complex,
    StructureError,
    QuotientComplex,
    degree,
    fold_structure,
    is_flat,
    lens_structure,
    subdivide,
)
from stellar.homology import AbelianGroup
from stellar.lens import _bipyramid, _tri
from stellar.quotient import RegularEquivalence, StellarStructure, pair_matching


def coarse_lens(q, p):
    """The q-gon bipyramid with the shift-p fan pairing, and its per-pair
    vertex matchings, since the classes alone do not determine them.  Not
    regular for q >= 3: each triangle has two equatorial (hence equivalent)
    vertices."""
    north, south = _bipyramid(range(3, q + 3))
    eq = [3 + k % q for k in range(q + p + 1)]  # equator vertex k mod q
    table = {
        (g, south[(k + p) % q]): {1: 2, eq[k]: eq[k + p], eq[k + 1]: eq[k + p + 1]}
        for k, g in enumerate(north)
    }
    equivalence = RegularEquivalence.build([[1, 2], eq[:q]], list(table))
    return StellarStructure(q + 3, Complex(north + south), equivalence), table


def _violating_edges(structure):
    """The edges of the sphere whose endpoints are equivalent."""
    cls = structure.equivalence.class_of(structure.sphere)
    return sorted(e for e in structure.sphere.faces_of_dim(1) if cls[e[0]] == cls[e[1]])


def reference_make_regular(structure, table):
    """The sequential repair of an equivalence whose pairs join vertices
    within a class, given the pairs' vertex matchings: each round recomputes
    the violating edges, grows the orbit of the smallest under the matchings
    by sweeps over every pair, subdivides the orbit's edges one `subdivide`
    call at a time at fresh midpoints, and makes the midpoints a class."""
    sphere = structure.sphere
    cls_list = [sorted(c) for c in structure.equivalence.vertex_classes]
    pairs = list(structure.equivalence.generator_pairs)
    fresh = count(max(structure.apex, sphere.max_label()) + 1)
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
        mid = {e: next(fresh) for e in sorted(orbit)}
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


def test_coarse_lens_violates_regularity():
    s, table = coarse_lens(5, 1)
    assert len(s.sphere) == 10
    assert s.equivalence.problems(s.sphere)
    assert len(_violating_edges(s)) == 5  # the equator edges
    assert len(table) == 5


LENSES = [(q, p) for q in range(3, 14) for p in range(1, q) if gcd(q, p) == 1]


def test_make_regular_repairs_the_equator():
    # the 2q-gon shell has no equator edge left to repair, and the repaired
    # matchings are the ones its vertex classes give
    for q, p in [(3, 1), (4, 1), (5, 1), (5, 2), (7, 3)]:
        s = lens_structure(q, p)
        assert s.validate() == []
        assert s.is_closed
        assert _violating_edges(s) == []
        _, table = reference_make_regular(*coarse_lens(q, p))
        cls = s.equivalence.class_of(s.sphere)
        for (g, h), phi in table.items():
            assert pair_matching(g, h, cls) == phi


def test_make_regular_matches_the_sequential_reference():
    # the 2q-gon shell is the sequential repair of the q-gon shell, label for
    # label, on every lens the repair was checked on
    for q, p in LENSES + [(65, 8)]:
        repaired, _ = reference_make_regular(*coarse_lens(q, p))
        assert lens_structure(q, p) == repaired, (q, p)


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
