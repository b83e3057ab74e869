import hashlib
import json
import random
import re
from dataclasses import replace
from math import gcd

import pytest

from stellar import (
    Complex,
    LabelAllocator,
    QuotientComplex,
    RegularEquivalence,
    StellarStructure,
    StructureError,
    build_structure,
    fold_structure,
    lens_structure,
    standard_sphere,
    subdivide,
    verify_structure,
    weld,
)
from stellar.complexes import _facet_list, _partners
from stellar.io import structure_to_json
from stellar.structure import _crossings
import stellar.structure


def circle(n, start=1):
    vs = list(range(start, start + n))
    return Complex([tuple(sorted((vs[i], vs[(i + 1) % n]))) for i in range(n)])


def torus_join(n, m):
    return circle(n).join(circle(m, start=n + 1))


FIXTURES = {
    "boundary of a tetrahedron": standard_sphere(2),
    "boundary of a 4-simplex": standard_sphere(3),
    "suspension of a triangle sphere": standard_sphere(2).join(Complex([(9,), (10,)])),
    "torus-style sphere 3x3": torus_join(3, 3),
    "torus-style sphere 3x4": torus_join(3, 4),
    "sixteen cell": Complex([(1,), (2,)])
    .join(Complex([(3,), (4,)]))
    .join(Complex([(5,), (6,)])),
    "subdivided 4-simplex boundary": subdivide(standard_sphere(3), (1, 2), 9),
}


def test_build_on_triangle_boundary_frozen():
    result = build_structure(standard_sphere(2))
    s = result.structure
    assert s.apex == 5
    assert s.sphere == Complex(
        [(1, 4), (1, 7), (2, 4), (2, 9), (3, 7), (3, 9)]
    )
    assert s.equivalence.vertex_classes == (frozenset({4, 7, 9}),)
    assert len(s.equivalence.generator_pairs) == 3
    assert s.is_closed
    q = QuotientComplex.from_structure(s)
    assert q.cell_counts() == {0: 4, 1: 3}
    assert q.euler_characteristic() == 1


def test_build_on_four_simplex_boundary():
    result = build_structure(standard_sphere(3))
    assert len(result.steps) == 4
    s = result.structure
    assert s.is_closed
    assert s.validate() == []
    assert s.sphere.dimension() == 2
    assert s.sphere.is_closed()
    assert QuotientComplex.from_structure(s).euler_characteristic() == 1


def test_build_succeeds_on_fixture_zoo():
    for name, m in FIXTURES.items():
        result = build_structure(m)
        s = result.structure
        assert s.is_closed, name
        assert s.validate() == [], name
        assert s.sphere.dimension() == m.dimension() - 1, name
        assert verify_structure(result, m) == [], name


def test_verify_structure_names_each_fault():
    m = standard_sphere(3)
    s = build_structure(m).structure
    assert 1 in s.sphere.vertices()
    classes = [sorted(c) for c in s.equivalence.vertex_classes]
    partial = RegularEquivalence.build(classes, s.equivalence.generator_pairs[:-1])
    assert verify_structure(replace(s, apex=1), m) == ["apex 1 occurs in the sphere"]
    assert verify_structure(replace(s, equivalence=partial), m) == [
        "pairing does not cover every sphere generator"
    ]
    assert verify_structure(s, standard_sphere(4)) == ["sphere has the wrong dimension"]


def test_verify_structure_still_checks_the_euler_identity(monkeypatch):
    # verification counts chi(M) and checks chi(Q) = chi(M) + 1 on the
    # built quotient, so a false identity is named
    seen = []

    def false_identity(q, m):
        seen.append((q.euler_characteristic(), m.euler_characteristic()))
        return False

    monkeypatch.setattr(stellar.structure, "_euler_identity", false_identity)
    m = standard_sphere(3)
    assert verify_structure(build_structure(m), m) == ["cell count of the quotient fails the Euler identity"]
    assert seen == [(1, 0)]


def test_verify_diagnoses_a_refused_structure_once(monkeypatch):
    # the quotient's refusal carries the problems it was worded from, so
    # verification does not diagnose the structure a second time
    calls = []
    real = StellarStructure.validate
    monkeypatch.setattr(StellarStructure, "validate", lambda self: calls.append(self) or real(self))
    pairs = [((1, 2, 3), (2, 3, 4)), ((1, 2, 4), (1, 3, 4))]
    s = StellarStructure(1, standard_sphere(2), RegularEquivalence.build([], pairs))
    assert verify_structure(s, standard_sphere(3)) == [
        "apex 1 occurs in the sphere",
        "no vertex of (2, 3, 4) is equivalent to vertex 1 of (1, 2, 3)",
        "no vertex of (1, 3, 4) is equivalent to vertex 2 of (1, 2, 4)",
    ]
    assert calls == [s]


def test_steps_shrink_residual_one_generator_at_a_time():
    m = standard_sphere(3)
    result = build_structure(m)
    # every generator of m except the seed is absorbed in exactly one step
    assert len(result.steps) == len(m) - 1
    seen = {step.generator for step in result.steps}
    assert len(seen) == len(result.steps)


def test_build_rejects_bad_input():
    with pytest.raises(StructureError):
        build_structure(Complex())  # empty
    with pytest.raises(StructureError):
        build_structure(Complex([(1, 2, 3)]))  # not closed
    with pytest.raises(StructureError):
        build_structure(Complex([(1,), (2,)]))  # dimension zero
    with pytest.raises(StructureError):
        build_structure(standard_sphere(1) + circle(3, start=10))  # disconnected
    with pytest.raises(StructureError):
        build_structure(standard_sphere(2) + Complex([(20, 21)]))  # mixed dims


def test_build_respects_budget():
    from stellar import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        build_structure(standard_sphere(3), budget=1)


def replay(m, steps):
    """Rebuild the apex star from recorded steps with the public moves: put
    the absorbed generator onto the shared face (at the copy, on a split),
    subdivide that face at a fresh vertex, and weld it onto (apex, w)."""
    apex = LabelAllocator(m).fresh()
    n = subdivide(m, min(m.generators), apex)
    root = {}
    for step in steps:
        p, f = step.generator, step.shared_face
        (w,) = set(p) - {root.get(u, u) for u in f}
        if step.split is not None:
            assert step.split[1] == w
            w = step.split[0]
            root[w] = step.split[1]
        before = len(n.residual((apex,)))
        n = n + Complex([p, tuple(sorted(f + (w,)))])  # p and its copy cancel
        b = LabelAllocator(n).fresh()
        n = weld(subdivide(n, f, b), tuple(sorted((apex, w))), b)
        assert len(n.residual((apex,))) == before - 1
    assert not n.residual((apex,))
    return apex, n.link((apex,))


def test_flips_equal_subdivide_then_weld(random_subdivision):
    rng = random.Random(4)
    bases = [standard_sphere(3), torus_join(3, 4), standard_sphere(2)]
    inputs = bases + [random_subdivision(rng, bases[i % 3], rng.randint(1, 8)) for i in range(12)]
    for m in inputs:
        result = build_structure(m)
        assert replay(m, result.steps) == (result.structure.apex, result.structure.sphere)


def test_build_rejects_non_pseudomanifolds():
    # closed and connected, but a codimension-one face lies in four generators
    cases = [
        Complex([(5, 6, 7, 8)]).boundary() + Complex([(1, 2, 7, 8)]).boundary(),
        Complex([(11, 12, 13, 14, 15)]).boundary() + Complex([(1, 2, 13, 14, 15)]).boundary(),
        standard_sphere(3) + Complex([(3, 4, 5, 6, 7)]).boundary(),
    ]
    for m in cases:
        assert m.is_closed() and m.is_connected()
        with pytest.raises(StructureError, match="not a pseudomanifold"):
            build_structure(m)


def test_build_matches_its_golden_digest(random_subdivision, cycle_join, non_sphere_controls):
    # apex, sphere, vertex classes, generator pairs and steps of every build
    # on a seeded corpus, pinned by their digest
    rng = random.Random(19)
    corpus = [random_subdivision(rng, standard_sphere(n), 3 * n) for n in range(1, 5)]
    corpus += [cycle_join(n, n) for n in range(3, 7)] + non_sphere_controls
    records = []
    for m in corpus:
        result = build_structure(m)
        s = result.structure
        records.append((
            s.apex,
            sorted(s.sphere.generators),
            [sorted(c) for c in s.equivalence.vertex_classes],
            list(s.equivalence.generator_pairs),
            [(step.generator, step.shared_face, step.split) for step in result.steps],
        ))
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "7cfc5544d4f683b67ea3046cf08f389bdbe1a9464e568f1782c85e271d6526da"


def test_lens_shells_match_their_golden_digest():
    # the JSON of every lens shell L(q, p) with q <= 13 and of the folds of
    # the 3- to 8-gon bipyramids, pinned by their digest
    shells = [lens_structure(q, p) for q in range(2, 14) for p in range(1, q) if gcd(q, p) == 1]
    shells += [fold_structure(q) for q in range(3, 9)]
    records = json.dumps([structure_to_json(s) for s in shells])
    digest = hashlib.sha256(records.encode()).hexdigest()
    assert digest == "8014f45b60d0f962b2945988fff6a3a229972bb12cef73277eca8da7a14defc3"


def test_the_quotient_of_a_build_is_the_spine_of_the_manifold(
    random_subdivision, cycle_join, non_sphere_controls
):
    # each vertex class holds one label of M, and under that map the cells of
    # Q are the faces of M of dimension <= n - 2 and the (n - 1)-faces that
    # no step crossed, each once (README "Certificates"); subdivided spheres
    # of dimensions 2 to 4, and the staircase controls S2 x S1, T3 and RP2 x S1
    rng = random.Random(31)
    bases = [standard_sphere(2), standard_sphere(3), standard_sphere(4), cycle_join(4, 4), cycle_join(3, 5)]
    corpus = [random_subdivision(rng, base, moves) for base in bases for moves in (0, 6, 12)]
    for m in corpus + non_sphere_controls:
        result = build_structure(m)
        s, n = result.structure, m.dimension()
        cls = s.equivalence.class_of(s.sphere)
        original = {}  # class -> its one label of M
        for v in s.sphere.vertices():
            if v <= m.max_label():
                assert original.setdefault(cls[v], v) == v
        assert set(original) == set(cls.values())

        def image(face):
            return tuple(sorted(original[cls[v]] for v in face))

        cells = [{image(f) for f in faces} for faces in QuotientComplex.from_structure(s).members.values()]
        assert all(len(c) == 1 for c in cells)
        crossed = {image(step.shared_face) for step in result.steps}
        assert len(crossed) == len(result.steps) == len(m) - 1
        uncrossed = m.faces_of_dim(n - 1) - crossed
        spine = set().union(*map(m.faces_of_dim, range(n - 1))) | uncrossed
        faces = [face for c in cells for face in c]
        assert len(set(faces)) == len(faces) and set(faces) == spine
        # every face of dimension <= n - 2 lies on an uncrossed facet, so the
        # spine is the simplicial complex of the uncrossed facets
        assert Complex(uncrossed).closure() == spine
        # the spine read off M's facet pairing has those cells, each its own
        # face, and numbers each vertex as the built classes do
        top = sorted(m.generators)
        below = _facet_list(top, n)
        partner = _partners(below)
        steps = list(_crossings(m, top, partner, len(m)))
        assert [(top[i], top[i][:n - k] + top[i][n - k + 1:]) for i, k, _ in steps] == [
            (step.generator, image(step.shared_face)) for step in result.steps
        ]
        read = QuotientComplex._spine(top, below, partner, steps)
        assert [f for c in read.cells.values() for f in c] == sorted(spine, key=lambda f: (len(f), f))
        assert all(read.members[c] == [c] for c in spine)
        assert read.vertex_class == {v: cls[v] for v in original.values()}


@pytest.mark.parametrize(
    "m, message",
    [
        (Complex([(1, 2, 3), (1, 3, 4)]), "face (1, 2) lies in 1 generators"),
        (
            Complex([(5, 6, 7, 8)]).boundary() + Complex([(1, 2, 7, 8)]).boundary(),
            "face (7, 8) lies in 4 generators",
        ),
    ],
)
def test_build_names_the_least_face_off_two_generators(m, message):
    assert m.is_connected()
    with pytest.raises(StructureError, match=re.escape(f"{message}; the input is not a pseudomanifold")):
        build_structure(m)


def test_build_stops_where_no_facet_leads_on():
    # two tetrahedron boundaries wedged at the vertex 4: every edge lies in
    # two triangles, but no facet leads from one sphere to the other
    wedge = standard_sphere(2) + Complex([(4, 5, 6, 7)]).boundary()
    with pytest.raises(StructureError, match="no residual generator touches the apex sphere along a facet"):
        build_structure(wedge)


def test_build_refuses_a_disconnected_input_first():
    # the build never absorbs a second component, so each refusal it ends
    # on names the disconnection instead
    two = standard_sphere(2) + Complex([(11, 12, 13, 14)]).boundary()
    with pytest.raises(StructureError, match="input must be connected"):
        build_structure(two)
    with pytest.raises(StructureError, match="input must be connected"):
        build_structure(two, budget=1)
    three = two + Complex([(1, 2, 5)])  # the edge (1, 2) lies in three triangles
    with pytest.raises(StructureError, match="input must be connected"):
        build_structure(three)
