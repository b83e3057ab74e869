import collections
import itertools
import math
import random
import sys

import pytest

from stellar import (
    BudgetExceeded,
    Complex,
    QuotientComplex,
    Recognition,
    RegularEquivalence,
    StellarStructure,
    StructureError,
    build_structure,
    check_manifold,
    classify_flat_quotient,
    cone,
    fold_structure,
    h1,
    h1_mod2_concordant,
    lens_structure,
    prism,
    recognize,
    sphere_workflow,
    standard_simplex,
    standard_sphere,
    structure_report,
)
import stellar.complexes
import stellar.group
import stellar.homology
import stellar.invariants
import stellar.manifold
import stellar.moves
import stellar.quotient
import stellar.structure
from stellar.homology import AbelianGroup
from stellar.group import _classes
from stellar.invariants import _report, prism_cell_counts, quotient_collapses_to_point
from test_moves import RP2_6, SURFACE_ZOO, TORUS7, greedy_left


def test_h1_accepts_complexes_quotients_and_structures():
    circle = standard_sphere(1)
    assert h1(circle) == AbelianGroup(1)
    assert h1(QuotientComplex.from_complex(circle)) == AbelianGroup(1)
    assert h1(lens_structure(3, 1)) == AbelianGroup(0, (3,))
    assert h1(cone(9).join(standard_sphere(1))).is_trivial()


def test_h1_mod2_concordance_on_fixtures():
    for x in (
        standard_sphere(1),
        standard_sphere(2),
        lens_structure(2, 1),
        lens_structure(5, 1),
        fold_structure(4),
    ):
        assert h1_mod2_concordant(x)


def test_classify_disk_sphere_projective_plane():
    fold = classify_flat_quotient(QuotientComplex.from_structure(fold_structure(4)))
    assert (fold.kind, fold.chi, fold.orientable, fold.boundary_circles) == (
        "Disk",
        1,
        True,
        1,
    )
    plane = classify_flat_quotient(
        QuotientComplex.from_structure(lens_structure(2, 1))
    )
    assert (plane.kind, plane.chi, plane.orientable) == ("ProjectivePlane", 1, False)
    sphere = classify_flat_quotient(QuotientComplex.from_complex(standard_sphere(2)))
    assert (sphere.kind, sphere.chi) == ("Sphere", 2)


def test_classify_annulus_as_other():
    annulus = prism(standard_sphere(1))
    out = classify_flat_quotient(QuotientComplex.from_complex(annulus))
    assert (out.kind, out.chi, out.orientable, out.boundary_circles) == (
        "Other",
        0,
        True,
        2,
    )


def shifted(k, n):
    return Complex([tuple(v + n for v in g) for g in k.generators])


# (kind, chi, orientable, boundary circles, detail), known by construction
ZOO_SURFACES = {
    "tetrahedron_boundary": ("Sphere", 2, True, 0, ""),
    "octahedron": ("Sphere", 2, True, 0, ""),
    "torus": ("Other", 0, True, 0, ""),
    "projective_plane": ("ProjectivePlane", 1, False, 0, ""),
    "triangle": ("Disk", 1, True, 1, ""),
    "disk": ("Disk", 1, True, 1, ""),
    "annulus": ("Other", 0, True, 2, ""),
    "bow_tie": ("Other", 1, None, None, "vertex cell (1,) has a disconnected link"),
    "book": ("Other", 1, None, None, "edge cell (1, 2) lies in 3 two-cells"),
    "two_spheres": ("Other", 4, True, 0, "2 components"),
    "double_octahedron": ("Other", 2, None, None, "vertex cell (1,) has a disconnected link"),
    "sphere_and_torus": ("Other", 2, True, 0, "2 components"),
    "disk_and_torus": ("Other", 1, True, 1, "2 components"),
}
MORE_SURFACES = [
    # the 5-vertex Moebius band: its rim is the pentagon of edges (i, i + 2)
    (Complex([tuple(sorted((i + a) % 5 + 1 for a in range(3))) for i in range(5)]),
     ("Other", 0, False, 1, "")),
    # a surface is named only when it is connected
    (RP2_6 + shifted(TORUS7, 10), ("Other", 1, False, 0, "2 components")),
    (Complex([(1, 2, 3), (1, 3, 4), (2, 4)]),
     ("Other", 0, None, None, "edge cell (2, 4) lies in no two-cell")),
    (Complex([(1, 2, 3), (4,)]), ("Other", 2, None, None, "isolated vertex cell (4,)")),
    (standard_sphere(1), ("Other", 0, None, None, "isolated vertex cell (1,)")),
    (standard_simplex(3), ("Other", 1, None, None, "has cells above dimension two")),
]


def surface_fields(q):
    s = classify_flat_quotient(q)
    return (s.kind, s.chi, s.orientable, s.boundary_circles, s.detail)


def test_quotient_surfaces_known_by_construction():
    assert ZOO_SURFACES.keys() == SURFACE_ZOO.keys()
    for name, (k, _) in SURFACE_ZOO.items():
        assert surface_fields(QuotientComplex.from_complex(k)) == ZOO_SURFACES[name], name
    for k, expected in MORE_SURFACES:
        assert surface_fields(QuotientComplex.from_complex(k)) == expected, expected
    plane = QuotientComplex.from_structure(lens_structure(2, 1))
    assert surface_fields(plane) == ("ProjectivePlane", 1, False, 0, "")
    for q in range(3, 41):
        fold = QuotientComplex.from_structure(fold_structure(q))
        assert surface_fields(fold) == ("Disk", 1, True, 1, ""), q


def test_flat_surface_test_is_linear():
    # one cell lookup per side of each triangle cell: 192 here, for 257 cells;
    # a quadratic test (every vertex cell per edge cell) makes 17 280
    q = QuotientComplex.from_structure(fold_structure(64))
    calls = []
    real = q.cell_of
    q.cell_of = lambda face: calls.append(face) or real(face)
    assert classify_flat_quotient(q).kind == "Disk"
    assert len(calls) <= 3 * sum(q.cell_counts().values())


def test_quotient_collapse():
    tri = QuotientComplex.from_complex(standard_simplex(2))
    assert quotient_collapses_to_point(tri)
    circle = QuotientComplex.from_complex(standard_sphere(1))
    assert not quotient_collapses_to_point(circle)
    fold = QuotientComplex.from_structure(fold_structure(4))
    assert quotient_collapses_to_point(fold)


def greedy_left_on(q):
    """The ranks of the cells that the greedy, `_collapse_ranks` with its
    floor at 0, leaves of the quotient's cells, with their facets listed
    once each, and the rank of the first edge cell."""
    chains = q.chains
    starts = list(itertools.accumulate(map(len, chains), initial=0))
    facets = [tuple({starts[d - 1] + f for f, _ in cell}) for d, level in enumerate(chains) for cell in level]
    return greedy_left(facets), starts[1]


def greedy_reaches_a_point(q):
    left, edges = greedy_left_on(q)
    return len(left) == 1 and left[0] < edges


def lens_zoo(top=13):
    return [lens_structure(q, p) for q in range(2, top + 1) for p in range(1, q) if math.gcd(p, q) == 1]


def test_quotient_collapse_is_the_greedy(random_subdivision):
    # the lens zoo, the folds, built structures of subdivided 3-spheres and
    # of the boundary of the 5-simplex, whose quotient has 3-cells
    structures = lens_zoo() + [fold_structure(n) for n in range(3, 9)]
    rng = random.Random(13)
    spheres = [random_subdivision(rng, standard_sphere(3), moves) for moves in (0, 4, 8, 12)]
    structures += [build_structure(m).structure for m in spheres + [standard_sphere(4)]]
    quotients = [QuotientComplex.from_structure(s) for s in structures]
    assert quotients[-1].cell_counts()[3] == 10
    # seeded 2-complexes of triangles and edges on at most six vertices
    faces = [*itertools.combinations(range(1, 7), 3), *itertools.combinations(range(1, 7), 2)]
    for _ in range(300):
        k = Complex(rng.sample(faces, rng.randint(1, 8)))
        quotients.append(QuotientComplex.from_complex(k))
    # a point, a path, a circle, and a triangle beside a circle: chi = 1,
    # and only the connectivity test refuses it
    beside = Complex([(1, 2, 3), (4, 5), (5, 6), (4, 6)])
    for k in (Complex([(1,)]), Complex([(1, 2), (2, 3)]), standard_sphere(1), beside):
        quotients.append(QuotientComplex.from_complex(k))
    assert beside.euler_characteristic() == 1 and not quotient_collapses_to_point(quotients[-1])
    verdicts = [quotient_collapses_to_point(q) for q in quotients]
    assert verdicts == [greedy_reaches_a_point(q) for q in quotients]
    random_ones = verdicts[-304:-4]
    assert 0 < sum(random_ones) < len(random_ones)
    assert verdicts[-4:] == [True, True, False, False]


def test_reports_read_as_with_h1_first(random_subdivision, cycle_join, non_sphere_controls):
    # a report collapses a quotient with a fold before its H1, and one with
    # none after: the free cells of Q are its folds, so every report reads
    # as if H1 ran first, with no collapse where H1 refutes
    structures = lens_zoo() + [fold_structure(n) for n in range(3, 9)]
    rng = random.Random(17)
    manifolds = [random_subdivision(rng, standard_sphere(3), moves) for moves in (0, 5, 10)]
    manifolds += [cycle_join(4, 5), *non_sphere_controls]
    structures += [build_structure(m).structure for m in manifolds]
    branches = set()
    for s in structures:
        q = QuotientComplex.from_structure(s)
        sizes = [len(m) for _, m in _classes(q)]  # in the order of the edge cells
        chains = q.chains
        around = collections.Counter(e for cell in chains[2] for e, _ in cell)
        assert [around[e] for e in range(len(chains[1]))] == sizes  # m members, m 2-cells
        fold = 1 in sizes
        left, _ = greedy_left_on(q)
        if not fold:
            assert len(left) == sum(map(len, chains))  # no free cell: nothing goes
        group = q.h1()
        report = structure_report(s)
        assert report.h1 == group
        assert report.collapsed_to_point == (greedy_reaches_a_point(q) if group.is_trivial() else None)
        branches.add((fold, report.conclusion.split(":")[0]))
    assert branches == {(False, "not a sphere"), (True, "not a sphere"), (True, "sphere")}


def test_reports_run_only_the_certificate_they_need(monkeypatch, cycle_join):
    # a lens shell has no fold, so its H1 refutes before any collapse; the
    # quotient of C4*C5 has one, and collapses, so its H1 is never computed
    collapses, groups = [], []
    real_collapse = stellar.invariants.quotient_collapses_to_point
    real_h1 = stellar.homology.homology_from_boundaries
    monkeypatch.setattr(stellar.invariants, "quotient_collapses_to_point",
                        lambda q: collapses.append(q) or real_collapse(q))
    for module in (stellar.homology, stellar.quotient):
        monkeypatch.setattr(module, "homology_from_boundaries",
                            lambda chains: groups.append(chains) or real_h1(chains))
    report = structure_report(lens_structure(17, 3))
    assert report.conclusion == "not a sphere: H1 = Z/17"
    assert (len(collapses), len(groups)) == (0, 1)
    groups.clear()
    report = sphere_workflow(cycle_join(4, 5))
    assert (report.conclusion, report.h1, report.collapsed_to_point) == ("sphere", AbelianGroup(0), True)
    assert (len(collapses), len(groups)) == (1, 0)


def test_a_sphere_report_on_the_spine_reads_its_face_table_alone(monkeypatch, cycle_join):
    # the workflow's collapse reads the spine's own face table: it builds no
    # chains and no face table of M's tetrahedra; a lens shell's report still
    # reads its chains, for H1
    reads, tops = [], []
    real_chains = QuotientComplex.chains
    monkeypatch.setattr(QuotientComplex, "chains", property(lambda q: reads.append(q) or real_chains.func(q)))
    real_table = stellar.complexes._face_table

    def spied(top, below, lower=()):
        tops.append(len(top[0]) - 1 if top else -1)
        return real_table(top, below, lower)

    for module in (stellar.complexes, stellar.quotient, stellar.moves):
        monkeypatch.setattr(module, "_face_table", spied)
    for a, b in ((3, 3), (4, 5), (6, 9), (12, 12)):
        assert sphere_workflow(cycle_join(a, b)).conclusion == "sphere"
    assert reads == [] and set(tops) == {2}
    assert structure_report(lens_structure(17, 3)).conclusion == "not a sphere: H1 = Z/17"
    assert reads


def test_prism_cell_counts_double_and_shift():
    fold = QuotientComplex.from_structure(fold_structure(4))
    assert fold.cell_counts() == {0: 5, 1: 8, 2: 4}
    assert prism_cell_counts(fold) == {0: 10, 1: 21, 2: 16, 3: 4}


def test_fold_report_concludes_sphere():
    report = structure_report(fold_structure(4))
    assert report.flat
    assert report.degree == (2,)
    assert report.surface.kind == "Disk"
    assert report.collapsed_to_point
    assert report.prism_cells == {0: 10, 1: 21, 2: 16, 3: 4}
    assert report.conclusion == "sphere"


def test_projective_plane_report_is_negative():
    report = structure_report(lens_structure(2, 1))
    assert report.flat
    assert report.conclusion == "not a sphere: H1 = Z/2"


def test_lens_report_refuses_sphere():
    report = structure_report(lens_structure(5, 1))
    assert not report.flat
    assert report.gamma_has_circuit
    assert report.conclusion == "not a sphere: H1 = Z/5"


def test_the_poincare_report_is_undecided(poincare_structure):
    # the third verdict: H1 is trivial and the quotient does not collapse,
    # so neither certificate applies; only pi_1 tells this space from S^3
    s = poincare_structure
    assert s.validate() == [] and s.is_closed
    assert sorted(len(c) for c in s.equivalence.vertex_classes) == [2] * 6 + [4] * 5
    q = QuotientComplex.from_structure(s)
    assert q.cell_counts() == {0: 11, 1: 40, 2: 30}
    assert q.euler_characteristic() == 1
    report = structure_report(s)
    assert report.degree == (3, 2)
    assert report.h1.is_trivial()
    assert report.collapsed_to_point is False
    assert report.gamma.vertices == (0, 1, 2, 3, 4)
    assert report.gamma.edges == tuple((a, b, 6) for a, b in itertools.combinations(range(5), 2))
    assert report.gamma_has_circuit
    assert report.conclusion == "undecided: H1 = 0 and the quotient does not collapse"


def test_report_refuses_a_sphere_that_is_not_a_surface():
    # the surface class, degree and Γ describe a 2-sphere only, so a report
    # on any other sphere is refused before a stage reads it, whether the
    # structure is flat (the square folded along its diagonal 2-4) or not
    # (the structure that build_structure gives the tetrahedron's boundary)
    square = StellarStructure(
        9,
        Complex([(1, 2), (2, 3), (3, 4), (1, 4)]),
        RegularEquivalence.build([[2, 4]], [((1, 2), (1, 4)), ((2, 3), (3, 4))]),
    )
    assert square.validate() == [] and square.is_closed
    circle = build_structure(standard_sphere(2)).structure
    assert circle.sphere.dimension() == 1 and circle.is_closed
    for structure in (square, circle):
        with pytest.raises(StructureError, match="^structure needs a uniform 2-complex as its sphere$"):
            structure_report(structure)


def test_subdivided_spheres_are_never_refused(random_subdivision):
    # stellar moves keep the PL type, so every input is a 3-sphere.  A circuit
    # in the graph of high-order edges speaks only against the structure that
    # was built; the quotient's collapse certifies the sphere regardless.
    rng = random.Random(0)
    c3 = Complex([(1, 2), (2, 3), (1, 3)])
    c4 = Complex([(4, 5), (5, 6), (6, 7), (4, 7)])
    bases = [standard_sphere(3), c3.join(c4)]
    for i in range(12):
        m = random_subdivision(rng, bases[i % 2], rng.randint(1, 8))
        report = sphere_workflow(m)
        assert report.h1.is_trivial()
        assert report.collapsed_to_point, i
        assert report.conclusion == "sphere", (i, report.conclusion)
    for q, p in ((3, 1), (5, 2), (7, 3)):
        report = structure_report(lens_structure(q, p))
        assert report.gamma_has_circuit
        assert report.conclusion == f"not a sphere: H1 = Z/{q}", (q, p)


def test_subdivided_spheres_are_certified_on_every_base(random_subdivision, cycle_join):
    # the subdiv_mix bases, each subdivided 0..12 times on two seeds
    bases = [standard_sphere(3), cycle_join(3, 4), cycle_join(5, 5)]
    for seed in (0, 1):
        rng = random.Random(seed)
        for b, base in enumerate(bases):
            for moves in range(13):
                m = random_subdivision(rng, base, moves)
                report = sphere_workflow(m)
                assert report.conclusion == "sphere", (seed, b, moves, report.conclusion)


def test_lens_zoo_is_never_a_sphere():
    # H1 = Z/q refutes every lens shell before its quotient is collapsed
    for q in range(2, 14):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                report = structure_report(lens_structure(q, p))
                assert report.conclusion == f"not a sphere: H1 = Z/{q}", (q, p)
                assert report.collapsed_to_point is None, (q, p)


def test_sphere_workflow_on_four_simplex_boundary():
    report = sphere_workflow(standard_sphere(3))
    assert report.conclusion == "sphere"
    assert not report.flat
    assert report.degree == (3, 2)
    assert report.gamma_has_circuit is False
    assert report.collapsed_to_point
    assert report.h1.is_trivial()
    assert any("absorption steps" in line for line in report.evidence)


def test_sphere_workflow_rejects_non_closed_input():
    with pytest.raises(StructureError):
        sphere_workflow(standard_simplex(3))  # a ball, not closed
    with pytest.raises(StructureError):
        sphere_workflow(standard_sphere(2))  # wrong dimension


def test_one_workflow_builds_no_structure(monkeypatch, cycle_join):
    # the workflow reads its quotient off M as the spine: it builds no
    # structure and no quotient of one, under any module's name
    calls = []
    real_build, real_from, real_init = (
        build_structure, QuotientComplex.from_structure, QuotientComplex.__init__
    )
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stellar" and getattr(module, "build_structure", None) is real_build:
            monkeypatch.setattr(module, "build_structure",
                                lambda *a, **k: calls.append("build") or real_build(*a, **k))
    monkeypatch.setattr(QuotientComplex, "from_structure",
                        staticmethod(lambda s: calls.append("from_structure") or real_from(s)))
    monkeypatch.setattr(QuotientComplex, "__init__",
                        lambda self, *a: calls.append("init") or real_init(self, *a))
    for m in (standard_sphere(3), cycle_join(4, 5)):
        assert sphere_workflow(m).conclusion == "sphere"
    assert calls == []
    # the spies see the construction where it runs
    structure_report(stellar.structure.build_structure(standard_sphere(3)).structure)
    assert calls == ["build", "from_structure", "init"]


def test_the_workflow_reports_on_the_spine_as_on_the_built_structure(
    random_subdivision, cycle_join, non_sphere_controls
):
    # the paper's construction against the shortcut: the report on the spine
    # of M is the report on the quotient of the structure built over M, with
    # the build's step count, field for field
    corpus = [cycle_join(a, b) for a in range(3, 7) for b in range(3, 7)]
    rng = random.Random(41)
    for base in (standard_sphere(3), cycle_join(3, 4), cycle_join(5, 5)):
        corpus += [random_subdivision(rng, base, moves) for moves in range(13)]
    corpus += non_sphere_controls
    conclusions = collections.Counter()
    for m in corpus:
        result = build_structure(m)
        built = _report(QuotientComplex.from_structure(result.structure))
        built.evidence.insert(0, f"structure built in {len(result.steps)} absorption steps")
        report = sphere_workflow(m)
        assert repr(report) == repr(built), sorted(m.generators)
        conclusions[report.conclusion] += 1
    assert conclusions == {"sphere": 55, "not a sphere: H1 = Z": 1,
                           "not a sphere: H1 = Z + Z + Z": 1, "not a sphere: H1 = Z + Z/2": 1}


def test_one_workflow_searches_no_connectivity(monkeypatch, cycle_join):
    # the build searches connectivity only where it refuses, so an accepted
    # input runs no search at all
    calls = []
    real = stellar.complexes.connected
    monkeypatch.setattr(stellar.complexes, "connected", lambda gens: calls.append(1) or real(gens))
    for m in (standard_sphere(3), cycle_join(4, 5)):
        calls.clear()
        assert sphere_workflow(m).conclusion == "sphere"
        assert calls == []


def test_sphere_workflow_keeps_the_build_budget():
    with pytest.raises(BudgetExceeded, match="^structure build exceeded 1 steps$"):
        sphere_workflow(standard_sphere(3), budget=1)
    assert sphere_workflow(standard_sphere(3), budget=4).conclusion == "sphere"


def test_sphere_workflow_refuses_disjoint_spheres():
    # every vertex link is a 2-sphere, so the build is what refuses
    m = standard_sphere(3) + Complex([(6, 7, 8, 9, 10)]).boundary()
    with pytest.raises(StructureError, match="^input must be connected$"):
        sphere_workflow(m)


def test_sphere_workflow_names_bad_links_before_the_walk_refuses():
    # the 7-vertex torus suspended from 8 and 9 passes the pairing with two
    # bad links; a budget of one step, and a second copy that leaves the
    # input disconnected, both stop the walk, yet the bad links are named
    suspended = TORUS7.join(Complex([(8,), (9,)]))
    with pytest.raises(StructureError, match=r"^not a manifold: bad links at vertices \[8, 9\]$"):
        sphere_workflow(suspended, budget=1)
    two = suspended + Complex([tuple(v + 100 for v in g) for g in suspended.generators])
    with pytest.raises(StructureError, match=r"^not a manifold: bad links at vertices \[8, 9, 108, 109\]$"):
        sphere_workflow(two)


# the boundary of the 4-simplex after four seeded subdivisions, with the
# vertex 9 glued to the vertex 1; the two shared only the neighbour 2
PINCHED = Complex([
    (1, 2, 3, 6), (1, 2, 3, 7), (1, 2, 4, 5), (1, 2, 4, 8), (1, 2, 5, 8), (1, 2, 6, 7),
    (1, 3, 6, 7), (1, 4, 5, 8), (2, 3, 4, 5), (2, 3, 4, 7), (2, 3, 5, 6), (2, 4, 6, 7),
    (2, 4, 6, 8), (2, 5, 6, 8), (3, 4, 5, 6), (3, 4, 6, 7), (4, 5, 6, 8),
])


def test_the_link_pass_is_what_stops_a_false_sphere(monkeypatch):
    # every triangle of P lies in two tetrahedra, chi = 0 and the peel of its
    # spine leaves no triangle, yet the link at 1 is two tetrahedron
    # boundaries pinched at 2: only the closed-3 rule's link pass refuses P
    m = PINCHED
    assert m.is_closed() and m.euler_characteristic() == 0
    assert recognize(m) is Recognition.NEITHER
    assert check_manifold(m).bad_vertices == [1, 2]
    for budget in (100_000, 1):
        with pytest.raises(StructureError, match=r"^not a manifold: bad links at vertices \[1, 2\]$"):
            sphere_workflow(m, budget=budget)
    monkeypatch.setattr(stellar.moves, "_closed_3_links", lambda partner, n0: True)
    assert recognize(m) is Recognition.SPHERE
    assert sphere_workflow(m).conclusion == "sphere"


def test_a_refused_workflow_pairs_and_rules_once(monkeypatch):
    # the closed-3 rule refuses the suspended 7-vertex torus and P after a
    # walk that spans, and does not run at a budget of one step, where the
    # walk refuses; the links name the bad vertices either way, without a
    # second pairing of M's triangles
    pairings, rules = [], []
    partners, rule = stellar.complexes._partners, stellar.moves._closed_3_manifold

    def partners_spy(facets):
        pairings.extend(facets[:1])
        return partners(facets)

    def rule_spy(*args):
        rules.append(args[2:])
        return rule(*args)

    for module in (stellar.moves, stellar.manifold, stellar.invariants, stellar.structure, stellar.quotient):
        for name, spy, real in (("_partners", partners_spy, partners), ("_closed_3_manifold", rule_spy, rule)):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    for m, bad in ((TORUS7.join(Complex([(8,), (9,)])), [8, 9]), (PINCHED, [1, 2])):
        for budget in (100_000, 1):
            pairings.clear()
            rules.clear()
            with pytest.raises(StructureError) as refusal:
                sphere_workflow(m, budget=budget)
            assert str(refusal.value) == f"not a manifold: bad links at vertices {bad}"
            assert [f for f in pairings if len(f) == 3] == [min(m.generators)[:3]]
            assert rules == [(len(m.vertices()), len(m.faces_of_dim(1)))] * (budget > 1)


def test_a_workflow_refusal_of_an_open_pairing_pairs_once(monkeypatch):
    # a facet pairing that is not closed: the refusal is worded from the
    # workflow's sorted tetrahedra by `check_manifold`'s report, with no
    # second pairing of M's triangles
    pairings = []
    partners = stellar.complexes._partners

    def partners_spy(facets):
        pairings.extend(facets[:1])
        return partners(facets)

    for module in (stellar.moves, stellar.manifold, stellar.invariants, stellar.structure, stellar.quotient):
        if getattr(module, "_partners", None) is partners:
            monkeypatch.setattr(module, "_partners", partners_spy)
    s4 = standard_sphere(3)
    glued = s4 + Complex([tuple(sorted({4: 6, 5: 7}.get(v, v) for v in g)) for g in s4.generators])
    book = Complex([(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6)])
    for m, text in (
        (glued, "not a manifold: bad links at vertices [1, 2, 3]"),  # (1, 2, 3) in four tetrahedra
        (standard_simplex(3), "sphere workflow expects a closed complex"),
        (book, "sphere workflow expects a closed complex"),
    ):
        report = check_manifold(m)  # one wording: the refusal is its report's
        assert text == (report.describe() if report.closed else "sphere workflow expects a closed complex")
        for budget in (100_000, 1):
            pairings.clear()
            with pytest.raises(StructureError) as refusal:
                sphere_workflow(m, budget=budget)
            assert str(refusal.value) == text
            assert [f for f in pairings if len(f) == 3] == [min(m.generators)[:3]]


def test_a_workflow_rules_pairs_and_collapses_at_most_once(
    monkeypatch, cycle_join, non_sphere_controls, ledger_zoo
):
    # over the refusal zoo at one step and at the default budget, and over
    # the ledger's closed 3-complexes: M's triangles are paired once, no set
    # of M's edges is built, the closed-3 rule runs at most once and only
    # after a walk that spans, and a report collapses its quotient at most once
    from test_ledger import refusal_zoo

    events = []
    partners, facet_list = stellar.complexes._partners, stellar.complexes._facet_list
    rule, crossings = stellar.moves._closed_3_manifold, stellar.structure._crossings
    collapses = stellar.invariants.quotient_collapses_to_point

    def partners_spy(facets):
        if facets and len(facets[0]) == 3:
            events.append("pairing")
        return partners(facets)

    def facet_list_spy(gens, d):
        events.append(f"facets {d}")
        return facet_list(gens, d)

    def crossings_spy(m, top, partner, budget):
        yield from crossings(m, top, partner, budget)
        events.append("spanned")

    def rule_spy(*args):
        events.append("rule")
        return rule(*args)

    def collapses_spy(q):
        events.append("collapse")
        return collapses(q)

    for module in (stellar.moves, stellar.manifold, stellar.invariants, stellar.structure, stellar.quotient):
        if getattr(module, "_partners", None) is partners:
            monkeypatch.setattr(module, "_partners", partners_spy)
    monkeypatch.setattr(stellar.invariants, "_facet_list", facet_list_spy)
    monkeypatch.setattr(stellar.invariants, "_crossings", crossings_spy)
    monkeypatch.setattr(stellar.invariants, "_closed_3_manifold", rule_spy)
    monkeypatch.setattr(stellar.invariants, "quotient_collapses_to_point", collapses_spy)
    calls = [(k, b) for k in refusal_zoo(cycle_join, non_sphere_controls) for b in (1, 100_000)]
    calls += [(k, 100_000) for k in ledger_zoo[0]]
    outcomes = set()
    for m, budget in calls:
        events.clear()
        try:
            sphere_workflow(m, budget=budget)
        except (StructureError, BudgetExceeded):
            pass
        outcomes.add(tuple(events))
    # every path: refusals before the rule and by it, and reports with and
    # without a collapse
    paired = ("facets 3", "pairing")
    assert outcomes == {paired, paired + ("spanned", "rule"), paired + ("spanned", "rule", "collapse")}


def count_pair_matchings(monkeypatch):
    """Record every pair matching derived, through any module's name."""
    calls = []
    real = stellar.quotient.pair_matching

    def counted(g, p, cls):
        calls.append((g, p))
        return real(g, p, cls)

    for module in (stellar.quotient, stellar.group):
        monkeypatch.setattr(module, "pair_matching", counted)
    return calls


def test_one_report_derives_no_pair_matching(monkeypatch):
    # validation checks each pair's class sets; the quotient reads the
    # matchings' positions off the class map, and the face classes off the
    # quotient
    s = lens_structure(17, 3)
    calls = count_pair_matchings(monkeypatch)
    assert structure_report(s).conclusion == "not a sphere: H1 = Z/17"
    assert calls == []


def test_one_workflow_derives_no_pair_matching(monkeypatch, cycle_join):
    m = cycle_join(4, 5)
    calls = count_pair_matchings(monkeypatch)
    assert sphere_workflow(m).conclusion == "sphere"
    assert calls == []


def test_workflow_counts_no_euler_characteristic_of_the_manifold(monkeypatch, cycle_join):
    counted = []
    chi = Complex.euler_characteristic

    def spy(k):
        counted.append(k)
        return chi(k)

    monkeypatch.setattr(Complex, "euler_characteristic", spy)
    m = cycle_join(4, 5)
    for k in (standard_sphere(3), m):
        assert sphere_workflow(k).conclusion == "sphere"
    assert counted == []
    # the public check still counts it
    assert stellar.structure.verify_structure(build_structure(m), m) == []
    assert counted == [m]


def test_only_check_manifold_lists_the_edges_of_every_tetrahedron(monkeypatch, cycle_join):
    # recognition and the workflow read a closed 3-complex's E off the
    # spine that their walk leaves; `check_manifold` builds no walk, and
    # counts the edges of all N tetrahedra instead
    listed, walks = [], []
    facet_list, dual_tree = stellar.complexes._facet_list, stellar.complexes._dual_tree

    def list_spy(cells, d):
        cells = list(cells)
        if d == 2 and cells and len(cells[0]) == 4:
            listed.append(len(cells))
        return facet_list(cells, d)

    def walk_spy(top, partner):
        walks.append(len(top))
        return dual_tree(top, partner)

    modules = (stellar.complexes, stellar.moves, stellar.manifold, stellar.invariants,
               stellar.quotient, stellar.structure)
    for module in modules:
        for name, spy in (("_facet_list", list_spy), ("_dual_tree", walk_spy)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    for m in (standard_sphere(3), cycle_join(4, 5)):
        assert recognize(m) is Recognition.SPHERE
        assert sphere_workflow(m).conclusion == "sphere"
        assert (listed, walks) == ([], [len(m), len(m)])
        walks.clear()
        assert check_manifold(m).is_manifold is True
        assert (listed, walks) == ([len(m)], [])
        listed.clear()


def test_sphere_workflow_at_nine_hundred_facets(cycle_join):
    # C30*C30: the dense loop alone takes tens of seconds on its quotient's
    # boundary matrix, so this also keeps the unit elimination in place
    m = cycle_join(30, 30)
    report = sphere_workflow(m)
    assert report.conclusion == "sphere"
    assert report.h1 == AbelianGroup(0)
    # the workflow takes H1 from the collapse, so compute it here
    assert QuotientComplex.from_structure(build_structure(m).structure).h1() == AbelianGroup(0)


def test_quotient_cells_have_distinct_facets(random_subdivision):
    # `quotient_collapses_to_point` counts coface cells, not incidences; that
    # is sound because a regular equivalence puts the vertices of each
    # generator in distinct classes, so no cell meets one face cell twice
    structures = [
        lens_structure(q, p)
        for q in range(2, 14)
        for p in range(1, q)
        if math.gcd(p, q) == 1
    ]
    structures += [fold_structure(n) for n in range(3, 8)]
    rng = random.Random(5)
    for m in (standard_sphere(3), random_subdivision(rng, standard_sphere(3), 6)):
        structures.append(build_structure(m).structure)
    for s in structures:
        q = QuotientComplex.from_structure(s)
        for c, members in q.members.items():
            d = len(c) - 1
            if d == 0:
                continue
            own = {q.cell_of(f)[0] for f in itertools.combinations(c, d)}
            for member in members:
                images = {q.cell_of(f)[0] for f in itertools.combinations(member, d)}
                assert len(images) == d + 1, (c, member)
                # so the collapse may read a cell's facets from its representative
                assert images == own, (c, member)
