import math
import random

import stellar.homology
from stellar import (
    Complex,
    QuotientComplex,
    Recognition,
    build_structure,
    collapse_greedy,
    lens_structure,
    recognize,
    relabel,
    sphere_workflow,
    standard_sphere,
)
from stellar.homology import (
    AbelianGroup,
    _dense_snf,
    complex_h1,
    smith_normal_form,
    z2_rank,
)
from test_moves import RP2_6, TORUS7


def integer_rank(rows):
    return len(smith_normal_form(rows))


def full_snf_h1(q):
    """H1 of the quotient `q` with no forest: the rank of the whole d1 and
    the SNF of the whole d2, the reference for `homology_from_boundaries`.
    n1 is the number of edge cells, which d2 does not give when there are
    no two-cells."""
    d1, d2 = (q.boundary_matrices() + [[], []])[:2]
    snf = smith_normal_form(d2)
    n1 = q.cell_counts().get(1, 0)
    return AbelianGroup(n1 - integer_rank(d1) - len(snf), tuple(d for d in snf if d > 1))


def sparse(rows):
    """Dense rows as the sparse rows the library takes: {column: value}."""
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def test_snf_known_matrices():
    assert smith_normal_form(sparse([[2, 0], [0, 3]])) == [1, 6]
    assert smith_normal_form(sparse([[0, 0], [0, 0]])) == []
    assert smith_normal_form(sparse([[1, 0], [0, 1]])) == [1, 1]
    # torsion Z/4 example
    assert smith_normal_form(sparse([[2, 2], [2, -2]])) == [2, 4]
    # no unit entry at all, and a unit beside a non-unit remainder
    assert smith_normal_form(sparse([[2, 4], [6, 8]])) == [2, 4]
    assert smith_normal_form(sparse([[2, 0, 0], [0, 2, 0]])) == [2, 2]
    assert smith_normal_form(sparse([[0, 3], [0, 0], [6, 0]])) == [3, 6]
    assert smith_normal_form(sparse([[1, 2], [0, 2]])) == [1, 2]


def test_snf_divisor_chain_random():
    rng = random.Random(5)
    for _ in range(30):
        rows = [
            [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 4))
        ]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        diag = smith_normal_form(sparse(rows))
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert integer_rank(sparse(rows)) == len(diag)
        assert z2_rank(sparse(rows)) == sum(1 for d in diag if d % 2)


def test_group_describe():
    assert AbelianGroup(0).describe() == "0"
    assert AbelianGroup(2, (3,)).describe() == "Z + Z + Z/3"
    assert AbelianGroup(1, (2, 4)).z2_betti() == 3


def test_h1_of_circle_and_spheres():
    circle = Complex([(1, 2), (2, 3), (1, 3)])
    assert complex_h1(circle) == AbelianGroup(1)
    assert complex_h1(standard_sphere(2)) == AbelianGroup(0)
    disk = Complex([(1, 2, 3)])
    assert complex_h1(disk) == AbelianGroup(0)


def test_h1_of_wedge_like_graph():
    # two circles sharing the vertex 1
    k = Complex([(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)])
    assert complex_h1(k) == AbelianGroup(2)


def test_mod2_concordance_random():
    rng = random.Random(11)
    for _ in range(30):
        gens = set()
        while len(gens) < 5:
            gens.add(tuple(sorted(rng.sample(range(1, 8), 3))))
        k = Complex(gens)
        q = QuotientComplex.from_complex(k)
        d1, d2 = q.boundary_matrices()
        group = complex_h1(k)
        assert group.z2_betti() == len(q.cells[1]) - z2_rank(d1) - z2_rank(d2) == q.z2_b1()


def random_matrices(rng, count):
    """Seeded integer matrices up to 8 x 8: empty ones, zero rows and
    columns, sparse and dense ones, and ones with no unit entry at all."""
    yield from ([], [[]], [[], []], [[0]], [[0, 0], [0, 0]])
    for n in range(count):
        nr, nc = rng.randint(0, 8), rng.randint(0, 8)
        values = (-4, -2, 2, 3, 4, 6) if n % 3 == 0 else (-3, -2, -1, 1, 1, 2, 5)
        density = rng.random()
        rows = [
            [rng.choice(values) if rng.random() < density else 0 for _ in range(nc)]
            for _ in range(nr)
        ]
        if rows and nc and n % 5 == 0:
            j = rng.randrange(nc)
            for r in rows:  # a zero column
                r[j] = 0
            rows[rng.randrange(nr)] = [0] * nc  # and a zero row
        yield rows


def test_sparse_snf_equals_the_dense_loop():
    # the unit elimination must leave the invariant factors alone: compare it
    # with the dense loop run on the whole matrix
    rng = random.Random(2003)
    count = 0
    for rows in random_matrices(rng, 1500):
        diag = smith_normal_form(sparse(rows))
        assert diag == _dense_snf(rows), rows
        assert all(b % a == 0 for a, b in zip(diag, diag[1:])), rows
        assert z2_rank(sparse(rows)) == sum(1 for d in diag if d % 2), rows
        count += 1
    assert count > 1000


def test_lens_quotients_have_cyclic_h1():
    # the twist after p = 1, so that the torsion block differs from q to q
    for q in range(2, 66):
        p = next((p for p in range(2, q) if math.gcd(p, q) == 1), 1)
        group = QuotientComplex.from_structure(lens_structure(q, p)).h1()
        assert group == AbelianGroup(0, (q,)), (q, p)


def test_h1_of_the_non_sphere_controls(non_sphere_controls):
    known = [AbelianGroup(1), AbelianGroup(3), AbelianGroup(1, (2,))]
    for m, group in zip(non_sphere_controls, known):
        assert complex_h1(m) == group
        quotient = QuotientComplex.from_structure(build_structure(m).structure)
        assert quotient.h1() == group


def test_forest_h1_equals_the_full_snf(cycle_join, random_subdivision, non_sphere_controls):
    # H1 from the rows of d2 outside a spanning forest, against the rank of
    # the whole d1 and the SNF of the whole d2
    quotients = []
    for q in range(2, 66):
        for p in {1, next((p for p in range(2, q) if math.gcd(p, q) == 1), 1)}:
            quotients.append(QuotientComplex.from_structure(lens_structure(q, p)))
    rng = random.Random(9)
    spheres = [random_subdivision(rng, cycle_join(3, 4), n) for n in (0, 3, 8)]
    for m in spheres + non_sphere_controls:
        quotients.append(QuotientComplex.from_structure(build_structure(m).structure))
    for q in quotients:
        assert q.h1() == full_snf_h1(q)
    # seeded random complexes: triangles, edges and vertices on few vertices,
    # often disconnected, through `complex_h1`
    rng = random.Random(65)
    for _ in range(300):
        n = rng.randint(1, 8)
        gens = set()
        for _ in range(rng.randint(1, 12)):
            size = rng.choice((1, 2, 3, 3, 3, 4)) if n >= 4 else rng.randint(1, min(n, 3))
            gens.add(tuple(sorted(rng.sample(range(1, n + 1), size))))
        k = Complex(gens)
        q = QuotientComplex.from_complex(k)
        assert complex_h1(k) == full_snf_h1(q), k
        assert complex_h1(k) == q.h1(), k
    for m in non_sphere_controls:
        assert complex_h1(m) == full_snf_h1(QuotientComplex.from_complex(m))


def klein_bottle():
    """A 3 x 3 grid of squares, each cut by a diagonal, whose columns close
    up plainly and whose rows close up with a flip."""
    def vertex(i, j):
        if i == 3:
            i, j = 0, -j
        return 3 * i + j % 3 + 1
    triangles = []
    for i in range(3):
        for j in range(3):
            a, b, c, d = vertex(i, j), vertex(i + 1, j), vertex(i, j + 1), vertex(i + 1, j + 1)
            triangles += [sorted((a, b, d)), sorted((a, c, d))]
    return Complex(triangles)


def test_h1_where_the_dual_forest_closes_a_cycle(monkeypatch):
    # a closed surface leaves one dual component, and each edge whose join
    # in the 2-cells' forest was idle closes a dual cycle and stays as a row:
    # with the coefficient 0 on the torus and +-2 on the projective plane
    handed = []

    def spy(rows):
        handed.append(rows)
        return smith_normal_form(rows)

    monkeypatch.setattr(stellar.homology, "smith_normal_form", spy)
    rp2 = relabel(RP2_6, {v: v + 10 for v in range(1, 7)})
    circle = Complex([(21, 22), (22, 23), (21, 23)])
    cases = [
        (TORUS7, "Z + Z", {0}),
        (RP2_6, "Z/2", {2}),
        (klein_bottle(), "Z + Z/2", None),
        # the edge (1, 2) in three triangles: a fin on the torus
        (TORUS7 + Complex([(1, 2, 8)]), "Z + Z", None),
        # two tetrahedron boundaries sharing the triangle (1, 2, 3)
        (standard_sphere(2) + Complex([(1, 2, 3, 5)]).boundary(), "0", None),
        (TORUS7 + rp2 + circle, "Z + Z + Z + Z/2", None),
    ]
    for k, group, closing in cases:
        handed.clear()
        found = complex_h1(k)
        rows = list(handed)
        q = QuotientComplex.from_complex(k)
        assert found == q.h1() == full_snf_h1(q), k
        assert found.describe() == group, k
        assert len(handed) == 2  # one SNF call for each H1
        if closing is not None:
            assert {abs(v) for row in rows[0] for v in row.values()} == closing, rows


def test_lens_h1_hands_the_snf_two_rows_at_most(monkeypatch):
    # L(65, 8): 130 two-cells and 132 edges, all but two of which the two
    # forests eliminate; a fall-back to the rows of d2 hands the SNF 130
    sizes = []

    def spy(rows):
        sizes.append(len(rows))
        return smith_normal_form(rows)

    monkeypatch.setattr(stellar.homology, "smith_normal_form", spy)
    q = QuotientComplex.from_structure(lens_structure(65, 8))
    assert q.cell_counts() == {0: 3, 1: 132, 2: 130}
    assert q.h1() == AbelianGroup(0, (65,))
    assert len(sizes) == 1 and sizes[0] <= 2


def test_boundary_maps_in_every_dimension(staircase_product, non_sphere_controls):
    # every d_k of a built quotient, d_k after d_(k+1) is zero, and H_k(Q)
    # for 0 < k <= dim Q from the Smith normal forms: Q is M less an open
    # ball, so by Künneth these are the groups of M below its top dimension
    s2 = standard_sphere(2)
    cases = [
        (standard_sphere(4), 1, ["0", "0", "0"]),
        (staircase_product(s2, s2), 3, ["0", "Z + Z", "0"]),
        (non_sphere_controls[0], 1, ["Z", "Z"]),  # S^2 x S^1
        (non_sphere_controls[2], 1, ["Z + Z/2", "Z"]),  # RP^2 x S^1
    ]
    for m, chi, groups in cases:
        q = QuotientComplex.from_structure(build_structure(m).structure)
        counts = q.cell_counts()
        d = q.boundary_matrices()
        assert len(d) == m.dimension() - 1 == len(groups)
        for k, rows in enumerate(d, 1):
            assert len(rows) == counts[k - 1]
            assert all(0 <= j < counts[k] for row in rows for j in row)
        for dk, above in zip(d, d[1:]):
            for row in dk:
                product = {}
                for c, v in row.items():
                    for j, w in above[c].items():
                        product[j] = product.get(j, 0) + v * w
                assert not any(product.values()), m
        snf = [smith_normal_form(rows) for rows in d] + [[]]
        found = [
            AbelianGroup(counts[k] - len(snf[k - 1]) - len(snf[k]), tuple(x for x in snf[k] if x > 1))
            for k in range(1, len(d) + 1)
        ]
        assert [g.describe() for g in found] == groups
        assert q.euler_characteristic() == chi
        assert q.h1() == found[0]


def test_non_sphere_controls_are_never_recognised(non_sphere_controls):
    # closed 3-manifolds with PL-sphere links whose collapse after removing
    # a generator stops short of a vertex; H1 then refutes them
    for m, residue in zip(non_sphere_controls, (8, 54, 28)):
        assert len(collapse_greedy(m.residual(min(m.generators)))) == residue
        assert recognize(m) is Recognition.NEITHER


def test_non_sphere_controls_are_refused_by_the_workflow(non_sphere_controls):
    # nontrivial H1 refutes a sphere whatever the Γ graph says
    conclusions = ["not a sphere: H1 = Z", "not a sphere: H1 = Z + Z + Z",
                   "not a sphere: H1 = Z + Z/2"]
    for m, conclusion in zip(non_sphere_controls, conclusions):
        report = sphere_workflow(m)
        assert report.conclusion == conclusion
        assert report.collapsed_to_point is None
