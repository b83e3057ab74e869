import random

import pytest

from stellar import (
    Complex,
    ComplexError,
    ManifoldReport,
    Recognition,
    check_manifold,
    recognize,
    standard_simplex,
    standard_sphere,
    subdivide,
)
from stellar import moves


def test_sphere_is_closed_manifold():
    for d in (1, 2, 3):
        rep = check_manifold(standard_sphere(d))
        assert rep.is_manifold is True
        assert rep.closed is True
        assert rep.dimension == d
        assert not rep.bad_vertices


def test_points_are_a_closed_0_manifold():
    rep = check_manifold(Complex([(1,), (2,), (3,)]))
    assert (rep.is_manifold, rep.closed, rep.dimension) == (True, True, 0)
    assert rep.describe() == "closed 0-manifold"


def test_ball_is_manifold_with_boundary():
    rep = check_manifold(standard_simplex(3))
    assert rep.is_manifold is True
    assert rep.closed is False


def test_pinched_sphere_is_not_manifold():
    # two triangles sharing only the vertex 1
    pinch = Complex([(1, 2, 3), (1, 4, 5)])
    rep = check_manifold(pinch)
    assert rep.is_manifold is False
    assert 1 in rep.bad_vertices


def test_wedge_of_circles_is_not_manifold():
    wedge = Complex([(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)])
    rep = check_manifold(wedge)
    assert rep.is_manifold is False
    assert rep.bad_vertices == [1]


def test_non_uniform_is_not_manifold():
    rep = check_manifold(Complex([(1, 2, 3), (4, 5)]))
    assert rep.is_manifold is False


def test_recognize_refuses_a_non_uniform_complex():
    # only the top-level call checks uniformity: the links of a uniform
    # complex are uniform
    for k in (Complex([(1, 2, 3), (4, 5)]), Complex([(1, 2, 3, 4), (1, 2, 3, 5), (5, 6)])):
        with pytest.raises(ComplexError, match="uniform"):
            recognize(k)


def test_the_minus_one_dimensional_complex_is_refused():
    with pytest.raises(ComplexError, match="-1"):
        check_manifold(Complex([()]))
    with pytest.raises(ComplexError, match="empty"):
        check_manifold(Complex())


def test_describe_mentions_dimension():
    rep = check_manifold(standard_sphere(2))
    text = rep.describe()
    assert "2" in text and "closed" in text


def test_subdivision_preserves_manifold_verdict():
    k = subdivide(standard_sphere(3), (1, 2), 9)
    rep = check_manifold(k)
    assert rep.is_manifold is True and rep.closed is True


def test_residual_manifold_check():
    s3 = standard_sphere(3)
    rep = check_manifold(s3.residual((1,)))
    # Q(1, S^3) is the single facet not containing 1: a 3-ball
    assert rep.is_manifold is True
    assert rep.closed is False


def test_link_certificates_are_recorded():
    rep = check_manifold(standard_sphere(3))
    assert set(rep.link_certificates.values()) == {"exact"}
    rep = check_manifold(standard_sphere(4))
    assert set(rep.link_certificates.values()) == {"collapse"}
    rep = check_manifold(Complex([(1, 2, 3, 4), (1, 2, 5, 6)]).join(Complex([(9,)])))
    assert rep.link_certificates[9] == "exact"


def test_subdivided_4_spheres_are_certified(random_subdivision, cycle_join):
    # the bases of the link4 benchmark: the boundary of the 5-simplex and
    # C3 * C3 * S0; each 3-sphere link is certified by the collapse of the
    # link minus a generator.  The budget keyword is still accepted, with no
    # effect, for callers that pass it
    rng = random.Random(3)
    bases = [standard_sphere(4), cycle_join(3, 3).join(Complex([(101,), (102,)]))]
    for base in bases:
        for i in range(12):
            m = random_subdivision(rng, base, i % 4)
            rep = check_manifold(m, budget=20)
            assert rep.is_manifold is True and rep.closed and rep.dimension == 4
            assert set(rep.link_certificates.values()) == {"collapse"}


def test_undecided_report_names_the_missing_certificate():
    report = ManifoldReport(is_manifold=None, closed=True, dimension=4, unknown_vertices=[3, 8])
    assert report.describe() == (
        "undecided 4-complex: links at [3, 8] have no certificate: a vertex "
        "link inside them was undecided, or their collapse stopped short "
        "with trivial H1"
    )


def test_one_check_recognises_each_edge_link_once(monkeypatch, random_subdivision):
    # the edge link lk(vw) is the link of w in lk(v) and of v in lk(w); one
    # check recognises it once, and a second check as often as the first,
    # so nothing is kept between calls
    recognised = []
    low = moves._recognize_low

    def spy(k, dim):
        if dim == 2:
            recognised.append(k.generators)
        return low(k, dim)

    monkeypatch.setattr(moves, "_recognize_low", spy)
    subdivided = random_subdivision(random.Random(5), standard_sphere(4), 3)
    for k in (standard_sphere(4), subdivided):
        edge_links = {k.link(e).generators for e in k.faces_of_dim(1)}
        for _ in range(2):
            recognised.clear()
            assert check_manifold(k).is_manifold is True
            assert len(recognised) == len(edge_links)
            assert set(recognised) == edge_links


def test_shared_links_give_each_link_its_own_verdict(
    random_subdivision, cycle_join, projective_plane
):
    # check_manifold against a fresh recognition of every vertex link: RP^2 * S^1
    # (the circle's links are suspensions of RP^2), two 4-spheres wedged at
    # vertex 6, and seeded subdivisions of the link4 bases
    rng = random.Random(13)
    suspended_c33 = cycle_join(3, 3).join(Complex([(101,), (102,)]))
    cases = [
        projective_plane.join(Complex([(11, 12, 13)]).boundary()),
        standard_sphere(4) + Complex([(6, 7, 8, 9, 10, 11)]).boundary(),
        *(random_subdivision(rng, base, n)
          for base in (standard_sphere(4), suspended_c33) for n in (0, 2, 3)),
    ]
    for k in cases:
        report = check_manifold(k)
        fresh = {v: moves._recognize(lk, lk.dimension(), {}) for v, lk in k.vertex_links().items()}
        assert report.link_results == {v: shape for v, (shape, _) in fresh.items()}
        assert report.link_certificates == {v: cert for v, (_, cert) in fresh.items()}
        assert report.bad_vertices == sorted(
            v for v, (shape, _) in fresh.items() if shape is Recognition.NEITHER
        )
        assert report.unknown_vertices == sorted(
            v for v, (shape, _) in fresh.items() if shape is Recognition.UNKNOWN
        )
    assert check_manifold(cases[0]).bad_vertices == [11, 12, 13]
    assert check_manifold(cases[1]).bad_vertices == [6]


def test_two_disjoint_3_spheres_are_neither():
    # every vertex link is a 2-sphere and chi = 0, yet the union is disconnected
    two = standard_sphere(3) + Complex([(10, 11, 12, 13, 14)]).boundary()
    assert recognize(two) is Recognition.NEITHER


def test_closedness_is_read_off_the_links(random_subdivision):
    # a closed complex has closed vertex links only, and the report reads
    # closedness off the link verdicts unless a link is NEITHER or UNKNOWN
    rng = random.Random(23)
    cases = [
        Complex([(1, 2, 3), (1, 4, 5)]),  # pinched: a bad link and ball links
        standard_sphere(2) + Complex([(4, 5, 6, 7)]).boundary(),  # closed, a bad link
        standard_sphere(3) + Complex([(5, 6, 7, 8, 9)]).boundary(),
    ]
    for d in (1, 2, 3, 4):
        for base in (standard_sphere(d), standard_simplex(d)):
            cases += [base] + [random_subdivision(rng, base, rng.randint(1, 5)) for _ in range(3)]
        for _ in range(6):  # a subdivided sphere with a random generator toggled
            k = random_subdivision(rng, standard_sphere(d), rng.randint(0, 4))
            cases.append(k + Complex([rng.sample(range(1, k.max_label() + 3), d + 1)]))
        for _ in range(6):  # random uniform complexes
            gens = [rng.sample(range(1, d + 5), d + 1) for _ in range(rng.randint(1, 12))]
            cases.append(Complex(gens))
    for k in cases:
        if k:
            assert check_manifold(k).closed == k.is_closed(), k
