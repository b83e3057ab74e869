import random

from stellar import (
    Complex,
    ManifoldReport,
    check_manifold,
    standard_simplex,
    standard_sphere,
    subdivide,
)


def test_sphere_is_closed_manifold():
    for d in (1, 2, 3):
        rep = check_manifold(standard_sphere(d))
        assert rep.is_manifold is True
        assert rep.closed is True
        assert rep.dimension == d
        assert not rep.bad_vertices


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
