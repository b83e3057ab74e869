import hashlib
import random

import pytest

from stellar import (
    Complex,
    ComplexError,
    ManifoldReport,
    Recognition,
    check_manifold,
    cone,
    recognize,
    standard_simplex,
    standard_sphere,
    relabel,
    subdivide,
)
from stellar import manifold, moves
from stellar.complexes import _dual_tree, _facet_list, _partners, _uncrossed, star_index
from test_moves import DOUBLE_OCTAHEDRON, TORUS7, renamed


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


def test_one_check_recognises_no_edge_link_twice(monkeypatch, random_subdivision):
    # the edge link lk(vw) is the link of w in lk(v) and of v in lk(w); one
    # check recognises it at most once.  A closed 3-link is certified by one
    # corner pass, so a closed 4-complex recognises no edge link at all; a
    # bounded one recognises them inside its bounded 3-links, and edge links
    # inside a 3-link that shares its order type with one already certified
    # are not visited.  A second check recognises exactly what the first
    # did, so nothing is kept between calls
    recognised = []
    low = moves._recognize_low

    def spy(top, dim, n0):
        if dim == 2:
            recognised.append(frozenset(top))
        return low(top, dim, n0)

    monkeypatch.setattr(moves, "_recognize_low", spy)
    cases = [
        (standard_sphere(4), True),
        (random_subdivision(random.Random(5), standard_sphere(4), 3), True),
        (random_subdivision(random.Random(5), standard_simplex(4), 3), False),
    ]
    for k, closed in cases:
        edge_links = {k.link(e).generators for e in k.faces_of_dim(1)}
        runs = []
        for _ in range(2):
            recognised.clear()
            assert check_manifold(k).is_manifold is True
            assert len(recognised) == len(set(recognised))
            assert set(recognised) <= edge_links
            runs.append(list(recognised))
        assert runs[0] == runs[1]
        assert (runs[0] == []) is closed


def certified_complexes(monkeypatch, at=3):
    """The generator sets that `moves._certify` sees at dimension `at`, in order."""
    certified = []
    certify = moves._certify

    def spy(top, dim, n0, seen):
        if dim == at:
            certified.append(frozenset(top))
        return certify(top, dim, n0, seen)

    monkeypatch.setattr(moves, "_certify", spy)
    return certified


def test_order_isomorphic_links_are_certified_once(monkeypatch):
    # every vertex link of the boundary of the 5-simplex is the boundary of
    # the 4-simplex on other labels, in the same order
    certified = certified_complexes(monkeypatch)
    report = check_manifold(standard_sphere(4))
    assert len(certified) == 1
    assert report.is_manifold is True
    assert report.link_certificates == {v: "collapse" for v in range(1, 7)}


def test_order_isomorphic_links_below_dimension_3_are_certified_once(monkeypatch):
    # the links at 1..4 of the cone from 9 over the boundary of the 3-simplex
    # are four disks on other labels, in the same order, so the recursion
    # certifies one disk and the sphere at 9; so does each 3-ball link of the
    # cone from 9 over the boundary of the 4-simplex, which share an order type
    certified = certified_complexes(monkeypatch, at=2)
    assert recognize(cone(9).join(standard_sphere(2))) is Recognition.BALL
    assert len(certified) == 2
    certified.clear()
    report = check_manifold(cone(9).join(standard_sphere(3)))
    assert len(certified) == 2
    assert (report.is_manifold, report.closed) == (True, False)
    assert report.link_results == {**dict.fromkeys(range(1, 6), Recognition.BALL), 9: Recognition.SPHERE}
    assert report.link_certificates == dict.fromkeys([1, 2, 3, 4, 5, 9], "collapse")


def test_isomorphic_links_of_another_order_type_are_certified_apart(monkeypatch):
    # the boundary of the 4-simplex on 2..6, subdivided at the facet
    # (2, 3, 4, 5) by the vertex 7 and by the vertex 1: isomorphic 3-spheres
    # whose least vertex is the new one in one and not in the other
    certified = certified_complexes(monkeypatch)
    base = Complex([(2, 3, 4, 5, 6)]).boundary()
    first, second = (subdivide(base, (2, 3, 4, 5), v) for v in (7, 1))
    assert moves._order_type(sorted(first.generators), 3) != moves._order_type(sorted(second.generators), 3)
    seen = {}
    for k in (first, second):
        assert moves._recognize(sorted(k.generators), 3, seen) == (Recognition.SPHERE, "collapse")
    assert certified == [first.generators, second.generators]


def test_an_order_preserving_relabel_renames_the_report(random_subdivision, cycle_join):
    # v -> 2v + 5 keeps the order of the vertices, so every link keeps its
    # verdict and its certificate
    rng = random.Random(17)
    bases = [standard_sphere(4), cycle_join(3, 3).join(Complex([(101,), (102,)]))]
    cases = bases + [random_subdivision(rng, base, n) for base in bases for n in (1, 3)]
    for k in cases:
        image = {v: 2 * v + 5 for v in k.vertices()}
        report = check_manifold(k)
        moved = check_manifold(relabel(k, image))
        assert (moved.is_manifold, moved.closed, moved.dimension) == (
            report.is_manifold, report.closed, report.dimension
        )
        assert moved.link_results == {image[v]: r for v, r in report.link_results.items()}
        assert moved.link_certificates == {
            image[v]: c for v, c in report.link_certificates.items()
        }
        assert moved.bad_vertices == [image[v] for v in report.bad_vertices]
        assert moved.unknown_vertices == [image[v] for v in report.unknown_vertices]


def test_shared_links_give_each_link_its_own_verdict(
    random_subdivision, cycle_join, projective_plane, non_sphere_controls
):
    # check_manifold against a fresh recognition of every vertex link: RP^2 * S^1
    # (the circle's links are suspensions of RP^2), two 4-spheres wedged at
    # vertex 6, S^2 x S^1 suspended from 101 and 102 (H1 refutes the two
    # apexes' links, and the other 16 are suspended 2-spheres), and seeded
    # subdivisions of the link4 bases
    rng = random.Random(13)
    poles = Complex([(101,), (102,)])
    suspended_c33 = cycle_join(3, 3).join(poles)
    cases = [
        projective_plane.join(Complex([(11, 12, 13)]).boundary()),
        standard_sphere(4) + Complex([(6, 7, 8, 9, 10, 11)]).boundary(),
        non_sphere_controls[0].join(poles),
        *(random_subdivision(rng, base, n)
          for base in (standard_sphere(4), suspended_c33) for n in (0, 2, 3)),
    ]
    for k in cases:
        report = check_manifold(k)
        fresh = {v: moves._recognize(sorted(lk), len(lk[0]) - 1, {}) for v, lk in star_index(k.generators).items()}
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
    report = check_manifold(cases[2])
    assert report.bad_vertices == [101, 102]
    assert {v: report.link_certificates[v] for v in (101, 102)} == {101: "exact", 102: "exact"}
    assert list(report.link_certificates.values()).count("collapse") == 16


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


def closed_3_zoo(random_subdivision, cycle_join, non_sphere_controls):
    """Closed 3-complexes, each with the bad vertices a fresh recognition of
    its links finds."""
    rng = random.Random(29)
    poles = Complex([(8,), (9,)])
    suspended_torus = TORUS7.join(poles)  # chi = 2, every link connected
    wedged = (  # chi = 0, the links at the wedge points 1 and 2 disconnected
        suspended_torus
        + Complex([(1, 10, 11, 12, 13)]).boundary()
        + Complex([(2, 14, 15, 16, 17)]).boundary()
    )
    accepted = [
        random_subdivision(rng, base, moves)
        for base in (standard_sphere(3), cycle_join(3, 4), cycle_join(5, 5))
        for moves in range(13)
    ]
    accepted += non_sphere_controls
    accepted.append(standard_sphere(3) + Complex([(6, 7, 8, 9, 10)]).boundary())
    refused = [
        (suspended_torus, [8, 9]),
        (wedged, [1, 2, 8, 9]),
        (DOUBLE_OCTAHEDRON.join(Complex([(11,), (12,)])), [1, 2, 11, 12]),  # chi = 0
        (standard_sphere(3) + Complex([(5, 6, 7, 8, 9)]).boundary(), [5]),  # chi = -1
    ]
    return [(k, []) for k in accepted] + refused


def reference_report(k):
    """The report of recognising every vertex link of the closed 3-complex
    `k` on its own, in sorted vertex order."""
    fresh = {v: moves._recognize(sorted(lk), 2, {}) for v, lk in sorted(star_index(k.generators).items())}
    results = {v: shape for v, (shape, _) in fresh.items()}
    bad = [v for v, shape in results.items() if shape is Recognition.NEITHER]
    unknown = [v for v, shape in results.items() if shape is Recognition.UNKNOWN]
    return ManifoldReport(
        is_manifold=False if bad else None if unknown else True,
        closed=True,
        dimension=3,
        link_results=results,
        link_certificates={v: cert for v, (_, cert) in fresh.items()},
        bad_vertices=bad,
        unknown_vertices=unknown,
    )


def test_closed_3_complexes_match_a_recognition_of_every_link(
    random_subdivision, cycle_join, non_sphere_controls
):
    # the corner pass on M accepts exactly when every link is a 2-sphere; a
    # refusal falls back to the links, which name the bad vertices
    for k, bad in closed_3_zoo(random_subdivision, cycle_join, non_sphere_controls):
        assert k.is_closed()
        report, reference = check_manifold(k), reference_report(k)
        assert report == reference, k
        assert list(report.link_results) == list(report.link_certificates) == sorted(k.vertices())
        assert report.bad_vertices == bad


def test_the_uncrossed_triangles_hold_every_edge_and_vertex(
    random_subdivision, cycle_join, non_sphere_controls, ledger_zoo
):
    # in a closed 3-pseudomanifold the tetrahedra around an edge form cycles
    # through its triangles, and a tree of the dual graph crosses at most
    # L - 1 of a cycle's L triangles, so some triangle on the edge is left
    # uncrossed; a walk that stops short leaves every triangle it never
    # reached uncrossed.  So the closed-3 rule may count E on the spine
    suspended_torus = TORUS7.join(Complex([(8,), (9,)]))
    twice = suspended_torus + Complex([tuple(v + 100 for v in g) for g in suspended_torus.generators])
    corpus = [k for k, _ in closed_3_zoo(random_subdivision, cycle_join, non_sphere_controls)]
    corpus += [*ledger_zoo[0], twice]
    short = 0
    for k in corpus:
        top = sorted(k.generators)
        below = _facet_list(top, 3)
        partner = _partners(below)
        assert partner is not None and -1 not in partner, k
        steps = list(_dual_tree(top, partner))
        short += len(steps) < len(top) - 1
        spine = _uncrossed(below, partner, steps)
        assert set(_facet_list(spine, 2)) == set(_facet_list(top, 2)), k
        assert set().union(*spine) == k.vertices(), k
    # the walk stops short on the two pairs of disjoint 3-spheres, the two
    # disjoint suspended tori, the two wedges and the suspended two octahedra
    assert len(corpus) == 252 + 48 and short == 6


def test_an_accepted_closed_3_manifold_recognises_no_link(monkeypatch, cycle_join):
    calls = []
    recognise, links = moves._recognize, moves.star_index

    def recognise_spy(top, dim, seen):
        calls.append("_recognize")
        return recognise(top, dim, seen)

    def links_spy(gens):
        calls.append("star_index")
        return links(gens)

    monkeypatch.setattr(moves, "_recognize", recognise_spy)
    monkeypatch.setattr(moves, "star_index", links_spy)
    for k in (standard_sphere(3), cycle_join(4, 5)):
        report = check_manifold(k)
        assert (report.is_manifold, report.closed) == (True, True)
        assert report.link_certificates == dict.fromkeys(sorted(k.vertices()), "exact")
        assert calls == []
    # the spies are wired: a refused complex recognises its links
    assert check_manifold(TORUS7.join(Complex([(8,), (9,)]))).bad_vertices == [8, 9]
    assert "star_index" in calls and "_recognize" in calls


def test_a_closed_4_check_sorts_once_and_builds_no_complex_per_link(
    monkeypatch, random_subdivision, cycle_join
):
    # M's generators are sorted once; every link is read sorted off the star
    # index and keyed on that list, and no link becomes a Complex.  The order
    # types certified, in order and each as the sorted list it is certified
    # on, hash as they did when each link was built as a Complex, keyed by a
    # set and sorted in `_certify`
    rng = random.Random(43)
    bases = [standard_sphere(4), cycle_join(3, 3).join(Complex([(101,), (102,)]))]
    cases = [random_subdivision(rng, base, n) for base in bases for n in (4, 8, 12, 16)]
    certified, sorts, built = [], [], []
    certify = moves._certify

    def certify_spy(top, dim, n0, seen):
        certified.append((dim, renamed(top)))
        return certify(top, dim, n0, seen)

    def sorted_spy(items):
        sorts.append(items)
        return sorted(items)

    monkeypatch.setattr(moves, "_certify", certify_spy)
    for module in (manifold, moves):
        monkeypatch.setattr(module, "sorted", sorted_spy, raising=False)
    init, of = Complex.__init__, Complex._of.__func__
    monkeypatch.setattr(Complex, "__init__", lambda k, *a: built.append(a) or init(k, *a))
    monkeypatch.setattr(Complex, "_of", classmethod(lambda cls, *a: built.append(a) or of(cls, *a)))
    for k in cases:
        sorts.clear()
        built.clear()
        assert check_manifold(k).is_manifold is True
        simplexes = [items for items in sorts if any(isinstance(x, tuple) for x in items)]
        assert len(simplexes) == 1 and simplexes[0] is k.generators
        assert built == []
    monkeypatch.undo()
    assert len(certified) > 100
    digest = hashlib.sha256(repr(certified).encode()).hexdigest()
    assert digest == "dede4b1fbd72148ab435dc081a441650e11ce39a03d96c0d3dcabee01f85701c"
