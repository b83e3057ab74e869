import itertools
import random
import re
from math import gcd

import pytest

from stellar import (
    Complex,
    EquivalenceError,
    QuotientComplex,
    RegularEquivalence,
    StellarStructure,
    build_structure,
    euler_identity_check,
    fold_structure,
    lens_structure,
    standard_sphere,
)
from stellar.complexes import UnionFind
from stellar.homology import AbelianGroup, complex_h1
from stellar.quotient import pair_matching


def sort_parity(seq):
    """Parity (0 even, 1 odd) of the permutation sorting `seq`."""
    return sum(a > b for a, b in itertools.combinations(seq, 2)) % 2


class FaceUnionFind:
    """The signed union-find as first written: keyed by face tuples, the
    least (length, tuple) face of a class its root."""

    def __init__(self, faces):
        self.parent = {f: f for f in faces}
        self.parity = {f: 0 for f in faces}
        self.conflicts = set()

    def find(self, x):
        path, root, parity = [], x, 0
        while self.parent[root] != root:
            path.append((root, parity))
            parity ^= self.parity[root]
            root = self.parent[root]
        for node, above in path:
            self.parent[node] = root
            self.parity[node] = parity ^ above
        return root, parity

    def union(self, x, y, parity):
        (rx, px), (ry, py) = self.find(x), self.find(y)
        if rx == ry:
            if px ^ py != parity:
                self.conflicts.add(rx)
            return
        if (len(ry), ry) < (len(rx), rx):
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.parity[ry] = px ^ py ^ parity
        if ry in self.conflicts:
            self.conflicts.discard(ry)
            self.conflicts.add(rx)


def reference_quotient(sphere, pairs, matchings):
    """The quotient as first written: every face of every pair is sorted
    and its parity counted afresh, in a union-find on the face tuples."""
    dsu = FaceUnionFind(sphere.closure())
    for (g, p), phi in zip(pairs, matchings):
        for r in range(1, len(g) + 1):
            for f in itertools.combinations(g, r):
                image = [phi[v] for v in f]
                dsu.union(f, tuple(sorted(image)), sort_parity(image))
    return dsu


def assert_matches_reference(q, sphere, pairs, matchings):
    dsu = reference_quotient(sphere, pairs, matchings)
    members = {}
    for f in sphere.closure():
        members.setdefault(dsu.find(f)[0], []).append(f)
    cells = {}
    for root in members:
        cells.setdefault(len(root) - 1, []).append(root)
    assert q.cells == {d: sorted(c) for d, c in cells.items()}
    assert q.members == {root: sorted(m) for root, m in members.items()}
    assert not dsu.conflicts  # a regular equivalence clashes no orientations
    for f in sphere.closure():
        assert q.cell_of(f) == dsu.find(f), f


def assert_same_quotient(structure):
    sphere, pairs = structure.sphere, structure.equivalence.generator_pairs
    cls = structure.equivalence.class_of(sphere)
    matchings = [pair_matching(g, p, cls) for g, p in pairs]
    assert_matches_reference(QuotientComplex.from_structure(structure), sphere, pairs, matchings)


def test_quotient_matches_the_reference_on_lenses_and_folds():
    for q in range(2, 14):
        for p in range(1, q):
            if gcd(q, p) == 1:
                assert_same_quotient(lens_structure(q, p))
    for q in range(3, 8):
        assert_same_quotient(fold_structure(q))


def test_quotient_matches_the_reference_on_built_structures(
    random_subdivision, cycle_join, non_sphere_controls
):
    rng = random.Random(14)
    spheres = [
        random_subdivision(rng, base, moves)
        for base in (standard_sphere(3), cycle_join(3, 4), cycle_join(5, 5))
        for moves in (0, 4, 9)
    ]
    for m in spheres + non_sphere_controls:
        assert_same_quotient(build_structure(m).structure)


def test_signed_union_find_tracks_parity():
    a, b, c = 0, 1, 2
    uf = UnionFind(3)
    uf.union(a, b, 1)
    uf.union(b, c, 1)
    ra, pa = uf.find(a)
    rc, pc = uf.find(c)
    assert ra == rc
    assert pa ^ pc == 0  # a and c agree through two sign flips
    assert not uf.conflicts
    uf.union(a, c, 1)  # contradicts the composite parity
    assert uf.find(a)[0] in uf.conflicts


def test_build_rejects_overlapping_or_empty_classes():
    with pytest.raises(EquivalenceError):
        RegularEquivalence.build([[1, 2], [2, 3]], [])
    with pytest.raises(EquivalenceError):
        RegularEquivalence.build([[]], [])


def test_problems_catch_bad_pairings():
    sphere = standard_sphere(1)  # generators (1,2),(1,3),(2,3)
    eq = RegularEquivalence.build([[2, 3]], [((1, 2), (1, 3))])
    probs = eq.problems(sphere)
    assert any("two equivalent vertices" in p for p in probs)

    eq = RegularEquivalence.build([], [((1, 2), (1, 2))])
    assert any("paired with itself" in p for p in eq.problems(sphere))

    eq = RegularEquivalence.build([], [((1, 2), (1, 4))])
    assert any("not a generator" in p for p in eq.problems(sphere))

    eq = RegularEquivalence.build([], [((1, 2), (1, 3)), ((1, 2), (2, 3))])
    assert any("occurs in 2 pairs" in p for p in eq.problems(sphere))


def test_problems_list_each_fault_once():
    # (2, 3, 4) contains two equivalent vertices and is paired, so the pair
    # matching refuses it too; it is listed once
    eq = RegularEquivalence.build([[2, 4]], [((1, 2, 3), (1, 3, 4)), ((1, 2, 4), (2, 3, 4))])
    assert eq.problems(standard_sphere(2)) == [
        "generator (1, 2, 4) contains two equivalent vertices",
        "generator (2, 3, 4) contains two equivalent vertices",
    ]


def test_problems_name_the_pair_faults_in_order():
    # sizes that differ, then the first vertex of g whose class p misses; a
    # partner with two equivalent vertices is named once, by the scan
    sphere = standard_sphere(2) + Complex([(5, 6, 7), (5, 6, 8), (9, 10)])
    eq = RegularEquivalence.build(
        [[2, 4]], [((1, 2, 3), (9, 10)), ((1, 3, 4), (1, 2, 4)), ((5, 6, 7), (5, 6, 8))]
    )
    assert eq.problems(sphere) == [
        "generator (1, 2, 4) contains two equivalent vertices",
        "generator (2, 3, 4) contains two equivalent vertices",
        "paired generators (1, 2, 3) and (9, 10) have different sizes",
        "no vertex of (5, 6, 8) is equivalent to vertex 7 of (5, 6, 7)",
    ]


def fault_mutants(s):
    """One faulty copy of the structure `s` per fault kind that validation
    names, each with the fault's words: the apex in the sphere, a stray
    class vertex, two equivalent vertices in a generator, a self-pair, a
    non-generator, a generator in two pairs, sizes that differ, and a
    missing class."""
    eq, sphere = s.equivalence, s.sphere
    classes = [sorted(c) for c in eq.vertex_classes]
    pairs = list(eq.generator_pairs)
    (g, p), (_, p2) = pairs[:2]
    fresh = sphere.max_label() + 1

    def mutant(pairs=pairs, classes=classes, sphere=sphere, apex=s.apex):
        return StellarStructure(apex, sphere, RegularEquivalence.build(classes, pairs))

    cls = eq.class_of(sphere)
    a, b = g[:2]  # merge the classes of two vertices of g
    merged = [c for c in classes if cls[a] != cls[c[0]] != cls[b]]
    merged.append(sorted(v for v in sphere.vertices() if cls[v] in (cls[a], cls[b])))
    facet = g[:-1]  # added as a generator and paired with g
    rest = [pair for pair in pairs if g not in pair]
    h = tuple(sorted(p[1:] + (fresh,)))  # added as a generator: misses the class of p[0]
    return [
        ("occurs in the sphere", mutant(apex=g[0])),
        ("not in the sphere", mutant(classes=classes + [[fresh]])),
        ("two equivalent vertices", mutant(classes=merged)),
        ("paired with itself", mutant(pairs=[(g, g)] + pairs[1:])),
        ("not a generator", mutant(pairs=[(g, g[:-1] + (fresh,))] + pairs[1:])),
        ("occurs in 2 pairs", mutant(pairs=pairs + [(g, p2)])),
        ("different sizes", mutant(pairs=rest + [(facet, g)], sphere=sphere + Complex([facet]))),
        ("is equivalent to vertex", mutant(pairs=rest + [(g, h)], sphere=sphere + Complex([h]))),
    ]


def test_the_quotient_refuses_what_validation_refuses(cycle_join):
    # the quotient's construction checks a structure on its face numbers and
    # builds on a structure exactly when `validate` finds no problem; a
    # refusal names the problems `validate` lists, in its order
    structures = [
        lens_structure(q, p) for q in range(2, 14) for p in range(1, q) if gcd(p, q) == 1
    ]
    structures += [fold_structure(n) for n in range(3, 9)]
    for m in (standard_sphere(2), standard_sphere(4), cycle_join(3, 4), cycle_join(5, 5)):
        structures.append(build_structure(m).structure)
    mutants = []
    for s in structures[::6]:
        for words, mutant in fault_mutants(s):
            assert any(words in x for x in mutant.validate()), (words, mutant)
            mutants.append(mutant)
    refused = 0
    for s in structures + mutants:
        problems = s.validate()
        if not problems:
            QuotientComplex.from_structure(s)
            continue
        with pytest.raises(EquivalenceError) as e:
            QuotientComplex.from_structure(s)
        assert str(e.value) == "; ".join(problems)
        refused += 1
    assert refused == len(mutants)


def test_pair_matching_respects_classes():
    cls = {1: 0, 2: 1, 3: 2, 4: 1, 5: 2}
    assert pair_matching((1, 2, 3), (1, 4, 5), cls) == {1: 1, 2: 4, 3: 5}
    with pytest.raises(EquivalenceError):
        pair_matching((1, 2, 3), (1, 2, 4), {1: 0, 2: 1, 3: 2, 4: 3})


def test_structure_validate_and_closedness():
    fold = fold_structure(4)
    assert fold.validate() == []
    assert fold.is_closed
    open_structure = StellarStructure(
        fold.apex,
        fold.sphere,
        RegularEquivalence.build(
            [sorted(c) for c in fold.equivalence.vertex_classes],
            list(fold.equivalence.generator_pairs[:-1]),
        ),
    )
    assert not open_structure.is_closed


def test_trivial_quotient_matches_complex():
    for k in (standard_sphere(1), standard_sphere(2)):
        q = QuotientComplex.from_complex(k)
        assert q.euler_characteristic() == k.euler_characteristic()
        assert q.cell_counts() == {d: n for d, n in enumerate(k.f_vector())}
        assert q.h1() == complex_h1(k)


def test_fold_quotient_is_a_disk():
    q = QuotientComplex.from_structure(fold_structure(4))
    # poles identified, equator fixed: 5 vertices, glued triangles
    assert q.cell_counts() == {0: 5, 1: 8, 2: 4}
    assert q.euler_characteristic() == 1
    assert q.h1().is_trivial()


def test_lens_quotient_homology():
    for quotient_order, twist in [(2, 1), (3, 1), (5, 1), (5, 2), (7, 3)]:
        s = lens_structure(quotient_order, twist)
        q = QuotientComplex.from_structure(s)
        assert q.h1() == AbelianGroup(0, (quotient_order,))
        assert q.z2_b1() == (1 if quotient_order % 2 == 0 else 0)


def test_euler_identity_on_lens_spaces():
    for quotient_order, twist in [(2, 1), (3, 1), (4, 1), (5, 2)]:
        s = lens_structure(quotient_order, twist)
        q = QuotientComplex.from_structure(s)
        # lens spaces are closed odd-dimensional manifolds: chi(M) = 0,
        # so the quotient must have chi = 0 + (-1)^(2+1+1) = 1
        assert q.euler_characteristic() == 1


def test_euler_identity_check_on_built_structure():
    from stellar import build_structure

    m = standard_sphere(3)
    result = build_structure(m)
    assert euler_identity_check(result.structure, m)


def test_cell_of_returns_representative():
    q = QuotientComplex.from_structure(fold_structure(4))
    classes = q.vertex_class
    poles = [v for v, c in classes.items() if sum(1 for w in classes.values() if w == c) > 1]
    rep, _sign = q.cell_of((min(poles),))
    rep2, _sign2 = q.cell_of((max(poles),))
    assert rep == rep2


def test_cell_of_sorts_its_argument_and_refuses_a_non_face():
    q = QuotientComplex.from_complex(Complex([(1, 2, 3), (4, 5)]))
    assert q.cell_of((2, 1)) == q.cell_of((1, 2)) == ((1, 2), 0)
    assert q.cell_of([5, 4]) == ((4, 5), 0)
    with pytest.raises(EquivalenceError, match=re.escape("(7, 8) is not a face of the sphere")):
        q.cell_of((8, 7))
    with pytest.raises(EquivalenceError, match=re.escape("(1, 4) is not a face of the sphere")):
        q.cell_of((1, 4))


def test_face_numbers_agree_with_cell_of(random_subdivision, cycle_join, non_sphere_controls):
    # the report reads cells through face numbers; each number must name the
    # face that `cell_of` names, and each facet number the facet it stands for
    structures = [lens_structure(q, p) for q, p in ((2, 1), (5, 2), (13, 5), (17, 3))]
    structures += [fold_structure(n) for n in (3, 6)]
    rng = random.Random(17)
    spheres = [random_subdivision(rng, standard_sphere(3), 5), cycle_join(4, 5)]
    structures += [build_structure(m).structure for m in spheres + non_sphere_controls]
    for s in structures:
        q = QuotientComplex.from_structure(s)
        assert q._faces == sorted(s.sphere.closure(), key=lambda f: (len(f), f))
        for r, face in enumerate(q._faces):
            below = list(itertools.combinations(face, len(face) - 1)) if len(face) > 1 else []
            assert [q._faces[f] for f in q._facets[r]] == below, face
            root, parity = q._uf.find(r)
            assert q.cell_of(face) == (q._faces[root], parity), face
        for d, roots in q._roots.items():
            assert [q._faces[r] for r in roots] == q.cells[d]
            for r in roots:
                assert [q._faces[f] for f in q._classes[r]] == q.members[q._faces[r]]
        gens = s.sphere.sorted_generators()
        assert [q._faces[r] for r in q._generators] == gens
        assert [(gens[i], gens[j]) for i, j in q._pairs] == list(s.equivalence.generator_pairs)
        assert q._closed() is s.is_closed


def test_chains_read_the_cells_as_cell_of_does():
    # the facets of the cells of every level, read by number, against the
    # same cells found through `cell_of`; the quotient of the boundary of
    # the 5-simplex has 3-cells
    structures = [lens_structure(7, 2), lens_structure(17, 3), fold_structure(5)]
    structures.append(build_structure(standard_sphere(4)).structure)
    for s in structures:
        q = QuotientComplex.from_structure(s)
        assert q.chains is q.chains  # read once
        assert len(q.chains) == len(q.cells) == s.sphere.dimension() + 1
        for d, cells in enumerate(q.chains):
            at = {c: i for i, c in enumerate(q.cells.get(d - 1, []))}
            expected = []
            for c in q.cells[d]:
                below = itertools.combinations(c, len(c) - 1) if len(c) > 1 else ()
                expected.append([(at[f], parity) for f, parity in map(q.cell_of, below)])
            assert cells == expected, d
