import itertools
import random

import pytest

from stellar import (
    Complex,
    LabelAllocator,
    RegularEquivalence,
    StellarStructure,
    standard_sphere,
    subdivide,
)
from stellar.complexes import UnionFind, star_index


def _random_subdivision(rng, k, moves):
    """`moves` stellar subdivisions of `k`, each at a random face of a random
    generator; the same seed gives the same complex."""
    for _ in range(moves):
        g = rng.choice(k.sorted_generators())
        a = tuple(sorted(rng.sample(g, rng.randint(1, len(g)))))
        k = subdivide(k, a, LabelAllocator(k).fresh())
    return k


@pytest.fixture
def random_subdivision():
    return _random_subdivision


def _cycle(n, start=1):
    vs = range(start, start + n)
    return Complex([tuple(sorted((vs[i], vs[(i + 1) % n]))) for i in range(n)])


@pytest.fixture
def cycle_join():
    """C_a * C_b, the join of two cycles: a 3-sphere with a*b facets."""
    return lambda a, b: _cycle(a, 1).join(_cycle(b, a + 1))


def _staircase_product(k, l):
    """|k| x |l| triangulated by the staircase rule on ordered vertices;
    vertex (a, b) becomes (a - 1) * max(l) + b, which keeps the order."""
    width = l.max_label()
    out = []
    for s in k.generators:
        for t in l.generators:
            p, q = len(s) - 1, len(t) - 1
            for ups in itertools.combinations(range(p + q), p):
                i = j = 0
                verts = [(s[0] - 1) * width + t[0]]
                for step in range(p + q):
                    if step in ups:
                        i += 1
                    else:
                        j += 1
                    verts.append((s[i] - 1) * width + t[j])
                out.append(tuple(verts))
    return Complex(out)


@pytest.fixture
def staircase_product():
    return _staircase_product


RP2 = Complex([
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
])


@pytest.fixture
def projective_plane():
    """The 6-vertex projective plane."""
    return RP2


# The Poincaré dodecahedral space: each pentagon of the dodecahedron on the
# labels 1..20 glued to the opposite one after a tenth of a turn.  GLUED
# holds (i, j, image): position k of PENTAGONS[i] goes onto image[k], a
# rotation of the cycle PENTAGONS[j].
PENTAGONS = [[16, 10, 1, 9, 5], [15, 9, 1, 11, 3], [14, 11, 1, 10, 2], [6, 12, 2, 10, 16],
             [4, 14, 2, 12, 18], [4, 13, 3, 11, 14], [7, 15, 3, 13, 19], [7, 17, 5, 9, 15],
             [6, 16, 5, 17, 20], [19, 13, 4, 18, 8], [18, 12, 6, 20, 8], [20, 17, 7, 19, 8]]
GLUED = [(0, 9, [8, 18, 4, 13, 19]), (1, 10, [8, 20, 6, 12, 18]), (2, 11, [8, 19, 7, 17, 20]),
         (3, 6, [7, 19, 13, 3, 15]), (4, 7, [7, 15, 9, 5, 17]), (5, 8, [6, 20, 17, 5, 16])]


def _fan(centre, cycle):
    """The triangles of the pentagon `cycle` coned from `centre`, side by side."""
    return [tuple(sorted((centre, cycle[k], cycle[(k + 1) % 5]))) for k in range(5)]


@pytest.fixture
def poincare_structure():
    """The Poincaré dodecahedral structure about the apex 33: pentagon i is
    coned from 21 + i, which gives 60 triangles on 32 vertices, and the
    vertex classes are the closure of the gluing maps."""
    classes, pairs = UnionFind(33), []
    for i, j, image in GLUED:
        classes.union(21 + i, 21 + j)
        for v, w in zip(PENTAGONS[i], image):
            classes.union(v, w)
        pairs += zip(_fan(21 + i, PENTAGONS[i]), _fan(21 + j, image))
    members = {}
    for v in range(1, 33):
        members.setdefault(classes.find(v)[0], []).append(v)
    sphere = Complex(t for i, cycle in enumerate(PENTAGONS) for t in _fan(21 + i, cycle))
    return StellarStructure(33, sphere, RegularEquivalence.build(list(members.values()), pairs))


def _non_sphere_controls():
    return [
        _staircase_product(standard_sphere(2), _cycle(4)),
        _staircase_product(_staircase_product(_cycle(3), _cycle(3)), _cycle(3)),
        _staircase_product(RP2, _cycle(3)),
    ]


@pytest.fixture
def non_sphere_controls():
    """S^2 x S^1, T^3 and RP^2 x S^1, in that order: closed 3-manifolds whose
    vertex links are all 2-spheres."""
    return _non_sphere_controls()


@pytest.fixture(scope="session")
def ledger_zoo():
    """The closed 3-complexes and the manifolds of the verdict ledger.

    The closed 3-complexes are seeded subdivided 3-spheres with 0 to 40
    moves, C_a * C_b for 3 <= a, b <= 8, the staircase controls, the link at
    6 of two boundaries of the 5-simplex sharing the vertex 6 (two disjoint
    boundaries of the 4-simplex), and every vertex link of the manifolds'
    seeded subdivided 4-spheres.  The manifolds are those 4-spheres, with 0
    to 15 moves, and seeded subdivided 5-spheres with 0 to 14.
    """
    rng = random.Random(37)
    closed = [_random_subdivision(rng, standard_sphere(3), n) for n in range(0, 41, 2)]
    closed += [_cycle(a, 1).join(_cycle(b, a + 1)) for a in range(3, 9) for b in range(3, 9)]
    closed += _non_sphere_controls()
    closed.append(Complex([(1, 2, 3, 4, 5, 6), (6, 7, 8, 9, 10, 11)]).boundary().link((6,)))
    spheres4 = [_random_subdivision(rng, standard_sphere(4), n) for n in range(16)]
    closed += [Complex(lk) for k in spheres4 for _, lk in sorted(star_index(k.generators).items())]
    spheres5 = [_random_subdivision(rng, standard_sphere(5), n) for n in range(0, 16, 2)]
    return closed, spheres4 + spheres5
