"""The verdict ledger: SHA-256 digests over the reports of seeded corpora.

A digest here changes only for a mathematical reason, and that reason is
recorded in `CHANGES.md`.  A change that should not move any verdict, H1,
degree, flatness, surface class, Γ graph or collapse leaves the digest as it
is; one that does must say in `CHANGES.md` what moved and why.
"""

import hashlib
import random
from math import gcd

from stellar.moves import _recognize, collapse_greedy
from test_invariants import PINCHED
from test_moves import DOUBLE_OCTAHEDRON, RP2_6, TORUS7, subdivided_ball

from stellar import (
    Complex,
    check_manifold,
    cone,
    fold_structure,
    lens_structure,
    sphere_workflow,
    standard_simplex,
    standard_sphere,
    structure_report,
)
from stellar.errors import StellarError


def test_reports_match_their_ledger_digest(random_subdivision, cycle_join, non_sphere_controls):
    # the full report of every lens shell L(q, p) with q <= 13 and of the
    # folds of the 3- to 8-gon bipyramids, and the workflow report of the
    # staircase controls and of seeded subdivided 3-spheres
    structures = [lens_structure(q, p) for q in range(2, 14) for p in range(1, q) if gcd(q, p) == 1]
    structures += [fold_structure(q) for q in range(3, 9)]
    rng = random.Random(23)
    manifolds = list(non_sphere_controls)
    manifolds += [random_subdivision(rng, base, 4) for base in (standard_sphere(3), cycle_join(3, 4))]
    records = [repr(structure_report(s)) for s in structures]
    records += [repr(sphere_workflow(m)) for m in manifolds]
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "71109d07bc0be29dc7128d6a8ecea85baa00c8977c11f1c705e30650311362b9"


def test_recognitions_and_manifold_reports_match_their_ledger_digest(ledger_zoo):
    # the verdict and certificate of every closed 3-complex of the zoo, and
    # the full `check_manifold` report of every manifold
    closed, manifolds = ledger_zoo
    records = [repr(_recognize(sorted(k.generators), 3, {})) for k in closed]
    records += [repr(check_manifold(m)) for m in manifolds]
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "1748b7ed9f8378fc0cba0f92341b5577f57936ce8e899882b975bae2bb8984fd"


def test_workflow_reports_match_their_ledger_digest(ledger_zoo):
    # the workflow report, or the refusal, of every closed 3-complex of the
    # zoo, the staircase controls among them: the link at the pinch of two
    # boundaries of the 5-simplex is two disjoint 3-spheres, which it refuses
    closed, _ = ledger_zoo
    records = []
    for k in closed:
        try:
            records.append(repr(sphere_workflow(k)))
        except StellarError as refusal:
            records.append(f"{type(refusal).__name__}: {refusal}")
    assert records.count("StructureError: input must be connected") == 1
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "3135cc18541d8655f9229a40cd522851db180a849b2c90e7e86c6b4d0d2841cd"


TORUS = [(1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 7), (1, 5, 6), (1, 5, 7), (2, 3, 5),
         (2, 3, 7), (2, 4, 5), (2, 6, 7), (3, 4, 6), (3, 5, 6), (4, 5, 7), (4, 6, 7)]


def test_recognitions_of_every_dimension_match_their_ledger_digest(
    random_subdivision, staircase_product, non_sphere_controls
):
    # the verdict and certificate of balls and spheres of dimension 0 to 5
    # with 0 to 8 seeded moves, each less its least generator, the star of a
    # random vertex and two random subcomplexes of each; the staircase
    # controls and S^3 x S^1, each less its least generator and coned; the
    # 7-vertex torus suspended (closed, chi = 2); three d-simplexes on one
    # facet; and two disjoint boundaries of the (d + 1)-simplex.  Every exit
    # of `_certify` but Unknown is reached
    rng = random.Random(41)
    zoo = []
    for d in range(6):
        for moves in range(0, 9, 2):
            for base in (standard_simplex(d), standard_sphere(d)):
                k = random_subdivision(rng, base, moves)
                gens = k.sorted_generators()
                zoo += [k, Complex(gens[1:]), Complex(g for g in gens if rng.choice(gens)[0] in g)]
                zoo += [Complex(rng.sample(gens, rng.randint(1, len(gens)))) for _ in range(2)]
    s3s1 = staircase_product(standard_sphere(3), Complex([(1, 2), (2, 3), (3, 4), (1, 4)]))
    for m in non_sphere_controls + [s3s1]:
        zoo += [m, Complex(sorted(m.generators)[1:]), cone(m.max_label() + 1).join(m)]
    zoo.append(Complex(t + (p,) for t in TORUS for p in (8, 9)))
    for d in range(3, 6):
        zoo.append(Complex(tuple(range(1, d + 1)) + (d + c,) for c in (1, 2, 3)))
        shifted = Complex(tuple(v + d + 2 for v in g) for g in standard_sphere(d).generators)
        zoo.append(standard_sphere(d) + shifted)
    records = [repr(_recognize(sorted(k.generators), k.dimension(), {})) for k in zoo if k]
    assert len(records) == 308
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "d5d2a4c8ce54144a2860d9634cab2fc829797e744d9c5717d4d32c624b499ddf"


def refusal_zoo(cycle_join, non_sphere_controls):
    """Closed, glued, wedged, disconnected, bounded and non-pseudomanifold
    3-complexes: two 3-spheres and S^2 x S^1; P; the 7-vertex torus
    suspended from 8 and 9, alone, beside a copy of itself and wedged at 1
    and 2 with two boundaries of the 4-simplex; two boundaries of the
    4-simplex wedged at 5, and apart; the suspended double octahedron; the
    boundary of the 4-simplex with a copy glued on the triangle (1, 2, 3);
    the book of three tetrahedra; the 3-simplex and the 3-ball of four."""
    suspended = TORUS7.join(Complex([(8,), (9,)]))
    s4 = standard_sphere(3)
    return [
        s4,
        cycle_join(3, 4),
        non_sphere_controls[0],
        PINCHED,
        suspended,
        suspended + Complex([tuple(v + 100 for v in g) for g in suspended.generators]),
        suspended + Complex([(1, 10, 11, 12, 13)]).boundary() + Complex([(2, 14, 15, 16, 17)]).boundary(),
        s4 + Complex([(5, 6, 7, 8, 9)]).boundary(),
        s4 + Complex([(6, 7, 8, 9, 10)]).boundary(),
        DOUBLE_OCTAHEDRON.join(Complex([(11,), (12,)])),
        s4 + Complex([tuple(sorted({4: 6, 5: 7}.get(v, v) for v in g)) for g in s4.generators]),
        Complex([(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6)]),
        standard_simplex(3),
        Complex(sorted(s4.generators)[1:]),
    ]


def test_workflow_outcomes_at_every_budget_match_their_ledger_digest(cycle_join, non_sphere_controls):
    # the report, or the exception class and text, of the workflow on every
    # complex of the refusal zoo at budgets from one step to the default
    records = []
    for k in refusal_zoo(cycle_join, non_sphere_controls):
        for budget in (1, 2, 3, 4, 7, 20, 100_000):
            try:
                records.append(repr(sphere_workflow(k, budget=budget)))
            except StellarError as refusal:
                records.append(f"{type(refusal).__name__}: {refusal}")
    assert records.count("StructureError: not a manifold: bad links at vertices [8, 9]") == 7
    assert records.count("StructureError: sphere workflow expects a closed complex") == 21
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "82a1154cf704201e0f03782a5e66363b3c3ea4532e0e168851368a56859ec234"


def test_manifold_reports_of_non_manifolds_match_their_ledger_digest(non_sphere_controls):
    # the full `check_manifold` report of the non-manifolds and bounded
    # complexes of the tests and the CLI: wedges, pinches, books, the
    # suspended torus and double octahedron, cones and balls
    suspended = TORUS7.join(Complex([(8,), (9,)]))
    two_octahedra = DOUBLE_OCTAHEDRON.join(Complex([(11,), (12,)]))
    cases = [
        Complex([(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)]),
        Complex([(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]),
        Complex([(1, 2, 3), (1, 2, 4), (1, 2, 5)]),
        Complex([(1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 3, 6), (2, 3, 4), (2, 4, 5), (2, 5, 6),
                 (2, 3, 6), (1, 7, 8), (1, 8, 9), (1, 7, 9)]),
        Complex([(1, 2, 3)]).boundary() + Complex([(4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7)]),
        Complex([(1, 2, 3, 4)]).boundary() + Complex([(4, 5, 6, 7)]).boundary(),
        DOUBLE_OCTAHEDRON,
        suspended,
        PINCHED,
        suspended + Complex([(1, 10, 11, 12, 13)]).boundary() + Complex([(2, 14, 15, 16, 17)]).boundary(),
        two_octahedra,
        two_octahedra.join(Complex([(13,), (14,)])),
        non_sphere_controls[0].join(Complex([(17,), (18,)])),
        standard_sphere(4) + Complex([(6, 7, 8, 9, 10, 11)]).boundary(),
        Complex([(1, 2, 3, 4, 5, 6), (6, 7, 8, 9, 10, 11)]).boundary(),
        Complex([(1, 2, 3, 4, 10), (5, 6, 7, 8, 10), (5, 6, 7, 9, 10), (5, 6, 8, 9, 10),
                 (5, 7, 8, 9, 10), (6, 7, 8, 9, 10)]),
        Complex([(1, 2, 3, 4, 8), (4, 5, 6, 7, 8)]),
        cone(9).join(standard_sphere(3)),
        Complex(sorted(standard_sphere(3).generators)[1:]),
        subdivided_ball(),
        *(standard_simplex(d) for d in range(1, 5)),
    ]
    records = [repr(check_manifold(k)) for k in cases]
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "9e4756efdea5aec8dc5d31b29e8dd12119f7d0fcc1def53bcc30bec7e43bacb6"


def test_greedy_residues_match_their_ledger_digest(random_subdivision, non_sphere_controls):
    # the residue of the greedy collapse of surfaces and 3-manifolds less
    # their least generator, of balls and spheres of dimension 1 to 4 with
    # seeded moves, each less a random generator, and of the book of
    # triangles and two wedged boundaries of the 3-simplex
    rng = random.Random(43)
    zoo = [TORUS7, RP2_6, *non_sphere_controls, Complex([(1, 2, 3), (1, 2, 4), (1, 2, 5)]),
           Complex([(1, 2, 3, 4)]).boundary() + Complex([(4, 5, 6, 7)]).boundary()]
    for d in range(1, 5):
        for moves in (0, 3, 6):
            for base in (standard_simplex(d), standard_sphere(d)):
                zoo.append(random_subdivision(rng, base, moves))
    records = []
    for k in zoo:
        gens = k.sorted_generators()
        for rest in (gens, gens[1:], [g for g in gens if g != rng.choice(gens)]):
            if rest:
                records.append(repr(collapse_greedy(Complex(rest))))
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "fd9b0b02671b434b4b2fd6781228b7dbcd773ad00f2bd1091852b54160730dc0"
