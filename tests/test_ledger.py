"""The verdict ledger: SHA-256 digests over the reports of seeded corpora.

A digest here changes only for a mathematical reason, and that reason is
recorded in `CHANGES.md`.  A change that should not move any verdict, H1,
degree, flatness, surface class, Γ graph or collapse leaves the digest as it
is; one that does must say in `CHANGES.md` what moved and why.
"""

import hashlib
import random
from math import gcd

from stellar.moves import _recognize

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
