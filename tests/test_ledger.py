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

from stellar import check_manifold, fold_structure, lens_structure, sphere_workflow, standard_sphere, structure_report
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
    records = [repr(_recognize(k, 3, {})) for k in closed]
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
