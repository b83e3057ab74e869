"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS/FAIL line.  Criterion 6 is split in two:
test_criterion_06_first_degree_entry pins the first degree entry of a lens
shell at q, the order of the lens class's own rotation (see `degree_entry`
and the degree tests in test_group.py); test_criterion_06_lens_stratification
checks the circuit in Γ, whose edge is labelled with the full order 2q of
`order_of`, together with H1 = Z/q and the refused sphere conclusion.
"""

import math
import random
import time

import pytest

from stellar import (
    Complex,
    QuotientComplex,
    build_structure,
    cone,
    degree,
    euler_identity_check,
    flatness_equivalence_check,
    fold_structure,
    gamma_graph,
    h1,
    h1_mod2_concordant,
    has_circuit,
    lens_structure,
    prism,
    sphere_workflow,
    standard_sphere,
    structure_report,
    subdivide,
    verify_structure,
    weld,
)
from stellar.complexes import LabelAllocator
from stellar.homology import AbelianGroup
from stellar.invariants import classify_flat_quotient
from stellar.moves import prism_offset


def random_complex(rng, dim, verts=10, gens=6):
    labels = list(range(1, verts + 1))
    out = set()
    while len(out) < gens:
        out.add(tuple(sorted(rng.sample(labels, dim + 1))))
    return Complex(out)


def coprime_pairs(q):
    return [p for p in range(1, q) if math.gcd(p, q) == 1]


def lens_zoo():
    return {
        (q, p): lens_structure(q, p) for q in range(2, 10) for p in coprime_pairs(q)
    }


def test_criterion_01_chain_complex_suite(random_subdivision):
    start = time.perf_counter()
    rng = random.Random(101)
    for _ in range(200):
        k = random_complex(rng, rng.randint(2, 4))
        assert k.boundary().boundary() == Complex()
    for i in range(50):
        m = random_subdivision(rng, standard_sphere(rng.choice([2, 3])), moves=2)
        for v in m.vertices():
            a = (v,)
            star = cone(v).join(m.link(a))
            assert m == star + m.residual(a), (i, v)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1: PASS - chain complex identities exact ({elapsed:.2f}s)")


def test_criterion_02_move_algebra():
    start = time.perf_counter()
    rng = random.Random(202)
    bases = [standard_sphere(2), standard_sphere(3), cone(9).join(standard_sphere(2))]
    for _ in range(500):
        k = rng.choice(bases)
        g = rng.choice(k.sorted_generators())
        size = rng.randint(1, len(g))
        a = tuple(sorted(rng.sample(g, size)))
        fresh = LabelAllocator(k).fresh()
        sub = subdivide(k, a, fresh)
        assert sub.euler_characteristic() == k.euler_characteristic()
        assert sub.is_closed() == k.is_closed()
        assert weld(sub, a, fresh) == k
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2: PASS - weld inverts subdivide, invariants kept ({elapsed:.2f}s)")


def test_criterion_03_quotient_euler_identity():
    for m in (standard_sphere(2), standard_sphere(3)):
        result = build_structure(m)
        assert euler_identity_check(result.structure, m)
    for (q, p), s in lens_zoo().items():
        # the underlying closed 3-manifold has chi = 0, so the quotient
        # shell must always have chi = 1
        assert QuotientComplex.from_structure(s).euler_characteristic() == 1, (q, p)
    print("\nACCEPTANCE 3: PASS - chi(S/~) = chi(M) + (-1)^(n+1) on all fixtures")


def test_criterion_04_structure_pipeline():
    start = time.perf_counter()
    result = build_structure(standard_sphere(3))
    assert verify_structure(result, standard_sphere(3)) == []
    assert result.structure.is_closed  # every generator of S is paired
    # the progress invariant (|Q| drops by one per step) is asserted inside
    # build_structure; the step log proves it ran to completion
    assert len(result.steps) == len(standard_sphere(3)) - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 4: PASS - structure pipeline on the 4-simplex boundary ({elapsed:.2f}s)")


def test_criterion_05_flatness_biconditional():
    zoo = list(lens_zoo().values())
    zoo.append(fold_structure(4))
    for m in (standard_sphere(2), standard_sphere(3)):
        zoo.append(build_structure(m).structure)
    assert len(zoo) >= 20
    for s in zoo:
        assert flatness_equivalence_check(s)
    print(f"\nACCEPTANCE 5: PASS - degree=(2) iff all classes small, {len(zoo)} structures")


def test_criterion_06_lens_stratification():
    start = time.perf_counter()
    for q in (3, 5, 7, 9):
        for p in (1, coprime_pairs(q)[-1]):
            s = lens_structure(q, p)
            gamma = gamma_graph(s)
            assert has_circuit(gamma), (q, p)
            edge_orders = {order for _, _, order in gamma.edges}
            assert edge_orders == {2 * q}, (q, p)  # one high-order class
            assert h1(s) == AbelianGroup(0, (q,)), (q, p)
            report = structure_report(s)
            assert report.conclusion == f"not a sphere: H1 = Z/{q}", (q, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(
        "\nACCEPTANCE 6 (circuit, H1, refusal): PASS - "
        f"lens shells refuse the sphere conclusion ({elapsed:.2f}s)"
    )


def test_criterion_06_first_degree_entry():
    observed = {q: degree(lens_structure(q, 1))[0] for q in (3, 5, 7, 9)}
    line = ", ".join(f"q={q}: deg1={d}" for q, d in observed.items())
    if all(d == q for q, d in observed.items()):
        print("\nACCEPTANCE 6 (first degree entry): PASS")
    else:
        print(
            "\nACCEPTANCE 6 (first degree entry): FAIL - expected deg1=q, "
            f"got lcm(q,2)=2q at odd q ({line})"
        )
    assert all(d == q for q, d in observed.items()), (
        "first degree entry of the lens shell is lcm(q, 2), not q, "
        f"for odd q: {line}"
    )


def test_criterion_07_flat_classification():
    fold = classify_flat_quotient(QuotientComplex.from_structure(fold_structure(4)))
    assert fold.kind == "Disk" and fold.chi == 1
    plane = classify_flat_quotient(
        QuotientComplex.from_structure(lens_structure(2, 1))
    )
    assert plane.kind == "ProjectivePlane" and plane.chi == 1
    print("\nACCEPTANCE 7: PASS - quotients classified Disk / ProjectivePlane, chi = 1")


def test_criterion_08_disk_branch_workflow():
    report = structure_report(fold_structure(4))
    assert report.flat
    assert report.surface is not None and report.surface.kind == "Disk"
    assert report.collapsed_to_point is True
    assert report.prism_cells == {0: 10, 1: 21, 2: 16, 3: 4}
    assert report.conclusion == "sphere"
    assert report.evidence  # the report chain is recorded end to end
    print("\nACCEPTANCE 8: PASS - disk branch collapses, prism built, chain complete")


def test_criterion_09_prism_cross_check():
    rng = random.Random(909)
    for _ in range(20):
        dim = rng.choice([1, 2])
        gens = set()
        for _ in range(rng.randint(1, 4)):
            gens.add(tuple(sorted(rng.sample(range(1, 8), dim + 1))))
        k = Complex(gens)
        off = prism_offset(k)
        apex = off * 10
        built = cone(apex).join(k)
        for b in sorted(k.vertices(), reverse=True):
            built = subdivide(built, tuple(sorted((apex, b))), b + off)
        assert built.residual((apex,)) == prism(k)
    print("\nACCEPTANCE 9: PASS - prism equals the subdivision-product construction")


def test_criterion_10_h1_oracle_concordance():
    fixtures = [standard_sphere(1), standard_sphere(2), standard_sphere(3)]
    fixtures += list(lens_zoo().values())
    fixtures.append(fold_structure(4))
    fixtures.append(build_structure(standard_sphere(3)).structure)
    for x in fixtures:
        assert h1_mod2_concordant(x)
    print(f"\nACCEPTANCE 10: PASS - integer and GF(2) first homology agree, {len(fixtures)} fixtures")
