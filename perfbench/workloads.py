"""The four benchmark workloads: inputs, the timed call, and the oracle.

Each workload builds its corpus from a seed, makes one timed call per
input, and judges the result against the answer known by construction.
Calls go through module attributes (`lib.invariants.sphere_workflow`), so
the traced run's rebinding of those names is seen.
"""

from __future__ import annotations

import contextlib
import io as textio
import json
import random
import sys
from dataclasses import dataclass
from math import gcd
from typing import Any, List, Optional, Tuple

from corpora import Item, cycle_join, negative_controls, random_subdivision

H1 = Tuple[int, Tuple[int, ...]]
TRIVIAL: H1 = (0, ())


@dataclass
class Outcome:
    """A judged result.

    `kind` is sphere / not_sphere / manifold / not_manifold / undecided /
    error.  `problem` is set when the call counts as failed; `unsound` when
    the program certified something false, which also makes the run
    incorrect.  `key` is compared across passes and trace modes.
    """

    kind: str
    certified: bool = False
    problem: Optional[str] = None
    unsound: bool = False
    key: Any = None


def sphere_kind(conclusion: str) -> str:
    if conclusion == "sphere":
        return "sphere"
    if conclusion.startswith("not a sphere"):
        return "not_sphere"
    if conclusion.startswith("undecided"):
        return "undecided"
    return "error"


def judge_sphere(item: Item, conclusion: Optional[str], h1: Optional[H1]) -> Outcome:
    """Known sphere: certified by "sphere".  Known non-sphere: certified by a
    negative verdict with nontrivial H1.  A negative verdict on a sphere, or
    "sphere" on a non-sphere, contradicts the known answer."""
    key = (conclusion, h1)
    if conclusion is None:  # the call refused with a StellarError
        return Outcome("undecided", key=key)
    kind = sphere_kind(conclusion)
    if kind == "error":
        return Outcome(kind, problem=f"unrecognised conclusion {conclusion!r}", key=key)
    out = Outcome(kind, key=key)
    if item.h1 is not None and h1 != item.h1:
        out.problem = f"H1 {h1} differs from the known {item.h1}"
        out.unsound = True
    if item.expected == "sphere":
        if kind == "sphere":
            out.certified = out.problem is None
        elif kind == "not_sphere":
            out.problem = out.problem or f"known sphere refused: {conclusion}"
    elif kind == "sphere":
        out.problem = "known non-sphere accepted as a sphere"
        out.unsound = True
    elif kind == "not_sphere":
        out.certified = out.problem is None and h1 != TRIVIAL
    return out


def report_h1(report) -> H1:
    return (report.h1.rank, tuple(report.h1.torsion))


def structure_problems(lib, structure, manifold=None) -> List[str]:
    """The library's own consistency checks on one structure.

    Without the manifold at hand (lens shells), the Euler identity is
    checked for a closed 3-manifold, chi = 0: the quotient has chi = 1.
    """
    out = []
    if not lib.invariants.h1_mod2_concordant(structure):
        out.append("integer H1 disagrees with the mod-2 rank")
    if manifold is not None:
        euler = lib.quotient.euler_identity_check(structure, manifold)
    else:
        euler = lib.quotient.QuotientComplex.from_structure(structure).euler_characteristic() == 1
    if not euler:
        out.append("quotient fails the Euler identity")
    if not lib.group.flatness_equivalence_check(structure):
        out.append("degree (2,) and small face classes disagree")
    return out


def built_structure_problems(lib, m) -> List[str]:
    try:
        structure = lib.structure.build_structure(m).structure
    except lib.errors.StellarError:
        return []  # nothing built, nothing to cross-check
    return structure_problems(lib, structure, m)


class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name = ""

    def build(self, lib, seed: int) -> List[Item]:
        raise NotImplementedError

    def call(self, lib, item: Item) -> Any:
        """The timed call.  Returns a raw result for `judge`."""
        raise NotImplementedError

    def judge(self, item: Item, raw: Any) -> Outcome:
        """Default: `call` returned (conclusion, H1)."""
        return judge_sphere(item, *raw)

    def cross_check(self, lib, item: Item, outcome: Outcome) -> List[str]:
        return []


class CcJoin(Workload):
    name = "cc_join"
    SIZES = (8, 12, 16)

    def build(self, lib, seed):
        items = []
        for n in self.SIZES:
            m = cycle_join(lib, n, n)
            items.append(Item(f"C{n}*C{n}", "sphere", m, m, TRIVIAL))
        random.Random(seed).shuffle(items)  # the family is fixed; the seed orders it
        return items

    def call(self, lib, item):
        report = lib.invariants.sphere_workflow(item.payload)
        return report.conclusion, report_h1(report)

    def cross_check(self, lib, item, outcome):
        return built_structure_problems(lib, item.source)


class SubdivMix(Workload):
    name = "subdiv_mix"
    PER_BASE = 19
    MAX_MOVES = 12
    BUDGET = 100_000

    def bases(self, lib):
        return [lib.complexes.standard_sphere(3), cycle_join(lib, 3, 4), cycle_join(lib, 5, 5)]

    def build(self, lib, seed):
        rng = random.Random(seed)
        items = []
        for b, base in enumerate(self.bases(lib)):
            for i in range(self.PER_BASE):
                # move counts spread evenly over 0..MAX_MOVES; the faces are random
                moves = round(self.MAX_MOVES * i / (self.PER_BASE - 1))
                m = random_subdivision(lib, rng, base, moves)
                items.append(Item(f"sub{b}.{i}", "sphere", None, m, TRIVIAL))
        for name, m, known in negative_controls(lib):
            items.append(Item(name, "non_sphere", None, m, known))
        for item in items:
            item.payload = lib.io.dumps(lib.io.complex_to_json(item.source))
        return items

    def call(self, lib, item):
        out, err = textio.StringIO(), textio.StringIO()
        stdin = sys.stdin
        sys.stdin = textio.StringIO(item.payload)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = lib.cli.main(["sphere-check", "-", "--budget", str(self.BUDGET)])
        finally:
            sys.stdin = stdin
        return rc, out.getvalue(), err.getvalue()

    def judge(self, item, raw):
        rc, out, err = raw
        if rc == 1:  # a StellarError: the CLI refused to decide
            return judge_sphere(item, None, None)
        if rc != 0:
            return Outcome("error", problem=f"exit code {rc}: {err.strip()}", key=raw)
        data = json.loads(out)
        h1 = (data["h1"]["rank"], tuple(data["h1"]["torsion"]))
        return judge_sphere(item, data["conclusion"], h1)

    def cross_check(self, lib, item, outcome):
        m = item.source
        try:
            library = lib.invariants.sphere_workflow(m, budget=self.BUDGET).conclusion
        except lib.errors.StellarError:
            library = None
        problems = []
        if library != outcome.key[0]:
            problems.append(f"CLI says {outcome.key[0]!r}, library says {library!r}")
        return problems + built_structure_problems(lib, m)


class LensShell(Workload):
    name = "lens_shell"
    QS = (17, 33, 65)
    PER_Q = 10

    def build(self, lib, seed):
        rng = random.Random(seed)
        items = []
        for q in self.QS:
            ps = sorted(rng.sample([p for p in range(1, q) if gcd(p, q) == 1], self.PER_Q))
            for p in ps:
                s = lib.lens.lens_structure(q, p)
                items.append(Item(f"L({q},{p})", "non_sphere", s, s, (0, (q,))))
        return items

    def call(self, lib, item):
        report = lib.invariants.structure_report(item.payload)
        return report.conclusion, report_h1(report)

    def cross_check(self, lib, item, outcome):
        return structure_problems(lib, item.source)


class Link4(Workload):
    name = "link4"
    BUDGET = 20
    PER_BASE = 96
    MAX_MOVES = 3

    def bases(self, lib):
        s0 = lib.complexes.Complex([(101,), (102,)])
        return [lib.complexes.standard_sphere(4), cycle_join(lib, 3, 3).join(s0)]

    def build(self, lib, seed):
        rng = random.Random(seed)
        items = []
        for b, base in enumerate(self.bases(lib)):
            for i in range(self.PER_BASE):
                moves = i % (self.MAX_MOVES + 1)
                m = random_subdivision(lib, rng, base, moves)
                items.append(Item(f"link{b}.{i}", "manifold", m, m))
        return items

    def call(self, lib, item):
        return lib.manifold.check_manifold(item.payload, budget=self.BUDGET)

    def judge(self, item, report):
        key = (report.is_manifold, tuple(report.bad_vertices), tuple(report.unknown_vertices))
        if not (report.closed and report.dimension == 4):
            return Outcome("error", problem=f"expected a closed 4-complex: {report.describe()}", key=key)
        if report.is_manifold is True:
            return Outcome("manifold", certified=True, key=key)
        if report.is_manifold is None:
            return Outcome("undecided", key=key)
        return Outcome("not_manifold", problem=f"known 4-sphere rejected: {report.describe()}", key=key)


WORKLOADS = {w.name: w for w in (CcJoin(), SubdivMix(), LensShell(), Link4())}
