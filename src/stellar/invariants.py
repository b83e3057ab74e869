"""Classifiers built on the quotient machinery: first homology, surface
recognition of flat quotients, and the end-to-end sphere workflow.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Tuple, Union

from .complexes import Complex, Simplex, UnionFind, _components, _facet_list, _partners
from .errors import BudgetExceeded, StructureError
from .group import _class_orders, _degree, _gamma, has_circuit, surface_quotient, GammaGraph
from .homology import AbelianGroup, complex_h1
from .manifold import _link_report
from .moves import _closed_3_manifold, _collapses, _link_verdicts
from .quotient import QuotientComplex, StellarStructure
from .structure import _crossings


def _quotient(x: Union[Complex, QuotientComplex, StellarStructure]) -> QuotientComplex:
    """A quotient as is; a structure or a complex as its quotient."""
    if isinstance(x, StellarStructure):
        return QuotientComplex.from_structure(x)
    if isinstance(x, Complex):
        return QuotientComplex.from_complex(x)
    return x


def h1(x: Union[Complex, QuotientComplex, StellarStructure]) -> AbelianGroup:
    """Integer first homology of a complex, structure quotient, or quotient."""
    return complex_h1(x) if isinstance(x, Complex) else _quotient(x).h1()


def h1_mod2_concordant(x: Union[Complex, QuotientComplex, StellarStructure]) -> bool:
    """Cross-check: integer H1 tensored with GF(2) matches the mod-2 rank."""
    q = _quotient(x)
    return q.h1().z2_betti() == q.z2_b1()


@dataclass(frozen=True)
class SurfaceClass:
    kind: str  # "Disk" | "ProjectivePlane" | "Sphere" | "Other"
    chi: int
    orientable: Optional[bool] = None
    boundary_circles: Optional[int] = None
    detail: str = ""


def classify_flat_quotient(q: QuotientComplex) -> SurfaceClass:
    """Name the surface a flat quotient forms, or report why it is none.

    One pass over the triangle cells maps each edge cell to its (triangle,
    side, parity) incidences, and union-finds read the rest from that map:
    corners (triangle, vertex cell) glued across interior edges give the
    vertex links, triangles glued with signs give the components and
    orientability, and the endpoints of rim edges give the boundary circles.
    A regular equivalence puts each generator's vertices in distinct classes
    and vertex cells lie inside classes, so a triangle meets three distinct
    vertex cells and no edge cell twice.  A corner then has at most two
    neighbours, so a connected link is an arc or a circle, with 0 or 2 rim
    ends: the rim is a union of circles.  The kind is named on one component
    only."""
    chi = q.euler_characteristic()
    if q.cells.get(3):
        return SurfaceClass("Other", chi, detail="has cells above dimension two")
    verts, tris = q.cells.get(0, []), q.cells.get(2, [])
    vcell = {v: i for i, c in enumerate(verts) for (v,) in q.members[c]}
    corners = [tuple(vcell[v] for v in t) for t in tris]
    inc: Dict[Simplex, List[Tuple[int, int, int]]] = {e: [] for e in q.cells.get(1, [])}
    for ti, t in enumerate(tris):
        for side, face in enumerate([(t[1], t[2]), (t[0], t[2]), (t[0], t[1])]):
            root, parity = q.cell_of(face)
            inc[root].append((ti, side, parity))
    # corner k of triangle t is 3t + k
    links, rim, sheets = UnionFind(3 * len(tris)), UnionFind(len(verts)), UnionFind(len(tris))
    circles = 0
    for (t1, s1, p1), *glued in filter(None, inc.values()):
        ends = corners[t1][:s1] + corners[t1][s1 + 1:]  # side s omits position s
        if not glued:
            # the rim is a union of circles, with as many edges as vertices,
            # so each circle closes with one union that merges nothing
            circles += not rim.union(*ends)
        elif len(glued) == 1:
            ((t2, s2, p2),) = glued
            for v in ends:
                links.union(3 * t1 + corners[t1].index(v), 3 * t2 + corners[t2].index(v))
            # side s has sign (-1)^s in the boundary of its triangle, and
            # coherent sheets induce opposite signs on the edge cell
            sheets.union(t1, t2, 1 ^ (s1 + s2 + p1 + p2) % 2)
    split = Counter(corners[c // 3][c % 3] for c in links.members())
    problem = next(chain(
        (f"edge cell {e} lies in {len(h)} two-cells" for e, h in inc.items() if len(h) > 2),
        (f"isolated vertex cell {v}" for i, v in enumerate(verts) if not split[i]),
        (f"edge cell {e} lies in no two-cell" for e, h in inc.items() if not h),
        (f"vertex cell {v} has a disconnected link" for i, v in enumerate(verts) if split[i] > 1),
    ), "")
    if problem:
        return SurfaceClass("Other", chi, detail=problem)
    components = len(sheets.members())
    orientable = not sheets.conflicts
    if components > 1:
        return SurfaceClass("Other", chi, orientable, circles, f"{components} components")
    # χ = 2 - 2g - b or 2 - k - b on one surface, so χ and b fix these kinds
    kind = {(1, 1): "Disk", (1, 0): "ProjectivePlane", (2, 0): "Sphere"}.get((chi, circles))
    return SurfaceClass(kind or "Other", chi, orientable, circles)


def quotient_collapses_to_point(q: QuotientComplex) -> bool:
    """Whether the quotient's cells collapse to one 0-cell: exactly when
    chi(Q) = 1, Q is connected and, from dimension 2 up, the top-down phases
    of `_collapses` leave no cell above the edges.  All three read the pair
    `q._ranked`, each cell's facet cells by rank and the level sizes: a
    built quotient reads it off its `chains`, and a spine's face table is
    that pair already, so the workflow builds no chains for its collapse.
    The phases read the facets of the cells of dimension >= 2 only.

    This is the greedy's answer, `_collapse_ranks(facets, 0, ())` leaving
    one 0-cell.  A regular equivalence puts each generator's vertices in
    distinct classes, so an edge cell has two distinct ends and a triangle
    cell three distinct edge cells, which join its ends in a cycle.  So no
    pair removal changes chi, none disconnects the 1-skeleton (an edge goes
    either with its free end or from a triangle whose other two edges still
    join its ends), and both collapses leave a graph with Q's chi and
    connectivity when they leave no cell above the edges, which both then
    do or both do not (`_collapses`).  The greedy stops only where no
    vertex is free, and a graph with no free vertex is one vertex exactly
    when it is connected with chi = 1, a tree.
    """
    if q.euler_characteristic() != 1:
        return False
    facets, sizes = q._ranked
    edges = facets[sizes[0]:sum(sizes[:2])]
    if _components(sizes[0], [e[0] for e in edges], [e[1] for e in edges]) != 1:
        return False
    return len(sizes) < 3 or not _collapses(facets, sizes, ())


def prism_cell_counts(q: QuotientComplex) -> Dict[int, int]:
    """Cell counts of the prism (product with an interval) over the quotient:
    two copies of every cell plus one cell a dimension up."""
    counts = q.cell_counts()
    out: Dict[int, int] = {}
    for d, n in counts.items():
        out[d] = out.get(d, 0) + 2 * n
        out[d + 1] = out.get(d + 1, 0) + n
    return out


@dataclass
class WorkflowReport:
    flat: bool
    degree: Tuple[int, ...]
    h1: AbelianGroup
    surface: Optional[SurfaceClass] = None
    collapsed_to_point: Optional[bool] = None
    prism_cells: Optional[Dict[int, int]] = None
    gamma: Optional[GammaGraph] = None
    gamma_has_circuit: Optional[bool] = None
    conclusion: str = ""
    evidence: List[str] = field(default_factory=list)


def structure_report(structure: StellarStructure) -> WorkflowReport:
    """Classification chain for a closed structure over a 2-sphere."""
    return _report(surface_quotient(structure))


def _report(quotient: QuotientComplex) -> WorkflowReport:
    """`structure_report` on the structure's quotient, already built: every
    stage reads the quotient's face numbers.

    Nontrivial H1 refutes a sphere; a quotient that collapses to a point
    certifies one (README, "Certificates"), and is contractible, so its H1
    is trivial.  An edge class of m faces lies in m 2-cells of Q, so Q's
    free cells are the folds, the classes of one face: a quotient with a
    fold is collapsed first, and H1 is computed only when it does not reach
    a point, while one with no fold removes nothing, reaches no point and
    has its H1 alone.  Flatness, the surface class and the Γ graph are
    evidence only."""
    orders = _class_orders(quotient)
    collapsed = any(m == 1 for _, m, _ in orders) and quotient_collapses_to_point(quotient)
    group = AbelianGroup(0) if collapsed else quotient.h1()
    deg = _degree(orders)
    report = WorkflowReport(flat=deg == (2,), degree=deg, h1=group)
    if report.flat:
        report.surface = classify_flat_quotient(quotient)
        report.evidence.append(f"degree {deg}: structure is flat")
        report.evidence.append(f"quotient classified as {report.surface.kind}")
    else:
        report.gamma = _gamma(quotient, orders)
        report.gamma_has_circuit = has_circuit(report.gamma)
        report.evidence.append(f"degree {deg}: structure is not flat")
        report.evidence.append(
            "graph of high-order edges "
            + ("contains a circuit" if report.gamma_has_circuit else "is a forest")
        )
    if not group.is_trivial():
        report.conclusion = f"not a sphere: H1 = {group.describe()}"
        return report
    report.collapsed_to_point = collapsed
    if not collapsed:
        report.conclusion = "undecided: H1 = 0 and the quotient does not collapse"
        return report
    report.prism_cells = prism_cell_counts(quotient)
    report.evidence.append("quotient collapses to a point")
    report.evidence.append(f"prism over the quotient built, cells {report.prism_cells}")
    report.conclusion = "sphere"
    return report


def sphere_workflow(m: Complex, budget: int = 100_000) -> WorkflowReport:
    """Decide whether a closed 3-manifold is a sphere via the structure chain.

    The build's steps run on the facet pairing of M's sorted tetrahedra
    (`structure._crossings`, on the dual tree that recognition walks too),
    and the report reads Q as M's spine (`QuotientComplex._spine`), the
    complex of the N + 1 triangles that no step crossed: no structure is
    built or validated, no face table of the tetrahedra is built, and the
    spine lemma (README "The spine of a build") stands in for that check.
    The spine's vertex and edge counts are M's V and E for the closed-3
    rule (`moves._closed_3_manifold`), run once, after a walk that spans.
    Every refusal reads the vertex links once, and names a bad one in
    `check_manifold`'s words (`manifold._link_report`) at every budget;
    otherwise it is the walk's own, or that M is not closed."""
    if m.dimension() != 3 or not m.is_uniform():
        raise StructureError("sphere workflow expects a uniform 3-complex")
    top = sorted(m.generators)
    below = _facet_list(top, 3)
    partner = _partners(below)
    refusal: Exception = StructureError("sphere workflow expects a closed complex")
    if partner is not None and -1 not in partner:
        try:
            steps = list(_crossings(m, top, partner, budget))
        except (StructureError, BudgetExceeded) as walk:
            refusal = walk
        else:
            spine = QuotientComplex._spine(top, below, partner, steps)
            counts = spine.cell_counts()
            if _closed_3_manifold(top, partner, counts[0], counts[1]):
                report = _report(spine)
                report.evidence.insert(0, f"structure built in {len(steps)} absorption steps")
                return report
    manifold = _link_report(m, 3, dict(_link_verdicts(top, 2, {})))
    if manifold.closed and manifold.bad_vertices:
        raise StructureError(manifold.describe())
    raise refusal
