"""Classifiers built on the quotient machinery: first homology, surface
recognition of flat quotients, and the end-to-end sphere workflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Tuple, Union

from .complexes import Complex, Simplex, UnionFind
from .errors import StructureError
from .group import _class_orders, _degree, _gamma, has_circuit, GammaGraph
from .homology import AbelianGroup, complex_h1
from .manifold import check_manifold
from .moves import free_face_collapse
from .quotient import QuotientComplex, StellarStructure
from .structure import _verify, build_structure


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


_SIDE_SIGNS = (1, -1, 1)  # faces (t1,t2), (t0,t2), (t0,t1) of a triangle


def _surface_data(q: QuotientComplex):
    """Edge incidences, corner links, boundary and orientability of a
    two-dimensional quotient.  Returns None with a reason when the cell
    complex is not a surface."""
    tris = q.cells.get(2, [])
    edges = q.cells.get(1, [])
    verts = q.cells.get(0, [])
    if q.cells.get(3):
        return None, "has cells above dimension two"
    # each triangle contributes three edge incidences
    inc: Dict[Simplex, List[Tuple[int, int, int]]] = {e: [] for e in edges}
    for ti, t in enumerate(tris):
        for side, face in enumerate([(t[1], t[2]), (t[0], t[2]), (t[0], t[1])]):
            root, par = q.cell_of(face)
            inc[root].append((ti, side, par))
    for e, hits in inc.items():
        if len(hits) > 2:
            return None, f"edge cell {e} lies in {len(hits)} two-cells"
    # vertex links: corners glued along interior edge incidences
    corner_id: Dict[Tuple[int, int], int] = {}
    corners_at: Dict[Simplex, List[int]] = {v: [] for v in verts}
    for ti, t in enumerate(tris):
        for pos in range(3):
            cid = len(corner_id)
            corner_id[(ti, pos)] = cid
            corners_at[q.cell_of((t[pos],))[0]].append(cid)
    adj: Dict[int, List[int]] = {c: [] for c in corner_id.values()}
    for e, hits in inc.items():
        if len(hits) != 2:
            continue
        (t1, s1, _), (t2, s2, _) = hits
        # side s excludes vertex position s; its endpoints are the other two
        for v in verts:
            ends1 = [p for p in range(3) if p != s1
                     and q.cell_of((tris[t1][p],))[0] == v]
            ends2 = [p for p in range(3) if p != s2
                     and q.cell_of((tris[t2][p],))[0] == v]
            for p1 in ends1:
                for p2 in ends2:
                    a, b = corner_id[(t1, p1)], corner_id[(t2, p2)]
                    adj[a].append(b)
                    adj[b].append(a)
    for v, cs in corners_at.items():
        if not cs:
            return None, f"isolated vertex cell {v}"
        if any(len(adj[c]) > 2 for c in cs):
            return None, f"vertex cell {v} has a branching link"
        # connectivity of the corner graph at v
        seen = {cs[0]}
        stack = [cs[0]]
        while stack:
            c = stack.pop()
            for d in adj[c]:
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        if seen != set(cs):
            return None, f"vertex cell {v} has a disconnected link"
    # boundary circles
    bdy_edges = [e for e, hits in inc.items() if len(hits) == 1]
    bdy_deg: Dict[Simplex, int] = {}
    for e in bdy_edges:
        for endpoint in ((e[0],), (e[1],)):
            root = q.cell_of(endpoint)[0]
            bdy_deg[root] = bdy_deg.get(root, 0) + 1
    if any(d != 2 for d in bdy_deg.values()):
        return None, "boundary is not a union of circles"
    circles_uf = UnionFind(bdy_deg)
    for e in bdy_edges:
        circles_uf.union(q.cell_of((e[0],))[0], q.cell_of((e[1],))[0])
    circles = len(circles_uf.groups())
    # orientability: 2-color triangles so glued sides induce opposite signs
    color = [0] * len(tris)
    orientable = True
    for start in range(len(tris)):
        if color[start]:
            continue
        color[start] = 1
        stack = [start]
        while stack and orientable:
            ti = stack.pop()
            for e, hits in inc.items():
                pair = [h for h in hits if h[0] == ti]
                if len(hits) != 2 or not pair:
                    continue
                (t1, s1, p1), (t2, s2, p2) = hits
                rel = -_SIDE_SIGNS[s1] * _SIDE_SIGNS[s2] * (-1) ** (p1 ^ p2)
                if t1 == t2:
                    if rel != 1:
                        orientable = False
                    continue
                other = t2 if ti == t1 else t1
                want = color[ti] * rel
                if color[other] == 0:
                    color[other] = want
                    stack.append(other)
                elif color[other] != want:
                    orientable = False
    return (inc, circles, orientable), ""


def classify_flat_quotient(q: QuotientComplex) -> SurfaceClass:
    """Name the surface a flat quotient forms, or report why it is none."""
    chi = q.euler_characteristic()
    data, reason = _surface_data(q)
    if data is None:
        return SurfaceClass("Other", chi, detail=reason)
    _, circles, orientable = data
    closed = circles == 0
    if chi == 1 and not closed and circles == 1 and orientable:
        return SurfaceClass("Disk", chi, orientable=True, boundary_circles=1)
    if chi == 1 and closed and not orientable:
        return SurfaceClass("ProjectivePlane", chi, orientable=False, boundary_circles=0)
    if chi == 2 and closed and orientable:
        return SurfaceClass("Sphere", chi, orientable=True, boundary_circles=0)
    return SurfaceClass("Other", chi, orientable=orientable, boundary_circles=circles)


def quotient_collapses_to_point(q: QuotientComplex) -> bool:
    """Free-face collapse on the quotient cells; True when one 0-cell remains."""
    dim = {c: d for d, group in q.cells.items() for c in group}
    facets = {c: set() for c in dim}
    for c, d in dim.items():
        if d:
            facets[c] = {q.cell_of(f)[0] for m in q.members[c] for f in combinations(m, d)}
    alive = free_face_collapse(dim, facets.__getitem__)
    return len(alive) == 1 and dim[next(iter(alive))] == 0


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
    return _report(structure, QuotientComplex.from_structure(structure))


def _report(structure: StellarStructure, quotient: QuotientComplex) -> WorkflowReport:
    """`structure_report` on the structure's quotient, already built.

    Nontrivial H1 refutes a sphere; with H1 trivial, a quotient that
    collapses to a point certifies one (README, "Certificates").  Flatness,
    the surface class and the Γ graph are evidence only."""
    group = quotient.h1()
    orders = _class_orders(structure)
    deg = _degree(orders)
    report = WorkflowReport(flat=deg == (2,), degree=deg, h1=group)
    if report.flat:
        report.surface = classify_flat_quotient(quotient)
        report.evidence.append(f"degree {deg}: structure is flat")
        report.evidence.append(f"quotient classified as {report.surface.kind}")
    else:
        report.gamma = _gamma(structure, orders)
        report.gamma_has_circuit = has_circuit(report.gamma)
        report.evidence.append(f"degree {deg}: structure is not flat")
        report.evidence.append(
            "graph of high-order edges "
            + ("contains a circuit" if report.gamma_has_circuit else "is a forest")
        )
    if not group.is_trivial():
        report.conclusion = f"not a sphere: H1 = {group.describe()}"
        return report
    report.collapsed_to_point = quotient_collapses_to_point(quotient)
    if not report.collapsed_to_point:
        report.conclusion = "undecided: H1 = 0 and the quotient does not collapse"
        return report
    report.prism_cells = prism_cell_counts(quotient)
    report.evidence.append("quotient collapses to a point")
    report.evidence.append(f"prism over the quotient built, cells {report.prism_cells}")
    report.conclusion = "sphere"
    return report


def sphere_workflow(m: Complex, budget: int = 100_000) -> WorkflowReport:
    """Decide whether a closed 3-manifold is a sphere via the structure chain."""
    if m.dimension() != 3 or not m.is_uniform():
        raise StructureError("sphere workflow expects a uniform 3-complex")
    if not m.is_closed():
        raise StructureError("sphere workflow expects a closed complex")
    if not m.is_connected():
        raise StructureError("sphere workflow expects a connected complex")
    manifold = check_manifold(m)
    if manifold.is_manifold is False:
        raise StructureError(manifold.describe())
    result = build_structure(m, budget=budget)
    problems, quotient = _verify(result, m)  # the one quotient of this run
    if problems:
        raise StructureError("; ".join(problems))
    report = _report(result.structure, quotient)
    report.evidence.insert(
        0, f"structure built in {len(result.steps)} absorption steps"
    )
    return report
