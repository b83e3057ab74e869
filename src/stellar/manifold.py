"""Manifold checking via vertex-link recognition."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .complexes import Complex
from .errors import ComplexError
from .moves import Recognition, Seen, _recognize


@dataclass
class ManifoldReport:
    """Outcome of a per-vertex link inspection.

    `is_manifold` is None when at least one link came back Unknown and no
    link was outright rejected.  `link_certificates` names what decided each
    link: "exact" (dimension <= 2, or a refuting invariant) or "collapse", as
    in `recognize`; None for an Unknown link.
    """

    is_manifold: Optional[bool]
    closed: bool
    dimension: int
    link_results: Dict[int, Recognition] = field(default_factory=dict)
    link_certificates: Dict[int, Optional[str]] = field(default_factory=dict)
    bad_vertices: List[int] = field(default_factory=list)
    unknown_vertices: List[int] = field(default_factory=list)

    def describe(self) -> str:
        if self.is_manifold is None:
            return (
                f"undecided {self.dimension}-complex: links at "
                f"{self.unknown_vertices} have no certificate: a vertex link "
                f"inside them was undecided, or their collapse stopped short "
                f"with trivial H1"
            )
        if not self.is_manifold:
            return (
                f"not a manifold: bad links at vertices {self.bad_vertices}"
            )
        kind = "closed" if self.closed else "bounded"
        return f"{kind} {self.dimension}-manifold"


def check_manifold(k: Complex, budget: Optional[int] = None) -> ManifoldReport:
    """Check whether every vertex link is a sphere or ball of the right dimension.

    A link that is a sphere puts the vertex in the interior; a ball puts it
    on the boundary.  Any other answer disqualifies the complex.  `budget`
    has no effect: recognition runs no search.  The keyword is kept for
    callers that still pass it.
    """
    if not k:
        raise ComplexError("cannot check the empty complex")
    if not k.is_uniform():
        return ManifoldReport(False, False, k.dimension())
    dim = k.dimension()
    if dim < 0:
        raise ComplexError(
            "cannot check {()}, the (-1)-dimensional complex: it has no vertex"
        )
    if dim == 0:
        return ManifoldReport(True, True, 0)
    results: Dict[int, Recognition] = {}
    certificates: Dict[int, Optional[str]] = {}
    bad: List[int] = []
    unknown: List[int] = []
    # one call recognises each distinct link once, vertex links and the
    # links inside them alike
    seen: Seen = {}
    links = k.vertex_links()
    for v in sorted(links):
        res, certificates[v] = _recognize(links[v], dim - 1, seen)
        results[v] = res
        if res is Recognition.NEITHER:
            bad.append(v)
        elif res is Recognition.UNKNOWN:
            unknown.append(v)
    verdict: Optional[bool]
    if bad:
        verdict = False
    elif unknown:
        verdict = None
    else:
        verdict = True
    # k is closed exactly when every vertex link is: a sphere link is and a
    # ball link is not; a NEITHER or UNKNOWN link leaves it to a boundary pass
    closed = Recognition.BALL not in results.values() and (verdict is True or k.is_closed())
    return ManifoldReport(
        is_manifold=verdict,
        closed=closed,
        dimension=dim,
        link_results=results,
        link_certificates=certificates,
        bad_vertices=bad,
        unknown_vertices=unknown,
    )

