"""Manifold checking via vertex-link recognition."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .complexes import Complex, _facet_list, _partners
from .errors import ComplexError
from .moves import EXACT, Recognition, Verdict, _closed_3_manifold, _link_verdicts


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

    The generators are sorted once.  A uniform 3-complex first goes through
    the closed-3 rule of `recognize`, `moves._closed_3_manifold`, on its own
    tetrahedra, their facet pairing and the sizes of its vertex set and of
    the set of its edges, with no walk (README, "Certificates": closed
    3-complexes recognise no link).  When it accepts, every vertex link is a
    2-sphere, which `_recognize_low` would decide exactly, so each vertex
    gets SPHERE with an exact certificate and no link is built.  Otherwise
    the links, read sorted off the star index, are recognised one by one,
    which names the bad vertices.
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
    top = sorted(k.generators)
    partner = _partners(_facet_list(top, 3)) if dim == 3 else None
    if partner and -1 not in partner and _closed_3_manifold(
        top, partner, len(k.vertices()), len(set(_facet_list(top, 2)))
    ):
        verdicts = dict.fromkeys(sorted(k.vertices()), (Recognition.SPHERE, EXACT))
    else:
        # one call recognises each distinct link once, vertex links and the
        # links inside them alike
        verdicts = dict(_link_verdicts(top, dim - 1, {}))
    return _link_report(k, dim, verdicts)


def _link_report(k: Complex, dim: int, verdicts: Dict[int, Verdict]) -> ManifoldReport:
    """The report of `check_manifold` on the uniform `dim`-complex `k`, whose
    vertex links have the verdicts `verdicts`, vertex by vertex in
    increasing order."""
    results = {v: shape for v, (shape, _) in verdicts.items()}
    bad = [v for v, shape in results.items() if shape is Recognition.NEITHER]
    unknown = [v for v, shape in results.items() if shape is Recognition.UNKNOWN]
    verdict = False if bad else None if unknown else True
    # k is closed exactly when every vertex link is: a sphere link is and a
    # ball link is not; a NEITHER or UNKNOWN link leaves it to a boundary pass
    closed = Recognition.BALL not in results.values() and (verdict is True or k.is_closed())
    certificates = {v: cert for v, (_, cert) in verdicts.items()}
    return ManifoldReport(verdict, closed, dim, results, certificates, bad, unknown)

