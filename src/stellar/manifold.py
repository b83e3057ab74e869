"""Manifold checking via vertex-link recognition."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .complexes import Complex, Simplex, _facet_list, _partners
from .errors import ComplexError
from .moves import EXACT, Recognition, _closed_3_links, _link_verdicts


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

    A uniform 3-complex first goes through the closed-3 rule of `recognize`
    on its own tetrahedra (README, "Certificates": closed 3-complexes
    recognise no link), `_closed_3_manifold`.  When it accepts, every vertex
    link is a 2-sphere, which `_recognize_low` would decide exactly, so each
    vertex gets SPHERE with an exact certificate and no link is built.  When
    it refuses, the links are recognised one by one, which names the bad
    vertices.  `sphere_workflow` runs that corner pass itself, and keeps the
    facet pairing it makes for the build's steps; it comes here only to word
    a refusal.
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
    if dim == 3 and _closed_3_manifold(k):
        verdicts = dict.fromkeys(sorted(k.vertices()), (Recognition.SPHERE, EXACT))
    else:
        # one call recognises each distinct link once, vertex links and the
        # links inside them alike
        verdicts = dict(_link_verdicts(k, dim - 1, {}))
    results = {v: shape for v, (shape, _) in verdicts.items()}
    bad = [v for v, shape in results.items() if shape is Recognition.NEITHER]
    unknown = [v for v, shape in results.items() if shape is Recognition.UNKNOWN]
    verdict = False if bad else None if unknown else True
    # k is closed exactly when every vertex link is: a sphere link is and a
    # ball link is not; a NEITHER or UNKNOWN link leaves it to a boundary pass
    closed = Recognition.BALL not in results.values() and (verdict is True or k.is_closed())
    certificates = {v: cert for v, (_, cert) in verdicts.items()}
    return ManifoldReport(verdict, closed, dim, results, certificates, bad, unknown)


def _closed_3_manifold(k: Complex) -> Optional[Tuple[List[Simplex], List[Simplex], List[int]]]:
    """Whether every vertex link of the uniform 3-complex `k` is a 2-sphere,
    by the closed-3 rule of `moves._certify` applied to k itself: every
    triangle lies in exactly two tetrahedra, chi = 0, and every link's dual
    graph is connected (`_closed_3_links`).  When every link is a 2-sphere,
    each triangle lies in two tetrahedra and sum over v of (2 - chi(lk v))
    = 2 chi = 0, so the rule accepts; when it accepts, every link is a
    2-sphere.  On acceptance gives the facet pairing the rule read: the
    sorted tetrahedra, their facets as `_facet_list` lists them, and
    `_partners` of those; None says only that some link is not a 2-sphere."""
    top = sorted(k.generators)
    below = _facet_list(top, 3)
    partner = _partners(below)
    n0 = len(k.vertices())
    # closed, so F = 2T and chi = V - E + F - T = V - E + T
    if partner is None or -1 in partner or n0 - len(set(_facet_list(top, 2))) + len(top):
        return None
    return (top, below, partner) if _closed_3_links(partner, n0) else None
