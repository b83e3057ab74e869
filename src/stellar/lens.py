"""Lens shells: twisted bipyramid structures on the 2-sphere.

The shell for parameters (q, p) identifies the northern and southern
triangle fans of a bipyramid with a rotation by p steps.  On the q-gon
bipyramid this is not regular: the rotation puts every equator vertex in
one class, so each triangle has two equivalent vertices.  So the shell is
built on the 2q-gon bipyramid, the q-gon with each equator edge subdivided:
its equator alternates corners and midpoints, the two form classes of their
own, and the rotation by p corners is a rotation by 2p equator steps.
"""

from __future__ import annotations

from math import gcd
from typing import List, Sequence, Tuple

from .complexes import Complex, Simplex
from .errors import StructureError
from .quotient import RegularEquivalence, StellarStructure


def _tri(*vs: int) -> Simplex:
    return tuple(sorted(vs))


def _bipyramid(ring: Sequence[int]) -> Tuple[List[Simplex], List[Simplex]]:
    """The northern and southern fans of the bipyramid with poles 1 and 2
    over the equator `ring`: triangle j of each fan is on the equator edge
    from ring[j] to the next vertex of the ring."""
    rim = [(v, ring[(j + 1) % len(ring)]) for j, v in enumerate(ring)]
    return [_tri(1, *e) for e in rim], [_tri(2, *e) for e in rim]


def _structure(
    apex: int, tris: List[Simplex], classes: List[List[int]], pairs: List[Tuple[Simplex, Simplex]]
) -> StellarStructure:
    """The structure about `apex` on the sphere of `tris`."""
    return StellarStructure(apex, Complex(tris), RegularEquivalence.build(classes, pairs))


def fold_structure(q: int = 4) -> StellarStructure:
    """Bipyramid folded across its equator: each northern triangle is glued
    to its southern mirror image, poles identified, equator fixed.  The
    quotient is a disk (the northern fan), and the resulting cone is a
    3-sphere."""
    if q < 3:
        raise StructureError("fold needs a q-gon equator with q >= 3")
    north, south = _bipyramid(range(3, q + 3))
    return _structure(q + 3, north + south, [[1, 2]], list(zip(north, south)))


def _lens_ring(q: int) -> List[int]:
    """The equator of the 2q-gon shell: corner k is 3 + k, and the midpoint
    after it is q + 4 plus the place of its corner edge among the corner
    edges in sorted order."""
    rim = [_tri(3 + k, 3 + (k + 1) % q) for k in range(q)]
    place = {e: i for i, e in enumerate(sorted(rim))}
    return [v for k, e in enumerate(rim) for v in (3 + k, q + 4 + place[e])]


def lens_structure(q: int, p: int) -> StellarStructure:
    """The lens shell for coprime parameters, as a regular structure."""
    if q < 2 or not 1 <= p < q:
        raise StructureError("lens parameters need q >= 2 and 1 <= p < q")
    if gcd(q, p) != 1:
        raise StructureError(f"lens parameters must be coprime, got ({q}, {p})")
    # the two corner edges of L(2, 1) are one edge, so it keeps the square's labels
    ring, apex = ([3, 4, 5, 6], 7) if q == 2 else (_lens_ring(q), q + 3)
    north, south = _bipyramid(ring)
    pairs = [(g, south[(j + 2 * p) % (2 * q)]) for j, g in enumerate(north)]
    return _structure(apex, north + south, [[1, 2], ring[::2], ring[1::2]], pairs)
