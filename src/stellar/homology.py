"""Integer and mod-2 linear algebra for small chain complexes.

Everything here works on dense lists of Python ints, which keeps the
arithmetic exact at any size.  Two independent code paths are provided on
purpose: Smith normal form over the integers, and Gaussian elimination
over GF(2) used as a cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from .complexes import Complex, Simplex

Matrix = List[List[int]]


def smith_normal_form(rows: Sequence[Sequence[int]]) -> List[int]:
    """Diagonal of the Smith normal form (nonnegative, divisor chain).

    Returns only the nonzero invariant factors d1 | d2 | ... .
    """
    m: Matrix = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    t = 0
    diag: List[int] = []
    while t < nr and t < nc:
        # locate the entry of least nonzero magnitude in the remaining block
        pi = pj = -1
        best = 0
        for i in range(t, nr):
            for j in range(t, nc):
                v = abs(m[i][j])
                if v and (best == 0 or v < best):
                    best, pi, pj = v, i, j
        if pi < 0:
            break
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(t, nc):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        dirty = True
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                # enforce divisibility: pivot must divide the whole block
                piv = m[t][t]
                for i in range(t + 1, nr):
                    bad = next((j for j in range(t + 1, nc) if m[i][j] % piv), None)
                    if bad is not None:
                        for j in range(t, nc):
                            m[t][j] += m[i][j]
                        dirty = True
                        break
        diag.append(abs(m[t][t]))
        t += 1
    return [d for d in diag if d]


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    return len(smith_normal_form(rows))


def z2_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over GF(2), via bitmask elimination.  Independent of SNF."""
    masks = []
    for r in rows:
        bits = 0
        for j, v in enumerate(r):
            if v % 2:
                bits |= 1 << j
        if bits:
            masks.append(bits)
    rank = 0
    while masks:
        pivot = masks.pop()
        rank += 1
        low = pivot & -pivot
        masks = [m ^ pivot if m & low else m for m in masks]
        masks = [m for m in masks if m]
    return rank


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: Z^rank + sum of Z/d for d in torsion."""

    rank: int
    torsion: Tuple[int, ...] = ()

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def describe(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def z2_betti(self) -> int:
        """Rank of (group tensor GF(2)) = free rank + even torsion factors."""
        return self.rank + sum(1 for d in self.torsion if d % 2 == 0)


def homology_from_boundaries(n1: int, d1: Matrix, d2: Matrix) -> AbelianGroup:
    """H1 of a chain complex C2 --d2--> C1 --d1--> C0, C1 of dimension n1."""
    snf2 = smith_normal_form(d2)
    r1 = integer_rank(d1)
    r2 = len(snf2)
    rank = n1 - r1 - r2
    torsion = tuple(d for d in snf2 if d > 1)
    return AbelianGroup(rank, torsion)


def z2_betti_from_boundaries(n1: int, d1: Matrix, d2: Matrix) -> int:
    """dim of first homology with GF(2) coefficients; oracle path."""
    return n1 - z2_rank(d1) - z2_rank(d2)


def boundary_matrices(
    verts: Sequence[Simplex],
    edges: Sequence[Simplex],
    tris: Sequence[Simplex],
    cell_of: Callable[[Simplex], Tuple[Simplex, int]],
) -> Tuple[int, Matrix, Matrix]:
    """(n1, d1, d2) of a cell complex through dimension two.

    Cells are named by representative simplexes, listed per dimension in
    matrix order.  `cell_of` maps a face of a representative to its cell and
    the parity of the face's orientation against that cell's.  Orientations
    follow the usual alternating-sign rule on sorted vertex tuples.
    """
    vi: Dict[Simplex, int] = {v: i for i, v in enumerate(verts)}
    ei: Dict[Simplex, int] = {e: i for i, e in enumerate(edges)}
    d1: Matrix = [[0] * len(edges) for _ in verts]
    for j, (u, v) in enumerate(edges):
        d1[vi[cell_of((v,))[0]]][j] += 1
        d1[vi[cell_of((u,))[0]]][j] -= 1
    d2: Matrix = [[0] * len(tris) for _ in edges]
    for j, t in enumerate(tris):
        # faces (t1,t2), (t0,t2), (t0,t1) carry signs +, -, +
        for pos, face in enumerate([(t[1], t[2]), (t[0], t[2]), (t[0], t[1])]):
            root, parity = cell_of(face)
            d2[ei[root]][j] += -1 if (pos + parity) % 2 else 1
    if not edges:
        d1 = [[] for _ in verts]
        d2 = []
    if not tris:
        d2 = [[] for _ in edges]
    return len(edges), d1, d2


def simplicial_boundary_matrices(k: Complex) -> Tuple[int, Matrix, Matrix]:
    """(n1, d1, d2) for the full face closure of a complex."""
    return boundary_matrices(
        sorted(k.faces_of_dim(0)),
        sorted(k.faces_of_dim(1)),
        sorted(k.faces_of_dim(2)),
        lambda f: (f, 0),
    )


def complex_h1(k: Complex) -> AbelianGroup:
    """Integer first homology of a simplicial complex (dims <= 2 matter)."""
    n1, d1, d2 = simplicial_boundary_matrices(k)
    return homology_from_boundaries(n1, d1, d2)
