"""Integer and mod-2 linear algebra for chain complexes.

Matrices come in and go out as sparse rows, a list of {column: value}
dicts of Python ints, which keeps the arithmetic exact at any size and the
memory proportional to the nonzero entries.  The Smith normal form
eliminates unit pivots on those rows first and runs a dense loop only on
the block they leave.  H1 hands it less still: a spanning forest of the
1-skeleton and then one of the 2-cells, across the edges that lie in two of
them (a tree-cotree reduction), eliminate all but a few edges, so a lens
shell's quotient reaches the SNF as a 2 x 2 block.  Two independent code
paths are provided on purpose: Smith normal form over the integers, and
Gaussian elimination over GF(2) on the full d1 and d2, used as a
cross-check oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .complexes import Complex, UnionFind, face_table

Matrix = List[List[int]]  # dense rows, only for the unit-free block
SparseRows = List[Dict[int, int]]  # row i -> {column: value}; zeros may be absent
Cells = Sequence[Sequence[Tuple[int, int]]]  # cell -> (facet cell, parity) per facet


def smith_normal_form(rows: Sequence[Dict[int, int]]) -> List[int]:
    """Diagonal of the Smith normal form (nonnegative, divisor chain).

    Returns only the nonzero invariant factors d1 | d2 | ... .  Pivots of
    value +-1 are eliminated first on sparse rows; each contributes a factor
    1, and only the block they leave goes through the dense loop.
    """
    units, rest = _eliminate_units(rows)
    return [1] * units + _dense_snf(rest)


def _eliminate_units(rows: Sequence[Dict[int, int]]) -> Tuple[int, Matrix]:
    """Eliminate +-1 pivots; return their number and the dense remainder.

    A unit pivot clears its column by row operations and then its row by
    column operations that touch nothing else, so the matrix splits as
    (1) + remainder without changing the invariant factors.  The pivot is
    taken in the shortest row that has a unit, at its shortest column, which
    keeps the fill small.  The rows are copied, never changed.
    """
    sparse: Dict[int, Dict[int, int]] = {}
    cols: Dict[int, Set[int]] = {}
    for i, r in enumerate(rows):
        row = {j: v for j, v in r.items() if v}
        if row:
            sparse[i] = row
            for j in row:
                cols.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in sparse.items()]
    heapq.heapify(heap)
    units = 0
    while heap:
        size, i = heapq.heappop(heap)
        row = sparse.get(i)
        if row is None or len(row) != size:
            continue  # stale: the row is gone or was pushed again when it changed
        unit = [j for j, v in row.items() if v == 1 or v == -1]
        if not unit:
            continue  # stays for the dense loop unless a later step changes it
        j = min(unit, key=lambda c: len(cols[c]))
        del sparse[i]
        for k in row:
            cols[k].discard(i)
        u = row[j]
        for t in cols.pop(j):
            other = sparse[t]
            f = other[j] * u
            for k, v in row.items():
                w = other.get(k, 0) - f * v
                if w:
                    if k not in other:
                        cols[k].add(t)
                    other[k] = w
                else:
                    del other[k]
                    if k != j:
                        cols[k].discard(t)
            if other:
                heapq.heappush(heap, (len(other), t))
            else:
                del sparse[t]
        units += 1
    keep = sorted({j for row in sparse.values() for j in row})
    return units, [[row.get(j, 0) for j in keep] for row in sparse.values()]


def _dense_snf(rows: Sequence[Sequence[int]]) -> List[int]:
    """Nonzero invariant factors by the dense loop.

    Each round moves the entry of least nonzero magnitude in the remaining
    block to the corner and divides its row and column by it.  A nonzero
    remainder, or an entry the corner does not divide (added into the
    corner's row), is smaller than the corner, so the next round's corner
    is smaller and the loop ends.  Choosing the least entry afresh every
    round, not once per corner, keeps the other entries small.
    """
    m: Matrix = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    diag: List[int] = []
    for t in range(min(nr, nc)):
        while True:
            block = ((i, j) for i in range(t, nr) for j in range(t, nc) if m[i][j])
            least = min(block, key=lambda ij: abs(m[ij[0]][ij[1]]), default=None)
            if least is None:
                return diag
            pi, pj = least
            m[t], m[pi] = m[pi], m[t]
            for row in m:
                row[t], row[pj] = row[pj], row[t]
            piv = m[t][t]
            for i in range(t + 1, nr):
                q = m[i][t] // piv
                if q:
                    for j in range(t, nc):
                        m[i][j] -= q * m[t][j]
            for j in range(t + 1, nc):
                q = m[t][j] // piv
                if q:
                    for row in m:
                        row[j] -= q * row[t]
            if any(m[i][t] for i in range(t + 1, nr)) or any(m[t][t + 1:]):
                continue
            bad = next(
                (i for i in range(t + 1, nr) if any(v % piv for v in m[i][t + 1:])),
                None,
            )
            if bad is None:
                break
            for j in range(t + 1, nc):
                m[t][j] += m[bad][j]
        diag.append(abs(m[t][t]))
    return diag


def z2_rank(rows: Sequence[Dict[int, int]]) -> int:
    """Rank over GF(2), via bitmask elimination.  Independent of SNF."""
    masks = []
    for r in rows:
        bits = 0
        for j, v in r.items():
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


def _rows(n: int, cells: Cells, d: int) -> SparseRows:
    """The boundary of the d-cells `cells` as sparse rows, one for each of
    the n (d-1)-cells: facet k of a cell, in `combinations` order, drops
    position d - k, so it carries the sign (-1)^(d - k), flipped by its
    parity.  Entries that cancel stay in their row as zeros."""
    rows: SparseRows = [{} for _ in range(n)]
    for j, facets in enumerate(cells):
        for k, (f, parity) in enumerate(facets):
            row = rows[f]
            row[j] = row.get(j, 0) + (-1 if (d - k + parity) % 2 else 1)
    return rows


def homology_from_boundaries(chains: Sequence[Cells]) -> AbelianGroup:
    """H1 of the cell complex whose levels `cell_chains` gives, by a
    tree-cotree reduction: a spanning forest of the edges, then one of the
    2-cells across the edges it leaves.

    d1 is the incidence matrix of the graph of vertex and edge cells.  For
    a spanning forest T of it, forgetting T's edges, pi: C1 -> Z^(E - T),
    is injective on ker d1 (a cycle on a forest is zero) and onto (the
    cycle closing e through T maps to e), so H1 = Z^(E - T) / pi(im d2):
    a generator for each edge outside T, a relation for each 2-cell.

    An edge e in exactly two relations R1 and R2, with coefficients a and b
    = +-1, is e = -a R1 by the first; put into the second, that leaves
    R2 - ab R1, which has no e.  Dropping e and R1 for it changes neither
    the rank nor the torsion.  Restricted to such edges d2 is the signed
    incidence matrix of the dual graph, so a spanning forest of the 2-cells
    across them, joined with parity 1 where a = b, does every substitution
    at once: each dual component keeps one relation, the sum of its cells c
    each times e_c = +-1, its sign against the root, and an edge whose join
    was idle closes a dual cycle and stays, with the coefficient
    e_1 a + e_2 b, 0 or +-2.  Those rows, and the rows of the edges in one
    2-cell or in more than two, are all that go through the SNF.

    An edge that lies twice in one 2-cell is not looked for: a face table
    has none, and a regular equivalence puts the vertices of a face in
    distinct classes, so no quotient has one either.  Levels above two are
    not read."""
    verts, edges, tris = (*chains, (), (), ())[:3]
    forest = UnionFind(len(verts))
    outside = forest.union_all([u for (u, _), _ in edges], [v for _, (v, _) in edges])
    around: Dict[int, List[Tuple[int, int]]] = {e: [] for e in outside}
    for c, facets in enumerate(tris):  # facet k of a 2-cell carries (-1)^(k + parity)
        for k, (e, parity) in enumerate(facets):
            if e in around:
                around[e].append((c, (k + parity) & 1))
    pairs = [(e, cells) for e, cells in around.items() if len(cells) == 2]
    dual = UnionFind(len(tris))
    idle = set(dual.union_all([a for _, ((a, _), _) in pairs], [b for _, (_, (b, _)) in pairs],
                              [1 ^ s ^ t for _, ((_, s), (_, t)) in pairs]))
    for i, (e, _) in enumerate(pairs):
        if i not in idle:
            del around[e]  # a dual forest edge: its relation merged into its neighbour's
    rows: SparseRows = []
    for incidences in around.values():
        row: Dict[int, int] = {}
        for c, s in incidences:
            root, parity = dual.find(c)
            row[root] = row.get(root, 0) + (-1 if parity ^ s else 1)
        rows.append(row)
    snf = smith_normal_form(rows)
    return AbelianGroup(len(rows) - len(snf), tuple(d for d in snf if d > 1))


def cell_chains(levels: Iterable[Sequence[int]], facets: Sequence[Sequence[int]],
                root: Sequence[int], sign: Sequence[int]) -> List[Cells]:
    """Each level's cells with their (facet cell, parity) lists, in every
    dimension, from faces numbered as in a face table: `facets[r]` lists the
    numbers of the facets of face r, `root[r]` and `sign[r]` give its cell,
    by that cell's least face, and its parity against it, and `levels[d]`
    lists the d-cells by their least faces.  A cell's facets are its least
    face's, and a facet cell is named by its place in the level below."""
    levels = list(levels)
    at = {r: i for level in levels[:-1] for i, r in enumerate(level)}
    return [[[(at[root[f]], sign[f]) for f in facets[c]] for c in level] for level in levels]


def complex_h1(k: Complex) -> AbelianGroup:
    """Integer first homology of a simplicial complex (dims <= 2 matter)."""
    return table_h1(*face_table(k))


def table_h1(levels: Sequence[Sequence], facets: Sequence[Sequence[int]]) -> AbelianGroup:
    """Integer first homology of the simplicial complex whose face table has
    the levels `levels` and the facet ranks `facets`, as `face_table` gives
    them: every face is its own cell, and only the levels through dimension
    two, which H1 reads, become chains.  A caller that holds the table
    already passes it here rather than building it again."""
    starts = list(accumulate(map(len, levels[:3]), initial=0))
    n = len(facets)
    cells = map(range, starts, starts[1:])
    return homology_from_boundaries(cell_chains(cells, facets, range(n), [0] * n))
