"""Vertex equivalences on spheres, pairing structures, and their quotients."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .complexes import Complex, Simplex, simplex
from .errors import EquivalenceError
from .homology import (
    AbelianGroup,
    Matrix,
    boundary_matrices,
    homology_from_boundaries,
    z2_betti_from_boundaries,
)


def _sort_parity(seq: Sequence[int]) -> int:
    """Parity (0 even, 1 odd) of the permutation sorting `seq`."""
    seq = list(seq)
    parity = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                parity ^= 1
    return parity


class SignedUnionFind:
    """Union-find where each element carries a sign relative to its root."""

    def __init__(self) -> None:
        self._parent: Dict[Simplex, Simplex] = {}
        self._parity: Dict[Simplex, int] = {}
        self.conflicts: Set[Simplex] = set()

    def add(self, x: Simplex) -> None:
        if x not in self._parent:
            self._parent[x] = x
            self._parity[x] = 0

    def find(self, x: Simplex) -> Tuple[Simplex, int]:
        path = []
        root = x
        parity = 0
        while self._parent[root] != root:
            path.append((root, parity))
            parity ^= self._parity[root]
            root = self._parent[root]
        for node, above in path:
            self._parent[node] = root
            self._parity[node] = parity ^ above
        return root, parity

    def union(self, x: Simplex, y: Simplex, parity: int) -> None:
        self.add(x)
        self.add(y)
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            if px ^ py != parity:
                self.conflicts.add(rx)
            return
        # attach the larger tuple under the smaller so roots are canonical
        if (len(ry), ry) < (len(rx), rx):
            rx, ry = ry, rx
            px, py = py, px
        self._parent[ry] = rx
        self._parity[ry] = px ^ py ^ parity
        if ry in self.conflicts:
            self.conflicts.discard(ry)
            self.conflicts.add(rx)

    def members(self) -> Dict[Simplex, List[Simplex]]:
        groups: Dict[Simplex, List[Simplex]] = {}
        for x in self._parent:
            groups.setdefault(self.find(x)[0], []).append(x)
        return groups


@dataclass(frozen=True)
class RegularEquivalence:
    """A vertex partition plus a pairing of generators on a sphere."""

    vertex_classes: Tuple[FrozenSet[int], ...]
    generator_pairs: Tuple[Tuple[Simplex, Simplex], ...]

    @staticmethod
    def build(
        classes: Sequence[Sequence[int]],
        pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
    ) -> "RegularEquivalence":
        seen: Set[int] = set()
        frozen = []
        for c in classes:
            fc = frozenset(c)
            if not fc:
                raise EquivalenceError("empty vertex class")
            if fc & seen:
                raise EquivalenceError("vertex classes overlap")
            seen |= fc
            frozen.append(fc)
        fp = tuple(
            sorted(tuple(sorted((simplex(g), simplex(p)))) for g, p in pairs)
        )
        frozen.sort(key=min)
        return RegularEquivalence(tuple(frozen), fp)

    def class_of(self, sphere: Complex) -> Dict[int, int]:
        """Vertex -> class id; unlisted vertices become singleton classes."""
        out: Dict[int, int] = {}
        for i, c in enumerate(self.vertex_classes):
            for v in c:
                out[v] = i
        nxt = len(self.vertex_classes)
        for v in sorted(sphere.vertices()):
            if v not in out:
                out[v] = nxt
                nxt += 1
        return out

    def problems(self, sphere: Complex) -> List[str]:
        """Diagnostics; empty list means the equivalence is regular."""
        out: List[str] = []
        cls = self.class_of(sphere)
        listed = {v for c in self.vertex_classes for v in c}
        stray = listed - sphere.vertices()
        if stray:
            out.append(f"classes mention vertices {sorted(stray)} not in the sphere")
        for g in sphere.sorted_generators():
            ids = [cls[v] for v in g]
            if len(set(ids)) != len(ids):
                out.append(f"generator {g} contains two equivalent vertices")
        counts: Dict[Simplex, int] = {}
        for g, p in self.generator_pairs:
            if g == p:
                out.append(f"generator {g} is paired with itself")
            for h in (g, p):
                if h not in sphere:
                    out.append(f"paired simplex {h} is not a generator of the sphere")
                counts[h] = counts.get(h, 0) + 1
        for h, n in counts.items():
            if n > 1:
                out.append(f"generator {h} occurs in {n} pairs")
        for g, p in self.generator_pairs:
            if g in sphere and p in sphere:
                try:
                    pair_matching(g, p, cls)
                except EquivalenceError as exc:
                    out.append(str(exc))
        return out

    def is_regular(self, sphere: Complex) -> bool:
        return not self.problems(sphere)


def pair_matching(g: Simplex, p: Simplex, cls: Dict[int, int]) -> Dict[int, int]:
    """The class-respecting vertex bijection g -> p, if there is one."""
    if len(g) != len(p):
        raise EquivalenceError(f"paired generators {g} and {p} have different sizes")
    by_class = {cls[v]: v for v in p}
    if len(by_class) != len(p):
        raise EquivalenceError(f"generator {p} contains two equivalent vertices")
    out: Dict[int, int] = {}
    for v in g:
        w = by_class.get(cls[v])
        if w is None:
            raise EquivalenceError(
                f"no vertex of {p} is equivalent to vertex {v} of {g}"
            )
        out[v] = w
    return out


@dataclass(frozen=True)
class StellarStructure:
    """An apex, a sphere around it, and a regular equivalence on the sphere."""

    apex: int
    sphere: Complex
    equivalence: RegularEquivalence

    def validate(self) -> List[str]:
        out = []
        if self.apex in self.sphere.vertices():
            out.append(f"apex {self.apex} occurs in the sphere")
        out.extend(self.equivalence.problems(self.sphere))
        return out

    @property
    def is_closed(self) -> bool:
        """True when every generator of the sphere belongs to a pair."""
        paired: Set[Simplex] = set()
        for g, p in self.equivalence.generator_pairs:
            paired.add(g)
            paired.add(p)
        return paired == set(self.sphere.generators)


class QuotientComplex:
    """CW quotient of a sphere by a regular equivalence.

    Cells are classes of faces under the identifications induced, pair by
    pair, by the class-respecting vertex matchings.
    """

    def __init__(
        self,
        sphere: Complex,
        dsu: SignedUnionFind,
        cls: Dict[int, int],
    ) -> None:
        self.sphere = sphere
        self._dsu = dsu
        self.vertex_class = cls
        groups = dsu.members()
        self.cells: Dict[int, List[Simplex]] = {}
        self.members: Dict[Simplex, List[Simplex]] = {}
        for root, mem in groups.items():
            self.cells.setdefault(len(root) - 1, []).append(root)
            self.members[root] = sorted(mem)
        for d in self.cells:
            self.cells[d].sort()

    @staticmethod
    def from_structure(structure: StellarStructure) -> "QuotientComplex":
        problems = structure.validate()
        if problems:
            raise EquivalenceError("; ".join(problems))
        sphere = structure.sphere
        cls = structure.equivalence.class_of(sphere)
        dsu = SignedUnionFind()
        for f in sphere.closure():
            dsu.add(f)
        for g, p in structure.equivalence.generator_pairs:
            phi = pair_matching(g, p, cls)
            for r in range(1, len(g) + 1):
                for f in itertools.combinations(g, r):
                    image = [phi[v] for v in f]
                    dsu.union(f, tuple(sorted(image)), _sort_parity(image))
        return QuotientComplex(sphere, dsu, cls)

    @staticmethod
    def from_complex(k: Complex) -> "QuotientComplex":
        """Trivial quotient: every face is its own cell."""
        dsu = SignedUnionFind()
        for f in k.closure():
            dsu.add(f)
        cls = {v: i for i, v in enumerate(sorted(k.vertices()))}
        return QuotientComplex(k, dsu, cls)

    def cell_of(self, face: Simplex) -> Tuple[Simplex, int]:
        """(representative, parity) for any face of the sphere."""
        return self._dsu.find(tuple(face))

    def cell_counts(self) -> Dict[int, int]:
        return {d: len(cells) for d, cells in self.cells.items()}

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(cells) for d, cells in self.cells.items())

    def boundary_matrices(self) -> Tuple[int, Matrix, Matrix]:
        """(n1, d1, d2) of the quotient CW complex through dimension two."""
        low = {
            r for d in (0, 1, 2) for r in self.cells.get(d, [])
        } & self._dsu.conflicts
        if low:
            raise EquivalenceError(
                f"cells {sorted(low)} carry inconsistent orientations"
            )
        return boundary_matrices(
            self.cells.get(0, []),
            self.cells.get(1, []),
            self.cells.get(2, []),
            self.cell_of,
        )

    def h1(self) -> AbelianGroup:
        n1, d1, d2 = self.boundary_matrices()
        return homology_from_boundaries(n1, d1, d2)

    def z2_b1(self) -> int:
        n1, d1, d2 = self.boundary_matrices()
        return z2_betti_from_boundaries(n1, d1, d2)


def euler_identity_check(structure: StellarStructure, m: Complex) -> bool:
    """chi of the quotient equals chi of the manifold plus (-1)^(n+1)."""
    return _euler_identity(QuotientComplex.from_structure(structure), m)


def _euler_identity(q: QuotientComplex, m: Complex) -> bool:
    n = m.dimension()
    return q.euler_characteristic() == m.euler_characteristic() + (-1) ** (n + 1)
