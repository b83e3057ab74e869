"""Vertex equivalences on spheres, pairing structures, and their quotients."""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain, combinations, count, repeat
from operator import itemgetter
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .complexes import Complex, Simplex, UnionFind, _face_table, _facet_list, _uncrossed, face_table, simplex
from .errors import EquivalenceError
from .homology import (
    AbelianGroup,
    Cells,
    SparseRows,
    _rows,
    cell_chains,
    homology_from_boundaries,
    z2_rank,
)

Matching = Dict[int, int]  # vertex of a generator -> vertex of its partner


def _sort_parity(seq: Sequence[int]) -> int:
    """Parity (0 even, 1 odd) of the permutation sorting `seq`: of its
    number of inversions."""
    return sum(a > b for a, b in combinations(seq, 2)) % 2


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
        return self._class_map(sphere.vertices())

    def _class_map(self, vertices: FrozenSet[int]) -> Dict[int, int]:
        """`class_of` for a sphere with the vertex set `vertices`."""
        out = {v: i for i, c in enumerate(self.vertex_classes) for v in c}
        out.update(zip(sorted(vertices - out.keys()), count(len(self.vertex_classes))))
        return out

    def problems(self, sphere: Complex) -> List[str]:
        """Diagnostics; empty list means the equivalence is regular."""
        return self._diagnose(sphere, sphere.vertices())

    def _diagnose(self, sphere: Complex, vertices: FrozenSet[int]) -> List[str]:
        """`problems` for a sphere with the vertex set `vertices`."""
        out: List[str] = []
        cls = self._class_map(vertices)
        stray = {v for c in self.vertex_classes for v in c} - vertices
        if stray:
            out.append(f"classes mention vertices {sorted(stray)} not in the sphere")
        gens = sphere.generators
        bad = {g for g in gens if len({cls[v] for v in g}) != len(g)}
        for g in sorted(bad, key=lambda g: (len(g), g)):
            out.append(f"generator {g} contains two equivalent vertices")
        for g, p in self.generator_pairs:
            if g == p:
                out.append(f"generator {g} is paired with itself")
            out.extend(f"paired simplex {h} is not a generator of the sphere"
                       for h in (g, p) if h not in gens)
        counts = Counter(chain.from_iterable(self.generator_pairs))
        out.extend(f"generator {h} occurs in {n} pairs" for h, n in counts.items() if n > 1)
        for g, p in self.generator_pairs:
            if g in gens and p in gens:
                try:
                    pair_matching(g, p, cls)
                except EquivalenceError as refusal:
                    out.append(str(refusal))
        # each fault once: a generator in two pairs can be faulted twice, and
        # one with two equivalent vertices is faulted by the scan above too
        return list(dict.fromkeys(out))


def pair_matching(g: Simplex, p: Simplex, cls: Dict[int, int]) -> Matching:
    """The class-respecting vertex bijection g -> p, if there is one."""
    if len(g) != len(p):
        raise EquivalenceError(f"paired generators {g} and {p} have different sizes")
    by_class = {cls[v]: v for v in p}
    if len(by_class) != len(p):
        raise EquivalenceError(f"generator {p} contains two equivalent vertices")
    out: Matching = {}
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
        vertices = self.sphere.vertices()  # read once for all three checks
        if self.apex in vertices:
            out.append(f"apex {self.apex} occurs in the sphere")
        return out + self.equivalence._diagnose(self.sphere, vertices)

    @property
    def is_closed(self) -> bool:
        """True when every generator of the sphere belongs to a pair."""
        return set(chain.from_iterable(self.equivalence.generator_pairs)) == self.sphere.generators


@lru_cache(maxsize=None)
def _face_plan(sigma: Tuple[int, ...]) -> Tuple[tuple, tuple]:
    """How a pair's vertex bijection acts on faces, by position: position i
    of a generator goes to position sigma[i] of its partner.  Local face 0
    is the generator, and each other local face is first met as facet k of
    an earlier face p; gives those (p, k), which read a generator's face
    numbers off a face table, and for each local face its image's number
    and the parity of the permutation sorting the image."""
    faces = [tuple(range(len(sigma)))]
    local = {faces[0]: 0}
    path = []
    for p, f in enumerate(faces):  # the list grows as faces are met
        for k, h in enumerate(combinations(f, len(f) - 1) if len(f) > 1 else ()):
            if h not in local:
                local[h] = len(faces)
                faces.append(h)
                path.append((p, k))
    plan = []
    for f in faces:
        image = [sigma[x] for x in f]
        plan.append((local[tuple(sorted(image))], _sort_parity(image)))
    return tuple(path), tuple(plan)


class QuotientComplex:
    """CW quotient of a sphere by a regular equivalence.

    Takes the sphere, a class map `cls` and pairs of generators, and
    checks on the face numbers what validation asks of them: the pairs are
    distinct generators, no edge of the sphere has both ends in one class
    (so neither has any generator), and each pair's generators have one
    size and meet the same classes.  Otherwise it raises EquivalenceError,
    which `from_structure` words as `validate` does.  Each pair's vertex
    matching is the one that respects the classes, read off `cls` as a map
    of positions.

    Cells are classes of faces under the identifications those matchings
    induce, and no cell carries clashing orientations.  A chain of
    identifications that carries a face back to itself maps each vertex to
    a vertex of the same class, and the face's vertices lie in distinct
    classes, so the chain is the identity, of even sign.  So each face's
    cell and parity do not depend on the order of the identifications.

    The faces of the sphere are numbered once, in (dimension,
    lexicographic) order, by `complexes.face_table`: `_faces` lists them,
    and `_facets[r]` lists the numbers of the facets of face r in
    `combinations` order.  The pairs are grouped by the position map of
    their matching, and each group reads its generators' face numbers off
    that table a column at a time along the `_face_plan` of that map, and
    applies each column's identifications in one batch to a signed
    union-find on the numbers (`_uf`), whose flat lists then give every
    face's cell and parity.  A cell is named by its least face.  A report
    reads the same numbers: `_roots[d]` lists the d-cells by their least
    faces, `_classes` maps each to its faces, `_generators` lists the
    generators in sorted order, and `_pairs` gives each pair by its
    generators' places in that list.  `chains` reads every level's cells
    with their facet cells once, in every dimension, and H1,
    `boundary_matrices` and the GF(2) oracle `z2_b1` read it, and the
    quotient collapse reads the ranks derived from it (`_ranked`).
    `_spine` reads the quotient of a build off the manifold instead, as the
    face table of its uncrossed facets: no sphere (None), no pairs, each
    cell one face.
    """

    def __init__(
        self,
        sphere: Complex,
        cls: Dict[int, int],
        pairs: Sequence[Tuple[Simplex, Simplex]] = (),
    ) -> None:
        self.sphere = sphere
        self.vertex_class = cls
        table = face_table(sphere)
        levels, facets = table.levels, table.facets
        faces = list(chain.from_iterable(levels))
        starts = list(accumulate(map(len, levels), initial=0))  # level d begins at starts[d]
        lower = sorted(starts[len(g) - 1] + bisect_left(levels[len(g) - 1], g)
                       for g in sphere.generators if 0 < len(g) < len(levels))
        generators = lower + list(range(starts[-2], starts[-1]))  # then the top level
        place = dict(zip(map(faces.__getitem__, generators), count()))  # in `generators`
        heads, tails = [place.get(g) for g, _ in pairs], [place.get(p) for _, p in pairs]
        # a generator has two equivalent vertices exactly when one of its edges does
        if (None in heads or None in tails or len(set(heads + tails)) < 2 * len(pairs)
                or any(cls[u] == cls[v] for u, v in chain.from_iterable(levels[1:2]))):
            raise EquivalenceError("the pairs and classes are not a regular equivalence")
        shapes: Dict[Tuple[int, ...], List[int]] = {}  # sigma -> its pairs' places in `pairs`
        for j, (g, p) in enumerate(pairs):
            pos = {cls[v]: i for i, v in enumerate(p)}  # class -> its vertex's position in p
            sigma = tuple(map(pos.get, map(cls.__getitem__, g)))
            if len(g) != len(p) or None in sigma:
                raise EquivalenceError("the pairs and classes are not a regular equivalence")
            shapes.setdefault(sigma, []).append(j)
        uf = UnionFind(len(faces))
        for sigma, at in shapes.items():
            path, plan = _face_plan(sigma)
            xs = [[generators[heads[j]] for j in at]]  # local face i of each pair is xs[i]
            ys = [[generators[tails[j]] for j in at]]
            for parent, k in path:
                step = itemgetter(k)
                xs.append(list(map(step, map(facets.__getitem__, xs[parent]))))
                ys.append(list(map(step, map(facets.__getitem__, ys[parent]))))
            for x, (image, parity) in zip(xs, plan):
                uf.union_all(x, ys[image], repeat(parity))
        self._faces = faces
        self._facets = facets
        self._generators = generators
        self._pairs = list(zip(heads, tails))
        self._uf = uf
        self._classes = uf.members()
        roots = list(self._classes)  # increasing, so the d-cells' roots are one run
        runs = (roots[bisect_left(roots, a):bisect_left(roots, b)] for a, b in zip(starts, starts[1:]))
        self._roots = {d: run for d, run in enumerate(runs) if run}

    @staticmethod
    def _spine(top: List[Simplex], below: List[Simplex], partner: List[int],
               steps: List[Tuple[int, int, bool]]) -> "QuotientComplex":
        """The quotient of a build on the closed n-manifold M, read as M's
        spine (README "The spine of a build"): the simplicial complex of the
        facets that no step crossed, which holds every face of M of
        dimension <= n - 2 too.  `top` are M's sorted n-simplices, `below`
        their facets as `_facet_list` lists them, `partner` their pairing
        (`_partners`) and `steps` the build's `structure._crossings` steps,
        whose (i, k) give the uncrossed facets (`_uncrossed`), the ones
        recognition peels too.  Each face of the uncrossed facets' face
        table is its own cell, in rank order, so that table is also the pair
        the collapse reads (`_ranked`).  The vertices that get copies are
        numbered first, then the rest, each in label order, as `class_of`
        numbers the built structure's classes."""
        n = len(top[0]) - 1
        kept = sorted(_uncrossed(below, partner, ((i, k) for i, k, _ in steps)))
        levels, facets = _face_table(kept, _facet_list(kept, n - 1))
        starts = list(accumulate(map(len, levels), initial=0))
        copied = sorted({top[i][n - k] for i, k, copy in steps if copy})
        order = copied + sorted({v for (v,) in levels[0]}.difference(copied))
        q = object.__new__(QuotientComplex)
        q.sphere, q._generators, q._pairs, q.vertex_class = None, [], [], dict(zip(order, count()))
        # no union: each face is its own cell, of parity 0
        q._faces, q._facets, q._uf = list(chain.from_iterable(levels)), facets, UnionFind(len(facets))
        q._roots = dict(enumerate(map(range, starts, starts[1:])))
        q._ranked = facets, list(map(len, levels))
        return q

    @cached_property
    def _classes(self) -> Dict[int, List[int]]:
        """Each cell's faces by number: set by `__init__`, one each on a spine."""
        return {r: [r] for run in self._roots.values() for r in run}

    @cached_property
    def cells(self) -> Dict[int, List[Simplex]]:
        """dimension -> its cells, each named by its least face; a report
        and the Euler identity read the sizes of `_roots` instead."""
        return {d: list(map(self._faces.__getitem__, run)) for d, run in self._roots.items()}

    @cached_property
    def _index(self) -> Dict[Simplex, int]:
        """Face -> its number, for `cell_of`; a report reads numbers only."""
        return dict(zip(self._faces, count()))

    @cached_property
    def members(self) -> Dict[Simplex, List[Simplex]]:
        """Each cell's faces, by name; a report reads `_classes` instead."""
        faces = self._faces
        return {faces[r]: list(map(faces.__getitem__, m)) for r, m in self._classes.items()}

    @staticmethod
    def from_structure(structure: StellarStructure) -> "QuotientComplex":
        """The quotient of a structure, validated by the pass that builds
        it: the apex and the classes' vertices are tested on the sphere's
        vertex set, and the rest of `validate` on the face numbers.  Only
        a refused structure is validated again, to name its problems, which
        the error carries."""
        eq, vertices = structure.equivalence, structure.sphere.vertices()
        if structure.apex not in vertices and vertices.issuperset(chain.from_iterable(eq.vertex_classes)):
            try:
                return QuotientComplex(structure.sphere, eq._class_map(vertices), eq.generator_pairs)
            except EquivalenceError:
                pass
        problems = structure.validate()
        raise EquivalenceError("; ".join(problems), problems)

    @staticmethod
    def from_complex(k: Complex) -> "QuotientComplex":
        """Trivial quotient: every face is its own cell."""
        return QuotientComplex(k, {v: i for i, v in enumerate(sorted(k.vertices()))})

    def cell_of(self, face: Simplex) -> Tuple[Simplex, int]:
        """(representative, parity) for any face of the sphere, its vertices
        in any order."""
        face = tuple(sorted(face))
        at = self._index.get(face)
        if at is None:
            raise EquivalenceError(f"{face} is not a face of the sphere")
        root, parity = self._uf.find(at)
        return self._faces[root], parity

    def _closed(self) -> bool:
        """Whether the pairing covers every generator: the pairs of a
        validated structure are distinct generators."""
        return 2 * len(self._pairs) == len(self._generators)

    def cell_counts(self) -> Dict[int, int]:
        return {d: len(run) for d, run in self._roots.items()}

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(run) for d, run in self._roots.items())

    @cached_property
    def chains(self) -> List[Cells]:
        """Each level's cells with their (facet cell, parity) lists, in every
        dimension, read once off the union-find's flat root and parity
        lists: what H1 and the boundary maps share, and what a built
        quotient's collapse reads through `_ranked`."""
        return cell_chains(self._roots.values(), self._facets, *self._uf.flat)

    @cached_property
    def _ranked(self) -> Tuple[List[Sequence[int]], List[int]]:
        """Each cell's facet cells by rank, and the level sizes: what the
        collapse reads.  A cell's rank is its level's offset plus its place
        in the level, which is (dimension, face) order, and its facet cells
        are listed once each, since no cell meets one face cell twice.  Read
        off `chains` here; a spine's face table is this pair already, and
        `_spine` sets it."""
        chains = self.chains
        offsets = chain((0,), accumulate(map(len, chains), initial=0))  # level d's facets lie in level d - 1
        facets = [tuple([at + f for f, _ in cell]) for at, level in zip(offsets, chains) for cell in level]
        return facets, list(map(len, chains))

    def boundary_matrices(self) -> List[SparseRows]:
        """d_1, ..., d_n of the quotient CW complex as sparse rows: d_k has
        one row for each (k-1)-cell and one column for each k-cell."""
        chains = self.chains
        return [_rows(len(chains[d - 1]), chains[d], d) for d in range(1, len(chains))]

    def h1(self) -> AbelianGroup:
        return homology_from_boundaries(self.chains)

    def z2_b1(self) -> int:
        """dim of H1 with GF(2) coefficients from the ranks of the full d1
        and d2: the oracle path, independent of the SNF."""
        return self.cell_counts().get(1, 0) - sum(map(z2_rank, self.boundary_matrices()[:2]))


def euler_identity_check(structure: StellarStructure, m: Complex) -> bool:
    """chi of the quotient equals chi of the manifold plus (-1)^(n+1)."""
    return _euler_identity(QuotientComplex.from_structure(structure), m)


def _euler_identity(q: QuotientComplex, m: Complex) -> bool:
    """`euler_identity_check` on the quotient `q` of a structure over `m`,
    already built."""
    return q.euler_characteristic() == m.euler_characteristic() + (-1) ** (m.dimension() + 1)
