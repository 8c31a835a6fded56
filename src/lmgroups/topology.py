"""Finite regular cell complexes as face posets, with integral homology.

A complex stores cells by key with a dimension and the set of
codimension-one faces; the class docstring says which builders skip
the public constructor's check.  Homology is that of the Morse complex
of one coreduction pass: its chains are the critical cells, and its
boundary follows the flow along the matched pairs.  Every complex here
is regular (its cells are convex polytopes and vertex figures of
them), so each incidence number is +-1 and follows by induction on
dimension from the face poset alone (Lundell-Weingram, "The Topology
of CW Complexes", 1969).  Where that induction fails on a cell the
answer reads, or such a cell's boundary does not have the Euler
characteristic of a sphere, the poset is not regular and homology
raises ValueError; these checks are necessary, not sufficient.  The
Morse boundary matrices go to a sparse Smith normal form with one
pivot rule, an entry of least magnitude, so that units come first
(Dumas, Saunders and Villard, 2001).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from math import gcd
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple


@dataclass(frozen=True)
class Complex:
    """Cells by key, each with a dimension and its set of facets.

    The public constructor checks its input: both dicts name the same
    cells, every dimension is a non-negative int, every facet set a
    frozenset of cells one dimension down.  Four builders make complexes
    that are right by construction and go through `_trusted`, which
    checks nothing: the product fold of `arrangements.enumerate_cells`,
    whose run tables each pass this check once per process where they
    are made, and whose facets are a read-only map that builds each set
    on its first read; `subcomplex`, which keeps the cells and facets of
    a complex and checks closure; `xcomplex.ascending_link`, which drops
    cells of a star with their facets outside it; and
    `xcomplex.assemble`, whose gluing rejects a cell seen with two
    dimensions or facet sets.  Fields cannot be assigned, and a complex
    shared from a memo holds read-only maps."""

    dims: Mapping[str, int]
    facets: Mapping[str, FrozenSet[str]]
    _faces: Dict[str, FrozenSet[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        dims = self.dims
        if self.facets.keys() != dims.keys():
            raise ValueError("facets and dims must name the same cells")
        # a dim is a non-negative int (a bool is not), and the facets of a
        # cell a frozenset, which `faces` unions; the types are read in one
        # sweep each, and only a failure looks for the least bad cell
        if not set(map(type, dims.values())) <= {int} or min(dims.values(), default=0) < 0:
            c = min(c for c, d in dims.items() if type(d) is not int or d < 0)
            raise ValueError(f"dim of {c} must be a non-negative int, not {dims[c]!r}")
        if not set(map(type, self.facets.values())) <= {frozenset}:
            c = min(c for c, fs in self.facets.items() if type(fs) is not frozenset)
            kind = type(self.facets[c]).__name__
            raise ValueError(f"facets of {c} must be a frozenset, not a {kind}")
        for c, fs in self.facets.items():
            below = dims[c] - 1
            for f in fs:
                if dims.get(f) != below:
                    if f not in dims:
                        raise ValueError(f"facet {f} of {c} is not a cell")
                    raise ValueError(f"facet {f} of {c} has the wrong dimension")

    @classmethod
    def _trusted(
        cls, dims: Mapping[str, int], facets: Mapping[str, FrozenSet[str]]
    ) -> "Complex":
        """A complex from cells and facets right by construction, not
        checked again; see the class docstring for its only callers."""
        cx = object.__new__(cls)
        object.__setattr__(cx, "dims", dims)
        object.__setattr__(cx, "facets", facets)
        object.__setattr__(cx, "_faces", {})
        return cx

    def cells(self) -> List[str]:
        return sorted(self.dims, key=lambda k: (self.dims[k], k))

    def cells_of_dim(self, d: int) -> List[str]:
        return sorted(k for k, dd in self.dims.items() if dd == d)

    def dimension(self) -> int:
        return max(self.dims.values(), default=-1)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d for d in self.dims.values())

    def faces(self, key: str) -> FrozenSet[str]:
        """All proper faces: the facets together with their faces, each
        cell's set built once from its facets' sets and memoised."""
        got = self._faces.get(key)
        if got is None:
            fs = self.facets[key]
            got = self._faces[key] = fs.union(*map(self.faces, fs))
        return got

    def vertices_of(self, key: str) -> FrozenSet[str]:
        """The cell itself if it is a vertex, else the vertices among its
        faces."""
        dims = self.dims
        if dims[key] == 0:
            return frozenset({key})
        return frozenset([f for f in self.faces(key) if not dims[f]])

    def edges(self) -> List[Tuple[str, FrozenSet[str]]]:
        """Each 1-cell with its vertices, which are its facets."""
        return [(e, self.facets[e]) for e in self.cells_of_dim(1)]

    def adjacent_vertices(self, vertex: str) -> Set[str]:
        out: Set[str] = set()
        for _, vv in self.edges():
            if vertex in vv:
                out |= vv - {vertex}
        return out

    def subcomplex(self, keys: Iterable[str]) -> "Complex":
        """The complex on a cell set closed under faces.  A set holding
        every facet of each of its cells holds every face, by induction
        on dimension, so only facets are checked; the least cell missing
        a facet is named.  The least key that is no cell is named first.
        The cells keep this complex's order and its dimensions and facet
        sets, so the result is right by construction and not checked
        again."""
        keep = set(keys)
        unknown = keep.difference(self.dims)
        if unknown:
            raise ValueError(f"not a cell of the complex: {min(unknown)}")
        open_cells = [k for k in keep if not self.facets[k] <= keep]
        if open_cells:
            raise ValueError(f"cell set not closed under faces at {min(open_cells)}")
        dims = {k: d for k, d in self.dims.items() if k in keep}
        return Complex._trusted(dims, {k: self.facets[k] for k in dims})


def order_complex(cx: Complex) -> List[Tuple[str, ...]]:
    """Simplices of the order complex of the face poset: one k-simplex
    per strictly increasing chain of k+1 cells.  Its geometric
    realization is the barycentric subdivision of the complex, from
    which the tests' reference homology is read."""
    cells = cx.cells()
    simplices: List[Tuple[str, ...]] = []

    def grow(chain: Tuple[str, ...], top: str):
        simplices.append(chain)
        for f in sorted(cx.faces(top)):
            grow((f,) + chain, f)

    for c in cells:
        grow((c,), c)
    return simplices


def smith_diagonal(rows: List[List[int]]) -> List[int]:
    """Nonzero diagonal of the Smith normal form (d1 | d2 | ...).

    The rows are read into sparse dicts, and each round takes as pivot
    an entry of least magnitude, on a tie the one whose row has the
    fewest entries, to keep the fill-in small, then the least row, then
    the least column.  Its row operations leave remainders in its
    column; once it is alone there, column operations reduce its row
    modulo it, and it goes to the diagonal when no remainder is left.  A
    remainder is less than the pivot, so this ends.  No entry is less
    than a +-1, so units come first, and a unit clears its column and
    its row in one round.  The diagonal entries other than 1 then become
    a divisibility chain by pairwise gcd and lcm."""
    width = len(rows[0]) if rows else 0
    span = range(width)
    cols: List[Set[int]] = [set() for _ in span]  # the rows holding each column
    sparse: List[Dict[int, int]] = []
    for i, row in enumerate(rows):
        nonzero = list(compress(span, row))
        sparse.append({j: row[j] for j in nonzero})
        for j in nonzero:
            cols[j].add(i)

    def subtract(i: int, f: int, pivot: Dict[int, int]) -> None:
        # row i -= f * pivot, with the column sets kept in step
        row = sparse[i]
        for j, v in pivot.items():
            w = row.get(j, 0) - f * v
            if w:
                row[j] = w
                cols[j].add(i)
            else:
                del row[j]
                cols[j].discard(i)

    diag: List[int] = []
    while True:
        least = min(((abs(v), len(row), i, j) for i, row in enumerate(sparse)
                     for j, v in row.items()), default=None)
        if least is None:
            break
        _, _, p, c = least
        pivot = sparse[p]
        a = pivot[c]
        for i in [i for i in cols[c] if i != p]:
            subtract(i, sparse[i][c] // a, pivot)
        if len(cols[c]) == 1:
            for j in [j for j in pivot if j != c]:
                pivot[j] %= a
                if not pivot[j]:
                    del pivot[j]
                    cols[j].discard(p)
            if len(pivot) == 1:
                diag.append(abs(a))
                sparse[p] = {}
                cols[c].discard(p)
    rest = [v for v in diag if v != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    return [1] * (len(diag) - len(rest)) + rest


def _coreduce(cx: Complex) -> Tuple[List[str], List[Tuple[str, str]]]:
    """Coreductions (Mrozek-Batko, "Coreduction homology algorithm",
    2009): the least vertex is critical; a cell whose count of remaining
    facets drops to one is stacked, and paired with that facet if the
    count is still one when unstacked; with the stack empty, the least
    remaining cell by (dim, key) is critical.  Returns the critical
    cells and the pairs (f, c), f then c's only remaining facet: an
    acyclic matching (Forman, "Morse theory for cell complexes", 1998)
    that cofacets stacked in key order make a function of the cells."""
    facets = cx.facets
    cofacets: Dict[str, List[str]] = {k: [] for k in facets}
    for c, fs in sorted(facets.items()):
        for f in fs:
            cofacets[f].append(c)
    left = {c: len(fs) for c, fs in facets.items()}  # remaining facets of each remaining cell
    critical: List[str] = []
    pairs: List[Tuple[str, str]] = []
    ready: List[str] = []  # cells whose count has dropped to one

    def remove(cell: str) -> None:
        del left[cell]
        for c in cofacets[cell]:
            if c in left:
                left[c] -= 1
                if left[c] == 1:
                    ready.append(c)

    # by dimension, then key, each dimension sorted when reached
    for s in chain.from_iterable(map(cx.cells_of_dim, range(cx.dimension() + 1))):
        if not left:
            break
        if s in left:
            critical.append(s)
            remove(s)
            while ready:
                c = ready.pop()
                if left.get(c) == 1:
                    f = next(g for g in facets[c] if g in left)
                    pairs.append((f, c))
                    remove(f)
                    remove(c)
    return critical, pairs


def _incidences(cx: Complex, cells: Iterable[str]) -> Dict[str, Dict[str, int]]:
    """The incidence numbers [c : f] = +-1 of each cell c of positive
    dimension in a face-closed cell set, by facet f, found by induction
    on dimension.  An edge gets -1 and +1 on its two vertices in sorted
    order.  A k-cell gets +1 on its least facet; every ridge r of the
    cell lies in exactly two of its facets f and g, and walking across
    it sets [c : g] = -[c : f][f : r][g : r], so that r cancels in the
    boundary of the boundary.  Raises ValueError on an edge without two
    vertices, a cell with no facets, a ridge in one or in three or more
    facets of a cell, a cell boundary that is not connected, signs that
    disagree, or a cell boundary whose Euler characteristic is not that
    of a sphere.  These checks are necessary for a regular CW complex,
    not sufficient: from dimension 4 up, a cell boundary can pass them
    all without being a sphere, and then the answer is not checked."""
    inc: Dict[str, Dict[str, int]] = {}
    for c in sorted(cells, key=lambda k: (cx.dims[k], k)):
        d = cx.dims[c]
        facets = sorted(cx.facets[c])
        if d == 1:
            if len(facets) != 2:
                raise ValueError(f"edge {c} does not have two vertices")
            inc[c] = {facets[0]: -1, facets[1]: 1}
        elif d > 1:
            if not facets:
                raise ValueError(f"cell {c} has an empty boundary")
            at: Dict[str, List[str]] = {}
            for f in facets:
                for r in cx.facets[f]:
                    at.setdefault(r, []).append(f)
            unpaired = [r for r, fs in at.items() if len(fs) != 2]
            if unpaired:
                r = min(unpaired)
                raise ValueError(f"ridge {r} lies in {len(at[r])} facets of {c}, not 2")
            sign = {facets[0]: 1}
            todo = [facets[0]]
            while todo:
                f = todo.pop()
                for r, s in inc[f].items():
                    a, b = at[r]
                    g = b if a == f else a
                    t = -sign[f] * s * inc[g][r]
                    if g not in sign:
                        sign[g] = t
                        todo.append(g)
                    elif sign[g] != t:
                        raise ValueError(f"the boundary of {c} has no consistent orientation")
            if len(sign) != len(facets):
                raise ValueError(f"the boundary of {c} is not connected")
            chi = sum(1 if cx.dims[g] % 2 == 0 else -1 for g in cx.faces(c))
            if chi != 1 + (-1) ** (d - 1):
                raise ValueError(
                    f"the boundary of {c} has Euler characteristic {chi}, not that of a sphere"
                )
            inc[c] = sign
    return inc


def homology_and_collapsible(cx: Complex) -> Tuple[Dict[int, Tuple[int, List[int]]], bool]:
    """reduced_homology(cx) and is_collapsible(cx), from the Morse
    complex of one coreduction pass (Forman 1998; Harker, Mischaikow,
    Mrozek and Nanda, FoCM 2014): the flow of a critical cell is itself,
    of the upper cell of a pair zero, and of the lower cell f of a pair
    (f, c) -[c:f] times the sum of [c:g] flow(g) over the other facets
    g of c, each removed before f; that sum over a critical cell's
    facets is its Morse boundary.  A matrix is built from degree d where
    d and d - 1 have critical cells, into degree 0 only past one
    critical vertex (the augmentation has rank 1), and then every cell
    is checked by `_incidences`, else the closure of the critical cells."""
    if not cx.dims:
        return {-1: (1, [])}, False
    critical, pairs = _coreduce(cx)
    dims = cx.dims
    top = cx.dimension()
    by_dim = [[c for c in critical if dims[c] == d] for d in range(top + 1)]
    built = [d for d in range(1, top + 1) if by_dim[d] and len(by_dim[d - 1]) > (d == 1)]
    ranks = [1] + [0] * (top + 1)  # the rank of each boundary, the augmentation first
    torsion: List[List[int]] = [[] for _ in by_dim]
    if built:
        inc = _incidences(cx, dims)
        flow: Dict[str, Dict[str, int]] = {c: {c: 1} for c in critical}

        def boundary(c: str) -> Dict[str, int]:  # a facet without a flow yet adds nothing
            total: Dict[str, int] = {}
            for g, t in inc[c].items():
                for k, v in flow.get(g, {}).items():
                    total[k] = total.get(k, 0) + t * v
            return total

        for f, c in pairs:  # in the order made
            if dims[c] in built:
                s = -inc[c][f]
                flow[f] = {k: s * v for k, v in boundary(c).items()}
        for d in built:
            cols = [boundary(c) for c in by_dim[d]]
            diag = smith_diagonal([[col.get(k, 0) for col in cols] for k in by_dim[d - 1]])
            ranks[d] = len(diag)
            torsion[d - 1] = [v for v in diag if v > 1]
    else:
        closure = set(critical)
        for d in range(top, 0, -1):
            closure.update(*[cx.facets[c] for c in closure if dims[c] == d])
        _incidences(cx, closure)
    h = {d: (len(cs) - ranks[d] - ranks[d + 1], torsion[d]) for d, cs in enumerate(by_dim)}
    return h, len(critical) == 1 and len(by_dim[0]) == 1


def reduced_homology(cx: Complex) -> Dict[int, Tuple[int, List[int]]]:
    """Reduced integral homology of a regular cell complex, an entry for
    every degree up to its dimension, from the Morse complex of a
    coreduction pass.  Raises ValueError when a cell fails a check of
    `_incidences`: every cell where a Morse matrix is built, else the
    closure of the critical cells, so a cell the pass pairs off may go
    unchecked."""
    return homology_and_collapsible(cx)[0]


def is_trivial_homology(h: Dict[int, Tuple[int, List[int]]]) -> bool:
    return all(betti == 0 and not tors for betti, tors in h.values())


def is_collapsible(cx: Complex) -> bool:
    """Whether a coreduction pass leaves one critical cell, a vertex: on
    a regular complex a certificate of a collapse (Forman 1998; Chari
    2000), while False is inconclusive."""
    return [cx.dims[c] for c in _coreduce(cx)[0]] == [0]
