"""Finite regular cell complexes as face posets, with integral homology.

A complex stores cells by key with a dimension and the set of
codimension-one faces.  Homology first collapses free pairs on the cell
complex (a homotopy equivalence), then takes the order complex of the
face poset of what remains (its barycentric subdivision), which turns
arbitrary polytopal cells into simplices and avoids tracking incidence
signs for the original cells.  Ranks and torsion come from an integer
Smith normal form of the simplicial boundary matrices.  These have a
few +-1 entries per column, so the Smith form first eliminates unit
pivots on sparse rows (the fast path of Dumas-Saunders-Villard, 2001);
only a remainder without a unit entry goes to a dense loop that takes
a least entry as its pivot.  A complex with no free face has a
subdivision with no free face, so the simplices need no second
collapse.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple


@dataclass
class Complex:
    dims: Dict[str, int]
    facets: Dict[str, FrozenSet[str]]
    _faces: Dict[str, FrozenSet[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        dims = self.dims
        if self.facets.keys() != dims.keys():
            raise ValueError("facets and dims must name the same cells")
        for c, fs in self.facets.items():
            below = dims[c] - 1
            for f in fs:
                if dims.get(f) != below:
                    if f not in dims:
                        raise ValueError(f"facet {f} of {c} is not a cell")
                    raise ValueError(f"facet {f} of {c} has the wrong dimension")

    def cells(self) -> List[str]:
        return sorted(self.dims, key=lambda k: (self.dims[k], k))

    def cells_of_dim(self, d: int) -> List[str]:
        return sorted(k for k, dd in self.dims.items() if dd == d)

    def dimension(self) -> int:
        return max(self.dims.values(), default=-1)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d for d in self.dims.values())

    def faces(self, key: str) -> FrozenSet[str]:
        """All proper faces (transitive closure of the facet relation)."""
        if key not in self._faces:
            acc: Set[str] = set()
            stack = list(self.facets[key])
            while stack:
                f = stack.pop()
                if f not in acc:
                    acc.add(f)
                    stack.extend(self.facets[f])
            self._faces[key] = frozenset(acc)
        return self._faces[key]

    def vertices_of(self, key: str) -> FrozenSet[str]:
        if self.dims[key] == 0:
            return frozenset({key})
        return frozenset(f for f in self.faces(key) if self.dims[f] == 0)

    def edges(self) -> List[Tuple[str, FrozenSet[str]]]:
        return [(e, self.vertices_of(e)) for e in self.cells_of_dim(1)]

    def adjacent_vertices(self, vertex: str) -> Set[str]:
        out: Set[str] = set()
        for _, vv in self.edges():
            if vertex in vv:
                out |= vv - {vertex}
        return out

    def subcomplex(self, keys: Iterable[str]) -> "Complex":
        keep = set(keys)
        for k in keep:
            if not self.faces(k) <= keep:
                raise ValueError(f"cell set not closed under faces at {k}")
        return Complex(
            {k: self.dims[k] for k in keep},
            {k: self.facets[k] for k in keep},
        )


def order_complex(cx: Complex) -> List[Tuple[str, ...]]:
    """Simplices of the order complex of the face poset: one k-simplex
    per strictly increasing chain of k+1 cells.  Its geometric
    realization is the barycentric subdivision of the complex."""
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

    The rows are read into sparse dicts, and every +-1 entry is taken
    as a pivot while there is one: a unit pivot row clears its column by
    row operations, then its own row by column operations that touch
    nothing else, and leaves a 1 on the diagonal.  Of the candidate
    rows of a column, the one with the fewest entries goes first, to
    keep the fill-in small.  Whatever remains has no unit entry and goes
    to the dense elimination."""
    width = len(rows[0]) if rows else 0
    span = range(width)
    cols: List[Set[int]] = [set() for _ in span]  # the rows holding each column
    sparse: List[Dict[int, int]] = []
    for i, row in enumerate(rows):
        nonzero = list(compress(span, row))
        sparse.append({j: row[j] for j in nonzero})
        for j in nonzero:
            cols[j].add(i)
    units = 0
    found = True
    while found:
        found = False
        for c, holders in enumerate(cols):
            if not holders:
                continue
            candidates = [(len(sparse[i]), i) for i in holders if sparse[i][c] in (1, -1)]
            if not candidates:
                continue
            p = min(candidates)[1]
            pivot = sparse[p]
            sparse[p] = {}
            for j in pivot:
                cols[j].discard(p)
            for i in list(holders):
                row = sparse[i]
                f = row[c] * pivot[c]  # row[c] / pivot[c], as pivot[c] is +-1
                for j, v in pivot.items():
                    w = row.get(j, 0) - f * v
                    if w:
                        row[j] = w
                        cols[j].add(i)
                    else:
                        del row[j]
                        cols[j].discard(i)
            units += 1
            found = True
    rest = [row for row in sparse if row]
    live = sorted({j for row in rest for j in row})
    return [1] * units + _smith_dense([[row.get(j, 0) for j in live] for row in rest])


def _smith_dense(m: List[List[int]]) -> List[int]:
    """Smith diagonal of a dense matrix, modified in place: move a least
    nonzero entry to the pivot, reduce its row and column by it, and
    start over from a least entry while a remainder is left; once the
    pivot is alone in its row and column, make it divide the rest."""
    if not m or not m[0]:
        return []
    R, C = len(m), len(m[0])
    diag: List[int] = []
    r = 0
    while r < min(R, C):
        # pick the first entry of least nonzero magnitude in the remaining
        # block; no entry is smaller than 1, so a row holding 1 ends the search
        pr, pc, best = -1, -1, None
        for i in range(r, R):
            for j in range(r, C):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    pr, pc, best = i, j, v
            if best == 1:
                break
        if best is None:
            break
        m[r], m[pr] = m[pr], m[r]
        for i in range(R):
            m[i][r], m[i][pc] = m[i][pc], m[i][r]
        piv = m[r][r]
        again = False
        for i in range(r + 1, R):
            if m[i][r]:
                q = m[i][r] // piv
                for j in range(r, C):
                    m[i][j] -= q * m[r][j]
                again = again or m[i][r] != 0
        for j in range(r + 1, C):
            if m[r][j]:
                q = m[r][j] // piv
                for i in range(r, R):
                    m[i][j] -= q * m[i][r]
                again = again or m[r][j] != 0
        if not again and best > 1:
            # the pivot must divide every later entry: add a row holding
            # one it does not divide, and reduce again
            for i in range(r + 1, R):
                if any(m[i][j] % piv for j in range(r + 1, C)):
                    m[r] = [x + y for x, y in zip(m[r], m[i])]
                    again = True
                    break
        if again:
            continue
        diag.append(best)
        r += 1
    return diag


def homology_of_simplices(simplices: List[Tuple[str, ...]]) -> Dict[int, Tuple[int, List[int]]]:
    """Reduced integral homology of a simplicial complex given as a list
    of simplices (vertex tuples, closed under taking subtuples).

    Returns {degree: (betti rank, torsion coefficients)}.  The empty
    complex reports {-1: (1, [])}.
    """
    if not simplices:
        return {-1: (1, [])}
    by_dim: Dict[int, List[Tuple[str, ...]]] = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s)))
    for d in by_dim:
        by_dim[d] = sorted(set(by_dim[d]))
    top = max(by_dim)
    index = {d: {s: i for i, s in enumerate(by_dim[d])} for d in by_dim}

    def boundary_matrix(d: int) -> List[List[int]]:
        # rows: (d-1)-simplices (the empty simplex when d == 0), cols: d-simplices
        if d == 0:
            return [[1] * len(by_dim[0])]
        rows = [[0] * len(by_dim[d]) for _ in by_dim.get(d - 1, [])]
        for j, s in enumerate(by_dim[d]):
            for k in range(len(s)):
                face = s[:k] + s[k + 1:]
                rows[index[d - 1][face]][j] += (-1) ** k
        return rows

    ranks: Dict[int, int] = {}
    torsions: Dict[int, List[int]] = {}
    for d in range(0, top + 1):
        diag = smith_diagonal(boundary_matrix(d))
        ranks[d] = len(diag)
        torsions[d] = [v for v in diag if v > 1]
    out: Dict[int, Tuple[int, List[int]]] = {}
    for d in range(0, top + 1):
        n_d = len(by_dim.get(d, []))
        rank_d = ranks.get(d, 0)
        rank_up = ranks.get(d + 1, 0)
        betti = n_d - rank_d - rank_up
        out[d] = (betti, torsions.get(d + 1, []))
    return out


def _collapse(cx: Complex) -> Set[str]:
    """Greedy free-pair collapse: while some cell f has exactly one
    cofacet c and c is maximal, remove the least such f (by dimension,
    then key) together with c.  Returns the cells that remain, a
    subcomplex of the same homotopy type."""
    cofacets: Dict[str, Set[str]] = {k: set() for k in cx.dims}
    for c, fs in cx.facets.items():
        for f in fs:
            cofacets[f].add(c)
    heap = [(d, k) for k, d in cx.dims.items()]
    heapq.heapify(heap)
    while heap:
        _, f = heapq.heappop(heap)
        if f not in cofacets or len(cofacets[f]) != 1:
            continue
        (c,) = cofacets[f]
        if cofacets[c]:
            continue
        del cofacets[f], cofacets[c]
        # only the facets of a removed cell, and the facets of a cell
        # that has just become maximal, can have become free
        for cell in (f, c):
            for g in cx.facets[cell]:
                if g in cofacets:
                    cofacets[g].discard(cell)
                    heapq.heappush(heap, (cx.dims[g], g))
                    if not cofacets[g]:
                        for h in cx.facets[g]:
                            heapq.heappush(heap, (cx.dims[h], h))
    return set(cofacets)


def _is_vertex(cx: Complex, rest: Set[str]) -> bool:
    return len(rest) == 1 and cx.dims[next(iter(rest))] == 0


def homology_and_collapsible(cx: Complex) -> Tuple[Dict[int, Tuple[int, List[int]]], bool]:
    """reduced_homology(cx) and is_collapsible(cx), read from one collapse."""
    rest = _collapse(cx)
    h = homology_of_simplices(order_complex(cx.subcomplex(rest)))
    for d in range(cx.dimension() + 1):
        h.setdefault(d, (0, []))
    return h, _is_vertex(cx, rest)


def reduced_homology(cx: Complex) -> Dict[int, Tuple[int, List[int]]]:
    """Reduced integral homology of a cell complex: collapse free pairs,
    then take the barycentric subdivision of what remains.  Every degree
    up to the dimension of the complex gets an entry."""
    return homology_and_collapsible(cx)[0]


def is_trivial_homology(h: Dict[int, Tuple[int, List[int]]]) -> bool:
    return all(betti == 0 and not tors for betti, tors in h.values())


def is_collapsible(cx: Complex) -> bool:
    """Greedy free-face collapse down to a single vertex.  True is a
    certificate of contractibility; False is inconclusive."""
    return _is_vertex(cx, _collapse(cx))
