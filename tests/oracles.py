"""Brute-force reference implementations kept as differential oracles.

The sign-vector sweep, its union-find satisfiability test and the
pairwise facet scan enumerate arrangement cells the slow, obvious way;
the flat-mask enumeration lists every flat restriction of a cluster
piece.  The library replaced them with local path rules; the tests
compare the two on every small input.

The free-pair collapse of the barycentric subdivision and the greedy
collapse that rescans every cell after each step are the topology
module's former homology and collapsibility pipelines; the library now
collapses the cell complex once, with a heap, before subdividing.
"""

from itertools import product
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from lmgroups.arrangements import (
    POS,
    REL,
    Arrangement,
    ClusterComplex,
    cell_key,
    face_of,
    split_key,
)
from lmgroups.topology import Complex, homology_of_simplices, order_complex


def _classes(n: int, diags: Sequence[int], rels: str) -> List[int]:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for d, r in zip(diags, rels):
        if r == "=":
            i, j = find(d - 1), find(d)
            if i != j:
                parent[max(i, j)] = min(i, j)
    return [find(i) for i in range(n)]


def satisfiable(positions: str, rels: str, arr: Arrangement) -> bool:
    diags = arr.diag_list()
    cls = _classes(arr.n, diags, rels)
    letter: Dict[int, str] = {}
    for i, c in enumerate(cls):
        p = positions[i]
        if c in letter and letter[c] != p:
            return False
        letter[c] = p
    for d, r in zip(diags, rels):
        if r == "=":
            continue
        a, b = letter[cls[d - 1]], letter[cls[d]]
        lo, hi = (a, b) if r == "<" else (b, a)
        # lo < hi must be satisfiable with 0 < interior < 1
        if lo == "1" or hi == "0" or (lo == hi and lo != "i"):
            return False
        if lo == "i" and hi == "i" and cls[d - 1] == cls[d]:
            return False
    return True


def cell_dim(positions: str, rels: str, arr: Arrangement) -> int:
    cls = _classes(arr.n, arr.diag_list(), rels)
    return len({c for i, c in enumerate(cls) if positions[i] == "i"})


def _satisfiable_cells(arr: Arrangement) -> Dict[str, int]:
    if arr.n > 12:
        raise ValueError("dimension bound exceeded (n <= 12)")
    diags = arr.diag_list()
    cells: Dict[str, int] = {}
    for pos in product(POS, repeat=arr.n):
        positions = "".join(pos)
        for rel in product(REL, repeat=len(diags)):
            rels = "".join(rel)
            if satisfiable(positions, rels, arr):
                cells[cell_key(positions, rels)] = cell_dim(positions, rels, arr)
    return cells


def enumerate_cells(arr: Arrangement) -> ClusterComplex:
    """All satisfiable sign vectors of the arrangement, graded by the
    number of interior coordinate classes, with the facet relation."""
    cells = _satisfiable_cells(arr)
    by_dim: Dict[int, List[str]] = {}
    for k, d in cells.items():
        by_dim.setdefault(d, []).append(k)
    facets: Dict[str, FrozenSet[str]] = {}
    for k, d in cells.items():
        if d == 0:
            facets[k] = frozenset()
        else:
            facets[k] = frozenset(
                f for f in by_dim.get(d - 1, []) if face_of(f, k, arr)
            )
    cx = Complex(cells, facets)
    info = {k: split_key(k) for k in cells}
    return ClusterComplex(arr, cx, info)


def _flat_cell_sets(piece, ids: Dict[str, str]) -> List[FrozenSet[str]]:
    """Cell-id sets of every flat restriction of the piece (subcluster
    candidates for the intersection test)."""
    arr = piece.cluster.arrangement
    constraints = [("coord", i, v) for i in range(1, arr.n + 1) for v in (0, 1)]
    constraints += [("diag", i) for i in sorted(arr.diagonals)]
    out = set()
    for mask in range(1 << len(constraints)):
        flat = [constraints[i] for i in range(len(constraints)) if mask >> i & 1]
        cells = []
        for ckey in piece.cluster.complex.cells():
            positions, rels = split_key(ckey)
            diags = arr.diag_list()
            relmap = dict(zip(diags, rels))
            ok = True
            for c in flat:
                if c[0] == "coord":
                    _, i, v = c
                    if positions[i - 1] != str(v):
                        ok = False
                        break
                else:
                    if relmap[c[1]] != "=":
                        ok = False
                        break
            if ok:
                cells.append(ids[ckey])
        if cells:
            out.add(frozenset(cells))
    return sorted(out, key=sorted)


def _collapse_simplices(simplices: List[Tuple[str, ...]]) -> List[Tuple[str, ...]]:
    """Greedy free-pair collapse of a simplicial complex (homotopy
    equivalence); shrinks the chain complexes before any integer
    elimination."""
    cells = {tuple(sorted(s)) for s in simplices}
    cofacets: Dict[Tuple[str, ...], set] = {s: set() for s in cells}
    for s in cells:
        if len(s) > 1:
            for k in range(len(s)):
                cofacets[s[:k] + s[k + 1:]].add(s)
    candidates = set(cells)
    while candidates:
        f = candidates.pop()
        if f not in cofacets:
            continue
        cf = cofacets[f]
        if len(cf) != 1:
            continue
        (c,) = cf
        if cofacets[c]:
            continue
        for s in (f, c):
            if len(s) > 1:
                for k in range(len(s)):
                    face = s[:k] + s[k + 1:]
                    if face in cofacets:
                        cofacets[face].discard(s)
                        candidates.add(face)
        del cofacets[f], cofacets[c]
        cells.discard(f)
        cells.discard(c)
    return sorted(cells)


def reduced_homology(cx: Complex) -> Dict[int, Tuple[int, List[int]]]:
    """Homology of the whole barycentric subdivision after the simplicial
    collapse, with an entry for every degree up to its dimension."""
    simplices = order_complex(cx)
    if not simplices:
        return homology_of_simplices(simplices)
    top_input = max(len(s) for s in simplices) - 1
    h = homology_of_simplices(_collapse_simplices(simplices))
    for d in range(top_input + 1):
        h.setdefault(d, (0, []))
    return h


def is_collapsible(cx: Complex) -> bool:
    """Greedy free-face collapse down to a single vertex.  True is a
    certificate of contractibility; False is inconclusive."""
    dims = dict(cx.dims)
    facets = {k: set(v) for k, v in cx.facets.items()}
    cofaces: Dict[str, Set[str]] = {k: set() for k in dims}
    for c, fs in facets.items():
        for f in fs:
            cofaces[f].add(c)
    while True:
        # (f, c) is a free pair iff c is the only cell properly containing
        # f, i.e. f has one cofacet c and c itself is maximal
        free = [
            f
            for f in dims
            if len(cofaces[f]) == 1 and not cofaces[next(iter(cofaces[f]))]
        ]
        if not free:
            break
        f = min(free, key=lambda k: (dims[k], k))
        (c,) = cofaces[f]
        for cell in (f, c):
            for g in facets[cell]:
                if g in cofaces and g not in (f, c):
                    cofaces[g].discard(cell)
        del dims[f], facets[f], cofaces[f]
        del dims[c], facets[c], cofaces[c]
    return len(dims) == 1 and next(iter(dims.values())) == 0
