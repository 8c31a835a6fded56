"""Brute-force reference implementations kept as differential oracles.

The sign-vector sweep, its union-find satisfiability test and the
pairwise facet scan enumerate arrangement cells the slow, obvious way;
the flat-mask enumeration lists every flat restriction of a cluster
piece.  The library replaced them with local path rules; the tests
compare the two on every small input.
"""

from itertools import product
from typing import Dict, FrozenSet, List, Sequence

from lmgroups.arrangements import (
    POS,
    REL,
    Arrangement,
    ClusterComplex,
    cell_key,
    face_of,
    split_key,
)
from lmgroups.topology import Complex


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
