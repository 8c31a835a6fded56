"""Admissible hyperplane arrangements in the unit cube and their cells.

An arrangement in dimension n consists of all coordinate walls
{x_i = 0}, {x_i = 1} plus a chosen set of adjacent diagonals
{x_i = x_{i+1}}.  A cell is a satisfiable sign vector: a position in
{0, 1, interior} per coordinate and a relation in {<, =, >} per chosen
diagonal.  Because the diagonals lie along a path, a sign vector is
satisfiable exactly when every chosen diagonal sees an allowed pair of
adjacent positions.  A transfer matrix over that pair table counts the
cells by dimension without listing them, for any n.  A diagonal only
joins coordinates inside one run, a maximal block of coordinates joined
by chosen diagonals, so the cell complex is the product of its runs'
complexes, and a run of m coordinates has (2 * 4^m + 1) / 3 cells, so
the size of a complex is the product of these closed forms.  Only a
run, the full path on its coordinates, is listed cell by cell, once
per run length and process (at most 8 tables under the size bound),
grown one coordinate at a time through the pair table; its facets come
from local moves: merge two interior classes across a strict diagonal,
or pin one interior class to a wall, which only its two boundary
diagonals can forbid.  A product's facets are index offsets into its
cell table, and each facet set is built from them only when it is first
read, so counting cells or taking a skeleton builds no set it does not
read.  An edge's vertices are its two facets.  A flat is cut out by
wall positions and '=' relations, which are characters of the cell
keys, so a cell set is a flat restriction exactly when it has as many
cells as the flat of the wall and '=' characters its keys have in
common, and that flat is counted, not listed, by the transfer matrix
with those characters as the only states allowed at their indices.
All arithmetic is exact.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .topology import Complex

POS = ("0", "1", "i")
REL = ("<", "=", ">")


@dataclass(frozen=True)
class Arrangement:
    n: int
    diagonals: FrozenSet[int]  # i in 1..n-1 marks {x_i = x_{i+1}}
    _sorted: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValueError(f"dimension must be an int, not {self.n!r}")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "diagonals", frozenset(self.diagonals))
        if any(isinstance(i, bool) or not isinstance(i, int) for i in self.diagonals):
            raise ValueError("diagonal indices must be ints")
        if any(i < 1 or i >= self.n for i in self.diagonals):
            raise ValueError("diagonal indices must lie in 1..n-1")
        object.__setattr__(self, "_sorted", tuple(sorted(self.diagonals)))

    def diag_list(self) -> Tuple[int, ...]:
        """The diagonals in increasing order, sorted once."""
        return self._sorted


def cell_key(positions: str, rels: str) -> str:
    return f"{positions}|{rels}"


def split_key(key: str) -> Tuple[str, str]:
    positions, _, rels = key.partition("|")
    return positions, rels


# Allowed (left, right) position pairs across a diagonal, per relation,
# with 0 < interior < 1.  Along a path of diagonals the strict relations
# between interior classes never close a cycle, so these adjacent checks
# are the whole satisfiability test.
ALLOWED = {
    "=": frozenset({"00", "11", "ii"}),
    "<": frozenset({"01", "0i", "i1", "ii"}),
    ">": frozenset({"10", "i0", "1i", "ii"}),
}


# STEPS[diagonal][p]: each way to put a position q after p, as (q, the
# relation across the diagonal, or '' without one, the dimension it adds)
STEPS = {
    False: {p: [(q, "", int(q == "i")) for q in POS] for p in POS},
    True: {
        p: [(q, r, int(q == "i" and r != "=")) for q in POS for r in REL if p + q in ALLOWED[r]]
        for p in POS
    },
}


def face_of(ckey: str, dkey: str) -> bool:
    """True iff the cell with key ckey lies in the closure of dkey.
    Raises ValueError when a key has no '|', or when the two keys'
    positions or relations differ in length: such keys are cells of
    no one arrangement."""
    for key in (ckey, dkey):
        if "|" not in key:
            raise ValueError(f"{key!r} is not a cell key")
    cp, cr = split_key(ckey)
    dp, dr = split_key(dkey)
    if len(cp) != len(dp) or len(cr) != len(dr):
        raise ValueError(f"{ckey!r} and {dkey!r} are keys of different shapes")
    for a, b in zip(cp, dp):
        if b != "i" and a != b:
            return False
    for a, b in zip(cr, dr):
        if b == "=" and a != "=":
            return False
        if b == "<" and a == ">":
            return False
        if b == ">" and a == "<":
            return False
    return True


@dataclass(frozen=True)
class ClusterComplex:
    arrangement: Arrangement
    complex: Complex

    def counts(self) -> List[int]:
        out = [0] * (self.complex.dimension() + 1)
        for d in self.complex.dims.values():
            out[d] += 1
        return out

    def vertex_coords(self, key: str) -> Tuple[int, ...]:
        positions, _ = split_key(key)
        if "i" in positions:
            raise ValueError(f"{key} is not a vertex")
        return tuple(int(c) for c in positions)

    def vertex_of_coords(self, coords: Sequence[int]) -> str:
        n = self.arrangement.n
        if len(coords) != n or any(c not in (0, 1) for c in coords):
            raise ValueError(f"{tuple(coords)} is not a corner of the {n}-cube")
        positions = "".join(str(int(c)) for c in coords)
        rels = []
        for d in self.arrangement.diag_list():
            a, b = coords[d - 1], coords[d]
            rels.append("<" if a < b else ("=" if a == b else ">"))
        return cell_key(positions, "".join(rels))


# Pinning an interior class to a wall v: (v, the relation an interior
# left neighbour must show, the one an interior right neighbour must show)
PINS = (("0", ">", "<"), ("1", "<", ">"))


def _facets(positions: str, rels: str) -> FrozenSet[str]:
    """The cells one dimension down in the closure of a cell of one run,
    the full path, by a local rule: every interior boundary j is a
    diagonal with relation rels[j - 1].  Merging two interior classes
    across a strict diagonal sets it to '='.  Pinning an interior class
    to v touches only the class's two boundary diagonals: next to an
    interior neighbour the pin stands only if the relation points the
    right way (v = 1 iff '<' on the left, '>' on the right), and a wall
    neighbour equal to v turns the relation into '='."""
    n = len(positions)
    out = set()
    lo = 0
    for hi in range(1, n + 1):
        if hi < n and rels[hi - 1] == "=":
            continue
        if positions[lo] == "i":
            a = positions[lo - 1] if lo else None
            b = positions[hi] if hi < n else None
            if b == "i":
                out.add(f"{positions}|{rels[:hi - 1]}={rels[hi:]}")
            for v, up, down in PINS:
                if a == "i" and rels[lo - 1] != up or b == "i" and rels[hi - 1] != down:
                    continue
                pinned = rels
                if a == v:
                    pinned = f"{pinned[:lo - 1]}={pinned[lo:]}"
                if b == v:
                    pinned = f"{pinned[:hi - 1]}={pinned[hi:]}"
                out.add(f"{positions[:lo]}{v * (hi - lo)}{positions[hi:]}|{pinned}")
        lo = hi
    return frozenset(out)


def cell_counts(arr: Arrangement) -> List[int]:
    """Cell counts by dimension, without the face structure: a transfer
    matrix over the pair table, stepping one coordinate at a time."""
    # partial[p][d]: partial cells ending in position p with d interior classes
    partial = {p: [int(p != "i"), int(p == "i")] for p in POS}
    for j in range(1, arr.n):
        grown = {q: [0] * (j + 2) for q in POS}
        for p, counts in partial.items():
            for q, _, up in STEPS[j in arr.diagonals][p]:
                acc = grown[q]
                for d, c in enumerate(counts):
                    acc[d + up] += c
        partial = grown
    return [sum(col) for col in zip(*partial.values())]


@lru_cache(maxsize=None)
def _run_table(
    m: int,
) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    """The cells of one run of m coordinates, the full path, in key
    order: positions, relations, dimensions, and each cell's facets as
    offsets from its own index.  The cells are grown one coordinate at
    a time through the pair table, and a dimension counts the interior
    classes: interior positions less the '=' joining two of them.  Each
    table is built once per process, on first use, and shared, so it
    is made of tuples only."""
    cells = [(p, "", int(p == "i")) for p in POS]
    for _ in range(1, m):
        cells = [(p + q, r + s, d + up) for p, r, d in cells for q, s, up in STEPS[True][p[-1]]]
    cells.sort()  # every positions string has length m, so this is key order
    P, R, D = zip(*cells)
    index = {f"{p}|{r}": i for i, (p, r) in enumerate(zip(P, R))}
    O = tuple(tuple(index[f] - i for f in _facets(p, r)) for i, (p, r) in enumerate(zip(P, R)))
    _check_run_table(P, R, D, O)
    return P, R, D, O


def _check_run_table(P, R, D, O) -> None:
    """Pass a run table's cells through the checking `Complex`
    constructor, which raises ValueError on a facet that is not a cell
    one dimension down.  A product of checked tables is right by
    construction, so `enumerate_cells` builds its complexes unchecked."""
    keys = [f"{p}|{r}" for p, r in zip(P, R)]
    facets = {k: frozenset(keys[i + o] for o in O[i]) for i, k in enumerate(keys)}
    Complex(dict(zip(keys, D)), facets)


# The most cells enumerate_cells lists: a run of m coordinates alone has
# (2 * 4^m + 1) / 3 cells, 43 691 at m = 8 and 174 763 at m = 9, so every
# arrangement with n <= 8 fits.  A diagonal only adds cells, so an
# arrangement has at least the 3^n cells of the plain cube, and none with
# n >= 11 (177 147 cells and more) fits.
MAX_CELLS = 100_000


class _LazyFacets(Mapping):
    """The facet sets of an `enumerate_cells` complex: a read-only map in
    the complex's key order, over the product's keys, their sorted order
    and each run's offset table.  The first read folds the runs' offsets;
    each set is built on its first read, from the cells' own key
    objects, and kept.  A full read (`items`, `values`, `==`) builds
    every missing set in one pass."""

    __slots__ = ("_dims", "_keys", "_order", "_runs", "_offsets", "_index", "_sets")

    def __init__(self, dims, keys, order, runs):
        self._dims = dims  # the cells in key order
        self._keys = keys  # the cells in product order, None once every set is built
        self._order = order  # key order as indices into the product
        self._runs = runs  # each run's offset table, left to right
        self._offsets = self._index = None
        self._sets: Dict[str, FrozenSet[str]] = {}

    def _fold(self) -> List[Tuple[int, ...]]:
        # a facet of a product cell replaces one factor by a facet of it,
        # so the fold only scales and adds index offsets
        if self._offsets is None:
            O = self._runs[0]
            for O2 in self._runs[1:]:
                k2 = len(O2)
                O = [a + b for a in [tuple(o * k2 for o in oa) for oa in O] for b in O2]
            self._offsets = O
        return self._offsets

    def __getitem__(self, key: str) -> FrozenSet[str]:
        try:
            return self._sets[key]
        except KeyError:
            if self._keys is None:
                raise
        if self._index is None:
            self._index = dict(zip(self._keys, range(len(self._keys))))
            self._fold()
        i = self._index[key]  # a key that is no cell raises KeyError here
        keys = self._keys
        got = self._sets[key] = frozenset([keys[i + o] for o in self._offsets[i]])
        return got

    def _all(self) -> Dict[str, FrozenSet[str]]:
        """Every facet set in key order, the missing ones built in one
        pass; the tables they were built from are then let go."""
        if self._keys is not None:
            keys, sets, O = self._keys, self._sets, self._fold()
            self._sets = {
                k: sets[k] if k in sets else frozenset([keys[i + o] for o in O[i]])
                for k, i in zip(self._dims, self._order)
            }
            self._keys = self._order = self._runs = self._offsets = self._index = None
        return self._sets

    def __len__(self) -> int:
        return len(self._dims)

    def __iter__(self):
        return iter(self._dims)

    def __contains__(self, key) -> bool:
        return key in self._dims

    def items(self):
        return self._all().items()

    def values(self):
        return self._all().values()

    def __eq__(self, other) -> bool:
        return self._all() == other

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._all()!r})"


def enumerate_cells(arr: Arrangement) -> ClusterComplex:
    """All satisfiable sign vectors of the arrangement, graded by the
    number of interior coordinate classes, with the facet relation.  A
    diagonal only joins coordinates inside one run, the maximal block
    of coordinates joined by chosen diagonals, so the complex is the
    product of its runs' complexes, and the faces of a product are the
    products of faces (Ziegler, Lectures on Polytopes, 1995, section 0).
    Each run length has one table from `_run_table`, built once per
    process and shared (at most 8 of them, since the bound keeps every
    run at m <= 8), and the tables' positions, relations and dimensions
    are folded left to right into the cell keys and dims.  The facets
    are a read-only `_LazyFacets` map over the same keys, which folds
    the runs' facet offsets and builds each facet set when it is first
    read, so a caller pays only for the sets it reads.  Each table
    passed the checking `Complex` constructor once, where it was made,
    so the product is built unchecked.  The cell count is the product
    of the runs' closed-form sizes (2 * 4^m + 1) / 3; past MAX_CELLS it
    raises ValueError before any table is built: every arrangement with
    n <= 8 is listed, and none with n >= 11.
    The n > 12 check comes first, so that the runs are never read for
    a huge n."""
    if arr.n > 12:
        raise ValueError("dimension bound exceeded (n <= 12)")
    runs = []
    lo = 0
    for hi in range(1, arr.n + 1):
        if hi not in arr.diagonals:
            runs.append(hi - lo)
            lo = hi
    cells = 1
    for m in runs:
        cells *= (2 * 4 ** m + 1) // 3
    if cells > MAX_CELLS:
        raise ValueError(f"cell bound exceeded ({cells} cells > {MAX_CELLS})")
    P, R, D, O = _run_table(runs[0])
    offsets = [O]
    for m in runs[1:]:
        P2, R2, D2, O2 = _run_table(m)
        P = [p + q for p in P for q in P2]
        R = [r + s for r in R for s in R2]
        D = [d + e for d in D for e in D2]
        offsets.append(O2)
    keys = [f"{p}|{r}" for p, r in zip(P, R)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    dims = {keys[i]: D[i] for i in order}
    return ClusterComplex(arr, Complex._trusted(dims, _LazyFacets(dims, keys, order, offsets)))


# --------------------------------------------------------------------------
# Flats


def is_flat_restriction(cx: ClusterComplex, keys: Iterable[str]) -> bool:
    """True iff the cells are exactly the cells of cx lying in some flat.
    A flat constraint is a wall position or an '=' relation, so the
    constraints a cell satisfies are the characters of its key other
    than 'i', '<', '>' and the '|', each at a fixed index.  The smallest
    candidate flat is cut out by the (index, character) pairs every
    given key shows, and it holds every given key, so the set is a flat
    restriction iff that flat has exactly len(keys) cells.  They are
    counted as `cell_counts` counts, by a transfer matrix over the pair
    table, with the shown wall position as the only state allowed where
    one is shown and '=' as the only relation.  A key that is not a
    cell of cx gives False."""
    keys = set(keys)
    if not keys or not keys.issubset(cx.complex.dims):
        return False
    arr = cx.arrangement
    shown = [col[0] if col[0] in "01=" and len(set(col)) == 1 else "" for col in zip(*keys)]
    pins, eqs = shown[:arr.n], iter(shown[arr.n + 1:])
    # partial[p]: partial cells of the flat ending in position p
    partial = {p: int(pins[0] in ("", p)) for p in POS}
    for j in range(1, arr.n):
        diagonal = j in arr.diagonals
        equal = diagonal and next(eqs) == "="
        grown = dict.fromkeys(POS, 0)
        for p, count in partial.items():
            for q, r, _ in STEPS[diagonal][p]:
                if pins[j] in ("", q) and (r == "=" or not equal):
                    grown[q] += count
        partial = grown
    return sum(partial.values()) == len(keys)


# --------------------------------------------------------------------------
# Exact convexity verification


def verify_convex_cells(cx: ClusterComplex) -> bool:
    """Each cell's corner set must match its combinatorial vertex set
    and have at least d + 1 points.  The closed cell has integral extreme
    points, so its corners span it, and they are in convex position with
    no check: each 0/1 corner c is the unique maximiser over the cube of
    sum (2 c_i - 1) x_i, so no corner lies in the hull of the others."""
    arr = cx.arrangement
    if arr.n > 6:
        raise ValueError("convexity check bounded at n <= 6")
    corners = {c: cx.vertex_of_coords(c) for c in product((0, 1), repeat=arr.n)}
    for key in cx.complex.cells():
        d = cx.complex.dims[key]
        combinatorial = {
            cx.vertex_coords(v) for v in cx.complex.vertices_of(key)
        }
        geometric = {c for c, v in corners.items() if face_of(v, key)}
        if combinatorial != geometric:
            return False
        if len(combinatorial) < d + 1:
            return False
    return True


# --------------------------------------------------------------------------
# Serialization


def complex_to_json(cx: ClusterComplex, labels: Optional[Dict[str, str]] = None) -> str:
    cells = []
    for key in cx.complex.cells():
        entry = {
            "key": key,
            "dim": cx.complex.dims[key],
            "signvector": key,
            "faces": sorted(cx.complex.facets[key]),
        }
        if labels and key in labels:
            entry["label"] = labels[key]
        cells.append(entry)
    doc = {
        "format": 1,
        "n": cx.arrangement.n,
        "diagonals": sorted(cx.arrangement.diagonals),
        "cells": cells,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def skeleton_to_dot(
    cx: ClusterComplex,
    labels: Optional[Dict[str, str]] = None,
    ranks: Optional[Dict[str, int]] = None,
) -> str:
    lines = ["graph cluster {"]
    for v in cx.complex.cells_of_dim(0):
        name = labels.get(v, v) if labels else v
        attrs = f'label="{name}"'
        if ranks is not None and v in ranks:
            attrs += f', rank="{ranks[v]}"'
        lines.append(f'  "{v}" [{attrs}];')
    for _, vv in cx.complex.edges():
        a, b = sorted(vv)
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines)
