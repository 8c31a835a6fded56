"""Reference implementations for the tests: one per concept, the closest
to the definition, with a second only at sizes the first cannot reach.

- Cells and facets, n <= 5: the sign-vector sweep `enumerate_cells`.
- Facets, n = 6 and 7 (the sweep takes 22 s at n = 6): the former `_facets`.
- Faces and vertices of a cell: the stack walk `closure` down the facets.
- Flats: the flat-mask enumeration `_flat_cell_sets`, and the scan
  `is_flat_restriction` over every cell for the shared wall and '='
  characters.
- Edges of a cluster by corner coordinates: `has_edge_between_coords`,
  a scan of every edge.
- The edge rule of a cluster: the whole difference product
  `difference_entries`, read by `group.is_special_entries`, and compared
  with the enumerated skeleton on every vertex pair by
  `skeleton_mismatches`.
- The cone parameter: the search `cone_search` over the enlarged
  assemblies, each checked on the closures of its cells.
- Ascending links: the star `ascending_link` of the cells whose vertex
  sets have their least Morse value at the vertex.
- Homology: the barycentric subdivision pipeline `reduced_homology`, the
  simplicial chain complex `homology_of_simplices` of `order_complex`;
  and the cellular chain complex `cellular_homology` of a whole cell
  set, whose boundary matrices also feed the Smith form test.
- Collapsibility: the greedy collapse `greedy_collapse`, rescanning each
  step, read by `is_collapsible`; what it leaves also feeds the Smith
  form test with boundary matrices.
- Smith form above 8 x 8 (minors in test_topology below): `smith_diagonal`.
- Action: the tuple interpreter `act_prefix`, searched by `equal_at_depth`.
- Partial actions: the hand-written rows of `partial_action`.
- Tree pairs: the rows `pm_x`/`pm_p`, composed unreduced by `pm_of_word`.
- Moved endpoints: the scan `_moved_endpoint`, restarted for each 0^d, 1^d.
- Rewriting: the former `rewrite_standard_form`, restarted after each rule.
- Coset keys: the former contraction loop `canonical_coset`, which
  standardises the tail again after each contraction and stops where a
  tail repeats.
- Convexity of cells: the phase-one simplex `_in_convex_hull`.

`same_map` and `is_reduced` state what equal and reduced tree pairs are.
The memoised `equal_at_depth` is the only independent verdict at depth 12
and 16, and the former rewriter the only check of step counts and of
where a budget runs out.
"""

from fractions import Fraction
from itertools import combinations, product
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from lmgroups import action, group, topology, words, xcomplex
from lmgroups.action import PrefixResult
from lmgroups.arrangements import (
    POS,
    REL,
    Arrangement,
    ClusterComplex,
    cell_key,
    face_of,
    split_key,
)
from lmgroups.group import (
    DEFAULT_DEPTH,
    IDENTITY_PM,
    GroupWord,
    Letter,
    PrefixMap,
    RewriteBudgetExceeded,
    StandardForm,
    TagViolation,
    _coset_units,
    _merge_letters,
    _ordered_commuting,
)
from lmgroups.topology import Complex, order_complex
from lmgroups.words import X_ROWS, independent, p_rows, tree_order_less


# --------------------------------------------------------------------------
# Arrangement cells: the sign-vector sweep, and the former facet table
# lookup that checks facets where the sweep is too slow


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
                f for f in by_dim.get(d - 1, []) if face_of(f, k)
            )
    cx = Complex(cells, facets)
    return ClusterComplex(arr, cx)


def _facets(
    positions: str, rels: str, arr: Arrangement, cells: Dict[str, int]
) -> FrozenSet[str]:
    """The cells one dimension down in the closure: pin one interior
    class to a wall, or merge two interior classes across a strict
    diagonal.  A pinned sign vector is a facet exactly when it is a cell,
    that is, a key of the table `cells` of every satisfiable one."""
    diags = arr.diag_list()
    out = set()
    for k, d in enumerate(diags):
        if rels[k] != "=" and positions[d - 1] == positions[d] == "i":
            out.add(cell_key(positions, rels[:k] + "=" + rels[k + 1:]))
    eq = {d for d, r in zip(diags, rels) if r == "="}
    bounds = [0] + [j for j in range(1, arr.n) if j not in eq] + [arr.n]
    for lo, hi in zip(bounds, bounds[1:]):
        if positions[lo] != "i":
            continue
        for v in "01":
            pinned = positions[:lo] + v * (hi - lo) + positions[hi:]
            pinned_rels = "".join(
                "=" if pinned[d - 1] == pinned[d] != "i" else r
                for d, r in zip(diags, rels)
            )
            key = cell_key(pinned, pinned_rels)
            if key in cells:
                out.add(key)
    return frozenset(out)


# --------------------------------------------------------------------------
# Closures: a stack walk down the facet table


def closure(cx: Complex, key: str) -> Tuple[Set[str], Set[str]]:
    """The proper faces of a cell, found by walking down the facets with
    a stack, and its vertices: the cell itself if it is one, else the
    vertices among its faces."""
    acc: Set[str] = set()
    stack = list(cx.facets[key])
    while stack:
        f = stack.pop()
        if f not in acc:
            acc.add(f)
            stack.extend(cx.facets[f])
    verts = {key} if cx.dims[key] == 0 else {f for f in acc if cx.dims[f] == 0}
    return acc, verts


# --------------------------------------------------------------------------
# Flats: every constraint mask of a cluster piece


def _flat_cell_sets(piece, ids: Dict[str, str]) -> List[FrozenSet[str]]:
    """Cell-id sets of every flat restriction of the piece (subcluster
    candidates for the intersection test): for every mask of wall and
    diagonal constraints, the cells satisfying each constraint in it."""
    arr = piece.cluster.arrangement
    constraints = [("coord", i, v) for i in range(1, arr.n + 1) for v in (0, 1)]
    constraints += [("diag", i) for i in sorted(arr.diagonals)]
    cells = piece.cluster.complex.cells()

    def satisfies(ckey, c):
        positions, rels = split_key(ckey)
        if c[0] == "coord":
            _, i, v = c
            return positions[i - 1] == str(v)
        return dict(zip(arr.diag_list(), rels))[c[1]] == "="

    solutions = [frozenset(k for k in cells if satisfies(k, c)) for c in constraints]
    everything = frozenset(cells)
    flats = set()
    for mask in range(1 << len(constraints)):
        inside = everything.intersection(
            *(solutions[i] for i in range(len(constraints)) if mask >> i & 1)
        )
        if inside:
            flats.add(inside)
    return sorted((frozenset(ids[k] for k in flat) for flat in flats), key=sorted)


def is_flat_restriction(cx: ClusterComplex, keys) -> bool:
    """The former scan of `arrangements.is_flat_restriction`: the
    (index, character) pairs of wall positions and '=' relations every
    key shows, and no other cell of cx showing them all.  An empty set
    or a key that is no cell gives False."""
    keys = set(keys)
    dims = cx.complex.dims
    if not keys or not keys.issubset(dims):
        return False
    first = next(iter(keys))
    shared = [
        (j, c) for j, c in enumerate(first) if c not in "i<>|" and all(k[j] == c for k in keys)
    ]
    return not any(k not in keys and all(k[j] == c for j, c in shared) for k in dims)


def has_edge_between_coords(piece, a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff an edge of the piece's cluster joins the corners at
    coordinates a and b, by a scan of every edge; a point that is no
    corner raises ValueError."""
    pair = frozenset({piece.cluster.vertex_of_coords(a), piece.cluster.vertex_of_coords(b)})
    return any(vv == pair for _, vv in piece.cluster.complex.edges())


# --------------------------------------------------------------------------
# The edge rule of a cluster: the difference product of two vertices


def difference_entries(
    forms, plus: FrozenSet[int], minus: FrozenSet[int]
) -> List[Tuple[str, int]]:
    """The entries of the forms in `plus` and the inverse entries of the
    forms in `minus`, concatenated in index order: for forms sorted by
    `xcomplex.sort_params` this is the tree order, and the two vertices
    whose parameter sets differ by (plus, minus) are joined by an edge
    exactly when `group.is_special_entries` accepts the product."""
    return [
        e
        for i in sorted(plus | minus)
        for e in (forms[i].entries if i in plus else forms[i].inverse_entries())
    ]


def skeleton_mismatches(
    forms, cluster: ClusterComplex
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """The corner pairs of a cluster on the sorted forms where the
    special-form rule on the whole difference product disagrees with an
    edge of the enumerated 1-skeleton: the edge rule on every vertex
    pair."""
    edges = {vv for _, vv in cluster.complex.edges()}
    corners = {v: cluster.vertex_coords(v) for v in cluster.complex.cells_of_dim(0)}
    out = []
    for va, vb in combinations(sorted(corners), 2):
        a, b = corners[va], corners[vb]
        plus = frozenset(i for i, (x, y) in enumerate(zip(a, b)) if x > y)
        minus = frozenset(i for i, (x, y) in enumerate(zip(a, b)) if x < y)
        rule = group.is_special_entries(difference_entries(forms, plus, minus))
        if rule != (frozenset({va, vb}) in edges):
            out.append((a, b))
    return out


# --------------------------------------------------------------------------
# Cone parameters and ascending links: the search and the vertex-set star


def cone_search(pieces) -> Optional[int]:
    """The least m whose enlarged pieces glue and cone off the link of e,
    searched: for each m up to the longest subscript plus 3 with 0^m 1
    independent of every subscript, the enlarged assembly, every edge
    read by the vertices of its closure, and a square on two edges by the
    closure of every 2-cell.  None when no m passes."""
    subs = sorted({s for _, params in pieces for f in params for s in f.subscripts()})

    def edge_ids(cx):
        return {cx.vertices_of(e): e for e in cx.cells_of_dim(1)}

    nbrs = {w for pair in edge_ids(xcomplex.assemble(pieces).complex) if "e" in pair
            for w in pair} - {"e"}
    for m in range(1, max(len(s) for s in subs) + 4):
        a = "0" * m + "1"
        if not all(independent(a, s) for s in subs):
            continue
        apex = group.special_form(f"y[{a}]")
        try:
            cx = xcomplex.assemble([(b, list(params) + [apex]) for b, params in pieces]).complex
        except xcomplex.ClusterError:
            continue
        ids = edge_ids(cx)
        e_apex = ids.get(frozenset({"e", apex.to_string()}))
        if e_apex is None:
            continue
        if all(
            frozenset({"e", w}) in ids
            and any(
                ids[frozenset({"e", w})] in cx.faces(c) and e_apex in cx.faces(c)
                for c in cx.cells_of_dim(2)
            )
            for w in nbrs
        ):
            return m
    return None


def ascending_link(cx, vertex: str) -> Complex:
    """The link of the vertex in its ascending star, each cell's least
    (h, f) vertex read over the vertex set of its closure."""
    vals = xcomplex.morse_values(cx)
    low = vals[vertex].key()
    star = {
        c for c in cx.complex.cells()
        if cx.complex.dims[c] and min(vals[v].key() for v in cx.complex.vertices_of(c)) == low
    }
    return Complex(
        {c: cx.complex.dims[c] - 1 for c in star},
        {c: frozenset(f for f in cx.complex.facets[c] if f in star) for c in star},
    )


# --------------------------------------------------------------------------
# Homology of the barycentric subdivision, the rescanning collapse, and
# the former dense Smith loop


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


def homology_of_simplices(simplices: List[Tuple[str, ...]]) -> Dict[int, Tuple[int, List[int]]]:
    """Reduced integral homology of a simplicial complex given as a list
    of simplices (vertex tuples, closed under taking subtuples), through
    the library's Smith form.

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
        diag = topology.smith_diagonal(boundary_matrix(d))
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


def cellular_homology(cx: Complex, cells: Set[str]) -> Dict[int, Tuple[int, List[int]]]:
    """Reduced integral homology of the face-closed cell set, from its
    cellular chain complex augmented by one row under the vertices.
    Returns {degree: (betti rank, torsion coefficients)} up to the top
    dimension of the set; the empty set reports {-1: (1, [])}."""
    if not cells:
        return {-1: (1, [])}
    inc = topology._incidences(cx, cells)
    by_dim: Dict[int, List[str]] = {}
    for c in sorted(cells):
        by_dim.setdefault(cx.dims[c], []).append(c)
    top = max(by_dim)  # a regular complex has cells of every lower dimension
    ranks: List[int] = []
    torsions: List[List[int]] = []
    for d in range(top + 1):
        cols = by_dim[d]
        if d == 0:
            rows = [[1] * len(cols)]
        else:
            below = {f: i for i, f in enumerate(by_dim[d - 1])}
            rows = [[0] * len(cols) for _ in below]
            for j, c in enumerate(cols):
                for f, s in inc[c].items():
                    rows[below[f]][j] = s
        diag = topology.smith_diagonal(rows)
        ranks.append(len(diag))
        torsions.append([v for v in diag if v > 1])
    ranks.append(0)
    torsions.append([])
    return {d: (len(by_dim[d]) - ranks[d] - ranks[d + 1], torsions[d + 1]) for d in range(top + 1)}


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


def greedy_collapse(cx: Complex) -> Set[str]:
    """The cells that the greedy free-face collapse leaves: while some
    cell f has exactly one cofacet c and c is maximal, f and c go, the
    least such f (by dimension, then key) first.  What is left is a
    subcomplex of the same homotopy type."""
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
    return set(dims)


def is_collapsible(cx: Complex) -> bool:
    """Whether the greedy collapse leaves a single vertex.  True is a
    certificate of contractibility; False is inconclusive."""
    rest = greedy_collapse(cx)
    return len(rest) == 1 and cx.dims[min(rest)] == 0


def smith_diagonal(rows: List[List[int]]) -> List[int]:
    """Nonzero diagonal of the Smith normal form (d1 | d2 | ...)."""
    m = [row[:] for row in rows]
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
        again = True
        while again:
            again = False
            for i in range(r + 1, R):
                if m[i][r]:
                    q = m[i][r] // m[r][r]
                    for j in range(r, C):
                        m[i][j] -= q * m[r][j]
                    if m[i][r]:
                        m[r], m[i] = m[i], m[r]
                        again = True
            for j in range(r + 1, C):
                if m[r][j]:
                    q = m[r][j] // m[r][r]
                    for i in range(r, R):
                        m[i][j] -= q * m[i][r]
                    if m[r][j]:
                        for i in range(r, R):
                            m[i][r], m[i][j] = m[i][j], m[i][r]
                        again = True
        # enforce divisibility of later entries by the pivot (every entry
        # is divisible by 1)
        piv = abs(m[r][r])
        if piv > 1:
            for i in range(r + 1, R):
                for j in range(r + 1, C):
                    if m[i][j] % piv:
                        for jj in range(r, C):
                            m[r][jj] += m[i][jj]
                        again = True
                        break
                else:
                    continue
                break
        if again:
            continue
        diag.append(piv)
        r += 1
    return diag


# --------------------------------------------------------------------------
# The former action interpreter: tagged tuple states that re-derive the
# rows of their letter on every bit

State = Tuple
IDENT: State = ("id",)


def _root_state(kind: str, sg: int) -> State:
    if kind == "p":
        raise AssertionError("p letters carry an index, not a subscript")
    return (kind, sg, "")


def initial_states(word) -> Tuple[State, ...]:
    """One transducer per unit letter, in application order."""
    states: List[State] = []
    for kind, sub, exp in word.letters:
        sg = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            if kind == "p":
                states.append(("p", sub, sg, ""))
            elif sub == "":
                states.append(_root_state(kind, sg))
            else:
                states.append(("m", kind, sub, sg, 0))
    return tuple(states)


def _rows(state):
    tag = state[0]
    if tag == "x":
        sg = state[1]
        return tuple((pat, out, IDENT) for pat, out in words.X_ROWS[sg])
    if tag == "y":
        sg = state[1]
        if sg > 0:
            return (("00", "0", ("y", 1, "")),
                    ("01", "10", ("y", -1, "")),
                    ("1", "11", ("y", 1, "")))
        return (("0", "00", ("y", -1, "")),
                ("10", "01", ("y", 1, "")),
                ("11", "1", ("y", -1, "")))
    if tag == "p":
        n, sg = state[1], state[2]
        return tuple((pat, out, IDENT) for pat, out in words.p_rows(n, sg))
    raise AssertionError(f"rowless state {state!r}")


def _feed(state: State, b: str) -> Tuple[State, str]:
    """Push one input bit into a letter; return (new state, emitted bits)."""
    tag = state[0]
    if tag == "id":
        return state, b
    if tag == "m":
        _, kind, sub, sg, i = state
        if b == sub[i]:
            i += 1
            if i == len(sub):
                return _root_state(kind, sg), b
            return ("m", kind, sub, sg, i), b
        return IDENT, b  # input left the subscript cylinder: identity from here on
    buf = state[-1] + b
    for pat, out, nxt in _rows(state):
        if buf == pat:
            return nxt, out
    return state[:-1] + (buf,), ""


def _pending(state: State) -> str:
    """Output forced by a partially matched root buffer (the common
    prefix of the row images still reachable from the buffer)."""
    tag = state[0]
    if tag in ("id", "m"):
        return ""
    buf = state[-1]
    if not buf:
        return ""
    outs = [out for pat, out, _ in _rows(state) if pat.startswith(buf)]
    if not outs:
        raise AssertionError(f"buffer {buf!r} matches no row of {state!r}")
    first = min(outs, key=len)
    k = 0
    while k < len(first) and all(o[k] == first[k] for o in outs):
        k += 1
    return first[:k]


def feed_word(states: Tuple[State, ...], bits: str) -> Tuple[Tuple[State, ...], str]:
    """Feed input bits through the whole chain; return final emission."""
    sts = list(states)
    out = bits
    for j in range(len(sts)):
        chunk, out = out, ""
        for b in chunk:
            sts[j], o = _feed(sts[j], b)
            out += o
    return tuple(sts), out


def forced_tail(states: Tuple[State, ...]) -> str:
    """Extra output already forced by buffered bits, cascaded to the end
    of the chain.  Probes a copy; the argument states are not advanced."""
    if all(_pending(s) == "" for s in states):
        return ""
    sts = list(states)
    n = len(sts)
    tail = ""
    for j in range(n):
        chunk = _pending(sts[j])
        for k in range(j + 1, n):
            nxt = ""
            for b in chunk:
                sts[k], o = _feed(sts[k], b)
                nxt += o
            chunk = nxt
        tail += chunk
    return tail


def act_prefix(word, xi: str) -> PrefixResult:
    """Longest output prefix forced by the input prefix xi."""
    words.check_word(xi)
    states, out = feed_word(initial_states(word), xi)
    forced = out + forced_tail(states)
    exhausted = all(s[0] in ("id", "m") or s[-1] == "" for s in states)
    return PrefixResult(forced, exhausted)


def _incompatible(x: str, y: str) -> bool:
    m = min(len(x), len(y))
    return x[:m] != y[:m]


def equal_at_depth(w1, w2, depth: int) -> Optional[str]:
    """Search all inputs of length <= depth for one forcing incompatible
    output prefixes of w1 and w2.

    Returns such an input (a sound witness that the words are distinct
    homeomorphisms), or None if the words agree so far.  The search
    walks the input tree once, sharing state: a node is pruned when the
    same pair of chain states and the same outstanding output lag have
    already been cleared to at least the remaining depth.
    """
    memo = {}

    def walk(st1, st2, a, b, path, remaining):
        # a/b: output emitted by one word but not yet matched by the other
        if _incompatible(a + forced_tail(st1), b + forced_tail(st2)):
            return path
        if remaining == 0:
            return None
        key = (st1, st2, a, b)
        if memo.get(key, -1) >= remaining:
            return None
        for bit in "01":
            s1, o1 = feed_word(st1, bit)
            s2, o2 = feed_word(st2, bit)
            na, nb = a + o1, b + o2
            m = min(len(na), len(nb))
            if na[:m] != nb[:m]:
                return path + bit
            na, nb = na[m:], nb[m:]
            r = walk(s1, s2, na, nb, path + bit, remaining - 1)
            if r is not None:
                return r
        memo[key] = remaining
        return None

    return walk(initial_states(w1), initial_states(w2), "", "", "", depth)


# --------------------------------------------------------------------------
# Partial actions and tree pairs from hand-written rows


def _act_root_x(s: str, sign: int) -> Optional[str]:
    for pat, out in X_ROWS[sign]:
        if s.startswith(pat):
            return out + s[len(pat):]
    return None


def act_once_x(s: str, sub: str, sign: int) -> Optional[str]:
    """s . x_sub^sign, or None when the image cylinder is not forced."""
    if independent(s, sub):
        return s
    if s.startswith(sub):
        rest = _act_root_x(s[len(sub):], sign)
        if rest is None:
            return None
        return sub + rest
    return None  # s is a proper prefix of the subscript


def act_once_p(s: str, n: int, sign: int) -> Optional[str]:
    """s . p_n^sign, or None when s is too short to match a row."""
    for pat, out in p_rows(n, sign):
        if s.startswith(pat):
            return out + s[len(pat):]
    return None


def partial_action(s: str, letter) -> Optional[str]:
    """s . g for an x- or p-letter g = (kind, sub, exp); None if undefined.

    A defined value means g maps the cylinder at s rigidly onto the
    cylinder at the result, which is exactly the hypothesis of the
    transport relations y_s x_t = x_t y_{s.x_t} and y_s p_n = p_n y_{s.p_n}.
    """
    kind, sub, exp = letter
    step = 1 if exp > 0 else -1
    for _ in range(abs(exp)):
        if kind == "x":
            s = act_once_x(s, sub, step)
        elif kind == "p":
            s = act_once_p(s, sub, step)
        else:
            raise ValueError(f"no partial action for letter kind {kind!r}")
        if s is None:
            return None
    return s


def pm_x(sub: str, sign: int) -> PrefixMap:
    pairs = [(sub[:i] + ("1" if sub[i] == "0" else "0"),) * 2 for i in range(len(sub))]
    core = [(sub + "00", sub + "0"), (sub + "01", sub + "10"), (sub + "1", sub + "11")]
    if sign < 0:
        core = [(b, a) for a, b in core]
    return tuple(sorted(pairs + core))


def pm_p(n: int, sign: int) -> PrefixMap:
    leaves = ["1" * k + "0" for k in range(n + 1)] + ["1" * (n + 1)]
    rot = leaves[1:] + leaves[:1]
    pairs = list(zip(leaves, rot))
    if sign < 0:
        pairs = [(b, a) for a, b in pairs]
    return tuple(sorted(pairs))


def pm_compose(m1: PrefixMap, m2: PrefixMap) -> PrefixMap:
    """Apply m1 then m2 by pairing every row of one with every row of the
    other whose leaves nest; nothing is merged back."""
    return tuple(sorted(
        (a, d + b[len(c):]) if b.startswith(c) else (a + c[len(b):], d)
        for a, b in m1
        for c, d in m2
        if b.startswith(c) or c.startswith(b)
    ))


def pm_of_word(w: GroupWord) -> PrefixMap:
    """The tree pair of an x/p word, letter by letter from pm_x and pm_p,
    unreduced."""
    pm = IDENTITY_PM
    for kind, sub, sg in w.unit_letters():
        if kind == "x":
            step = pm_x(sub, sg)
        elif kind == "p":
            step = pm_p(sub, sg)
        else:
            raise TagViolation("tree pairs exist only for x/p words")
        pm = pm_compose(pm, step)
    return pm


def same_map(m1: PrefixMap, m2: PrefixMap) -> bool:
    """Whether two tree pairs are one map: where a domain leaf of one
    extends a domain leaf of the other, both send it to the same place.
    On complete prefix codes those leaves cover every point."""
    for a, b in m1:
        for c, d in m2:
            if c.startswith(a) and b + c[len(a):] != d:
                return False
            if a.startswith(c) and d + a[len(c):] != b:
                return False
    return True


def is_complete_prefix_code(leaves: Sequence[str]) -> bool:
    """No leaf extends another, and the cylinders cover the Cantor set."""
    depth = max(map(len, leaves))
    return sum(2 ** (depth - len(s)) for s in leaves) == 2 ** depth and all(
        not t.startswith(s) for s in leaves for t in leaves if s != t
    )


def is_reduced(pm: PrefixMap) -> bool:
    """A reduced tree pair: domain and range are complete prefix codes,
    and no sibling leaves u0, u1 go to sibling leaves v0, v1."""
    img = dict(pm)
    return (
        len(img) == len(pm)
        and is_complete_prefix_code(list(img))
        and is_complete_prefix_code(list(img.values()))
        and not any(
            a.endswith("0") and b.endswith("0") and img.get(a[:-1] + "1") == b[:-1] + "1"
            for a, b in pm
        )
    )


# --------------------------------------------------------------------------
# The former endpoint scan of in_F: the tuple interpreter from scratch
# for each 0^d and 1^d


def _moved_endpoint(w: GroupWord, scan: int) -> Optional[str]:
    """The shortest 0^d or 1^d with d <= scan whose forced image leaves
    the constant sequence, or None."""
    for d in range(1, scan + 1):
        for base in ("0", "1"):
            xi = base * d
            if set(act_prefix(w, xi).forced) - {base}:
                return xi
    return None


# --------------------------------------------------------------------------
# The former rewriter: a four-phase scan restarted at index 0 after every
# rule application


def _expand_y(sub: str, sg: int) -> List[Letter]:
    # y_s = x_s y_{s0} y_{s10}^-1 y_{s11}
    if sg > 0:
        return [("x", sub, 1), ("y", sub + "0", 1),
                ("y", sub + "10", -1), ("y", sub + "11", 1)]
    return [("y", sub + "11", -1), ("y", sub + "10", 1),
            ("y", sub + "0", -1), ("x", sub, -1)]


def _find_quad(L: List[Letter], start: int) -> Optional[Tuple[int, int, int, int, str]]:
    """Locate letters y_{u0} y_{u10}^-1 y_{u11} y_u^-1 (in that order,
    possibly separated by letters that commute across them) in the y
    tail starting at `start`; their product is x_u^-1."""
    tail = [(s, e) for _, s, e in L[start:]]
    for q, (u, e) in enumerate(tail):
        if e != -1:
            continue
        pos = _ordered_commuting(tail, [(u + "0", 1), (u + "10", -1), (u + "11", 1)], q)
        if pos is not None:
            p1, p2, p3 = (start + p for p in pos)
            return p1, p2, p3, start + q, u
    return None


def rewrite_standard_form(
    w: GroupWord,
    *,
    max_steps: int = 100_000,
    max_subscript: int = 12,
    validate: bool = True,
    depth: int = DEFAULT_DEPTH,
) -> StandardForm:
    """Convert w into a standard form representing the same element.

    Strategy: push x/p letters leftward through y letters by the
    transport relations, expanding y_s = x_s y_{s0} y_{s10}^-1 y_{s11}
    whenever the needed partial action is undefined; then sort the y
    tail by the tree order using commutation of independent letters,
    expanding nested out-of-order pairs, and contracting the quadruple
    y_{u0} y_{u10}^-1 y_{u11} y_u^-1 back to x_u^-1.  Budgets guard
    termination; the result is checked against the action oracle.
    """
    L = w.unit_letters()
    steps = 0

    def bump():
        nonlocal steps
        steps += 1
        if steps > max_steps:
            raise RewriteBudgetExceeded(_word_of(L, w.tag), "rewriting step budget exceeded")

    def guard(sub):
        if len(sub) + 2 > max_subscript:
            raise RewriteBudgetExceeded(
                _word_of(L, w.tag), "rewriting subscript depth budget exceeded"
            )

    while True:
        moved = False
        # phase 1: no y letter may precede an x/p letter
        for i in range(len(L) - 1):
            if L[i][0] == "y" and L[i + 1][0] in ("x", "p"):
                bump()
                _, s, e = L[i]
                g = L[i + 1]
                s2 = words.partial_action(s, g)
                if s2 is not None:
                    L[i], L[i + 1] = g, ("y", s2, e)
                else:
                    guard(s)
                    L[i:i + 1] = _expand_y(s, e)
                moved = True
                break
        if moved:
            continue

        h = next((i for i, l in enumerate(L) if l[0] == "y"), len(L))

        # phase 2: cancel, sort and merge the y tail
        for j in range(h, len(L) - 1):
            (k1, s, e), (k2, t, f) = L[j], L[j + 1]
            if s == t and e + f == 0:
                bump()
                del L[j:j + 2]
                moved = True
                break
            if s == t or tree_order_less(s, t):
                continue
            bump()
            if independent(s, t):
                L[j], L[j + 1] = L[j + 1], L[j]
            else:
                # t extends s and must come first: deepen y_s
                guard(s)
                L[j:j + 1] = _expand_y(s, e)
            moved = True
            break
        if moved:
            continue

        quad = _find_quad(L, h)
        if quad is not None:
            bump()
            p1, p2, p3, q, u = quad
            for idx in (q, p3, p2, p1):
                del L[idx]
            L.insert(q - 3, ("x", u, -1))
            continue

        # head absorption: x_u^-1 y_u = y_{u0} y_{u10}^-1 y_{u11}, after
        # sliding x_u^-1 right through the tail prefix (transport by x_u)
        if h > 0 and L[h - 1][0] == "x" and L[h - 1][2] == -1:
            u = L[h - 1][1]
            j = next(
                (j for j in range(h, len(L)) if L[j][1] == u and L[j][2] == 1), None
            )
            if j is not None:
                transformed: Optional[List[Letter]] = []
                for jj in range(h, j):
                    v2 = words.partial_action(L[jj][1], ("x", u, 1))
                    if v2 is None:
                        transformed = None
                        break
                    transformed.append(("y", v2, L[jj][2]))
                if transformed is not None:
                    bump()
                    L[h - 1:j + 1] = transformed + [
                        ("y", u + "0", 1),
                        ("y", u + "10", -1),
                        ("y", u + "11", 1),
                    ]
                    continue
        break

    h = next((i for i, l in enumerate(L) if l[0] == "y"), len(L))
    head = GroupWord(_merge_letters(L[:h]), w.tag)
    tail_units = L[h:]
    tail: List[Tuple[str, int]] = []
    for _, s, e in tail_units:
        if tail and tail[-1][0] == s:
            tail[-1] = (s, tail[-1][1] + e)
            if tail[-1][1] == 0:
                tail.pop()
        else:
            tail.append((s, e))
    for (s, _), (t, _) in zip(tail, tail[1:]):
        if not tree_order_less(s, t):
            raise AssertionError("standard-form tail is not sorted")
    sf = StandardForm(head, tuple(tail), w.tag)
    if validate:
        witness = action.equal_at_depth(w, sf.word(), depth)
        if witness is not None:
            raise AssertionError(
                f"rewriting produced an unequal word (witness input {witness!r})"
            )
    return sf


def _word_of(units: List[Letter], tag: str) -> GroupWord:
    return GroupWord(_merge_letters(units), tag)


# --------------------------------------------------------------------------
# Coset keys: the former contraction loop, which contracted the first
# absorbable triple and standardised the tail again after each contraction


def _first_triple_contraction(tail: List[Tuple[str, int]]) -> Optional[List[Tuple[str, int]]]:
    for p3, (v, sg) in enumerate(tail):
        if sg == 1 and v.endswith("11"):
            # y_{u0} y_{u10}^-1 y_{u11} = x_u^-1 y_u
            u = v[:-2]
            pos = _ordered_commuting(tail, [(u + "0", 1), (u + "10", -1)], p3)
            x = -1
        elif sg == -1 and v.endswith("1"):
            # the mirror y_{u00}^-1 y_{u01} y_{u1}^-1 = x_u y_u^-1
            u = v[:-1]
            pos = _ordered_commuting(tail, [(u + "00", -1), (u + "01", 1)], p3)
            x = 1
        else:
            continue
        if pos is None:
            continue
        new: List[Tuple[str, int]] = []
        for i, (s, e) in enumerate(tail[:p3]):
            if i in pos:
                continue
            s2 = words.partial_action(s, ("x", u, x))
            if s2 is None:
                break
            new.append((s2, e))
        else:
            return new + [(u, sg)] + tail[p3 + 1:]
    return None


def canonical_coset(g: GroupWord) -> Optional[GroupWord]:
    """The key of the coset Fg by the former loop, or None where a tail
    repeats: there that loop spun until its contraction budget ran out."""
    head, units = _coset_units(g)
    if head.letters and not group.pm_order_preserving(group.pm_of_word(head)):
        raise TagViolation("coset representative has a head outside F")
    seen = set()
    while (new := _first_triple_contraction(units)) is not None:
        if tuple(units) in seen:
            return None
        seen.add(tuple(units))
        _, units = _coset_units(GroupWord(tuple(("y", s, e) for s, e in new), g.tag))
    return _word_of([("y", s, e) for s, e in units], g.tag)


# --------------------------------------------------------------------------
# Convexity of cells: the exact phase-one simplex


def _in_convex_hull(point: Sequence[Fraction], hull: List[Sequence[Fraction]]) -> bool:
    """Exact feasibility of point = sum(l_i h_i), l >= 0, sum l = 1,
    by a phase-one simplex with Bland's rule over Fractions."""
    if not hull:
        return False
    m = len(point) + 1
    k = len(hull)
    # rows: equations; columns: k lambda vars + m artificial vars
    A = [[Fraction(h[r]) for h in hull] for r in range(len(point))]
    A.append([Fraction(1)] * k)
    b = [Fraction(p) for p in point] + [Fraction(1)]
    for r in range(m):
        if b[r] < 0:
            A[r] = [-v for v in A[r]]
            b[r] = -b[r]
    tab = [A[r] + [Fraction(1) if c == r else Fraction(0) for c in range(m)] + [b[r]] for r in range(m)]
    basis = [k + r for r in range(m)]
    cost = [Fraction(0)] * (k + m) + [Fraction(0)]
    for r in range(m):
        for c in range(k + m + 1):
            cost[c] -= tab[r][c]
    for c in range(k, k + m):
        cost[c] += 1
    while True:
        enter = next((c for c in range(k + m) if cost[c] < 0), None)
        if enter is None:
            break
        ratios = [
            (tab[r][-1] / tab[r][enter], r)
            for r in range(m)
            if tab[r][enter] > 0
        ]
        if not ratios:
            return False  # unbounded phase-one: cannot happen
        _, pivot = min(ratios, key=lambda t: (t[0], basis[t[1]]))
        pv = tab[pivot][enter]
        tab[pivot] = [v / pv for v in tab[pivot]]
        for r in range(m):
            if r != pivot and tab[r][enter]:
                f = tab[r][enter]
                tab[r] = [v - f * w for v, w in zip(tab[r], tab[pivot])]
        if cost[enter]:
            f = cost[enter]
            cost = [v - f * w for v, w in zip(cost, tab[pivot])]
        basis[pivot] = enter
    return -cost[-1] == 0


def verify_convex_cells(cx: ClusterComplex) -> bool:
    """Each cell's corner set must match its combinatorial vertex set,
    be convex independent, and span the closed cell (which has integral
    extreme points, so corners suffice)."""
    arr = cx.arrangement
    if arr.n > 6:
        raise ValueError("convexity check bounded at n <= 6")
    corners = list(product((0, 1), repeat=arr.n))
    for key in cx.complex.cells():
        d = cx.complex.dims[key]
        combinatorial = {
            cx.vertex_coords(v) for v in cx.complex.vertices_of(key)
        }
        geometric = {c for c in corners if face_of(cx.vertex_of_coords(c), key)}
        if combinatorial != geometric:
            return False
        if len(combinatorial) < d + 1:
            return False
        pts = sorted(combinatorial)
        for i, v in enumerate(pts):
            others = [p for j, p in enumerate(pts) if j != i]
            if _in_convex_hull([Fraction(c) for c in v], others):
                return False
    return True
