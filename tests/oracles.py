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

The tuple-state action interpreter, the per-letter partial actions and
the tree pairs pm_x/pm_p restate the generator rows by hand; the library
now builds letter machines and prefix codes from the row tables in
`words`, and the tests compare the two.
"""

from itertools import product
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from lmgroups import words
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
from lmgroups.group import IDENTITY_PM, GroupWord, PrefixMap, TagViolation, pm_compose
from lmgroups.topology import Complex, homology_of_simplices, order_complex
from lmgroups.words import X_ROWS, independent, p_rows


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
# The former partial actions and tree pairs of single letters


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


def pm_of_word(w: GroupWord) -> PrefixMap:
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
