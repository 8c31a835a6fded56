import random
import re
from itertools import chain, combinations
from math import gcd

import oracles
import pytest
from genutil import clean_params

from lmgroups import topology, xcomplex
from lmgroups.arrangements import Arrangement, enumerate_cells
from lmgroups.group import identity, special_form
from lmgroups.topology import (
    Complex,
    _coreduce,
    _incidences,
    is_collapsible,
    is_trivial_homology,
    order_complex,
    reduced_homology,
    smith_diagonal,
)


def simplicial_complex(top_simplices):
    """Close a list of vertex tuples under faces and present as a Complex."""
    cells = set()
    for s in top_simplices:
        s = tuple(sorted(s))
        for mask in range(1, 1 << len(s)):
            cells.add(tuple(v for i, v in enumerate(s) if mask >> i & 1))
    dims = {"|".join(c): len(c) - 1 for c in cells}
    facets = {}
    for c in cells:
        key = "|".join(c)
        if len(c) == 1:
            facets[key] = frozenset()
        else:
            facets[key] = frozenset("|".join(c[:k] + c[k + 1:]) for k in range(len(c)))
    return Complex(dims, facets)


def test_complex_rejects_facets_that_are_not_cells():
    # also a dim that is no non-negative int (a bool included) and a facet
    # collection that is no frozenset, naming the least such cell
    cases = (
        ({"a": 1}, {"a": frozenset({"b"})}, "facet b of a is not a cell"),
        ({"a": 0, "b": 0}, {"a": frozenset()}, "facets and dims must name the same cells"),
        ({"a": 0}, {"a": frozenset(), "b": frozenset()}, "facets and dims must name the same cells"),
        ({"a": -1}, {"a": frozenset()}, "dim of a must be a non-negative int, not -1"),
        ({"a": "0"}, {"a": frozenset()}, "dim of a must be a non-negative int, not '0'"),
        ({"a": True}, {"a": frozenset()}, "dim of a must be a non-negative int, not True"),
        ({"b": 0.0, "a": 1.0}, {"a": frozenset(), "b": frozenset()}, "dim of a must"),
        ({"v": 0, "e": 1}, {"v": frozenset(), "e": "v"}, "facets of e must be a frozenset, not a str"),
        ({"a": 0, "b": 0, "e": 1}, {"a": frozenset(), "b": frozenset(), "e": ["a", "b"]},
         "facets of e must be a frozenset, not a list"),
        ({"v": 0, "e": 1, "d": 1}, {"v": set(), "e": {"v"}, "d": ("v",)},
         "facets of d must be a frozenset, not a tuple"),
    )
    for dims, facets, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            Complex(dims, facets)


def test_closures_match_the_stack_walk_on_arrangements():
    for n in range(1, 7):
        for D in chain.from_iterable(combinations(range(1, n), r) for r in range(n)):
            cx = enumerate_cells(Arrangement(n, frozenset(D))).complex
            for c in cx.dims:
                assert (cx.faces(c), cx.vertices_of(c)) == oracles.closure(cx, c), c


def test_face_cache_takes_no_part_in_equality():
    a = enumerate_cells(Arrangement(2, frozenset({1}))).complex
    b = enumerate_cells(Arrangement(2, frozenset({1}))).complex
    assert a is not b
    a.vertices_of(a.cells_of_dim(2)[0])
    assert a == b


def test_edges_are_their_facets_on_arrangements():
    # an edge's only faces are its facets, so no closure is needed
    for n in range(1, 6):
        for r in range(n):
            for D in combinations(range(1, n), r):
                cx = enumerate_cells(Arrangement(n, frozenset(D))).complex
                assert cx.edges() == [(e, cx.vertices_of(e)) for e in cx.cells_of_dim(1)]


def test_subcomplex_names_the_least_cell_missing_a_facet():
    cx = enumerate_cells(Arrangement(2, frozenset({1}))).complex
    keep = [c for c in cx.dims if c != "00|="]
    # the two triangles miss the vertex only as a face of a face
    assert sorted(c for c in keep if "00|=" in cx.faces(c)) == ["0i|<", "i0|>", "ii|<", "ii|=", "ii|>"]
    for order in (keep, keep[::-1]):
        with pytest.raises(ValueError, match=r"not closed under faces at 0i\|<$"):
            cx.subcomplex(order)


def test_subcomplex_names_the_least_key_that_is_no_cell():
    # unknown keys are named before any closure check, even beside a cell
    # whose facets are missing
    cx = enumerate_cells(Arrangement(2, frozenset({1}))).complex
    for keys, least in (
        (["zz"], "zz"),
        (list(cx.dims) + ["zz"], "zz"),
        (["ii|<", "zz", "00|<", "yy"], "00|<"),  # 00 never shows '<'
    ):
        with pytest.raises(ValueError, match=f"not a cell of the complex: {re.escape(least)}$"):
            cx.subcomplex(keys)


def test_subcomplex_accepts_exactly_the_sets_closed_under_faces():
    # every arrangement with n <= 3 minus one cell: closed under faces iff
    # the cell is a face of nothing, and otherwise the least cell holding
    # it as a facet is named
    for n in range(1, 4):
        for D in chain.from_iterable(combinations(range(1, n), r) for r in range(n)):
            cx = enumerate_cells(Arrangement(n, frozenset(D))).complex
            for gone in cx.dims:
                keep = [c for c in cx.dims if c != gone]
                if not any(gone in cx.faces(c) for c in keep):
                    assert cx.subcomplex(keep).dims == {c: cx.dims[c] for c in keep}
                    continue
                least = min(c for c in keep if gone in cx.facets[c])
                with pytest.raises(ValueError, match=f"at {re.escape(least)}$"):
                    cx.subcomplex(keep)


def test_skeleta_match_face_closed_restriction():
    # the skeleta the cells benchmark takes, against the restriction of
    # dims and facets after a check of every face of every kept cell
    for n in range(1, 6):
        for D in chain.from_iterable(combinations(range(1, n), r) for r in range(n)):
            cx = enumerate_cells(Arrangement(n, frozenset(D))).complex
            for k in range(n + 1):
                keep = [c for c, d in cx.dims.items() if d <= k]
                assert all(cx.faces(c) <= set(keep) for c in keep)
                sub = cx.subcomplex(keep)
                assert sub.dims == {c: cx.dims[c] for c in keep}
                assert sub.facets == {c: cx.facets[c] for c in keep}


def test_skeleta_keep_the_cell_order_and_pass_the_checking_constructor():
    # subcomplex builds unchecked from a set: the cells must come in the
    # parent's order, and the public constructor must accept the result
    for n in range(1, 6):
        for D in chain.from_iterable(combinations(range(1, n), r) for r in range(n)):
            cx = enumerate_cells(Arrangement(n, frozenset(D))).complex
            for k in range(n + 1):
                keep = {c for c, d in cx.dims.items() if d <= k}
                sub = cx.subcomplex(keep)
                assert list(sub.dims) == [c for c in cx.dims if c in keep]
                assert list(sub.facets) == list(sub.dims)
                assert Complex(dict(sub.dims), dict(sub.facets)) == sub, (n, D, k)


def _replay_coreduction(cx, critical, pairs):
    """Replay a coreduction without the library: the critical cells go
    first, then the pairs in the given order, and at its turn each pair
    (f, c) must have f as the only remaining facet of c.  Every other
    facet of c is then critical or in an earlier pair, so along a path
    f0 < c0 > f1 < c1 > ... of the matching the pairs come ever earlier,
    and the matching is acyclic.  The cells must be split exactly into
    the critical ones and the pairs."""
    cells = list(critical) + [cell for pair in pairs for cell in pair]
    assert sorted(cells) == sorted(cx.dims)
    left = set(cx.dims) - set(critical)
    for f, c in pairs:
        assert cx.facets[c] & left == {f}, (f, c)
        left -= {f, c}


def test_coreduction_replays_on_every_skeleton():
    for n in range(1, 6):
        for D in chain.from_iterable(combinations(range(1, n), r) for r in range(n)):
            cx = enumerate_cells(Arrangement(n, frozenset(D))).complex
            for k in range(n + 1):
                sk = _skeleton(cx, k)
                critical, pairs = _coreduce(sk)
                _replay_coreduction(sk, critical, pairs)
                assert len(critical) + 2 * len(pairs) == len(sk.dims)
                # one critical vertex and the rest in degree k: no Morse
                # matrix is built (the 0-skeleta have no edges)
                if k:
                    assert [sk.dims[c] for c in critical] == [0] + [k] * (len(critical) - 1), (n, D, k)
                if k == n:
                    assert critical == [min(sk.cells_of_dim(0))], (n, D)


def test_coreduction_replay_rejects_a_wrong_pair():
    tri = simplicial_complex([("a", "b", "c")])
    critical, pairs = _coreduce(tri)
    assert (critical, pairs) == (["a"], [("c", "a|c"), ("b", "b|c"), ("a|b", "a|b|c")])
    _replay_coreduction(tri, critical, pairs)
    # the triangle paired first still has all three edges left
    with pytest.raises(AssertionError):
        _replay_coreduction(tri, critical, pairs[::-1])
    # a vertex paired with an edge it does not bound
    with pytest.raises(AssertionError):
        _replay_coreduction(tri, critical, [("b", "a|c"), ("c", "b|c")] + pairs[2:])
    # a cell left out of the split
    with pytest.raises(AssertionError):
        _replay_coreduction(tri, critical, pairs[:2])


def test_smith_diagonal_known():
    assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert smith_diagonal([[0, 0], [0, 0]]) == []
    assert smith_diagonal([[2]]) == [2]
    # divisibility chain
    assert smith_diagonal([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == [1, 1, 30]
    assert smith_diagonal([[4, 0], [0, 6]]) == [2, 12]
    # no unit entry: the least pivot 4 leaves the remainder 2 in its
    # column (6 = 4 + 2); that one clears its column (4 = 2 * 2) and
    # leaves the remainder 1 in its row (5 = 2 * 2 + 1)
    m = [[0, 5, 6], [0, 0, 4]]
    assert smith_diagonal(m) == _determinantal_quotients(m) == [1, 20]


def _det(m):
    """Bareiss fraction-free elimination: every division is exact."""
    m = [row[:] for row in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _determinantal_quotients(m):
    """d_k = D_k / D_(k-1), with D_k the gcd of the k x k minors; the
    number of them is the rank."""
    R, C = len(m), len(m[0])
    divisors = [1]
    for k in range(1, min(R, C) + 1):
        g = 0
        for rows in combinations(range(R), k):
            for cols in combinations(range(C), k):
                g = gcd(g, _det([[m[i][j] for j in cols] for i in rows]))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        divisors.append(g)
    return [b // a for a, b in zip(divisors, divisors[1:])]


# an elimination that picks its least pivot only once per diagonal
# entry lets the entries of this matrix grow to thousands of bits
GROWTH = [[6, 4, -2, 0, 6, 2, 0], [0, -1, 0, 6, 0, 3, 0], [6, 2, 6, 6, 1, 4, 6],
          [-2, 2, 0, 6, 4, 6, 3], [4, 0, -2, -2, -1, 2, 3], [6, 2, -2, 3, 0, 0, 3],
          [3, 3, 0, 1, 0, 0, 2], [0, 6, 4, 0, 6, 4, 3]]


def test_smith_diagonal_matches_determinantal_divisors():
    # d1 * ... * dk is the gcd of the k x k minors, and the number of
    # nonzero entries is the rank
    rng = random.Random(17)
    cases = [GROWTH]
    for _ in range(400):
        R, C = rng.randint(1, 4), rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(C)] for _ in range(R)]
        if rng.random() < 0.3:
            m[rng.randrange(R)] = [0] * C
        cases.append(m)
    cases += [[[rng.randint(-3, 3) for _ in range(8)] for _ in range(8)] for _ in range(40)]
    for m in cases:
        expected = _determinantal_quotients(m)
        assert smith_diagonal(m) == expected, m
    assert smith_diagonal(GROWTH) == [1, 1, 1, 1, 1, 2, 4]


def test_homology_point_and_circle():
    point = simplicial_complex([("a",)])
    assert is_trivial_homology(reduced_homology(point))
    circle = simplicial_complex([("a", "b"), ("b", "c"), ("a", "c")])
    h = reduced_homology(circle)
    assert h[0] == (0, []) and h[1] == (1, [])
    assert not is_collapsible(circle)


def test_homology_sphere_and_disk():
    # boundary of a tetrahedron: a 2-sphere
    tet = [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")]
    h = reduced_homology(simplicial_complex(tet))
    assert h[0] == (0, []) and h[1] == (0, []) and h[2] == (1, [])
    disk = simplicial_complex([("a", "b", "c")])
    assert is_trivial_homology(reduced_homology(disk))
    assert is_collapsible(disk)


RP2 = (
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
)


def test_homology_torsion_projective_plane():
    # the minimal 6-vertex triangulation of the real projective plane,
    # through the cell complex and through the simplicial oracle
    tris = [tuple(str(v) for v in t) for t in RP2]
    simplices = []
    for t in tris:
        for mask in range(1, 1 << 3):
            simplices.append(tuple(sorted(v for i, v in enumerate(t) if mask >> i & 1)))
    expected = {0: (0, []), 1: (0, [2]), 2: (0, [])}
    assert reduced_homology(simplicial_complex(tris)) == expected
    assert oracles.homology_of_simplices(simplices) == expected


def test_order_complex_is_subdivision():
    square = simplicial_complex([("a", "b", "c")])
    sd = order_complex(square)
    h = oracles.homology_of_simplices(sd)
    assert is_trivial_homology(h)


def test_empty_complex():
    assert reduced_homology(Complex({}, {})) == {-1: (1, [])}
    assert oracles.homology_of_simplices([]) == {-1: (1, [])}


def test_collapsible_needs_free_faces():
    # two triangles sharing an edge: collapsible
    cx = simplicial_complex([("a", "b", "c"), ("b", "c", "d")])
    assert is_collapsible(cx)


def _skeleton(cx, k):
    return cx.subcomplex(c for c in cx.dims if cx.dims[c] <= k)


def _oracle_cases():
    for n in range(1, 5):
        for D in chain.from_iterable(combinations(range(1, n), r) for r in range(n)):
            cx = enumerate_cells(Arrangement(n, frozenset(D))).complex
            yield cx
            for k in range(n):
                if n == 4 and k in (2, 3):
                    continue  # the subdivision oracle takes seconds here
                yield _skeleton(cx, k)
    rng = random.Random(31)
    links = 0
    while links < 4:
        pieces = [(identity("G"), clean_params(rng, max_forms=rng.randint(1, 2), max_sub=4))
                  for _ in range(rng.randint(1, 3))]
        try:
            m, _ = xcomplex.find_cone_vertex(pieces)
            apex = special_form(f"y[{'0' * m}1]")
            big = xcomplex.assemble([(b, list(p) + [apex]) for b, p in pieces])
        except xcomplex.ClusterError:
            continue
        for v in big.complex.cells_of_dim(0)[:3]:
            yield xcomplex.ascending_link(big, v)
        links += 1
    for tops in (
        [("a",)],
        [("a", "b"), ("b", "c"), ("a", "c")],
        [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")],
        [("a", "b", "c")],
        [("a", "b", "c"), ("b", "c", "d")],
        [tuple(str(v) for v in t) for t in (
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
        )],
    ):
        yield simplicial_complex(tops)


def test_collapse_first_matches_subdivision_oracles():
    cases = collapsible = 0
    for cx in _oracle_cases():
        assert reduced_homology(cx) == oracles.reduced_homology(cx)
        assert is_collapsible(cx) == oracles.is_collapsible(cx)
        cases += 1
        collapsible += is_collapsible(cx)
    assert cases >= 60 and 0 < collapsible < cases


def test_morse_boundaries_match_both_oracles(monkeypatch):
    # complexes whose Morse complex has a nonzero boundary: RP2, the
    # 7-vertex torus, and the seeded random simplicial complexes on
    # which the pass builds a Morse matrix for the Smith form
    calls = []
    real = topology.smith_diagonal
    monkeypatch.setattr(topology, "smith_diagonal", lambda rows: calls.append(rows) or real(rows))
    rng = random.Random(7)
    tops = [RP2, [tuple((i + j) % 7 for j in t) for i in range(7) for t in ((0, 1, 3), (0, 2, 3))]]
    for _ in range(3000):
        n = rng.randint(4, 10)
        tops.append([rng.sample(range(n), rng.randint(2, 4)) for _ in range(rng.randint(2, 14))])
    cases = 0
    for t in tops:
        cx = simplicial_complex([tuple(map(str, s)) for s in t])
        made = len(calls)
        h = reduced_homology(cx)
        if len(calls) > made:
            assert h == oracles.cellular_homology(cx, set(cx.dims)) == oracles.reduced_homology(cx)
            cases += 1
    assert cases >= 50


def _boundary_matrices(monkeypatch):
    """Every boundary matrix that the cellular chain complex of what the
    greedy collapse of the oracles leaves of an arrangement complex with
    n <= 4 hands to the Smith form, and every one that the simplicial
    chain complex of its subdivision hands to it, their skeleta
    included, but for the 3-skeleta at n = 4 other than the cube's: on
    those the former dense loop takes 0.5 to 12 s a matrix (up to
    2012 x 1072)."""
    seen = []
    real = topology.smith_diagonal

    def record(rows):
        seen.append(rows)
        return real(rows)

    monkeypatch.setattr(topology, "smith_diagonal", record)
    for n in range(1, 5):
        for D in chain.from_iterable(combinations(range(1, n), r) for r in range(n)):
            cx = enumerate_cells(Arrangement(n, frozenset(D))).complex
            for k in range(n + 1):
                if (n, k) != (4, 3) or not D:
                    sk = _skeleton(cx, k)
                    rest = oracles.greedy_collapse(sk)
                    oracles.cellular_homology(sk, rest)
                    oracles.homology_of_simplices(order_complex(sk.subcomplex(rest)))
    monkeypatch.undo()
    return seen


def test_sparse_smith_matches_former_dense_loop(monkeypatch):
    matrices = _boundary_matrices(monkeypatch)
    assert len(matrices) == 196
    assert max(len(m) * len(m[0]) for m in matrices) == 356_352
    rng = random.Random(23)
    for _ in range(200):
        # boundary-like: a few +-1 entries per column, now and then a 2
        R, C = rng.randint(1, 12), rng.randint(1, 16)
        m = [[0] * C for _ in range(R)]
        for j in range(C):
            for i in rng.sample(range(R), min(R, rng.randint(1, 3))):
                m[i][j] = rng.choice((1, -1, 1, -1, 2))
        matrices.append(m)
    for m in matrices:
        # the minors reach 8 x 8; the former dense loop checks the rest
        if len(m) <= 8 and len(m[0]) <= 8:
            assert smith_diagonal(m) == _determinantal_quotients(m), m
        else:
            assert smith_diagonal(m) == oracles.smith_diagonal(m), m


def test_induced_incidences_square_to_zero():
    # every cell of every arrangement with n <= 5, before any collapse:
    # the boundary of each boundary cancels, the augmentation included
    for n in range(1, 6):
        for D in chain.from_iterable(combinations(range(1, n), r) for r in range(n)):
            cx = enumerate_cells(Arrangement(n, frozenset(D))).complex
            inc = _incidences(cx, cx.dims)
            assert inc.keys() == {c for c, d in cx.dims.items() if d > 0}
            for c, row in inc.items():
                assert row.keys() == cx.facets[c] and set(row.values()) <= {1, -1}
                total = {}
                for f, s in row.items():
                    for r, t in inc.get(f, {"": 1}).items():
                        total[r] = total.get(r, 0) + s * t
                assert not any(total.values()), c


def test_non_regular_posets_raise():
    def cx(dims, facets):
        return Complex(dims, {k: frozenset(facets.get(k, ())) for k in dims})

    def doubled(dims, facets, top, boundary):
        # two cells on one boundary, so that no face is free
        d = dims[min(boundary)] + 1
        return cx(dict(dims, **{top + "1": d, top + "2": d}),
                  dict(facets, **{top + "1": boundary, top + "2": boundary}))

    rp2 = simplicial_complex([tuple(str(v) for v in t) for t in RP2])
    torus = simplicial_complex(
        [tuple(str((i + j) % 7) for j in t) for i in range(7) for t in ((0, 1, 3), (0, 2, 3))]
    )
    cases = [
        # two edges on one vertex each
        (cx({"v": 0, "e0": 1, "e1": 1}, {"e0": {"v"}, "e1": {"v"}}),
         "edge e0 does not have two vertices"),
        # each edge on a vertex of its own, and a 2-cell on both: e0 stays critical
        (cx({"v0": 0, "v1": 0, "e0": 1, "e1": 1, "f0": 2},
            {"e0": {"v1"}, "e1": {"v0"}, "f0": {"e0", "e1"}}),
         "edge e0 does not have two vertices"),
        # a 2-cell with no boundary
        (cx({"f": 2}, {}), "cell f has an empty boundary"),
        # a 2-cell whose boundary is a path: its end vertices lie in one edge
        (doubled({"a": 0, "b": 0, "c": 0, "e0": 1, "e1": 1},
                 {"e0": {"a", "b"}, "e1": {"b", "c"}}, "f", {"e0", "e1"}),
         "ridge a lies in 1 facets of f1, not 2"),
        # a 2-cell whose boundary is a theta graph
        (doubled({"a": 0, "b": 0, "e0": 1, "e1": 1, "e2": 1},
                 {"e0": {"a", "b"}, "e1": {"a", "b"}, "e2": {"a", "b"}}, "f", {"e0", "e1", "e2"}),
         "ridge a lies in 3 facets of f1, not 2"),
        # a 2-cell whose boundary is two circles
        (doubled({"a": 0, "b": 0, "c": 0, "d": 0, "e0": 1, "e1": 1, "e2": 1, "e3": 1},
                 {"e0": {"a", "b"}, "e1": {"a", "b"}, "e2": {"c", "d"}, "e3": {"c", "d"}},
                 "f", {"e0", "e1", "e2", "e3"}),
         "the boundary of f1 is not connected"),
        # a 3-cell whose boundary is the projective plane
        (doubled(rp2.dims, rp2.facets, "c", set(rp2.cells_of_dim(2))),
         "the boundary of c1 has no consistent orientation"),
        # two 3-cells whose boundary is the 7-vertex torus: orientable and
        # connected, but with Euler characteristic 0
        (doubled(torus.dims, torus.facets, "c", set(torus.cells_of_dim(2))),
         "the boundary of c1 has Euler characteristic 0, not that of a sphere"),
    ]
    for complex_, message in cases:
        # the cell the message names is one the answer would read
        critical, _ = _coreduce(complex_)
        named = re.search(r"\b(?:edge|cell|of) (\w+)", message).group(1)
        assert named in set(critical).union(*map(complex_.faces, critical)), message
        with pytest.raises(ValueError, match=message):
            reduced_homology(complex_)
