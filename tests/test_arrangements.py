import gc
import random
import re
from collections import Counter
from itertools import chain, combinations, product
from types import SimpleNamespace

import oracles
import pytest

from lmgroups import arrangements
from lmgroups.arrangements import (
    Arrangement,
    ClusterComplex,
    cell_counts,
    complex_to_json,
    enumerate_cells,
    face_of,
    is_flat_restriction,
    skeleton_to_dot,
    verify_convex_cells,
)
from lmgroups.topology import Complex


def all_diag_subsets(n):
    return chain.from_iterable(combinations(range(1, n), r) for r in range(n))


def test_square_with_diagonal_counts():
    cx = enumerate_cells(Arrangement(2, frozenset({1})))
    assert cx.counts() == [4, 5, 2]


def test_interval_and_plain_cubes():
    assert enumerate_cells(Arrangement(1, frozenset())).counts() == [2, 1]
    assert enumerate_cells(Arrangement(3, frozenset())).counts() == [8, 12, 6, 1]


def test_three_dim_double_diagonal_counts():
    cx = enumerate_cells(Arrangement(3, frozenset({1, 2})))
    assert cx.counts() == [8, 17, 14, 4]
    assert cx.complex.euler_characteristic() == 1


def test_arrangement_indices_must_be_ints():
    # a bool is an int to Python and 1.0 == 1, but neither is an index
    for n, D in ((3, {1.5}), (3, {1.0}), (3, {"1"}), (3, {True}),
                 (2.0, {1}), ("3", {1}), (True, set()), (3.0, set())):
        with pytest.raises(ValueError, match=r"must be (an int|ints)"):
            Arrangement(n, frozenset(D))
    assert Arrangement(3, frozenset({1, 2})).diag_list() == (1, 2)


def brute_count_oracle(n, diagonals):
    """Independent satisfiability oracle: realize each candidate sign
    vector with explicit rational coordinates."""
    from fractions import Fraction

    diags = sorted(diagonals)
    count = {}
    for pos in product("01i", repeat=n):
        for rel in product("<=>", repeat=len(diags)):
            # union-find by brute transitive closure on equalities
            groups = {i: {i} for i in range(n)}
            for d, r in zip(diags, rel):
                if r == "=":
                    merged = groups[d - 1] | groups[d]
                    for i in merged:
                        groups[i] = merged
            ok = True
            # uniform positions per class
            for i in range(n):
                if any(pos[j] != pos[i] for j in groups[i]):
                    ok = False
            if not ok:
                continue
            # assign: 0, 1 or distinct interior values by class order
            reps = sorted({min(g) for g in groups.values()})
            vals = {}
            interior = [r for r in reps if pos[r] == "i"]
            for k, r in enumerate(interior):
                vals[r] = Fraction(k + 1, len(interior) + 1)
            for r in reps:
                if pos[r] != "i":
                    vals[r] = Fraction(int(pos[r]))
            coords = [vals[min(groups[i])] for i in range(n)]
            # check strict relations; interior classes may need reordering,
            # so search all orderings of interior class values
            import itertools

            feasible = False
            for perm in itertools.permutations(range(1, len(interior) + 1)):
                assign = dict(zip(interior, perm))
                cs = []
                for i in range(n):
                    r = min(groups[i])
                    cs.append(
                        Fraction(assign[r], len(interior) + 1)
                        if pos[r] == "i"
                        else Fraction(int(pos[r]))
                    )
                good = True
                for d, rl in zip(diags, rel):
                    a, b = cs[d - 1], cs[d]
                    if rl == "<" and not a < b:
                        good = False
                    if rl == "=" and a != b:
                        good = False
                    if rl == ">" and not a > b:
                        good = False
                if good:
                    feasible = True
                    break
            if not interior:
                feasible = True
                for d, rl in zip(diags, rel):
                    a, b = coords[d - 1], coords[d]
                    if rl == "<" and not a < b:
                        feasible = False
                    if rl == "=" and a != b:
                        feasible = False
                    if rl == ">" and not a > b:
                        feasible = False
            if feasible:
                dim = len({min(groups[i]) for i in range(n) if pos[i] == "i"})
                count[dim] = count.get(dim, 0) + 1
    return [count.get(d, 0) for d in range(max(count) + 1)]


def test_counts_match_brute_force_oracle():
    for n in (1, 2, 3):
        for D in all_diag_subsets(n):
            arr = Arrangement(n, frozenset(D))
            assert cell_counts(arr) == brute_count_oracle(n, D)


def test_cells_and_facets_match_sweep_oracle():
    for n in range(1, 6):
        for D in all_diag_subsets(n):
            arr = Arrangement(n, frozenset(D))
            cx, ref = enumerate_cells(arr), oracles.enumerate_cells(arr)
            assert cx.complex.dims == ref.complex.dims
            assert cx.complex.facets == ref.complex.facets
            if n <= 4:
                cells = cx.complex.dims
                for pos in product("01i", repeat=n):
                    for rel in product("<=>", repeat=len(D)):
                        positions, rels = "".join(pos), "".join(rel)
                        cell = f"{positions}|{rels}" in cells
                        assert cell == oracles.satisfiable(positions, rels, arr)
    for n, D in ((2, {1}), (3, {1, 2}), (4, {1, 3}), (5, {2, 3, 4})):
        arr = Arrangement(n, frozenset(D))
        assert complex_to_json(enumerate_cells(arr)) == complex_to_json(oracles.enumerate_cells(arr))


def test_local_facets_match_former_table_lookup():
    # the sweep oracle checks facets up to n = 5 and takes 22 s at n = 6;
    # the table lookup takes over at n = 6 and 7 on the single runs, and
    # the product test below carries them to every arrangement
    for n in (6, 7):
        arr = Arrangement(n, frozenset(range(1, n)))
        cx = enumerate_cells(arr).complex
        for key, facets in cx.facets.items():
            positions, rels = key.split("|")
            assert facets == oracles._facets(positions, rels, arr, cx.dims), key


def _product(left, right):
    """The product of two cell complexes, by substituting keys: a product
    cell joins its factors' positions and relations, its dimension is
    their sum, and a facet replaces one factor by a facet of it."""
    parts = {k: k.split("|") for k in (*left.dims, *right.dims)}
    dims, facets = {}, {}
    for c, d in left.dims.items():
        p, r = parts[c]
        for e, d2 in right.dims.items():
            q, s = parts[e]
            key = f"{p}{q}|{r}{s}"
            dims[key] = d + d2
            facets[key] = {f"{parts[g][0]}{q}|{parts[g][1]}{s}" for g in left.facets[c]} | {
                f"{p}{parts[h][0]}|{r}{parts[h][1]}" for h in right.facets[e]
            }
    return dims, facets


@pytest.fixture(scope="module")
def complexes_to_seven():
    """The complex of every arrangement with n <= 7 by (n, diagonals),
    enumerated once for the tests that read them all (346 111 cells).
    Every facet set is built here, by one full read of each complex, and
    all of them are frozen out of the garbage collector's scans while
    they live, which would otherwise walk them again on every full pass;
    a set first read after the freeze would be scanned."""
    complexes = {
        (n, D): enumerate_cells(Arrangement(n, frozenset(D))).complex
        for n in range(1, 8)
        for D in all_diag_subsets(n)
    }
    for cx in complexes.values():
        cx.facets.values()
    gc.freeze()
    yield complexes
    gc.unfreeze()


def test_cells_are_the_product_of_their_runs(complexes_to_seven):
    # the last run splits off each arrangement: the rest is a smaller
    # arrangement, checked the same way, so by induction every complex
    # with n <= 7 is the product of its runs; with the sweep (n <= 5) and
    # the table lookup (single runs, n = 6 and 7) every one is checked
    for (n, D), cx in complexes_to_seven.items():
        lo = max((j for j in range(1, n) if j not in D), default=0)
        if not lo:
            continue
        rest = complexes_to_seven[lo, tuple(d for d in D if d < lo)]
        run = complexes_to_seven[n - lo, tuple(range(1, n - lo))]
        dims, facets = _product(rest, run)
        assert cx.dims == dims, (n, D)
        assert cx.facets == facets, (n, D)


def test_cell_table_is_sorted_and_facets_share_its_keys(complexes_to_seven):
    for (n, D), cx in complexes_to_seven.items():
        if n > 6:
            continue
        assert list(cx.dims) == sorted(cx.dims), (n, D)
        key_of = {k: k for k in cx.dims}
        for fs in cx.facets.values():
            assert all(f is key_of[f] for f in fs), (n, D)


def _listing(cx):
    return list(cx.dims.items()), list(cx.facets.items())


def test_enumerated_complexes_pass_the_checking_constructor(complexes_to_seven):
    # enumerate_cells builds its complexes unchecked: each must be one
    # the public constructor accepts, with the same cells in the same order
    for (n, D), cx in complexes_to_seven.items():
        checked = Complex(dict(cx.dims), dict(cx.facets))
        assert checked == cx and _listing(checked) == _listing(cx), (n, D)


def test_enumerated_facet_sets_are_built_when_first_read(monkeypatch):
    # the facets of an enumerated complex are a read-only map that builds
    # each set on its first read and keeps it: counts and cell lists
    # build none, a 1-skeleton builds only the vertex and edge sets, and
    # a full read builds the rest
    arr = Arrangement(7, frozenset({1, 2, 4, 5}))
    eager = dict(enumerate_cells(arr).complex.facets.items())
    built = []

    def counting_frozenset(items=()):
        built.append(frozenset(items))
        return built[-1]

    monkeypatch.setattr(arrangements, "frozenset", counting_frozenset, raising=False)
    cx = enumerate_cells(arr)
    full, facets = cx.complex, cx.complex.facets
    assert cx.counts() == cell_counts(arr)
    assert full.euler_characteristic() == 1
    assert len(full.cells_of_dim(3)) == cx.counts()[3]
    assert len(built) == 0
    low = [c for c, d in full.dims.items() if d <= 1]
    skeleton = full.subcomplex(low)
    assert Counter(built) == Counter(eager[c] for c in low)
    assert skeleton.facets == {c: eager[c] for c in low}
    edge = full.cells_of_dim(1)[0]
    kept = facets[edge]
    assert len(built) == len(low)

    for junk in ("junk", "0000000|<<<<", "iiiiiii|<<<"):
        with pytest.raises(KeyError):
            facets[junk]
        assert facets.get(junk) is None and junk not in facets
    assert len(facets) == len(full.dims) and list(facets) == list(full.dims)
    assert facets == eager and eager == facets
    assert len(built) == len(eager) and facets[edge] is kept
    assert list(facets.items()) == list(eager.items())
    changed = {**eager, edge: frozenset()}
    assert facets != changed and changed != facets
    with pytest.raises(TypeError):
        facets[edge] = frozenset()
    with pytest.raises(TypeError):
        del facets[edge]
    assert facets == eager
    with pytest.raises(KeyError):
        facets["junk"]


def test_run_tables_are_checked_once_where_they_are_made(monkeypatch):
    checked = []
    check = arrangements._check_run_table

    def recording_check(P, R, D, O):
        checked.append(len(P[0]))
        check(P, R, D, O)

    monkeypatch.setattr(arrangements, "_check_run_table", recording_check)
    arrangements._run_table.cache_clear()
    try:
        for arr in (Arrangement(5, frozenset({1, 2, 4})), Arrangement(6, frozenset({2, 4, 5})),
                    Arrangement(3, frozenset({1, 2}))):
            enumerate_cells(arr)
    finally:
        arrangements._run_table.cache_clear()
    assert checked == [3, 2, 1]


def test_run_table_check_rejects_a_corrupted_facet_dimension():
    P, R, D, O = arrangements._run_table(3)
    keys = [f"{p}|{r}" for p, r in zip(P, R)]
    f = keys.index("000|==")
    D = list(D)
    D[f] = 1  # a vertex made an edge
    first = next(i for i in range(len(keys)) if f in (i + o for o in O[i]))
    message = f"facet 000|== of {keys[first]} has the wrong dimension"
    with pytest.raises(ValueError, match=re.escape(message)):
        arrangements._check_run_table(P, R, tuple(D), O)


def test_shared_run_tables_give_the_same_complexes_cold_and_warm():
    # each complex built from empty run tables, then all of them in
    # increasing and in decreasing n through the shared tables: the
    # fold must never change a table it reads
    arrs = [Arrangement(n, frozenset(D)) for n in range(1, 7) for D in all_diag_subsets(n)]
    cold = {}
    for arr in arrs:
        arrangements._run_table.cache_clear()
        cold[arr] = _listing(enumerate_cells(arr).complex)
    arrangements._run_table.cache_clear()
    for arr in arrs + arrs[::-1]:
        assert _listing(enumerate_cells(arr).complex) == cold[arr], arr
    assert arrangements._run_table.cache_info().currsize == 6
    for m in range(1, 7):
        table = arrangements._run_table(m)
        assert type(table) is tuple and all(type(col) is tuple for col in table), m
        assert all(type(offsets) is tuple for offsets in table[3]), m


def test_cell_bound_reads_the_transfer_matrix_count(monkeypatch):
    # with no room at all, the guard names its count for every
    # arrangement the dimension bound lets through
    def no_table(m):
        raise AssertionError("run table built past the bound")

    monkeypatch.setattr(arrangements, "_run_table", no_table)
    monkeypatch.setattr(arrangements, "MAX_CELLS", 0)
    for n in range(1, 13):
        for D in all_diag_subsets(n):
            arr = Arrangement(n, frozenset(D))
            cells = sum(cell_counts(arr))
            with pytest.raises(ValueError, match=rf"^cell bound exceeded \({cells} cells > 0\)$"):
                enumerate_cells(arr)


def test_dimension_bound_comes_before_the_run_tables(monkeypatch):
    # with no diagonals every run has length 1, so no run table would
    # ever reach the bound: 3^13 cells would be listed
    def no_table(m):
        raise AssertionError("run table built past the bound")

    monkeypatch.setattr(arrangements, "_run_table", no_table)
    for D in (frozenset(), frozenset(range(1, 13)), frozenset({1, 5, 9})):
        with pytest.raises(ValueError, match=r"dimension bound exceeded \(n <= 12\)"):
            enumerate_cells(Arrangement(13, D))


def test_cell_bound_comes_before_the_run_tables(monkeypatch):
    # one run of m coordinates has (2 * 4^m + 1) / 3 cells and the plain
    # n-cube 3^n: these pass the dimension bound but not the cell bound
    def no_table(m):
        raise AssertionError("run table built past the bound")

    monkeypatch.setattr(arrangements, "_run_table", no_table)
    for n, D, cells in (
        (9, frozenset(range(1, 9)), 174_763),
        (12, frozenset(range(1, 12)), 11_184_811),
        (11, frozenset(), 177_147),
    ):
        with pytest.raises(ValueError, match=rf"cell bound exceeded \({cells} cells > 100000\)"):
            enumerate_cells(Arrangement(n, D))


def test_cell_bound_admits_every_arrangement_up_to_eight():
    worst = max(sum(cell_counts(Arrangement(n, frozenset(D))))
                for n in range(1, 9) for D in all_diag_subsets(n))
    assert worst == (2 * 4 ** 8 + 1) // 3 <= arrangements.MAX_CELLS


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_transfer_matrix_counts_match_listed_cells():
    # each run is listed once; a complex is the product of its runs'
    # complexes (checked cell for cell up to n = 7 above), so its counts
    # by dimension are the convolution of its runs' counts
    runs = {}
    for m in range(1, 9):
        dims = Counter(arrangements._run_table(m)[2])
        runs[m] = [dims[d] for d in range(len(dims))]
        assert sum(runs[m]) == (2 * 4 ** m + 1) // 3, m
    for n in range(1, 9):
        for D in all_diag_subsets(n):
            counts, lo = [1], 0
            for hi in range(1, n + 1):
                if hi not in D:
                    counts, lo = _convolve(counts, runs[hi - lo]), hi
            assert cell_counts(Arrangement(n, frozenset(D))) == counts, (n, D)
    # no dimension bound: the cube [0,1]^200 is contractible
    for D in (frozenset(), frozenset(range(1, 200)), frozenset(range(1, 200, 3))):
        counts = cell_counts(Arrangement(200, D))
        assert len(counts) == 201 and counts[0] == 2 ** 200
        assert sum((-1) ** d * c for d, c in enumerate(counts)) == 1


def test_flat_restriction_examples():
    square = enumerate_cells(Arrangement(2, frozenset()))
    assert is_flat_restriction(square, ["00|", "0i|", "01|"])  # the wall x_1 = 0
    assert is_flat_restriction(square, square.complex.cells())
    assert not is_flat_restriction(square, ["00|", "11|"])  # opposite corners
    assert not is_flat_restriction(square, ["00|", "0i|"])  # not closed under faces
    assert not is_flat_restriction(square, [])
    tri = enumerate_cells(Arrangement(2, frozenset({1})))
    assert is_flat_restriction(tri, ["00|=", "ii|=", "11|="])  # the diagonal
    assert not is_flat_restriction(tri, ["00|=", "11|="])
    assert not is_flat_restriction(tri, ["00|=", "zz"])  # no cell: refused, not indexed


def test_euler_characteristic_all_small():
    for n in range(1, 6):
        for D in all_diag_subsets(n):
            cx = enumerate_cells(Arrangement(n, frozenset(D)))
            assert cx.complex.euler_characteristic() == 1
            assert len(cx.complex.cells_of_dim(0)) == 2 ** n


def test_face_of_examples():
    arr = Arrangement(2, frozenset({1}))
    cx = enumerate_cells(arr)
    v00 = cx.vertex_of_coords((0, 0))
    v10 = cx.vertex_of_coords((1, 0))
    diag = "ii|="
    assert face_of(v00, diag)
    assert not face_of(v10, diag)
    for c in cx.complex.cells():
        assert face_of(c, c)


def test_face_of_refuses_keys_of_different_shapes():
    # zip truncated these to True: positions of two lengths, and a key
    # with no '|'
    cases = (
        ("00|", "000|", "'00|' and '000|' are keys of different shapes"),
        ("ii|<", "ii|", "'ii|<' and 'ii|' are keys of different shapes"),
        ("01|<", "i", "'i' is not a cell key"),
        ("i", "01|<", "'i' is not a cell key"),
    )
    for ckey, dkey, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            face_of(ckey, dkey)


def test_face_of_partial_order_and_vertex_counts():
    arr = Arrangement(3, frozenset({1, 2}))
    cx = enumerate_cells(arr)
    cells = cx.complex.cells()
    for c in cells:
        d = cx.complex.dims[c]
        assert len(cx.complex.vertices_of(c)) >= d + 1
    # antisymmetry and transitivity on a sample
    rng = random.Random(0)
    sample = rng.sample(cells, 20)
    for a in sample:
        for b in sample:
            if face_of(a, b) and face_of(b, a):
                assert a == b
            for c in sample:
                if face_of(a, b) and face_of(b, c):
                    assert face_of(a, c)


def test_flat_check_matches_mask_oracle_on_small_arrangements():
    # every arrangement with n <= 4: each mask flat is accepted, and on
    # the closures of cells and of pairs of cells and on a seeded sample
    # of arbitrary cell sets the verdict is the mask oracle's; a set
    # holding a key that is no cell is refused
    rng = random.Random(7)
    for n in range(1, 5):
        for D in all_diag_subsets(n):
            cx = enumerate_cells(Arrangement(n, frozenset(D)))
            cells = cx.complex.cells()
            piece = SimpleNamespace(cluster=cx)
            flats = set(oracles._flat_cell_sets(piece, {k: k for k in cells}))
            closures = {cx.complex.faces(c) | {c} for c in cells}
            candidates = closures | {a | b for a, b in combinations(closures, 2)}
            candidates |= {frozenset(rng.sample(cells, rng.randint(1, len(cells)))) for _ in range(30)}
            for keys in candidates | flats:
                assert is_flat_restriction(cx, keys) == (keys in flats), (n, D, sorted(keys))
            for flat in flats:
                for stranger in ("zz", cells[-1] + "="):
                    assert not is_flat_restriction(cx, flat | {stranger})


def test_flat_count_matches_the_scan_on_every_arrangement_up_to_five():
    # differential: the counting check against the former scan over every
    # cell, on each single cell, each cell's closure and seeded sets of up
    # to 6 cells of every arrangement with n <= 5
    rng = random.Random(12)
    compared = accepted = 0
    for n in range(1, 6):
        for D in all_diag_subsets(n):
            cx = enumerate_cells(Arrangement(n, frozenset(D)))
            cells = cx.complex.cells()
            candidates = [{c} for c in cells] + [cx.complex.faces(c) | {c} for c in cells]
            candidates += [rng.sample(cells, rng.randint(1, min(6, len(cells)))) for _ in range(60)]
            for keys in candidates:
                verdict = is_flat_restriction(cx, keys)
                assert verdict == oracles.is_flat_restriction(cx, keys), (n, D, sorted(keys))
                compared += 1
                accepted += verdict
    assert compared > 10000 and 0 < accepted < compared


def test_verify_convex_cells():
    for n in range(1, 6):
        for D in all_diag_subsets(n):
            assert verify_convex_cells(enumerate_cells(Arrangement(n, frozenset(D))))


def test_convexity_check_matches_former_lp_check():
    for n in range(1, 5):
        for D in all_diag_subsets(n):
            cx = enumerate_cells(Arrangement(n, frozenset(D)))
            assert verify_convex_cells(cx) == oracles.verify_convex_cells(cx)
    # one edge of the square re-attached to the corners of its diagonal
    cx = enumerate_cells(Arrangement(2, frozenset()))
    facets = dict(cx.complex.facets)
    facets[cx.complex.cells_of_dim(1)[0]] = frozenset(
        {cx.vertex_of_coords((0, 0)), cx.vertex_of_coords((1, 1))}
    )
    bad = ClusterComplex(cx.arrangement, Complex(dict(cx.complex.dims), facets))
    assert not verify_convex_cells(bad)
    assert not oracles.verify_convex_cells(bad)


def test_serialization():
    cx = enumerate_cells(Arrangement(2, frozenset({1})))
    doc = complex_to_json(cx)
    assert '"format": 1' in doc
    dot = skeleton_to_dot(cx)
    assert dot.startswith("graph") and dot.count("--") == 5


def test_exact_hull_feasibility():
    from fractions import Fraction

    from oracles import _in_convex_hull

    sq = [(0, 0), (1, 0), (0, 1), (1, 1)]
    sq = [tuple(Fraction(v) for v in p) for p in sq]
    assert _in_convex_hull((Fraction(1, 2), Fraction(1, 2)), sq)
    assert _in_convex_hull((Fraction(0), Fraction(0)), sq)
    assert not _in_convex_hull((Fraction(3, 2), Fraction(1, 2)), sq)
    tri = [tuple(Fraction(v) for v in p) for p in [(0, 0), (1, 0), (0, 1)]]
    assert not _in_convex_hull((Fraction(2, 3), Fraction(2, 3)), tri)
    assert _in_convex_hull((Fraction(1, 3), Fraction(1, 3)), tri)
    # boundary counts as inside
    assert _in_convex_hull((Fraction(1, 2), Fraction(1, 2)), tri)


def test_boundary_of_diagonal_cluster_is_a_circle():
    from lmgroups.topology import is_collapsible, reduced_homology

    cx = enumerate_cells(Arrangement(2, frozenset({1})))
    boundary = [
        k
        for k in cx.complex.cells()
        if cx.complex.dims[k] <= 1 and not k.startswith("ii|")
    ]
    sub = cx.complex.subcomplex(boundary)
    assert len(sub.cells_of_dim(1)) == 4
    h = reduced_homology(sub)
    assert h[0] == (0, []) and h[1] == (1, [])
    assert not is_collapsible(sub)
