import dataclasses
import itertools
import random
import re
from collections import Counter
from types import MappingProxyType

import oracles
import pytest

from lmgroups import arrangements, group, topology, xcomplex
from lmgroups.group import GroupWord, TagViolation, canonical_coset, special_form
from lmgroups.words import independent, tree_key
from lmgroups.xcomplex import (
    AssemblyError,
    ClusterError,
    CrossCheckError,
    MorseValue,
    ascending_link,
    assemble,
    build_x_cluster,
    find_cone_vertex,
    morse_value,
    morse_values,
    verify_morse,
)

S = "01"
FIG1_PARAMS = [special_form(f"y[{S}0]"), special_form(f"y[{S}10]^-1"), special_form(f"y[{S}11]")]
F = group.identity("G")


def fig1():
    return build_x_cluster(F, FIG1_PARAMS)


def test_figure_clusters():
    c1 = fig1()
    assert sorted(c1.diagonals) == [1, 2]
    assert oracles.has_edge_between_coords(c1, (0, 0, 0), (1, 1, 1))
    assert c1.label_of_coords((1, 1, 1)) == f"y[{S}]"
    c2 = build_x_cluster(F, [special_form(f"y[{S}0]"), special_form(f"y[{S}10]^-1"),
                             special_form(f"y[{S}111]")])
    assert sorted(c2.diagonals) == [1]
    assert not oracles.has_edge_between_coords(c2, (0, 0, 0), (1, 1, 1))
    c3 = build_x_cluster(F, [special_form(f"y[{S}00]"), special_form(f"y[{S}10]^-1"),
                             special_form(f"y[{S}111]")])
    assert sorted(c3.diagonals) == []
    assert not oracles.has_edge_between_coords(c3, (0, 0, 0), (1, 1, 1))


def test_two_parameter_square_examples():
    # square with one diagonal: the signed product y_01 y_10^-1 is special
    c = build_x_cluster(F, [special_form("y[01]"), special_form("y[10]^-1")])
    assert sorted(c.diagonals) == [1]
    assert oracles.has_edge_between_coords(c, (0, 0), (1, 1))
    assert not oracles.has_edge_between_coords(c, (0, 1), (1, 0))
    # plain square: 01 and 110 are not consecutive, no diagonal at all
    c = build_x_cluster(F, [special_form("y[01]"), special_form("y[110]^-1")])
    assert sorted(c.diagonals) == []
    assert not oracles.has_edge_between_coords(c, (0, 0), (1, 1))
    assert not oracles.has_edge_between_coords(c, (0, 1), (1, 0))


def test_far_corner_coset_identity():
    c1 = fig1()
    far = c1.label_words[c1.cluster.vertex_of_coords((1, 1, 1))]
    assert group.same_coset(far, group.word(f"y[{S}]", "G")).result == "yes"


def test_dependent_parameters_error():
    with pytest.raises(ClusterError):
        build_x_cluster(F, [special_form("y[01]"), special_form("y[011]")])


def test_sign_clash_raises_cross_check_error():
    # y_01 y_10^-1 is special although neither diagonal product is, so the
    # arrangement model cannot express the edge: loud failure
    with pytest.raises(CrossCheckError):
        build_x_cluster(F, [special_form("y[01]"), special_form("y[10]")])


def test_assemble_idempotent_and_pendant():
    piece = (F, FIG1_PARAMS)
    one = assemble([piece])
    two = assemble([piece, piece])
    assert set(one.complex.dims) == set(two.complex.dims)
    counts1 = [len(one.complex.cells_of_dim(d)) for d in range(4)]
    assert counts1 == [8, 17, 14, 4]
    with_pendant = assemble([piece, (F, [special_form("y[000001]")])])
    counts2 = [len(with_pendant.complex.cells_of_dim(d)) for d in range(4)]
    assert counts2 == [9, 18, 14, 4]


def test_assemble_subpiece_absorbed():
    base = group.word(f"y[{S}0]", "G")
    sub = (base, [special_form(f"y[{S}10]^-1")])
    cx = assemble([(F, FIG1_PARAMS), sub])
    counts = [len(cx.complex.cells_of_dim(d)) for d in range(4)]
    assert counts == [8, 17, 14, 4]


def test_morse_values_and_examples():
    cx = assemble([(F, FIG1_PARAMS)])
    vals = morse_values(cx)
    assert vals["e"].h == 0
    assert vals[f"y[{S}10]^-1"].h == -1
    assert vals[f"y[{S}]"].h == 1
    assert morse_value("e", cx) == vals["e"]
    fs = sorted(v.f for v in vals.values())
    assert fs == list(range(-len(vals), 0))
    assert vals["e"].f == -1  # the empty key sorts first


def test_cone_vertex_height():
    for m in (1, 2, 3, 5):
        w = group.word(f"y[{'0' * m}1]", "G")
        assert group.char_value("psi", w) == 1


def test_verify_morse_and_corruption():
    cx = assemble([(F, FIG1_PARAMS)])
    assert verify_morse(cx)
    vals = morse_values(cx)
    bad = dict(vals)
    k1, k2 = sorted(bad)[:2]
    bad[k1] = MorseValue(bad[k1].h, bad[k2].f)  # duplicate f
    assert not verify_morse(cx, bad)


def test_verify_morse_single_vertex():
    from lmgroups.topology import Complex

    cx = xcomplex.XComplex(
        Complex({"e": 0}, {"e": frozenset()}), {"e": group.identity("G")}
    )
    assert verify_morse(cx)


def test_morse_data_of_a_non_vertex_is_a_value_error():
    cx = assemble([(F, FIG1_PARAMS)])
    for bad in ("zz", cx.complex.cells_of_dim(1)[0]):
        with pytest.raises(ValueError, match="is not a vertex of the complex"):
            morse_value(bad, cx)
    with pytest.raises(ValueError, match="vertex 'e' of the complex has no Morse value"):
        verify_morse(cx, {})
    vals = morse_values(cx)
    least = min(vals)
    del vals[least], vals[max(vals)]
    with pytest.raises(ValueError, match=re.escape(f"vertex {least!r} of the complex")):
        verify_morse(cx, vals)


def test_assemble_with_long_diagonal_piece():
    # the 1-cluster on y_s is already the long diagonal of the reference
    # cluster, so nothing new appears
    cx = assemble([(F, FIG1_PARAMS), (F, [special_form(f"y[{S}]")])])
    counts = [len(cx.complex.cells_of_dim(d)) for d in range(4)]
    assert counts == [8, 17, 14, 4]


def test_edge_heights_match_special_form_character():
    # the height jump across an edge is the exponent sum of the special
    # form carrying it, which alternation bounds by one
    cx = assemble([(F, FIG1_PARAMS)])
    vals = morse_values(cx)
    for e in cx.complex.cells_of_dim(1):
        a, b = sorted(cx.complex.vertices_of(e))
        assert abs(vals[a].h - vals[b].h) <= 1
    pc = fig1()
    sets = {
        v: frozenset(i for i, c in enumerate(pc.cluster.vertex_coords(v)) if c)
        for v in pc.cluster.complex.cells_of_dim(0)
    }
    for _, pair in pc.cluster.complex.edges():
        va, vb = sorted(pair)
        diff = oracles.difference_entries(pc.params, sets[va] - sets[vb], sets[vb] - sets[va])
        form_sum = sum(e for _, e in diff)
        ha = group.psi_like_value(pc.label_words[va])
        hb = group.psi_like_value(pc.label_words[vb])
        assert abs(ha - hb) == abs(form_sum) <= 1


def test_ascending_link_examples():
    pendant = assemble([(F, [special_form("y[000001]")])])
    link = ascending_link(pendant, "e")
    assert [len(link.cells_of_dim(d)) for d in range(link.dimension() + 1)] == [1]
    cx = assemble([(F, FIG1_PARAMS)])
    link = ascending_link(cx, "e")
    hom = topology.reduced_homology(link)
    assert topology.is_trivial_homology(hom)
    assert topology.is_collapsible(link)
    # the negative vertex ascends toward the base coset
    link_neg = ascending_link(cx, f"y[{S}10]^-1")
    edge_cells = [c for c in link_neg.cells()]
    assert any("e" in c for c in edge_cells)


def test_ascending_link_needs_a_vertex():
    cx = assemble([(F, FIG1_PARAMS)])
    edge = cx.complex.cells_of_dim(1)[0]
    for bad in ("garbage", edge):
        with pytest.raises(ValueError, match="is not a vertex of the complex"):
            ascending_link(cx, bad)


def test_find_cone_vertex_fig1():
    m, verified = find_cone_vertex([(F, FIG1_PARAMS)])
    assert (m, verified) == (3, True)
    assert find_cone_vertex([]) == (0, True)
    # a deeper piece pushes the cone subscript deeper only when it must:
    # y[01] is independent of both
    assert find_cone_vertex([(F, [special_form("y[00001]")])]) == (1, True)
    assert find_cone_vertex([(F, [special_form("y[0001]")])]) == (1, True)


def _seeded_pieces(seed, count):
    from genutil import clean_params

    rng = random.Random(seed)
    return [
        [(F, clean_params(rng, max_forms=rng.randint(1, 2), max_sub=4))
         for _ in range(rng.randint(1, 3))]
        for _ in range(count)
    ]


def _with_cones(assemblies):
    """The assemblies, each followed by its enlargement by the cone
    parameter where `find_cone_vertex` finds one."""
    out = []
    for pieces in assemblies:
        out.append(pieces)
        try:
            m, _ = find_cone_vertex(pieces)
        except ClusterError:
            continue
        apex = special_form(f"y[{'0' * m}1]")
        out.append([(b, list(p) + [apex]) for b, p in pieces])
    return out


def test_frame_rows_name_each_cells_vertices_and_facets():
    # every shape with k <= 4: one row per cell in `cells()` order, whose
    # vertex and facet indices name exactly its vertices and facets, the
    # vertices first and in the frame's vertex order, and tuples only
    shapes = 0
    for k in range(1, 5):
        for r in range(k):
            for D in itertools.combinations(range(1, k), r):
                cluster, vertices, rows = xcomplex._arrangement_frame(k, frozenset(D))
                cx = cluster.complex
                order = cx.cells()
                assert type(rows) is tuple and [row[0] for row in rows] == order
                assert [v for v, _ in vertices] == order[:len(vertices)]
                for c, d, verts, facet_rows in rows:
                    assert type(verts) is tuple and type(facet_rows) is tuple
                    assert d == cx.dims[c] and len(set(verts)) == len(verts)
                    assert {order[i] for i in verts} == cx.vertices_of(c)
                    assert len(set(facet_rows)) == len(facet_rows)
                    assert {order[i] for i in facet_rows} == cx.facets[c]
                assert {type(x) for row in rows for x in row[2] + row[3]} == {int}
                assert {type(row) for row in rows} == {tuple}
                shapes += 1
    assert shapes == 1 + 2 + 4 + 8


def test_edges_are_their_facets_on_assemblies():
    for pieces in _seeded_pieces(5, 30):
        cx = assemble(pieces).complex
        assert cx.edges() == [(e, cx.vertices_of(e)) for e in cx.cells_of_dim(1)]


def _id_map(piece):
    """A piece's cell ids by local key: `_global_ids` lists them in the
    order of the piece's cells."""
    return dict(zip(piece.cluster.complex.cells(), xcomplex._global_ids(piece)))


def _former_global_ids(piece):
    """A piece's cell ids as `assemble` read them before the vertex sets
    came from `Complex.vertices_of`: one pass up the facet table, an
    edge's vertices its facets and a higher cell's the union of its
    facets' vertices."""
    cx = piece.cluster.complex
    verts = {}
    for c in cx.cells():
        if cx.dims[c] == 1:
            verts[c] = cx.facets[c]
        elif cx.dims[c] > 1:
            verts[c] = frozenset().union(*(verts[f] for f in cx.facets[c]))
    ids = {v: piece.labels[v] for v in cx.cells_of_dim(0)}
    for c, vv in verts.items():
        ids[c] = f"{cx.dims[c]}|" + " && ".join(sorted(piece.labels[v] for v in vv))
    return ids


def test_closures_and_cell_ids_match_former_passes_on_assemblies():
    for pieces in _seeded_pieces(5, 30):
        cx = assemble(pieces).complex
        for c in cx.dims:
            assert (cx.faces(c), cx.vertices_of(c)) == oracles.closure(cx, c), c
        for base, params in pieces:
            piece = build_x_cluster(base, params)
            assert list(_id_map(piece).items()) == list(_former_global_ids(piece).items())


def test_vertex_sets_are_memoised_and_match_the_face_filter():
    """`vertices_of` equals the filter of the cell's memoised faces, on
    each assembly and on each piece's shared arrangement complex."""
    for pieces in _seeded_pieces(5, 30):
        pieces_cx = [build_x_cluster(base, params).cluster.complex for base, params in pieces]
        for cx in [assemble(pieces).complex] + pieces_cx:
            for c, d in cx.dims.items():
                got = cx.vertices_of(c)
                assert got == (frozenset({c}) if d == 0 else
                               frozenset(f for f in cx.faces(c) if not cx.dims[f])), c


def _former_difference_entries(forms, plus, minus):
    """`oracles.difference_entries` as it was before it trusted the tree order:
    the chosen entries concatenated, then sorted by `tree_key`."""
    letters = []
    for i in sorted(plus):
        letters.extend(forms[i].entries)
    for i in sorted(minus):
        letters.extend(forms[i].inverse_entries())
    letters.sort(key=lambda e: tree_key(e[0]))
    return letters


def test_difference_entries_are_sorted_by_the_forms_intervals():
    """Independent forms sorted by `sort_params` fill disjoint intervals
    of the tree order in index order, so every difference product is
    already sorted: on every cluster of the seeded assemblies and on
    random parameter sets, for every disjoint (P, N)."""
    from genutil import random_params

    rng = random.Random(24)
    clusters = [xcomplex.sort_params(params)
                for pieces in _seeded_pieces(5, 30) for _, params in pieces]
    clusters += [xcomplex.sort_params(random_params(rng)) for _ in range(200)]
    checked = 0
    for forms in clusters:
        for f in forms:
            keys = [tree_key(s) for s in f.subscripts()]
            assert all(a < b for a, b in zip(keys, keys[1:])), f
        for signs in itertools.product((0, 1, -1), repeat=len(forms)):
            plus = frozenset(i for i, c in enumerate(signs) if c == 1)
            minus = frozenset(i for i, c in enumerate(signs) if c == -1)
            got = oracles.difference_entries(forms, plus, minus)
            assert got == _former_difference_entries(forms, plus, minus), (forms, plus, minus)
            checked += 1
    assert checked > 1000


def _frame_junctions(k):
    """The junctions of every ordered pair of distinct corners of the
    k-cube by their (P, N), the parameters the first corner has and the
    second lacks and the other way round: the neighbouring pairs of the
    coordinates where they differ, each as (index, sign), the sign +1
    in P and -1 in N."""
    out = {}
    for a, b in itertools.permutations(itertools.product((0, 1), repeat=k), 2):
        signed = [(i, x - y) for i, (x, y) in enumerate(zip(a, b)) if x != y]
        plus = frozenset(i for i, s in signed if s == 1)
        minus = frozenset(i for i, s in signed if s == -1)
        out[plus, minus] = tuple(zip(signed, signed[1:]))
    assert len(out) == 3 ** k - 1
    return out


def _former_joins(forms):
    """`xcomplex._joins` as it was: the special-form rule on the two
    units of each junction, read again for each of the four signs."""
    return {
        ((i, a), (j, b)): group.is_special_entries(((s, e * a), (t, f * b)))
        for (i, fi), (j, fj) in itertools.combinations(enumerate(forms), 2)
        for (s, e), (t, f) in [(fi.entries[-1], fj.entries[0])]
        for a, b in itertools.product((1, -1), repeat=2)
    }


def test_joins_match_the_former_rule_on_seeded_clusters_and_their_cones():
    compared = passed = 0
    for pieces in _with_cones(_seeded_pieces(5, 30)):
        for _, params in pieces:
            forms = xcomplex.sort_params(params)
            joins = xcomplex._joins(forms)
            assert list(joins.items()) == list(_former_joins(forms).items()), forms
            compared += len(joins)
            passed += sum(joins.values())
    assert compared > 500 and 0 < passed < compared


def test_junction_rule_is_the_special_form_rule_on_difference_products():
    """The junction table read at the junctions of two corners: on
    seeded parameter sets, clean or not, that verdict equals the
    special-form rule on the whole difference product for every
    disjoint (P, N)."""
    from genutil import random_params

    rng = random.Random(7)
    frames = {k: _frame_junctions(k) for k in range(1, 5)}
    compared = 0
    for _ in range(1000):
        forms = xcomplex.sort_params(random_params(rng, max_forms=4))
        joins = xcomplex._joins(forms)
        for (plus, minus), junctions in frames[len(forms)].items():
            whole = group.is_special_entries(oracles.difference_entries(forms, plus, minus))
            assert all(joins[j] for j in junctions) == whole, (forms, plus, minus)
            compared += 1
    assert compared > 20000


def test_cross_check_raises_exactly_where_the_edge_rule_leaves_the_skeleton():
    """Differential: on seeded parameter sets, build_x_cluster raises
    CrossCheckError exactly when the special-form rule on some vertex
    pair's whole difference product disagrees with the enumerated
    skeleton of the arrangement whose diagonals are the special adjacent
    products, and a cluster that builds has those diagonals."""
    from genutil import random_params

    rng = random.Random(7)
    skeletons = {}
    built = rejected = 0
    for _ in range(3000):
        forms = xcomplex.sort_params(random_params(rng, max_forms=4))
        k = len(forms)
        diagonals = frozenset(
            i + 1 for i in range(k - 1)
            if group.is_special_entries(forms[i].entries + forms[i + 1].entries)
        )
        if (k, diagonals) not in skeletons:
            arr = arrangements.Arrangement(k, diagonals)
            skeletons[k, diagonals] = arrangements.enumerate_cells(arr)
        mismatches = oracles.skeleton_mismatches(forms, skeletons[k, diagonals])
        try:
            pc = build_x_cluster(F, forms)
        except CrossCheckError:
            assert mismatches, forms
            rejected += 1
            continue
        assert not mismatches and pc.diagonals == diagonals, forms
        built += 1
    assert built >= 1000 and rejected >= 1000


def test_arrangement_skeletons_join_the_corners_of_an_interval_of_diagonals():
    """The fact the cross-check rests on: the enumerated 1-skeleton of
    Arrangement(k, D) joins two corners exactly when they differ on one
    interval [lo, hi] of coordinates, all in one direction, with lo+1..hi
    in D; on every arrangement with k <= 6."""
    checked = 0
    for k in range(1, 7):
        for r in range(k):
            for D in itertools.combinations(range(1, k), r):
                cluster = arrangements.enumerate_cells(arrangements.Arrangement(k, frozenset(D)))
                edges = {vv for _, vv in cluster.complex.edges()}
                corners = {v: cluster.vertex_coords(v) for v in cluster.complex.cells_of_dim(0)}
                assert len(corners) == 2 ** k
                for va, vb in itertools.combinations(corners, 2):
                    a, b = corners[va], corners[vb]
                    diff = [i for i in range(k) if a[i] != b[i]]
                    lo, hi = diff[0], diff[-1]
                    interval = (
                        diff == list(range(lo, hi + 1))
                        and len({a[i] for i in diff}) == 1
                        and set(range(lo + 1, hi + 1)) <= set(D)
                    )
                    assert interval == (frozenset({va, vb}) in edges), (k, D, a, b)
                checked += 1
    assert checked == 63


def _x_word(rng):
    """A random x-word of length 1-3: an element of F, so a base in the
    trivial coset."""
    return GroupWord(tuple(
        ("x", "".join(rng.choice("01") for _ in range(rng.randint(0, 3))), rng.choice((1, -1)))
        for _ in range(rng.randint(1, 3))), "G")


def _assert_cone_matches_search(pieces):
    ref = oracles.cone_search(pieces)
    if ref is None:
        with pytest.raises(ClusterError, match="no verified cone parameter found"):
            find_cone_vertex(pieces)
    else:
        assert find_cone_vertex(pieces) == (ref, True), pieces


def test_cone_search_matches_former_closure_criterion():
    # the closed-form m against the search over enlarged assemblies, on
    # the seeded suites based at e and rebased at an x-word each
    suites = _seeded_pieces(5, 30) + _seeded_pieces(17, 60)
    rng = random.Random(3)
    for pieces in suites:
        _assert_cone_matches_search(pieces)
        base = _x_word(rng)
        _assert_cone_matches_search([(base, params) for _, params in pieces])


def test_cone_parameter_over_x_bases():
    # over a base x in F the apex y_a labels a vertex only where y_a x
    # lies in the coset of y_a; over x[e] and x[0] that holds for no m up
    # to the bound, so the closed form and the search both find none
    param = [special_form("y[1001]")]
    for text, m in (("x[01]", 2), ("x[1]", 1), ("x[10]", 1)):
        assert find_cone_vertex([(group.word(text, "G"), param)]) == (m, True), text
    for text in ("x[e]", "x[0]"):
        pieces = [(group.word(text, "G"), param)]
        with pytest.raises(ClusterError, match="no verified cone parameter found"):
            find_cone_vertex(pieces)
        assert oracles.cone_search(pieces) is None


@pytest.mark.parametrize("broken", ["raises", "uncone"])
def test_a_cone_that_fails_its_check_is_a_broken_invariant(monkeypatch, capsys, broken):
    # the fitting m is not searched past: an enlarged assembly that does
    # not glue, or does not cone off e, raises AssertionError naming m,
    # and `lmg cone` exits 3 with no traceback
    from lmgroups.cli import run

    real = xcomplex.assemble
    original = [(F, FIG1_PARAMS)]

    def enlarged(pieces):
        if pieces == original:
            return real(pieces)
        if broken == "raises":
            raise ClusterError("coset collision among cluster vertices")
        return real(original)

    monkeypatch.setattr(xcomplex, "assemble", enlarged)
    with pytest.raises(AssertionError, match="cone parameter m=3: the enlarged pieces"):
        find_cone_vertex(original)
    pieces = ";".join(f.to_string() for f in FIG1_PARAMS)
    assert run(["cone", "--piece", f"e|{pieces}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: cone parameter m=3: the enlarged pieces")
    assert "Traceback" not in captured.err


def test_ascending_links_match_the_vertex_set_star():
    # each cell's least vertex read over its facets, against the star of
    # the cells whose vertex sets have their least value at the vertex
    for pieces in _seeded_pieces(5, 30) + _seeded_pieces(17, 60):
        m, _ = find_cone_vertex(pieces)
        apex = special_form(f"y[{'0' * m}1]")
        for cx in (assemble(pieces), assemble([(b, list(p) + [apex]) for b, p in pieces])):
            for v in cx.complex.cells_of_dim(0):
                link, ref = ascending_link(cx, v), oracles.ascending_link(cx, v)
                assert (link.dims, link.facets) == (ref.dims, ref.facets), v


def test_assemblies_and_ascending_links_pass_the_checking_constructor():
    # assemble and ascending_link build unchecked: the public constructor
    # must accept every complex they make on the seeded suites
    for pieces in _seeded_pieces(5, 30) + _seeded_pieces(17, 60):
        cx = assemble(pieces)
        assert topology.Complex(dict(cx.complex.dims), dict(cx.complex.facets)) == cx.complex
        for v in cx.complex.cells_of_dim(0):
            link = ascending_link(cx, v)
            assert topology.Complex(dict(link.dims), dict(link.facets)) == link, v


def test_coned_ascending_link_contractible():
    m, _ = find_cone_vertex([(F, FIG1_PARAMS)])
    apex = special_form(f"y[{'0' * m}1]")
    big = assemble([(F, FIG1_PARAMS + [apex])])
    assert verify_morse(big)
    link = ascending_link(big, "e")
    assert topology.is_trivial_homology(topology.reduced_homology(link))


def test_cross_check_on_random_clusters():
    from genutil import clean_params

    rng = random.Random(99)
    built = 0
    while built < 40:
        params = clean_params(rng)
        build_x_cluster(F, params)  # raises CrossCheckError on mismatch
        built += 1


def test_assemblies_are_memoised_and_shared():
    # the parameter order within a piece does not matter, the piece order
    # and the base's tag do; clusters are built anew on every call
    cx = assemble([(F, FIG1_PARAMS)])
    assert assemble([(F, FIG1_PARAMS[::-1])]) is cx
    assert assemble([(F, [FIG1_PARAMS[1], FIG1_PARAMS[2], FIG1_PARAMS[0]])]) is cx
    gy = assemble([(group.identity("Gy"), FIG1_PARAMS)])
    assert gy is not cx and {w.tag for w in gy.vertex_words.values()} == {"Gy"}
    assert build_x_cluster(F, FIG1_PARAMS) is not fig1()
    e = group.identity("yGy")
    pieces = [(e, [special_form("y[1]"), special_form("y[0000]")]),
              (group.word("y[1]", "yGy"), [special_form("y[0]")])]
    swapped = assemble(pieces[::-1])
    assert swapped is not assemble(pieces) and swapped == assemble(pieces)
    # so a shared complex is immutable
    with pytest.raises(dataclasses.FrozenInstanceError):
        cx.vertex_words = {}
    with pytest.raises(TypeError):
        cx.vertex_words["y[1]"] = group.identity("G")
    assert "y[1]" not in cx.vertex_words


def test_failing_builds_raise_on_every_call():
    dependent = [special_form("y[01]"), special_form("y[011]")]
    for _ in range(2):
        with pytest.raises(CrossCheckError):
            build_x_cluster(F, [special_form("y[01]"), special_form("y[10]")])
        with pytest.raises(ClusterError, match="not independent"):
            build_x_cluster(F, dependent)
        with pytest.raises(CrossCheckError):
            assemble([(F, [special_form("y[01]"), special_form("y[10]")])])
        with pytest.raises(ClusterError, match="not independent"):
            assemble([(F, FIG1_PARAMS), (F, dependent)])


def test_the_cone_flow_glues_each_assembly_once(monkeypatch):
    # the benchmark's flow: assemble, find the cone vertex, assemble the
    # coned pieces.  find_cone_vertex assembles its caller's pieces again
    # and the caller the coned pieces again, yet each distinct assembly
    # builds each of its pieces once
    real_build, real_assemble = build_x_cluster, assemble
    calls, builds, glued, inside = Counter(), Counter(), set(), []

    def spy_build(base, params):
        builds[inside[-1]] += 1
        return real_build(base, params)

    def spy_assemble(pieces):
        key = tuple((b, xcomplex.sort_params(p)) for b, p in pieces)
        calls[key] += 1
        inside.append(key)
        try:
            cx = real_assemble(pieces)
        finally:
            inside.pop()
        glued.add(key)
        return cx

    monkeypatch.setattr(xcomplex, "build_x_cluster", spy_build)
    monkeypatch.setattr(xcomplex, "assemble", spy_assemble)
    xcomplex._assemble.cache_clear()
    flows = _seeded_pieces(17, 20)
    for pieces in flows:
        xcomplex.assemble(pieces)
        m, _ = find_cone_vertex(pieces)
        apex = special_form(f"y[{'0' * m}1]")
        xcomplex.assemble([(b, list(p) + [apex]) for b, p in pieces])
    # one enlarged assembly per cone parameter: four calls per flow, at
    # most two of them glued
    assert sum(calls.values()) == 4 * len(flows) and len(calls) <= 2 * len(flows)
    assert all(builds[key] == len(key) for key in glued)
    assert all(builds[key] <= len(key) for key in calls)


def test_coordinates_must_be_a_corner_of_the_cube():
    # n = 2: a third coordinate, a 2 and a lone coordinate name no vertex
    pc = build_x_cluster(F, [special_form("y[01]"), special_form("y[10]^-1")])
    assert pc.label_of_coords((0, 0)) == "e"
    assert oracles.has_edge_between_coords(pc, (0, 0), (1, 0))
    for call, args in (
        (pc.cluster.vertex_of_coords, ((0, 0, 0),)),
        (pc.label_of_coords, ((2, 0),)),
        (pc.label_of_coords, ((0,),)),
    ):
        with pytest.raises(ValueError, match="is not a corner of the 2-cube"):
            call(*args)


def test_clusters_are_immutable():
    c = fig1()
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.labels = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.diagonals = frozenset()
    v = c.cluster.vertex_of_coords((0, 0, 0))
    with pytest.raises(TypeError):
        c.labels[v] = "y[1]"
    with pytest.raises(TypeError):
        c.label_words[v] = group.identity("G")
    assert c.labels[v] == "e"


def test_memoised_complexes_are_read_only():
    # every cluster of one shape shares its cell complex and every call of
    # one assembly returns the same complex, so a write to either raises
    # and the next cluster of that shape keeps its cells
    e = group.identity("G")
    shared = build_x_cluster(e, [special_form("y[01]")]).cluster
    glued = assemble([(e, [special_form("y[01]")])])
    for cx in (shared.complex, glued.complex):
        with pytest.raises(TypeError):
            cx.dims["junk"] = 0
        with pytest.raises(TypeError):
            cx.facets["junk"] = frozenset()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cx.dims = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        shared.complex = topology.Complex({}, {})
    other = build_x_cluster(e, [special_form("y[10]")]).cluster
    assert other is shared and sorted(other.complex.dims) == ["0|", "1|", "i|"]
    assert topology.reduced_homology(other.complex) == {0: (0, []), 1: (0, [])}
    again = assemble([(e, [special_form("y[01]")])])
    assert again is glued and "junk" not in again.complex.dims


def test_memoised_assemblies_match_cold_builds():
    from genutil import clean_params

    rng = random.Random(41)
    params = [clean_params(rng, rng.randint(1, 4)) for _ in range(30)]
    params += [p[::-1] for p in params[:10]]
    assemblies = [[(F, p)] for p in params] + _seeded_pieces(5, 10)
    warm = [assemble(pieces) for pieces in assemblies]
    for pieces, cx in zip(assemblies, warm):
        xcomplex._assemble.cache_clear()
        xcomplex._arrangement_frame.cache_clear()
        group.canonical_coset.cache_clear()
        cold = assemble(pieces)
        assert cold is not cx
        assert dict(cold.vertex_words) == dict(cx.vertex_words)
        assert cold.complex.dims == cx.complex.dims
        assert cold.complex.facets == cx.complex.facets


def test_labels_are_cosets_of_the_form_products_over_the_base():
    # each vertex label is the canonical coset of its forms' product over
    # the base, warm and cold, whatever group the base carries
    from genutil import clean_params

    rng = random.Random(23)
    params = [clean_params(rng, rng.randint(1, 4)) for _ in range(10)]
    bases = [F, group.word("y[01]", "G"), group.word("x[1] y[001]^-1", "G"),
             group.word("y[0] y[1]^-1", "yGy")]
    for cold in (False, True):
        for base in bases:
            for p in params:
                if cold:
                    xcomplex._assemble.cache_clear()
                    xcomplex._arrangement_frame.cache_clear()
                    group.canonical_coset.cache_clear()
                pc = build_x_cluster(base, p)
                cx = assemble([(base, p)])
                assert sorted(cx.vertex_words) == sorted(pc.labels.values())
                for v in pc.cluster.complex.cells_of_dim(0):
                    coords = pc.cluster.vertex_coords(v)
                    ys = tuple(("y", s, e) for f, c in zip(pc.params, coords) if c
                               for s, e in f.entries)
                    key = canonical_coset.__wrapped__(GroupWord(ys, base.tag) * base)
                    assert pc.label_words[v] == key == cx.vertex_words[pc.labels[v]]
                    assert pc.labels[v] == key.to_string()


def test_the_base_word_carries_the_group():
    # y[0] and y[1] lie together in yGy alone of the Lodha-Moore groups
    e = group.identity("yGy")
    pc = build_x_cluster(e, [special_form("y[0]"), special_form("y[1]^-1")])
    assert {pc.cluster.vertex_coords(v): g for v, g in pc.labels.items()} == {
        (0, 0): "e", (0, 1): "y[1]^-1", (1, 0): "y[0]", (1, 1): "y[0] y[1]^-1"}
    assert {w.tag for w in pc.label_words.values()} == {"yGy"}
    pieces = [(e, [special_form("y[1]"), special_form("y[0000]")])]
    cx = assemble(pieces + [(group.word("y[1]", "yGy"), [special_form("y[0]")])])
    assert sorted(cx.vertex_words) == ["e", "y[0000]", "y[0000] y[1]", "y[0] y[1]", "y[1]"]
    assert [len(cx.complex.cells_of_dim(d)) for d in range(3)] == [5, 5, 1]
    assert find_cone_vertex(pieces) == (2, True)
    # a parameter outside the base's group is refused
    with pytest.raises(TagViolation):
        build_x_cluster(F, [special_form("y[0]")])


def test_pieces_under_two_tags_are_refused():
    pieces = [(F, [special_form("y[01]")]), (group.identity("Gy"), [special_form("y[10]")])]
    for search in (assemble, find_cone_vertex):
        with pytest.raises(TagViolation, match="pieces under different tags: G, Gy"):
            search(pieces)


def test_a_mirror_triple_glues_onto_its_coset():
    # y[1000]^-1 y[1001] y[101]^-1 = x[10] y[10]^-1: one coset, one vertex
    cx = assemble([(F, [special_form("y[10]^-1")]),
                   (F, [special_form("y[1000]^-1 y[1001] y[101]^-1")])])
    assert sorted(cx.vertex_words) == ["e", "y[10]^-1"]
    assert [len(cx.complex.cells_of_dim(d)) for d in range(2)] == [2, 1]


def test_assemble_intersection_guard():
    # two pieces meeting only at the base coset share exactly one vertex
    a = (F, [special_form("y[01]")])
    b = (F, [special_form("y[10]")])
    cx = assemble([a, b])
    assert len(cx.complex.cells_of_dim(0)) == 3


def test_morse_on_mixed_base_assembly():
    pieces = [
        (F, [special_form("y[01]"), special_form("y[110]^-1")]),
        (group.word("y[01]", "G"), [special_form("y[110]^-1")]),
        (group.word("y[110]^-1 y[01]", "G"), [special_form("y[010] y[0110]^-1")]),
    ]
    cx = assemble(pieces)
    assert verify_morse(cx)
    vals = morse_values(cx)
    assert vals[group.canonical_coset(group.word("y[01]", "G")).to_string()].h == 1


def _restricts_to_flat(pc, ids, shared):
    """The intersection guard of assemble on one piece."""
    return arrangements.is_flat_restriction(pc.cluster, [c for c, g in ids.items() if g in shared])


def _flat_verdicts(pieces):
    """(counting check, former scan, mask oracle) for each piece on each
    nonempty pairwise intersection, mirroring the guard in assemble."""
    built = [build_x_cluster(b, p) for b, p in pieces]
    idmaps = [_id_map(pc) for pc in built]
    out = []
    for i in range(len(built)):
        for j in range(i + 1, len(built)):
            shared = set(idmaps[i].values()) & set(idmaps[j].values())
            if not shared:
                continue
            for k in (i, j):
                keys = [c for c, g in idmaps[k].items() if g in shared]
                out.append((
                    _restricts_to_flat(built[k], idmaps[k], shared),
                    oracles.is_flat_restriction(built[k].cluster, keys),
                    frozenset(shared) in oracles._flat_cell_sets(built[k], idmaps[k]),
                ))
    return out


def test_flat_check_matches_mask_oracle():
    from genutil import clean_params

    rng = random.Random(5)
    compared = coned_compared = 0
    for _ in range(8):
        pieces = [(F, clean_params(rng, rng.randint(1, 2), 4)) for _ in range(rng.randint(2, 3))]
        first = pieces[0][1]
        # pieces overlapping the first one in an edge or a face
        pieces.append((F, first[:1]))
        if len(first) == 2:
            pieces.append((first[0].word("G"), first[1:]))
        for verdicts in _flat_verdicts(pieces):
            assert len(set(verdicts)) == 1, verdicts
            compared += 1
        subs = [s for _, params in pieces for f in params for s in f.subscripts()]
        for m in range(1, 8):
            apex = "0" * m + "1"
            if not all(independent(apex, s) for s in subs):
                continue
            try:
                verdicts = _flat_verdicts([(b, p + [special_form(f"y[{apex}]")]) for b, p in pieces])
            except ClusterError:
                continue
            for verdict in verdicts:
                assert len(set(verdict)) == 1, verdict
                coned_compared += 1
            break
    assert compared >= 20 and coned_compared >= 20


def test_flat_count_matches_the_scan_on_seeded_assemblies_and_their_cones():
    # the shared-key lists that assemble checks, on the seeded assemblies
    # and on their enlargements by the cone parameter
    compared = 0
    for pieces in _with_cones(_seeded_pieces(5, 30)):
        for verdicts in _flat_verdicts(pieces):
            assert len(set(verdicts)) == 1, (pieces, verdicts)
            compared += 1
    assert compared > 100


def test_assemble_intersection_guard_rejects_opposite_corners():
    # a plain square: its opposite corners are shared by no flat, so an
    # intersection made of them alone fails the guard
    pc = build_x_cluster(F, [special_form("y[01]"), special_form("y[110]^-1")])
    assert not pc.diagonals
    ids = _id_map(pc)
    corners = {ids[pc.cluster.vertex_of_coords(c)] for c in ((0, 0), (1, 1))}
    assert not _restricts_to_flat(pc, ids, corners)
    assert frozenset(corners) not in oracles._flat_cell_sets(pc, ids)
    edge = {ids[pc.cluster.vertex_of_coords(c)] for c in ((0, 0), (0, 1))}
    edge.add(next(g for c, g in ids.items() if c.startswith("0i")))
    assert _restricts_to_flat(pc, ids, edge)
    assert frozenset(edge) in oracles._flat_cell_sets(pc, ids)


def test_assemble_guards_raise_assembly_error(monkeypatch):
    # random assemblies trip the cluster checks first, so the two gluing
    # guards are reached with hand-labelled clusters in place of built ones
    square = build_x_cluster(F, [special_form("y[01]"), special_form("y[110]^-1")])
    line = build_x_cluster(F, [special_form("y[01]")])
    assert not square.diagonals

    def relabel(pc, corners):
        # corners: coordinates of pc -> coordinates of the square whose label it takes
        labels, words = dict(pc.labels), dict(pc.label_words)
        for dst, src in corners.items():
            v, u = pc.cluster.vertex_of_coords(dst), square.cluster.vertex_of_coords(src)
            labels[v], words[v] = square.labels[u], square.label_words[u]
        return dataclasses.replace(
            pc, labels=MappingProxyType(labels), label_words=MappingProxyType(words)
        )

    swapped = relabel(square, {(1, 0): (1, 1), (1, 1): (1, 0)})
    diagonal = relabel(line, {(0,): (0, 0), (1,): (1, 1)})
    ids = _id_map
    two_cell = [c for c, d in square.cluster.complex.dims.items() if d == 2]
    assert [ids(swapped)[c] for c in two_cell] == [ids(square)[c] for c in two_cell]
    assert set(ids(swapped).values()) != set(ids(square).values())

    pieces = [(F, square.params), (F, line.params)]
    for second, message in (
        (swapped, r"^cell 2\|.* glued with inconsistent faces: intersection is not a subcluster$"),
        (diagonal, r"^intersection of pieces 0 and 1 is not a subcluster of both$"),
    ):
        built = iter([square, second])
        monkeypatch.setattr(xcomplex, "build_x_cluster", lambda base, params: next(built))
        xcomplex._assemble.cache_clear()
        with pytest.raises(AssemblyError, match=message):
            assemble(pieces)
