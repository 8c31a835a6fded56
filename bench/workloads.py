"""Seeded inputs, the timed call per item and the output checks.

Each workload is a generator (rng -> list of items) and a runner
(item -> result) plus a checker (item, result -> exact counts, raising
CheckFailed on a wrong answer).  Items are plain tuples so their text
form gives a stable digest of the inputs.  Library functions are always
looked up on their module at call time, so a traced run sees the calls
the benchmark makes as well as the nested ones.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from lmgroups import action, arrangements, group, topology, words, xcomplex

DEPTH = group.DEFAULT_DEPTH
SUBS = tuple(words.all_words(3))
G_YSUBS = tuple(s for s in SUBS if not (words.is_zero_run(s) or words.is_one_run(s)))


class CheckFailed(AssertionError):
    pass


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _incompatible(a, b):
    m = min(len(a), len(b))
    return a[:m] != b[:m]


# --------------------------------------------------------------------------
# words: word problem and F-membership traffic


def _shat_letters(rng, length):
    letters = []
    for _ in range(length):
        kind = rng.choice("xyyp")
        if kind == "p":
            letters.append(("p", rng.randint(0, 2), rng.choice((1, -1))))
        else:
            letters.append((kind, rng.choice(SUBS), rng.choice((1, -1))))
    return tuple(letters)


def _g_letters(rng, length):
    letters = []
    for _ in range(length):
        kind = rng.choice("xy")
        subs = SUBS if kind == "x" else G_YSUBS
        letters.append((kind, rng.choice(subs), rng.choice((1, -1))))
    return tuple(letters)


def _relator(rng):
    """One instance of a defining relation, as left * right^-1 letters:
    x-square, y-expansion, x/y transport, independence, the p-rotation
    rules and the x/y-p transport."""
    pa = words.partial_action
    while True:
        family = rng.randrange(10)
        s, t, n = rng.choice(SUBS), rng.choice(SUBS), rng.randint(0, 2)
        if family == 0:
            left, right = [("x", s, 2)], [("x", s + "0", 1), ("x", s, 1), ("x", s + "1", 1)]
        elif family == 1:
            left = [("y", s, 1)]
            right = [("x", s, 1), ("y", s + "0", 1), ("y", s + "10", -1), ("y", s + "11", 1)]
        elif family in (2, 3):
            st = pa(s, ("x", t, 1))
            if st is None or s == t:
                continue
            k = "x" if family == 2 else "y"
            left, right = [(k, s, 1), ("x", t, 1)], [("x", t, 1), (k, st, 1)]
        elif family == 4:
            if not words.independent(s, t):
                continue
            left, right = [("y", s, 1), ("y", t, 1)], [("y", t, 1), ("y", s, 1)]
        elif family == 5:
            left, right = [("p", n, n + 2)], []
        elif family == 6:
            n = min(n, 1)
            left, right = [("p", n, 1)], [("x", "1" * n, 1), ("p", n + 1, 1)]
        elif family == 7:
            n = min(n, 1)
            left, right = [("p", n, 1), ("x", "", 1)], [("p", n + 1, 2)]
        else:
            sp = pa(s, ("p", n, 1))
            k = "y" if family == 8 else "x"
            if sp is None or (k == "x" and not s):
                continue
            left, right = [(k, s, 1), ("p", n, 1)], [("p", n, 1), (k, sp, 1)]
        return tuple(left) + tuple((k, a, -e) for k, a, e in reversed(right))


def _inverse(letters):
    return tuple((k, s, -e) for k, s, e in reversed(letters))


WORDS_MIX = (("shat8", 40), ("shat12", 4), ("relator", 40), ("in_F", 40))


def words_inputs(rng):
    items = []
    for kind, count in WORDS_MIX:
        for _ in range(count):
            if kind == "shat8":
                items.append(("word_problem", "random", _shat_letters(rng, 8)))
            elif kind == "shat12":
                items.append(("word_problem", "random", _shat_letters(rng, 12)))
            elif kind == "relator":
                u = _shat_letters(rng, 3)
                items.append(("word_problem", "relator", u + _relator(rng) + _inverse(u)))
            else:
                items.append(("in_F", "random", _g_letters(rng, 8)))
    rng.shuffle(items)
    return items


def words_run(item):
    call, _, letters = item
    if call == "word_problem":
        return group.word_problem(group.GroupWord(letters, "Shat"))
    return group.in_F(group.GroupWord(letters, "G"))


def _checked_tail(w, counts):
    """Unvalidated standard form of w, with its tail checked strictly
    tree-ordered; None when the rewriting budget runs out."""
    try:
        sf = group.rewrite_standard_form(w, validate=False)
    except group.RewriteBudgetExceeded:
        counts["rewrite_budget_exceeded"] += 1
        return None
    for (s, _), (t, _) in zip(sf.tail, sf.tail[1:]):
        _require(words.tree_order_less(s, t), f"tail not tree-ordered: {sf.tail}")
    counts["unit_letters_in"] += len(w.unit_letters())
    counts["tail_letters_out"] += sum(abs(e) for _, e in sf.tail)
    return sf


def words_check(item, verdict):
    call, origin, letters = item
    counts = Counter({f"{call}.{verdict.result}": 1})
    if call == "word_problem":
        w = group.GroupWord(letters, "Shat")
        sf = _checked_tail(w, counts)
        if verdict.result == "identity":
            _require(sf is not None and not sf.tail, "identity with a nonempty tail")
            _require(action.equal_at_depth(w, group.identity("Shat"), DEPTH) is None,
                     "identity verdict refuted by the action")
        elif verdict.result == "not-identity":
            _require(origin != "relator", "a relator conjugate called not-identity")
            xi = verdict.witness
            forced = action.act_prefix(w, xi).forced
            ident = action.act_prefix(group.identity("Shat"), xi).forced
            _require(_incompatible(forced, ident), f"witness {xi!r} does not separate")
            counts["witnesses"] += 1
        else:
            _require(verdict.result == "unknown", f"bad verdict {verdict.result!r}")
        return counts
    w = group.GroupWord(letters, "G")
    sf = _checked_tail(w, counts)
    if verdict.result == "yes":
        _require(sf is not None and not sf.tail, "in F with a nonempty tail")
        _require(group.pm_order_preserving(group.pm_of_word(sf.head)), "head outside F")
        _require(action.equal_at_depth(w, sf.head, DEPTH) is None,
                 "yes verdict refuted by the action")
    elif verdict.result == "no":
        wit = verdict.witness
        if isinstance(wit, tuple):
            _, name, value = wit
            _require(value != 0 and group.char_value(name, w) == value, f"bad character {wit}")
        else:
            forced = action.act_prefix(w, wit).forced
            _require(set(forced) - {wit[0]}, f"endpoint witness {wit!r} does not move")
        counts["witnesses"] += 1
    else:
        _require(verdict.result == "unknown", f"bad verdict {verdict.result!r}")
    return counts


# --------------------------------------------------------------------------
# complex: labelled clusters and coned assemblies


def _special_form(rng, max_sub, max_len=3):
    """Random special form with G-legal subscripts of bounded length."""
    while True:
        s = "".join(rng.choice("01") for _ in range(rng.randint(1, max_sub - 1)))
        if words.is_zero_run(s) or words.is_one_run(s):
            continue
        chain = [s]
        for _ in range(rng.randint(0, max_len - 1)):
            i = chain[-1].rfind("0")
            if i < 0:
                break
            nxt = chain[-1][:i] + "1" + "0" * rng.randint(0, max_sub - i - 1)
            if len(nxt) > max_sub or words.is_one_run(nxt):
                break
            chain.append(nxt)
        sign = rng.choice((1, -1))
        entries = tuple((w, sign * (-1) ** i) for i, w in enumerate(chain))
        try:
            return group.SpecialForm(entries)
        except ValueError:
            continue


def _tree_key(s):
    # tree order as a sort key: extensions before prefixes, 0-branch first
    return s.translate({48: "a", 49: "b"}) + "c"


def _is_special_entries(entries):
    return bool(entries) and all(
        e2 == -e1 and words.consecutive(s, t) is not None
        for (s, e1), (t, e2) in zip(entries, entries[1:])
    )


def _clean_params(rng, max_forms, max_sub):
    """Independent forms, sorted by first subscript, whose pairwise
    differences respect the arrangement model: form i times form j
    inverse is special only for adjacent i, j = i + 1."""
    while True:
        forms = []
        for _ in range(80):
            if len(forms) == max_forms:
                break
            f = _special_form(rng, max_sub)
            if group.independent_forms(forms + [f]):
                forms.append(f)
        forms.sort(key=lambda f: _tree_key(f.subscripts()[0]))
        if all(
            j == i + 1 or not _is_special_entries(sorted(
                forms[i].entries + forms[j].inverse_entries(), key=lambda e: _tree_key(e[0])))
            for i in range(len(forms)) for j in range(len(forms)) if i != j
        ):
            return tuple(f.entries for f in forms)


COMPLEX_MIX = (("cluster", 100), ("assembly", 25))


def complex_inputs(rng):
    items = [("cluster", _clean_params(rng, 3, 5)) for _ in range(COMPLEX_MIX[0][1])]
    for _ in range(COMPLEX_MIX[1][1]):
        pieces = tuple(_clean_params(rng, rng.randint(1, 2), 4) for _ in range(rng.randint(1, 3)))
        items.append(("assembly", pieces))
    rng.shuffle(items)
    return items


def _forms(entries_list):
    return [group.SpecialForm(e) for e in entries_list]


def complex_run(item):
    kind, data = item
    base = group.identity("G")
    if kind == "cluster":
        return xcomplex.build_x_cluster(base, _forms(data))
    pieces = [(base, _forms(p)) for p in data]
    try:
        cx = xcomplex.assemble(pieces)
    except xcomplex.ClusterError:
        return None  # the pieces do not glue to a complex of clusters
    morse = xcomplex.verify_morse(cx)
    m, verified = xcomplex.find_cone_vertex(pieces)
    apex = group.SpecialForm(((("0" * m) + "1", 1),))
    big = xcomplex.assemble([(b, list(p) + [apex]) for b, p in pieces])
    big_morse = xcomplex.verify_morse(big)
    link = xcomplex.ascending_link(big, group.identity("G").to_string())
    return cx, morse, m, verified, big, big_morse, topology.reduced_homology(link)


def complex_check(item, result):
    kind, data = item
    counts = Counter({kind: 1})
    if kind == "cluster":
        k = len(data)
        cplx = result.cluster.complex
        _require(len(cplx.cells_of_dim(0)) == 2 ** k, "wrong vertex count")
        _require(len(set(result.labels.values())) == 2 ** k, "coset labels collide")
        _require(result.label_of_coords((0,) * k) == "e", "base vertex is not the trivial coset")
        _require(cplx.euler_characteristic() == 1, "cluster Euler characteristic is not 1")
        counts["cells"] += len(cplx.dims)
        counts["diagonals"] += len(result.diagonals)
        return counts
    if result is None:
        counts["assembly.rejected"] += 1
        return counts
    cx, morse, m, verified, big, big_morse, hom = result
    _require(morse and big_morse, "Morse conditions fail on an assembly")
    _require(verified and m >= 1, "cone parameter not verified")
    apex = group.y_letter("0" * m + "1", 1, "G").to_string()
    _require(apex in big.complex.adjacent_vertices("e"), "apex is not joined to the base")
    _require(topology.is_trivial_homology(hom), f"coned link has homology {hom}")
    counts["cells"] += len(cx.complex.dims) + len(big.complex.dims)
    counts["cone_m"] += m
    return counts


# --------------------------------------------------------------------------
# cells: arrangements, cell enumeration and homology, no group work


def _all_diagonal_sets(n):
    return [d for r in range(n) for d in combinations(range(1, n), r)]


def cells_inputs(rng):
    """Every arrangement of the small dimensions, so the cost profile of a
    repetition hardly depends on the seed, plus seeded picks of the
    expensive ones.  A homology item names the skeleton it takes: k = n
    is the full complex."""
    items = [("enumerate", n, d) for n in (3, 4, 5) for d in _all_diagonal_sets(n)]
    items.append(("enumerate", 6, rng.choice(list(combinations(range(1, 6), 2)))))
    items += [("homology", n, d, n) for n in (3, 4) for d in _all_diagonal_sets(n)]
    items += [("homology", n, d, n - 1) for n in (2, 3) for d in _all_diagonal_sets(n)]
    items += [("homology", 4, d, 1) for d in _all_diagonal_sets(4)]
    items += [("homology", 5, d, 1) for d in rng.sample(_all_diagonal_sets(5), 4)]
    rng.shuffle(items)
    return items


def cells_run(item):
    arr = arrangements.Arrangement(item[1], frozenset(item[2]))
    if item[0] == "enumerate":
        return arrangements.enumerate_cells(arr), arrangements.cell_counts(arr)
    full = arrangements.enumerate_cells(arr).complex
    k = item[3]
    cplx = full if k == item[1] else full.subcomplex([c for c, d in full.dims.items() if d <= k])
    return full, cplx, topology.reduced_homology(cplx)


def cells_check(item, result):
    counts = Counter({item[0]: 1})
    if item[0] == "enumerate":
        cx, cell_counts = result
        _require(cell_counts == cx.counts(), f"cell_counts {cell_counts} != {cx.counts()}")
        _require(cx.complex.euler_characteristic() == 1, "Euler characteristic is not 1")
        counts["cells"] += len(cx.complex.dims)
        return counts
    _, n, _, k = item
    full, cplx, hom = result
    if k == n:
        _require(topology.is_trivial_homology(hom), f"full complex has homology {hom}")
    else:
        # the k-skeleton of a contractible complex is a wedge of k-spheres,
        # one per n-cell when k = n - 1
        rank = (-1) ** k * (cplx.euler_characteristic() - 1)
        if k == n - 1:
            _require(rank == len(full.cells_of_dim(n)), "skeleton Euler characteristic is off")
        expect = {d: (rank if d == k else 0, []) for d in hom}
        _require(hom == expect and k in hom, f"{k}-skeleton has homology {hom}")
    counts["skeleton_cells" if k < n else "cells"] += len(cplx.dims)
    return counts


WORKLOADS = {
    "words": (words_inputs, words_run, words_check),
    "complex": (complex_inputs, complex_run, complex_check),
    "cells": (cells_inputs, cells_run, cells_check),
}
