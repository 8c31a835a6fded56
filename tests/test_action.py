import random

import oracles
import pytest

from lmgroups import action, group
from lmgroups.circle import relator_schemas
from lmgroups.words import all_words, letter_code

# independent recursive-descent oracle for forced prefixes, structured
# around explicit row recursion rather than transducer states

ROWS = {
    ("x", 1): (("00", "0", None), ("01", "10", None), ("1", "11", None)),
    ("x", -1): (("0", "00", None), ("10", "01", None), ("11", "1", None)),
    ("y", 1): (("00", "0", 1), ("01", "10", -1), ("1", "11", 1)),
    ("y", -1): (("0", "00", -1), ("10", "01", 1), ("11", "1", -1)),
}


def _p_rows(n, sign):
    from lmgroups.words import p_rows

    return tuple((pat, out, None) for pat, out in p_rows(n, sign))


def _lcp(strings):
    if not strings:
        return ""
    first = min(strings, key=len)
    k = 0
    while k < len(first) and all(s[k] == first[k] for s in strings):
        k += 1
    return first[:k]


def oracle_root(kind, sign, n, eta):
    rows = _p_rows(n, sign) if kind == "p" else ROWS[(kind, sign)]
    for pat, out, nxt in rows:
        if eta.startswith(pat):
            rest = eta[len(pat):]
            if kind == "y":
                return out + oracle_root("y", nxt, None, rest)
            return out + rest
    return _lcp([out for pat, out, _ in rows if pat.startswith(eta)])


def oracle_letter(kind, sub, sign, xi):
    if kind == "p":
        return oracle_root("p", sign, sub, xi)
    if sub and not xi.startswith(sub):
        return xi  # independent of or shorter than the subscript: fixed prefix
    return sub + oracle_root(kind, sign, None, xi[len(sub):])


def oracle_forced(word, xi):
    out = xi
    for kind, sub, exp in word.letters:
        sign = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            out = oracle_letter(kind, sub, sign, out)
    return out


def random_word(rng, max_len=6, tag="Shat"):
    letters = []
    for _ in range(rng.randint(1, max_len)):
        kind = rng.choice(["x", "y", "y", "p"])
        if kind == "p":
            letters.append(("p", rng.randint(0, 2), rng.choice([1, -1])))
        else:
            sub = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
            letters.append((kind, sub, rng.choice([1, -1])))
    return group.GroupWord(tuple(letters), tag)


def _separates(w1, w2, xi):
    f1 = action.act_prefix(w1, xi).forced
    f2 = action.act_prefix(w2, xi).forced
    m = min(len(f1), len(f2))
    return f1[:m] != f2[:m]


def shortlex_witness(w1, w2, depth):
    """The shortlex-least input of length <= depth whose forced outputs
    separate w1 and w2, found by enumeration; None if there is none."""
    return next((xi for xi in all_words(depth) if _separates(w1, w2, xi)), None)


def test_act_prefix_examples():
    assert action.act_prefix(group.word("x[e]"), "001").forced == "01"
    assert action.act_prefix(group.word("y[e]"), "0010").forced == "011"
    assert action.act_prefix(group.word("p0"), "01").forced == "11"


def test_act_prefix_matches_recursive_oracle():
    rng = random.Random(7)
    for _ in range(120):
        w = random_word(rng)
        for depth in (0, 1, 3, 6):
            for _ in range(6):
                xi = "".join(rng.choice("01") for _ in range(depth))
                assert action.act_prefix(w, xi).forced == oracle_forced(w, xi)


def test_act_prefix_exact_on_short_p_inverse():
    # the common prefix of the reachable rows is already forced
    w = group.word("p2^-1")
    assert action.act_prefix(w, "11").forced == "1"
    assert oracle_forced(w, "11") == "1"


def test_equal_at_depth_examples():
    e = group.identity("Shat")
    assert action.equal_at_depth(group.word("x[e] x[e]^-1"), e, 12) is None
    s = "01"
    lhs = group.word(f"y[{s}]", "Shat")
    rhs = group.word(f"x[{s}] y[{s}0] y[{s}10]^-1 y[{s}11]", "Shat")
    assert action.equal_at_depth(lhs, rhs, 16) is None
    w = action.equal_at_depth(group.word("y[01]"), group.word("y[01]^-1"), 8)
    assert w is not None and len(w) <= 8 and w.startswith("010")
    # the witness is genuine: forced prefixes are incompatible
    f1 = action.act_prefix(group.word("y[01]"), w).forced
    f2 = action.act_prefix(group.word("y[01]^-1"), w).forced
    m = min(len(f1), len(f2))
    assert f1[:m] != f2[:m]


def test_equal_at_depth_sound_on_differences():
    rng = random.Random(11)
    gens = ["x[e]", "y[0]", "y[10]", "p0", "p1"]
    for g in gens:
        w = group.word(g)
        witness = action.equal_at_depth(w, group.identity("Shat"), 12)
        assert witness is not None


def test_fixes_endpoints_examples():
    assert action.fixes_endpoints(group.word("x[e]"), 16)
    assert not action.fixes_endpoints(group.word("p0"), 16)
    assert action.fixes_endpoints(group.word("y[10] y[110]^-1"), 16)
    assert action.fixes_endpoints(group.word("x[e]"), 0)
    # a negative depth reads no bit, and is refused as equal_at_depth refuses it
    w = group.word("x[e]")
    with pytest.raises(ValueError, match="search depth must be >= 0, got -3"):
        action.fixes_endpoints(w, -3)
    with pytest.raises(ValueError, match="search depth must be >= 0, got -1"):
        action.moved_endpoint(w, -1)
    with pytest.raises(ValueError, match="search depth must be >= 0, got -1"):
        action.equal_at_depth(w, group.identity("Shat"), -1)


def test_moved_endpoint_matches_restarting_scan():
    rng = random.Random(29)
    samples = [random_word(rng, 6) for _ in range(200)]
    samples += [group.word(s) for s in ("x[e]", "p0", "p2^-1", "y[10] y[110]^-1", "x[e]^-1 y[0]")]
    for w in samples:
        for scan in (4, 16, 24):
            moved = action.moved_endpoint(w, scan)
            assert moved == oracles._moved_endpoint(w, scan)
            assert action.fixes_endpoints(w, scan) == (moved is None)


def test_composition_coherence():
    rng = random.Random(3)
    for _ in range(8):
        w1 = random_word(rng, 3)
        w2 = random_word(rng, 3)
        combined = group.GroupWord(w1.letters + w2.letters, "Shat")
        for xi in all_words(10):
            mid = action.act_prefix(w1, xi).forced
            assert action.act_prefix(combined, xi).forced == action.act_prefix(w2, mid).forced


def test_inverse_coherence():
    rng = random.Random(5)
    e = group.identity("Shat")
    for _ in range(200):
        w = random_word(rng, 6)
        ww = group.GroupWord(w.letters + w.inverse().letters, "Shat")
        assert action.equal_at_depth(ww, e, 12) is None


def test_monotone_in_input():
    rng = random.Random(13)
    for _ in range(60):
        w = random_word(rng, 5)
        xi = "".join(rng.choice("01") for _ in range(10))
        prev = ""
        for k in range(len(xi) + 1):
            cur = action.act_prefix(w, xi[:k]).forced
            assert cur.startswith(prev)
            prev = cur


def test_forced_prefix_is_the_common_refinement_per_letter():
    # for a single letter the forced output is precisely the common
    # prefix of the outputs on the two input extensions; for longer
    # words the left-to-right fold can only be contained in it
    rng = random.Random(19)
    singles = [group.GroupWord((l,), "Shat") for l in [
        ("x", "", 1), ("x", "", -1), ("y", "", 1), ("y", "", -1),
        ("x", "01", 1), ("y", "10", -1), ("p", 0, 1), ("p", 2, 1), ("p", 2, -1),
    ]]
    for w in singles:
        for xi in all_words(6):
            f = action.act_prefix(w, xi).forced
            f0 = action.act_prefix(w, xi + "0").forced
            f1 = action.act_prefix(w, xi + "1").forced
            k = 0
            while k < min(len(f0), len(f1)) and f0[k] == f1[k]:
                k += 1
            assert f == f0[:k]
    for _ in range(30):
        w = random_word(rng, 4)
        for xi in all_words(5):
            f = action.act_prefix(w, xi).forced
            f0 = action.act_prefix(w, xi + "0").forced
            f1 = action.act_prefix(w, xi + "1").forced
            assert f0.startswith(f) and f1.startswith(f)


def test_equal_at_depth_matches_brute_force():
    rng = random.Random(29)
    depth = 7
    pairs = []
    for _ in range(40):
        w1 = random_word(rng, 3)
        w2 = random_word(rng, 3) if rng.random() < 0.6 else group.GroupWord(
            w1.letters, "Shat"
        )
        pairs.append((w1, w2))
    # searches that reach nodes with equal chains and no unmatched output:
    # g w against g' w once g and g' have emitted the same bits (g' = g h
    # h^-1 always does), and a word against its unvalidated standard form
    for _ in range(30):
        w = random_word(rng, 4)
        g, g2, h = random_word(rng, 2), random_word(rng, 2), random_word(rng, 2)
        pairs += [(g * w, g2 * w), (g * w, g * h * h.inverse() * w)]
        try:
            sf = group.rewrite_standard_form(w, validate=False)
        except group.RewriteBudgetExceeded:
            continue
        pairs.append((w, sf.word()))
    for w1, w2 in pairs:
        witness = action.equal_at_depth(w1, w2, depth)
        assert witness == shortlex_witness(w1, w2, depth)
        assert (witness is None) == (oracles.equal_at_depth(w1, w2, depth) is None)


def test_letter_machines_match_tuple_interpreter():
    rng = random.Random(37)
    ws = [random_word(rng) for _ in range(120)]
    for w in ws:
        for xi in all_words(7):
            assert action.act_prefix(w, xi) == oracles.act_prefix(w, xi)
    for w1, w2 in zip(ws[:60], ws[60:]):
        witness = action.equal_at_depth(w1, w2, 12)
        assert (witness is None) == (oracles.equal_at_depth(w1, w2, 12) is None)
        if witness is not None:
            assert witness == shortlex_witness(w1, w2, len(witness))
    for w in ws:
        assert action.equal_at_depth(w, w, 12) is None
        assert oracles.equal_at_depth(w, w, 12) is None


def test_letter_codes_against_recursive_oracle():
    letters = [("x", sub) for sub in all_words(3)] + [("p", n) for n in range(4)]
    for kind, sub in letters:
        for sign in (1, -1):
            code = letter_code(kind, sub, sign)
            assert oracles.is_complete_prefix_code([pat for pat, _ in code])
            assert oracles.is_complete_prefix_code([out for _, out in code])
            w = group.GroupWord(((kind, sub, sign),), "Shat")
            for pat, out in code:
                assert oracle_forced(w, pat) == out


def test_equal_at_depth_rejects_a_negative_depth():
    with pytest.raises(ValueError, match="depth"):
        action.equal_at_depth(group.word("x[e]"), group.identity("Shat"), -1)
    assert action.equal_at_depth(group.word("x[e]"), group.identity("Shat"), 0) is None
    assert action.equal_at_depth(group.word("p0"), group.identity("Shat"), 0) is None


def _first_reached(w1, w2, depth):
    """How many distinct search nodes are first reached at each level
    below depth: a plain level-set walk, no witness, no order.  A node
    with equal chains and no unmatched output has no witness below it,
    so it is neither counted nor expanded."""

    def expanded(nodes):
        return {(s1, s2, a, b) for s1, s2, a, b in nodes if s1 != s2 or a or b}

    level = expanded({(action.initial_states(w1), action.initial_states(w2), "", "")})
    seen = set(level)
    counts = []
    for _ in range(depth):
        counts.append(len(level))
        nxt = set()
        for st1, st2, a, b in level:
            for bit in "01":
                s1, o1 = action.feed_word(st1, bit)
                s2, o2 = action.feed_word(st2, bit)
                na, nb = a + o1, b + o2
                m = min(len(na), len(nb))
                nxt.add((s1, s2, na[m:], nb[m:]))
        level = expanded(nxt) - seen
        seen |= level
    return counts


def _bench_size_pairs(seed, n=60):
    """Relator conjugates against the identity, and random words against
    their unvalidated standard forms and against the identity."""
    rng = random.Random(seed)
    rels = relator_schemas(2, 2)
    e = group.identity("Shat")
    pairs = []
    while len(pairs) < n:
        u = random_word(rng, 3)
        pairs.append((u * rng.choice(rels) * u.inverse(), e))
        w = random_word(rng, 8)
        try:
            sf = group.rewrite_standard_form(w, validate=False)
        except group.RewriteBudgetExceeded:
            continue
        pairs += [(w, sf.word()), (w, e)]
    return pairs


def test_identity_verdicts_agree_with_their_unvalidated_forms():
    """word_problem skips the rewrite check on identity and unknown
    verdicts; the check it skips passes on every one of them among the
    bench-size words."""
    depth = group.DEFAULT_DEPTH
    seen = {"identity": 0, "unknown": 0}
    for seed in (1, 2):
        for w in dict.fromkeys(w for w, _ in _bench_size_pairs(seed)):
            result = group.word_problem(w).result
            if result in seen:
                seen[result] += 1
                form = group.rewrite_standard_form(w, validate=False).word()
                assert action.equal_at_depth(w, form, depth) is None
    assert all(seen.values()), seen


def test_search_expands_each_node_once_at_bench_depth(monkeypatch):
    depth = 16
    feed_word = action.feed_word
    bits_fed = []

    def counting_feed_word(states, bits):
        sts, out = feed_word(states, bits)
        assert None not in sts
        bits_fed.append(bits)
        return sts, out

    def work(pairs):
        counts = []
        for w1, w2 in pairs:
            del bits_fed[:]
            witness = action.equal_at_depth(w1, w2, depth)
            assert all(len(b) == 1 for b in bits_fed)
            counts.append((witness, len(bits_fed)))
        return counts

    for seed in (1, 2):
        pairs = _bench_size_pairs(seed)
        monkeypatch.setattr(action, "feed_word", counting_feed_word)
        counts = work(pairs)
        assert work(pairs) == counts
        monkeypatch.undo()
        for (w1, w2), (witness, n_calls) in zip(pairs, counts):
            assert (witness is None) == (oracles.equal_at_depth(w1, w2, depth) is None)
            if witness is None:
                # agreement to depth: each node below depth is expanded once
                assert n_calls == 4 * sum(_first_reached(w1, w2, depth))
            else:
                assert witness == shortlex_witness(w1, w2, len(witness))
                assert n_calls <= 4 * sum(_first_reached(w1, w2, len(witness)))
