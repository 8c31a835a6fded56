import functools
import itertools
import operator
import os
import random
import subprocess
import sys

import oracles
import pytest

from lmgroups import action, group
from lmgroups.circle import relator_schemas
from lmgroups.group import (
    CharacterUndefined,
    GroupWord,
    SpecialForm,
    TagViolation,
    canonical_coset,
    char_value,
    decide_T_identity,
    in_F,
    independent_forms,
    is_special_form,
    pm_of_word,
    pm_reduce,
    pm_to_word_T,
    rewrite_standard_form,
    same_coset,
    special_form,
    word,
    word_problem,
    _find_quad,
    _triple_contract,
)
from lmgroups.words import all_words, consecutive, independent, letter_code
from lmgroups.xcomplex import ClusterError, find_cone_vertex


def test_tag_constraints():
    with pytest.raises(TagViolation):
        word("y[0]", "G")  # 0 is a zero run
    with pytest.raises(TagViolation):
        word("y[e]", "G")
    with pytest.raises(TagViolation):
        word("y[111]", "yG")
    with pytest.raises(TagViolation):
        word("p0", "G")
    with pytest.raises(TagViolation):
        word("y[10]", "T")
    word("y[0]", "yG")
    word("y[11]", "Gy")
    word("y[e]", "yGy")
    word("y[e] p3", "Shat")


def test_tag_inference_gives_the_least_admitting_tag():
    # a tag admits a word iff it admits each letter; over these letters,
    # tag t lies inside tag u iff u admits every letter t admits
    alphabet = (
        [f"x[{s or 'e'}]" for s in all_words(2)]
        + [f"y[{s or 'e'}]" for s in all_words(3)]
        + ["p0", "p1"]
    )
    admits = {}
    for text in alphabet:
        parsed = word(text, "Shat").letters
        admits[text] = set()
        for tag in group.TAGS:
            try:
                GroupWord(parsed, tag)
            except TagViolation:
                continue
            admits[text].add(tag)
    inside = {
        (t, u) for t in group.TAGS for u in group.TAGS
        if all(u in tags for tags in admits.values() if t in tags)
    }
    seen = set()
    for n in range(4):
        for letters in itertools.product(alphabet, repeat=n):
            tags = set(group.TAGS).intersection(*(admits[a] for a in letters))
            tag = group.infer_tag(" ".join(letters) or "e")
            assert tag in tags and all((tag, u) in inside for u in tags), letters
            seen.add(tag)
    assert seen == set(group.TAGS)


def test_parse_and_print_round_trip():
    w = word("x[01]^-1 y[e] p2^3 y[10]^-2", "Shat")
    assert word(w.to_string(), "Shat") == w
    assert group.identity("G").to_string() == "e"


def test_char_values():
    assert char_value("psi", word("y[01] y[10]^-1", "G")) == 0
    assert char_value("chi0", word("x[00]", "G")) == -1
    assert char_value("chi0", word("x[e]", "G")) == -1
    assert char_value("chi1", word("x[e]", "G")) == 1
    assert char_value("psihat", word("y[10] y[110]^-1 x[e] p0", "Shat")) == 0
    assert char_value("psi0", word("y[00]", "yG")) == 1
    assert char_value("psi1", word("y[11]", "Gy")) == 1
    with pytest.raises(CharacterUndefined):
        char_value("psi", word("x[e]", "F"))
    with pytest.raises(CharacterUndefined):
        char_value("chi0", word("y[0]", "yG"))
    with pytest.raises(CharacterUndefined):
        char_value("psihat", word("y[01]", "G"))


def test_char_additive_and_inverse():
    rng = random.Random(2)
    subs = [s for s in all_words(3) if s and set(s) != {"0"} and set(s) != {"1"}]
    for _ in range(100):
        letters1 = tuple(
            (rng.choice("xy"), rng.choice(subs), rng.choice([1, -1, 2]))
            for _ in range(rng.randint(0, 4))
        )
        letters2 = tuple(
            (rng.choice("xy"), rng.choice(subs), rng.choice([1, -1]))
            for _ in range(rng.randint(0, 4))
        )
        w1, w2 = GroupWord(letters1, "G"), GroupWord(letters2, "G")
        for name in ("chi0", "chi1", "psi"):
            assert char_value(name, w1 * w2) == char_value(name, w1) + char_value(name, w2)
            assert char_value(name, w1.inverse()) == -char_value(name, w1)


def test_special_form_examples():
    assert is_special_form(word("y[01] y[10]^-1", "G")) is not None
    assert is_special_form(word("y[01] y[10]", "G")) is None
    s = "01"
    assert is_special_form(word(f"y[{s}0] y[{s}10]^-1 y[{s}11]", "G")) is not None
    assert is_special_form(word("x[01]", "G")) is None
    assert is_special_form(group.identity("G")) is None
    # psi of a special form is 0 or +-1
    for text in ("y[01]", "y[01] y[10]^-1", "y[010] y[0110]^-1 y[0111]"):
        sf = is_special_form(word(text, "G"))
        assert sf is not None
        assert abs(sum(e for _, e in sf.entries)) <= 1


def test_special_form_constructor_applies_the_rule():
    # a sign other than +-1, a subscript that is not a binary word, no entry
    for entries in ((("01", 2),), (("0x", 1),), ()):
        with pytest.raises(ValueError):
            SpecialForm(entries)


def test_special_form_concatenation_property():
    # chains of consecutive subscripts of length <= 4 concatenate into
    # special forms whenever signs alternate at the junction
    words4 = list(all_words(4, 1))
    successors = {}
    for s in words4:
        successors[s] = [t for t in words4 if consecutive(s, t) is not None]
    chains = [[s] for s in words4]
    special_lists = []
    for _ in range(2):
        new = []
        for ch in chains:
            for t in successors[ch[-1]]:
                new.append(ch + [t])
        special_lists.extend(new)
        chains = new
    rng = random.Random(4)
    sample = rng.sample(special_lists, min(300, len(special_lists)))
    for ch in sample:
        for first in (1, -1):
            entries = tuple((s, first * (-1) ** i) for i, s in enumerate(ch))
            w = GroupWord(tuple(("y", s, e) for s, e in entries), "yGy")
            assert is_special_form(w) is not None
    # junction gluing: nu ending at sign e glues with mu starting at -e
    for _ in range(200):
        ch = rng.choice(special_lists)
        cut = rng.randint(1, len(ch) - 1)
        nu, mu = ch[:cut], ch[cut:]
        e_last = (-1) ** (cut - 1)
        nu_w = GroupWord(tuple(("y", s, (-1) ** i) for i, s in enumerate(nu)), "yGy")
        mu_w = GroupWord(
            tuple(("y", s, -e_last * (-1) ** i) for i, s in enumerate(mu)), "yGy"
        )
        assert is_special_form(nu_w * mu_w) is not None


def test_independent_forms():
    f1 = special_form("y[010] y[0110]^-1 y[0111]")
    assert not independent_forms([f1, f1])
    assert independent_forms([special_form("y[01]"), special_form("y[110]^-1")])
    assert not independent_forms([special_form("y[01] y[10]^-1"), special_form("y[0]")])


def test_rewrite_examples():
    sf = rewrite_standard_form(word("x[e]^-1 y[e]", "yGy"))
    assert sf.head.letters == ()
    assert sf.tail == (("0", 1), ("10", -1), ("11", 1))
    sf = rewrite_standard_form(word("y[10] x[e]", "yGy"))
    assert sf.head == word("x[e]", "yGy")
    assert sf.tail == (("110", 1),)
    sf = rewrite_standard_form(group.identity("Shat"))
    assert sf.head.letters == () and sf.tail == ()


def _random_shat_letters(rng, length):
    subs = list(all_words(3))
    letters = []
    for _ in range(length):
        kind = rng.choice(["x", "y", "y", "p"])
        if kind == "p":
            letters.append(("p", rng.randint(0, 2), rng.choice([1, -1])))
        else:
            letters.append((kind, rng.choice(subs), rng.choice([1, -1])))
    return tuple(letters)


def test_rewrite_random_words_validate():
    rng = random.Random(17)
    for _ in range(500):
        w = GroupWord(_random_shat_letters(rng, rng.randint(1, 8)), "Shat")
        sf = rewrite_standard_form(w)  # validates against the action oracle
        assert all(k in ("x", "p") for k, _, _ in sf.head.letters)
        from lmgroups.words import tree_order_less

        for (s, _), (t, _) in zip(sf.tail, sf.tail[1:]):
            assert tree_order_less(s, t)


def test_decide_T_identity():
    assert decide_T_identity(word("p0 p0", "T"))
    assert decide_T_identity(word("p1 p1 p1", "T"))
    assert not decide_T_identity(word("x[e]", "T"))
    assert decide_T_identity(word("p1 p2^-1 x[1]^-1", "T"))  # p_n = x_{1^n} p_{n+1}
    assert decide_T_identity(word("p0 x[e] p1^-2", "T"))  # p_n x = p_{n+1}^2


def test_printed_deep_p_conjugation_is_not_a_relation():
    # the variant x_{1^m}^-1 p_n x_{1^(m+1)} = p_{n+1} (n < m) contradicts
    # the defining tables; the transport family x_s p_n = p_n x_{s.p_n}
    # holds instead (see relator_schemas)
    for text in ("x[1]^-1 p0 x[11] p1^-1", "x[11]^-1 p1 x[111] p2^-1"):
        w = word(text, "T")
        assert not decide_T_identity(w)
        assert action.equal_at_depth(w, group.identity("T"), 14) is not None
    from lmgroups.words import partial_action

    for m, n in [(1, 0), (2, 0), (2, 1), (3, 1)]:
        s = "1" * m
        sp = partial_action(s, ("p", n, 1))
        assert sp is not None
        w = word(f"x[{s}] p{n}", "T") * word(f"p{n} x[{sp}]", "T").inverse()
        assert decide_T_identity(w)


def test_decide_T_identity_agrees_with_action_oracle():
    rng = random.Random(73)
    gens = ["x[e]", "x[0]", "x[1]", "x[10]", "x[11]", "p0", "p1", "p2"]
    for _ in range(120):
        text = " ".join(
            rng.choice(gens) + rng.choice(["", "^-1"]) for _ in range(rng.randint(1, 5))
        )
        w = word(text, "T")
        witness = action.equal_at_depth(w, group.identity("T"), 14)
        assert decide_T_identity(w) == (witness is None)


def test_tree_pair_word_round_trip():
    rng = random.Random(23)
    gens = ["x[e]", "x[0]", "x[1]", "x[10]", "p0", "p1", "p2"]
    for _ in range(40):
        text = " ".join(
            rng.choice(gens) + rng.choice(["", "^-1"]) for _ in range(rng.randint(1, 5))
        )
        w = word(text, "T")
        pm = pm_of_word(w)
        back = pm_to_word_T(pm)
        assert pm_of_word(back) == pm
        assert action.equal_at_depth(w, back.retag("T"), 12) is None


def test_tree_pairs_round_trip_through_hand_written_rows():
    """The library's tree pair of a word is reduced and is the map of the
    hand-written rows; it is the worklist reduction of those rows'
    unreduced composite, and the right-comb word read back through the
    rows gives the same map."""
    rng = random.Random(29)
    gens = [("x", s) for s in all_words(3)] + [("p", n) for n in range(4)]
    for _ in range(2000):
        letters = tuple(
            (*rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(1, 9))
        )
        raw = oracles.pm_of_word(GroupWord(letters, "T"))
        pm = pm_of_word(GroupWord(letters, "T"))
        assert oracles.is_reduced(pm) and oracles.same_map(pm, raw)
        assert pm_reduce(raw) == pm
        assert oracles.same_map(oracles.pm_of_word(pm_to_word_T(pm)), pm)


def test_pm_apply_matches_partial_action():
    from lmgroups.words import partial_action

    w = word("x[e] p1 x[10]^-1", "T")
    pm = pm_of_word(w)
    for s in all_words(6):
        img = s
        for letter in w.unit_letters():
            img = partial_action(img, letter) if img is not None else None
        if img is not None:
            ((a, b),) = [(a, b) for a, b in pm if s.startswith(a)]
            assert b + s[len(a):] == img


def test_word_problem_examples():
    s = "01"
    w = word(f"x[{s}] y[{s}0] y[{s}10]^-1 y[{s}11] y[{s}]^-1", "G")
    assert word_problem(w).result == "identity"
    v = word_problem(word("y[10]", "yGy"))
    assert v.result == "not-identity" and v.witness is not None
    assert word_problem(group.identity("G")).result == "identity"


def test_word_problem_unknown_beyond_depth():
    # a generator supported 20 levels deep acts invisibly at depth 16; an
    # x letter rewrites to an empty tail, but its tree pair is not trivial
    deep = "0" * 19 + "1"
    for kind in ("y", "x"):
        w = GroupWord(((kind, deep, 1),), "G")
        v = word_problem(w)
        assert v.result == "unknown"
        assert word_problem(w, depth=24).result == "not-identity"


def test_in_F_and_cosets():
    assert in_F(word("x[01]", "G")).result == "yes"
    v = in_F(word("y[01]", "G"))
    assert v.result == "no"
    assert in_F(word("p0", "Shat")).result == "no"
    s = "01"
    assert same_coset(word(f"y[{s}0] y[{s}10]^-1 y[{s}11]", "G"), word(f"y[{s}]", "G")).result == "yes"
    assert same_coset(word("y[01]", "G"), group.identity("G")).result == "no"
    assert same_coset(word("x[01]", "G"), group.identity("G")).result == "yes"
    # a nonempty tail alone is not evidence: tri-state honesty
    v = in_F(word("y[10] y[110]^-1", "yGy"))
    assert v.result == "unknown"


def test_canonical_coset_keys():
    s = "01"
    k1 = canonical_coset(word(f"y[{s}0] y[{s}10]^-1 y[{s}11]", "G"))
    k2 = canonical_coset(word(f"y[{s}]", "G"))
    assert k1 == k2 == word(f"y[{s}]", "G")
    assert canonical_coset(group.identity("G")).to_string() == "e"
    k3 = canonical_coset(word(f"y[{s}10]^-1 y[{s}0]", "G"))
    assert k3 == word(f"y[{s}0] y[{s}10]^-1", "G")


def test_rewrite_budget_error_carries_partial_word():
    deep = "0" * 11
    w = word(f"y[0] x[{deep}]", "Shat")
    with pytest.raises(group.RewriteBudgetExceeded) as info:
        rewrite_standard_form(w)
    assert isinstance(info.value.partial, GroupWord)
    # the whole word as it stands: head, moving letters, tail, unread input
    assert action.equal_at_depth(info.value.partial, w, 16) is None


def _rewrite_outcome(rewrite, w, **budgets):
    try:
        sf = rewrite(w, validate=False, **budgets)
    except group.RewriteBudgetExceeded as exc:
        return type(exc), str(exc), exc.partial.letters
    return sf.head.letters, sf.tail


def test_head_tail_rewriter_matches_restarting_oracle():
    import oracles

    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for length, count in ((8, 40), (16, 20), (32, 3)):
            for _ in range(count):
                w = GroupWord(_random_shat_letters(rng, length), "Shat")
                assert _rewrite_outcome(rewrite_standard_form, w) == _rewrite_outcome(
                    oracles.rewrite_standard_form, w
                ), w


def test_head_tail_rewriter_trips_the_same_budgets():
    import oracles

    rng = random.Random(5)
    inputs = [GroupWord(_random_shat_letters(rng, n), "Shat") for n in [8] * 8 + [16] * 8]
    inputs.append(word(f"y[0] x[{'0' * 11}]", "Shat"))
    tripped = set()
    for w in inputs:
        for steps in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144):
            for sub in (4, 6, 8, 12):
                new = _rewrite_outcome(rewrite_standard_form, w, max_steps=steps, max_subscript=sub)
                old = _rewrite_outcome(
                    oracles.rewrite_standard_form, w, max_steps=steps, max_subscript=sub
                )
                assert new == old, (w, steps, sub)
                if len(new) == 3:
                    tripped.add(new[1])
    assert tripped == {
        "rewriting step budget exceeded",
        "rewriting subscript depth budget exceeded",
    }


def test_contractions_pass_commuting_letters_only():
    # y_{u0} y_{u10}^-1 y_{u11} with u = 01: y_{01100} between y_{u0} and
    # y_{u10} commutes with y_{u0} and is passed over; y_{011} between
    # y_{u11} and y_u^-1 does not commute with y_{u10} and blocks
    passed = [("y", "010", 1), ("y", "01100", 1), ("y", "0110", -1), ("y", "0111", 1),
              ("y", "01", -1)]
    blocked = [("y", "010", 1), ("y", "0110", -1), ("y", "0111", 1), ("y", "011", 1),
               ("y", "01", -1)]
    assert _find_quad([(s, e) for _, s, e in passed]) == (0, 2, 3, 4, "01")
    assert _find_quad([(s, e) for _, s, e in blocked]) is None
    assert rewrite_standard_form(GroupWord(tuple(passed), "G")).tail == (("01010", 1),)
    assert rewrite_standard_form(GroupWord(tuple(blocked), "G")).tail == tuple(
        (s, e) for _, s, e in blocked
    )
    assert _triple_contract([("010", 1), ("01100", 1), ("0110", -1), ("0111", 1)]) == [
        ("01010", 1), ("01", 1)
    ]
    assert _triple_contract([("010", 1), ("0110", -1), ("01101", 1), ("0111", 1)]) is None


def test_coset_keys_for_commuting_products():
    rng = random.Random(41)
    from genutil import random_params

    for _ in range(30):
        forms = random_params(rng, max_forms=2, max_sub=4)
        if len(forms) != 2:
            continue
        a, b = forms[0].word("G"), forms[1].word("G")
        k1 = canonical_coset(a * b)
        k2 = canonical_coset(b * a)
        assert k1 == k2
        assert same_coset(a * b, k1).result == "yes"


def _independent_units(rng, tag, k, max_len=5):
    """Up to k unit y letters under tag with pairwise independent
    subscripts, some of them split into a contractible triple
    y_{u0} y_{u10}^-1 y_{u11}, in random order."""
    units = []
    for _ in range(100):
        if len(units) == k:
            break
        s = "".join(rng.choice("01") for _ in range(rng.randint(0, max_len)))
        if group.y_subscript_allowed(tag, s) and all(
            independent(s, t) for t, _ in units
        ):
            units.append((s, rng.choice((1, -1))))
    split = []
    for s, e in units:
        if e == 1 and rng.random() < 0.4:
            split += [(s + "0", 1), (s + "10", -1), (s + "11", 1)]
        else:
            split.append((s, e))
    rng.shuffle(split)
    return GroupWord(tuple(("y", s, e) for s, e in split), tag)


def _rewriter_coset_units(w):
    sf = rewrite_standard_form(w)
    return sf.head, group._unit_entries(sf.tail)


def _record_rewrites(monkeypatch):
    """The words that go through group.rewrite_standard_form from now on."""
    rewritten = []

    def spy(w, **kwargs):
        rewritten.append(w)
        return rewrite_standard_form(w, **kwargs)

    monkeypatch.setattr(group, "rewrite_standard_form", spy)
    return rewritten


def test_sorted_coset_units_match_the_rewriter(monkeypatch):
    # products of independent unit y letters: the seeded cluster vertex
    # words over F and random products under each Lodha-Moore tag
    from genutil import clean_params

    rng = random.Random(16)
    inputs = []
    for _ in range(40):
        forms = clean_params(rng, rng.randint(1, 3))
        for coords in itertools.product((0, 1), repeat=len(forms)):
            chosen = [f.word("G") for f, c in zip(forms, coords) if c]
            inputs.append(functools.reduce(operator.mul, chosen, group.identity("G")))
    for tag in ("G", "Gy", "yG", "yGy"):
        inputs += [_independent_units(rng, tag, rng.randint(0, 5)) for _ in range(60)]

    rewritten, checked = _record_rewrites(monkeypatch), []
    real_equal = action.equal_at_depth

    def equal_spy(w1, w2, depth):
        checked.append(w1)
        return real_equal(w1, w2, depth)

    monkeypatch.setattr(action, "equal_at_depth", equal_spy)
    for w in inputs:
        checked.clear()
        head, units = group._coset_units(w)
        # sorted, not rewritten, and with no oracle call: the sort only
        # applies the defining relation y_s y_t = y_t y_s
        assert not rewritten and not checked, w
        # the sort is checked against the action here, not at run time
        sorted_word = GroupWord(tuple(("y", s, e) for s, e in units), w.tag)
        assert real_equal(w, sorted_word, 16) is None, w
        sf = rewrite_standard_form(w)
        assert head.letters == sf.head.letters == ()
        assert units == group._unit_entries(sf.tail)

    checked.clear()
    sorted_keys = [canonical_coset.__wrapped__(w) for w in inputs]
    assert not rewritten and not checked
    monkeypatch.setattr(group, "_coset_units", _rewriter_coset_units)
    assert sorted_keys == [canonical_coset.__wrapped__(w) for w in inputs]
    contracted = sum(len(k.letters) < len(w.letters) for k, w in zip(sorted_keys, inputs))
    assert contracted > 50


def test_coset_units_rewrite_what_they_cannot_sort(monkeypatch):
    # a nested pair, a square, an x letter, an equal pair
    rewritten = _record_rewrites(monkeypatch)
    for w in (word("y[0] y[01]", "yG"), word("y[01]^2", "G"), word("x[1] y[01]", "G"),
              word("y[01] y[01]^-1", "G")):
        rewritten.clear()
        assert group._coset_units(w) == _rewriter_coset_units(w)
        assert rewritten == [w]


def _coset_words(rng, per_tag, max_sub, max_len, x_share):
    """Random words of unit letters under each of the five y tags: y
    letters the tag allows, with x letters in a share x_share of places."""
    for tag in ("G", "Gy", "yG", "yGy", "Shat"):
        ys = [s for s in all_words(max_sub) if group.y_subscript_allowed(tag, s)]
        xs = list(all_words(max_sub))
        for _ in range(per_tag):
            yield GroupWord(tuple(
                ("x", rng.choice(xs), rng.choice((1, -1))) if rng.random() < x_share
                else ("y", rng.choice(ys), rng.choice((1, -1)))
                for _ in range(rng.randint(1, max_len))
            ), tag)


def _seeded_coset_words():
    rng = random.Random(25)
    return [*_coset_words(rng, 200, 3, 5, 0.0), *_coset_words(rng, 200, 4, 6, 0.25)]


def test_coset_keys_match_the_former_loop():
    # the former loop standardised the tail again after each contraction;
    # where it ends the keys agree, and where a tail repeats, where it spun
    # until its budget ran out, the key still names the coset.  In the tail
    # y[000]^2 y[0010]^-1 y[0011] y[010]^-1 y[011] y[0]^-1 of the first
    # word, the triple at 00 leaves y[00] to complete the quad at 0, which
    # the next contraction takes as a triple plus a cancellation
    quad = word("y[0] y[000] y[0]^-1", "yG")
    assert canonical_coset.__wrapped__(quad) == word("y[00000]", "yG")
    ends = cycles = 0
    for g in [quad, *_seeded_coset_words()]:
        key, ref = canonical_coset.__wrapped__(g), oracles.canonical_coset(g)
        if ref is None:
            cycles += 1
            assert in_F(g * key.inverse()).result == "yes", g
        else:
            ends += 1
            assert key == ref, g
    assert ends > 1800 and cycles > 80


def test_every_defining_relation_keys_both_sides_alike():
    # y_w = x_w y_{w0} y_{w10}^-1 y_{w11}, so y[w] and y[w0] y[w10]^-1 y[w11]
    # name one coset, and so do y[w]^-1 and its mirror y[w00]^-1 y[w01] y[w1]^-1;
    # each triple times y[w]^-sign, its quad, lies in F and keys to e
    instances = 0
    for tag in ("G", "Gy", "yG", "yGy"):
        for w in all_words(4):
            for sign, rhs in ((1, [("0", 1), ("10", -1), ("11", 1)]),
                              (-1, [("00", -1), ("01", 1), ("1", -1)])):
                letters = tuple(("y", w + t, e) for t, e in rhs)
                if not all(group.y_subscript_allowed(tag, s) for _, s, _ in letters):
                    continue
                lhs = GroupWord((("y", w, sign),), tag)
                assert canonical_coset.__wrapped__(GroupWord(letters, tag)) == lhs, (tag, w, sign)
                quad = GroupWord(letters, tag) * lhs.inverse()
                assert canonical_coset.__wrapped__(quad) == group.identity(tag), (tag, w, sign)
                instances += 1
    assert instances == 210


def test_an_expanded_letter_keys_with_its_word():
    # the partner expands the first letter, y[110]^-1 = y[11011]^-1 y[11010]
    # y[1100]^-1 x[110]^-1; its standard-form tail ends in the mirror quad
    # y[11000]^-1 y[11001] y[1101]^-1 y[110], which one contraction removes:
    # the mirror triple leaves y[110]^-1, and that cancels against y[110]
    g = word("y[110]^-1 y[01] y[011]^-1 y[110]", "G")
    partner = word("y[11011]^-1 y[11010] y[1100]^-1 x[110]^-1 y[01] y[011]^-1 y[110]", "G")
    assert canonical_coset.__wrapped__(partner) == canonical_coset.__wrapped__(g)
    assert canonical_coset.__wrapped__(g) == word("y[010] y[0110]^-1 y[0111] y[011]^-1", "G")


def test_coset_keys_end_where_the_former_loop_spun():
    for text in ("y[e]^-1 y[e]^-1 y[0100]", "y[0] y[00] y[e] y[001] y[1]^-1"):
        g = word(text, "yGy")
        assert oracles.canonical_coset(g) is None
        assert same_coset(g, canonical_coset.__wrapped__(g)).result == "yes"


def test_canonical_coset_rewrites_at_most_once(monkeypatch):
    inputs = _seeded_coset_words() + [word("y[0] y[000] y[0]^-1", "yG")]
    rewritten = _record_rewrites(monkeypatch)
    for g in inputs:
        rewritten.clear()
        canonical_coset.__wrapped__(g)
        assert len(rewritten) <= 1, g
    # the x letter sends the word to the rewriter; its tail needs one
    # contraction, y[0010] y[00110]^-1 y[00111] to y[001]
    g = word("x[1] y[0010] y[00110]^-1 y[00111]", "G")
    rewritten.clear()
    assert canonical_coset.__wrapped__(g) == word("y[001]", "G")
    assert rewritten == [g]


def test_y_words_standardise_to_heads_of_x_letters():
    # canonical_coset checks that the head of a word's standard form lies
    # in F; for a word of unit y letters it always does: expansions and
    # quads only make x units, and a word of x letters lies in F
    rng = random.Random(19)
    nonempty = 0
    for tag in ("G", "Gy", "yG", "yGy", "Shat"):
        subs = [s for s in all_words(3) if group.y_subscript_allowed(tag, s)]
        for _ in range(300):
            letters = tuple(
                ("y", rng.choice(subs), rng.choice((1, -1))) for _ in range(rng.randint(1, 6))
            )
            head, _ = group._coset_units(GroupWord(letters, tag))
            assert all(k == "x" for k, _, _ in head.letters), (tag, letters)
            nonempty += bool(head.letters)
    assert nonempty > 300


def test_letter_memo_keeps_every_rejection():
    rejections = [
        ((("y", "01", 0),), "G"),  # zero exponent
        ((("p", 1, 1),), "G"),  # p under G
        ((("y", ["0", "1"], 1),), "G"),  # a list subscript
        ((("y", "0", 1),), "Gy"),  # a zero run under Gy
        ((("y", "01", 1.0),), "G"),  # a float exponent equal to 1
        ((("p", 1.0, 1),), "T"),  # a float index equal to 1
        ((("y", "01", True),), "G"),  # a bool exponent
        ((("p", True, 1),), "T"),  # a bool index
    ]

    def outcome(letters, tag):
        with pytest.raises(ValueError) as info:
            GroupWord(letters, tag)
        return type(info.value), str(info.value)

    group._checked_letter.cache_clear()
    cold = [outcome(*r) for r in rejections]
    assert cold[0] == (TagViolation, "exponent must be a nonzero integer, got 0")
    assert cold[2] == (ValueError, "not a binary word: ['0', '1']")
    assert cold[-2] == (TagViolation, "exponent must be a nonzero integer, got True")
    assert cold[-1] == (TagViolation, "p index must be a natural number, got True")
    # a rejected letter never enters the typed memo
    assert group._checked_letter.cache_info().currsize == 0
    # the equal letters with integer entries are valid and memoised
    assert GroupWord((("y", "01", 1),), "G").letters == (("y", "01", 1),)
    assert GroupWord((("p", 1, 1),), "T").letters == (("p", 1, 1),)
    assert GroupWord((("y", "0", 1),), "yG").letters == (("y", "0", 1),)
    for _ in range(2):
        assert [outcome(*r) for r in rejections] == cold
    assert GroupWord((("y", "0", 1),), "yG").letters == (("y", "0", 1),)
    assert group._checked_letter.cache_info().currsize == 3
    # a special form's signs are the ints +-1 too
    with pytest.raises(ValueError, match="special-form signs are \\+-1, got True"):
        SpecialForm((("01", True),))


def test_relator_suite_small_with_characters():
    from lmgroups.circle import relator_schemas

    rels = relator_schemas(2, 2)
    assert len(rels) > 100
    ident = group.identity("Shat")
    for r in rels:
        assert char_value("psihat", r) == 0
        assert action.equal_at_depth(r, ident, 16) is None


def test_pm_compose_bisection_matches_former_pairing():
    """A map composed with a letter code and a map composed with a map:
    bisection finds the same partners as the former all-pairs scan."""
    rng = random.Random(31)
    gens = [("x", s) for s in all_words(3)] + [("p", n) for n in range(4)]

    def random_map():
        letters = tuple(
            (*rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))
        )
        return pm_of_word(GroupWord(letters, "T"))

    for _ in range(300):
        m1, m2 = random_map(), random_map()
        code = tuple(sorted(letter_code(*rng.choice(gens), rng.choice((1, -1)))))
        for a, b in ((m1, code), (m1, m2), (code, m1)):
            pm = group.pm_compose(a, b)
            assert oracles.is_reduced(pm) and oracles.same_map(pm, oracles.pm_compose(a, b))


def _random_tagged_letters(rng, length, tag):
    subs = list(all_words(3))
    ysubs = [s for s in subs if group.y_subscript_allowed(tag, s)]
    return tuple(
        ("y", rng.choice(ysubs), rng.choice([1, -1])) if rng.random() < 0.6
        else ("x", rng.choice(subs), rng.choice([1, -1]))
        for _ in range(length)
    )


def _verdict_words(seed):
    rng = random.Random(seed)
    rels = relator_schemas(2, 2)
    out = [GroupWord(_random_shat_letters(rng, 8), "Shat") for _ in range(40)]
    for _ in range(40):
        u = GroupWord(_random_shat_letters(rng, 3), "Shat")
        out.append(u * rng.choice(rels) * u.inverse())
    out += [GroupWord(_random_tagged_letters(rng, 8, "G"), "G") for _ in range(40)]
    for tag in ("Gy", "yG", "yGy"):
        out += [GroupWord(_random_tagged_letters(rng, 8, tag), tag) for _ in range(10)]
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_word_problem_and_in_F_match_former_rewrite_first(seed):
    """The verdicts read off the former rewriter's standard form, taken
    first, and off the references the rest of each verdict rests on: a
    witness from the tuple interpreter's search, the psi-type characters
    in CHARACTERS order, and an endpoint from the restarting scan.  The
    hand-written tree pair of an empty-tailed form is the identity for
    identity and order-preserving for F."""
    depth = group.DEFAULT_DEPTH
    for w in _verdict_words(seed):
        try:
            sf, budget = oracles.rewrite_standard_form(w, validate=False), None
        except group.RewriteBudgetExceeded as exc:
            sf, budget = None, str(exc)
        pm = oracles.pm_of_word(sf.head) if sf is not None and not sf.tail else None
        images = [b for _, b in pm or ()]

        v = word_problem(w)
        if oracles.equal_at_depth(w, group.identity(w.tag), depth) is not None:
            assert v.result == "not-identity" and len(v.witness) <= depth
            assert oracles._incompatible(oracles.act_prefix(w, v.witness).forced, v.witness)
        else:
            if pm is not None and all(a == b for a, b in pm):
                assert v == group.Verdict("identity")
            else:
                assert v == group.Verdict("unknown", budget or f"agrees with the identity to depth {depth}")
            if budget is None:
                # the rewrite check the verdict skips: its form agrees with w
                form = rewrite_standard_form(w, validate=False).word()
                assert action.equal_at_depth(w, form, depth) is None

        v = in_F(w)
        characters = [
            (name, char_value(name, w)) for name in group.CHARACTERS
            if name in group.AVAILABLE_CHARACTERS[w.tag] and name not in ("chi0", "chi1")
        ]
        nonzero = [(name, value) for name, value in characters if value]
        if nonzero:
            assert v == group.Verdict("no", ("character", *nonzero[0]))
        elif budget is not None:
            assert v == group.Verdict("unknown", budget)
        elif pm is not None and images == sorted(images):
            assert v == group.Verdict("yes")
        elif v.result == "no":
            assert oracles._moved_endpoint(w, len(v.witness)) == v.witness
        else:
            # an empty tail with a tree pair outside F moves an endpoint
            assert pm is None and oracles._moved_endpoint(w, depth) is None
            assert v == group.Verdict("unknown", "nonempty standard-form tail only")
            # the rewrite check the verdict skips: its form agrees with w
            form = rewrite_standard_form(w, validate=False).word()
            assert action.equal_at_depth(w, form, depth) is None


def test_certificates_are_read_before_the_rewriter(monkeypatch):
    calls = []
    rewrite = group.rewrite_standard_form

    def counted(*args, **kwargs):
        calls.append(args[0])
        return rewrite(*args, **kwargs)

    monkeypatch.setattr(group, "rewrite_standard_form", counted)
    assert word_problem(word("y[10]", "yGy")).result == "not-identity"
    assert in_F(word("y[01]", "G")) == group.Verdict("no", ("character", "psi", 1))
    assert calls == []
    param = [special_form("y[1001]")]
    with pytest.raises(ClusterError):
        find_cone_vertex([(word("y[01]", "G"), param)])
    assert find_cone_vertex([(word("x[01]", "G"), param)]) == (2, True)


def test_word_problem_searches_once_per_verdict(monkeypatch):
    """identity and unknown: the witness search and one unvalidated
    rewrite; not-identity: the witness search, no rewriting."""
    searches, rewrites = [], []
    equal, rewrite = action.equal_at_depth, group.rewrite_standard_form

    def counted_equal(*args):
        searches.append(args[1])
        return equal(*args)

    def counted_rewrite(*args, **kwargs):
        rewrites.append(kwargs)
        return rewrite(*args, **kwargs)

    monkeypatch.setattr(action, "equal_at_depth", counted_equal)
    monkeypatch.setattr(group, "rewrite_standard_form", counted_rewrite)
    deep = "0" * 19 + "1"
    cases = [
        ("x[01] y[010] y[0110]^-1 y[0111] y[01]^-1", "G", "identity", 1),
        ("e", "G", "identity", 1),
        (f"y[{deep}]", "G", "unknown", 1),
        (f"x[{deep}]", "G", "unknown", 1),
        ("y[10]", "yGy", "not-identity", 0),
    ]
    for text, tag, result, n_rewrites in cases:
        del searches[:], rewrites[:]
        assert word_problem(word(text, tag)).result == result, text
        assert searches == [group.identity(tag)], text
        assert rewrites == [{"validate": False}] * n_rewrites, text


def test_in_F_searches_once_per_yes_verdict(monkeypatch):
    """yes: one unvalidated rewrite, then the validated one and its
    search; no by a character: neither; no by an endpoint and unknown:
    the unvalidated rewrite alone."""
    searches, rewrites = [], []
    equal, rewrite = action.equal_at_depth, group.rewrite_standard_form

    def counted_equal(*args):
        searches.append(args[0])
        return equal(*args)

    def counted_rewrite(*args, **kwargs):
        rewrites.append(kwargs)
        return rewrite(*args, **kwargs)

    monkeypatch.setattr(action, "equal_at_depth", counted_equal)
    monkeypatch.setattr(group, "rewrite_standard_form", counted_rewrite)
    unvalidated = [{"validate": False}]
    cases = [
        ("x[0] y[010] y[0110]^-1 y[0111] y[01]^-1", "G", "yes", unvalidated + [{}]),
        ("y[01]", "G", "no", []),
        ("p0 y[01] y[10]^-1", "Shat", "no", unvalidated),
        ("y[01] y[10]^-1", "G", "unknown", unvalidated),
        ("y[0000000000] x[00000000000] y[01]^-1", "Shat", "unknown", unvalidated),
    ]
    for text, tag, result, expected in cases:
        del searches[:], rewrites[:]
        w = word(text, tag)
        assert in_F(w).result == result, text
        assert rewrites == expected, text
        assert searches == [w] * (result == "yes"), text


def test_validated_rewrite_names_the_separating_input(monkeypatch):
    """With transport through x units broken, y[01] x[0] rewrites to
    x[0] y[01]; the validated rewrite refuses it with an input that
    separates the two, while the unvalidated one hands it out."""
    monkeypatch.setattr(group, "partial_action", lambda s, g: s)
    w = word("y[01] x[0]", "G")
    assert rewrite_standard_form(w, validate=False).word() == word("x[0] y[01]", "G")
    with pytest.raises(AssertionError, match=r"^rewriting produced an unequal word \(witness input '0"):
        rewrite_standard_form(w)


def test_in_F_character_witness_ignores_hash_seed():
    """Gy has two psi-type characters; the witness is the first of them
    in CHARACTERS order under every hash seed.  A witness taken from a
    set's iteration order reads psi under seeds 11, 12, 13 and 16 on
    CPython 3.11."""
    src = os.path.dirname(os.path.dirname(group.__file__))
    code = "from lmgroups.group import in_F, word; print(in_F(word('y[1]', 'Gy')).witness)"
    seen = set()
    for seed in range(1, 17):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        seen.add(out.stdout.strip())
    assert seen == {"('character', 'psi1', 1)"}
