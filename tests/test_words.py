import oracles
import pytest

from lmgroups.action import act_prefix
from lmgroups.group import GroupWord, SpecialForm, pm_of_word
from lmgroups.words import (
    all_words,
    consecutive,
    independent,
    is_prefix,
    partial_action,
    tree_key,
    tree_order_less,
)


def brute_consecutive(s, t):
    # enumerate every decomposition s = u 0 1^m, t = u 1 0^n
    hits = []
    for i in range(len(s)):
        u = s[:i]
        if s[i] == "0" and set(s[i + 1:]) <= {"1"}:
            if t.startswith(u) and len(t) > i and t[i] == "1" and set(t[i + 1:]) <= {"0"}:
                hits.append((u, len(s) - i - 1, len(t) - i - 1))
    return hits


def brute_tree_less(s, t):
    if s != t and s.startswith(t):
        return True
    for i in range(min(len(s), len(t))):
        if s[:i] == t[:i] and s[i] == "0" and t[i] == "1":
            return True
    return False


def test_is_prefix_examples():
    assert is_prefix("", "01")
    assert is_prefix("0", "01")
    assert not is_prefix("10", "0100")


def test_independent_examples():
    assert independent("01", "110")
    assert not independent("0", "01")
    assert not independent("10", "10")


def test_consecutive_examples():
    assert consecutive("01", "10") == ("", 1, 1)
    assert consecutive("10", "110") == ("1", 0, 1)
    assert consecutive("01", "110") is None


def test_consecutive_matches_brute_force_and_unique():
    words = list(all_words(8))
    for s in words:
        for t in words:
            hits = brute_consecutive(s, t)
            assert len(hits) <= 1
            got = consecutive(s, t)
            assert got == (hits[0] if hits else None)


def test_consecutive_implies_independent():
    for s in all_words(8):
        for t in all_words(8):
            if consecutive(s, t) is not None:
                assert independent(s, t)


def test_tree_order_examples():
    for s in all_words(4):
        assert tree_order_less(s + "0", s)
    assert tree_order_less("0", "10")
    assert tree_order_less("10", "11")
    assert not tree_order_less("11", "10")


def test_tree_order_matches_brute_force():
    for s in all_words(6):
        for t in all_words(6):
            assert tree_order_less(s, t) == brute_tree_less(s, t)
            assert (tree_key(s) < tree_key(t)) == brute_tree_less(s, t)


def test_tree_order_irreflexive_transitive_total():
    words = list(all_words(6))
    less = {(s, t) for s in words for t in words if tree_order_less(s, t)}
    for s in words:
        assert (s, s) not in less
    below = {}
    for s, t in less:
        below.setdefault(s, set()).add(t)
    for s, ts in below.items():
        for t in ts:
            for u in below.get(t, ()):
                assert (s, u) in less
    for s in words:
        for t in words:
            if s != t:
                assert ((s, t) in less) != ((t, s) in less)


def test_partial_action_examples():
    assert partial_action("00", ("x", "", 1)) == "0"
    assert partial_action("10", ("p", 1, 1)) == "11"
    assert partial_action("0", ("x", "", 1)) is None
    # outside the support the word is fixed
    assert partial_action("0110", ("x", "10", 1)) == "0110"
    # too short over a deeper subscript
    assert partial_action("0", ("x", "01", 1)) is None


def test_partial_action_prefix_monotone():
    gens = [("x", t, e) for t in all_words(3) for e in (1, -1)]
    gens += [("p", n, e) for n in range(3) for e in (1, -1)]
    for s in all_words(6):
        for g in gens:
            out = partial_action(s, g)
            if out is None:
                continue
            for b in "01":
                deeper = partial_action(s + b, g)
                if deeper is not None:
                    assert deeper.startswith(out)


def test_partial_action_respects_exponent_iteration():
    for s in all_words(5):
        one = partial_action(s, ("x", "1", 1))
        two = partial_action(s, ("x", "1", 2))
        if one is not None and partial_action(one, ("x", "1", 1)) is not None:
            assert two == partial_action(one, ("x", "1", 1))


def test_prefix_codes_match_former_letter_actions():
    letters = [("x", t) for t in all_words(3)] + [("p", n) for n in range(4)]
    for kind, sub in letters:
        for e in (1, -1, 2, -2, -3):
            letter = (kind, sub, e)
            for s in all_words(5):
                assert partial_action(s, letter) == oracles.partial_action(s, letter)
            w = GroupWord((letter,), "T")
            pm = pm_of_word(w)
            assert oracles.is_reduced(pm) and oracles.same_map(pm, oracles.pm_of_word(w))


@pytest.mark.parametrize("sub", [["0", "1"], ("0", "1"), 1, None])
def test_subscripts_must_be_strings(sub):
    with pytest.raises(ValueError):
        GroupWord((("x", sub, 1),), "G")
    with pytest.raises(ValueError):
        GroupWord((("y", sub, 1),), "yGy")
    with pytest.raises(ValueError):
        SpecialForm(((sub, 1),))
    with pytest.raises(ValueError):
        act_prefix(GroupWord((("x", "0", 1),), "G"), sub)
