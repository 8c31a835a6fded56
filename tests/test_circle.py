import random
from fractions import Fraction

import pytest

from lmgroups import action, group
from lmgroups.circle import (
    TailPoint,
    TransporterError,
    WitnessError,
    circularly_ordered,
    in_S,
    phi,
    phi_inverse,
    relator_schemas,
    s_witness,
    t_transporter,
)
from lmgroups.words import all_words, consecutive, independent, partial_action


def test_tailpoint_canonical():
    assert TailPoint("0110", "0").prefix == "011"
    assert TailPoint("", "1").prefix == ""
    assert str(TailPoint("11", "0")) == "110^inf"


def test_phi_examples():
    assert phi(TailPoint("", "0")) is None
    assert phi(TailPoint("", "1")) is None
    assert phi(TailPoint("11", "0")) == 1
    assert phi(TailPoint("0", "1")) == 0
    assert phi(TailPoint("1", "0")) == 0


def test_phi_inverse_examples():
    a, b = phi_inverse(Fraction(0))
    assert {str(a), str(b)} == {"01^inf", "10^inf"}
    a, b = phi_inverse(None)
    assert {str(a), str(b)} == {"0^inf", "1^inf"}
    a, b = phi_inverse(Fraction(1))
    assert {str(a), str(b)} == {"110^inf", "101^inf"}


def test_round_trip_all_small_rationals():
    seen = set()
    for num in range(-50, 51):
        for den in range(1, 51):
            q = Fraction(num, den)
            if q in seen:
                continue
            seen.add(q)
            a, b = phi_inverse(q)
            assert phi(a) == q and phi(b) == q
            # the preimages have the form s01^inf / s10^inf
            pa, pb = sorted([a, b], key=lambda p: p.tail)
            assert pa.tail == "0" and pb.tail == "1"
            assert pa.prefix[:-1] == pb.prefix[:-1]
            assert pa.prefix.endswith("1") and pb.prefix.endswith("0")


def test_pairing_and_injectivity():
    values = {}
    for s in all_words(8):
        assert phi(TailPoint(s + "0", "1")) == phi(TailPoint(s + "1", "0"))
        for tail in "01":
            p = TailPoint(s, tail)
            if (p.prefix, p.tail) in values:
                continue
            values[(p.prefix, p.tail)] = phi(p)
    by_value = {}
    for key, v in values.items():
        by_value.setdefault(v, []).append(key)
    for v, keys in by_value.items():
        if v is None:
            assert sorted(keys) == [("", "0"), ("", "1")]
        elif len(keys) > 1:
            assert len(keys) == 2
            (p1, t1), (p2, t2) = sorted(keys, key=lambda k: k[1])
            assert t1 == "0" and t2 == "1"
            assert p1[:-1] == p2[:-1] and p1.endswith("1") and p2.endswith("0")


def test_circular_order():
    assert circularly_ordered([Fraction(0), Fraction(1), None])
    assert not circularly_ordered([Fraction(1), Fraction(0), None])
    assert circularly_ordered([None, Fraction(-1), Fraction(3)])
    assert circularly_ordered([Fraction(2), Fraction(5), None, Fraction(-3)])
    with pytest.raises(ValueError):
        circularly_ordered([Fraction(1), Fraction(1)])


def test_relator_schemas_examples():
    rels = relator_schemas(1, 1)
    texts = {r.to_string() for r in rels}
    assert "y[e] y[11]^-1 y[10] y[0]^-1 x[e]^-1" in texts  # expansion at the root
    assert "p0^2" in texts
    ident = group.identity("Shat")
    for r in rels:
        assert action.equal_at_depth(r, ident, 16) is None
        assert group.char_value("psihat", r) == 0


def test_relator_schemas_need_non_negative_int_bounds():
    assert len(relator_schemas(0, 0)) == 3  # x-square and expansion at the root, p0^2
    for bad in (-1, 1.0, True, "1"):
        with pytest.raises(ValueError, match="maxlen must be a non-negative int"):
            relator_schemas(bad, 1)
        with pytest.raises(ValueError, match="maxp must be a non-negative int"):
            relator_schemas(1, bad)


def test_in_S():
    assert in_S(group.word("y[10] y[110]^-1"))
    assert not in_S(group.word("y[10]"))
    assert in_S(group.word("x[e]"))
    assert in_S(group.word("p0"))


def test_transporter_identity_and_examples():
    assert t_transporter(("10", "110"), ("10", "110")).letters == ()
    f = t_transporter(("10", "110"), ("010", "0110"))
    for a, b in (("10", "010"), ("110", "0110")):
        img = a
        for letter in f.unit_letters():
            img = partial_action(img, letter)
        assert img == b
    f = t_transporter(("10", "1110"), ("01", "110"))
    assert f.tag == "T"
    with pytest.raises(TransporterError):
        t_transporter(("10", "110"), ("10", "1110"))  # mixed kinds
    with pytest.raises(TransporterError):
        t_transporter(("10", "110"), ("0", "1"))  # pins cover the circle


def test_transporter_random_consecutive_pairs():
    rng = random.Random(31)
    pairs = []
    for s in all_words(5, 1):
        i = s.rfind("0")
        if i < 0:
            continue
        for n in range(0, 3):
            t = s[:i] + "1" + "0" * n
            if len(t) <= 6 and {s, t} != {"0", "1"}:
                pairs.append((s, t))
    for _ in range(25):
        src = rng.choice(pairs)
        dst = rng.choice(pairs)
        f = t_transporter(src, dst)
        for a, b in zip(src, dst):
            img = a
            for letter in f.unit_letters():
                img = partial_action(img, letter)
            assert img == b


def _arcs_empty(s, t):
    """Whether the open arcs of the circle from s to t and from t back
    to s, between the dyadic intervals of the two addresses, are empty."""
    (a, b), (c, d) = ((Fraction(int(u, 2), 2 ** len(u)), Fraction(int(u, 2) + 1, 2 ** len(u)))
                      for u in (s, t))
    return (c - b) % 1 == 0, (a - d) % 1 == 0


def test_transporter_exists_unless_one_arc_alone_is_empty():
    subs = list(all_words(3, 1))
    pairs = [(s, t) for s in subs for t in subs if independent(s, t)]
    made = 0
    for src in pairs:
        for dst in pairs:
            if (consecutive(*src) is None) != (consecutive(*dst) is None):
                with pytest.raises(TransporterError, match="pairs are of different kinds"):
                    t_transporter(src, dst)
            elif _arcs_empty(*src) != _arcs_empty(*dst):
                with pytest.raises(TransporterError, match="empty for one pair only"):
                    t_transporter(src, dst)
            else:
                f = t_transporter(src, dst)
                made += 1
                for a, b in zip(src, dst):
                    img = a
                    for letter in f.unit_letters():
                        img = partial_action(img, letter)
                    assert img == b, (src, dst)
    assert made > len(pairs) ** 2 // 3
    # both pairs consecutive, yet only the second has a leaf between its pins
    with pytest.raises(TransporterError, match="empty for one pair only"):
        t_transporter(("0", "1"), ("0", "10"))


def test_witness_pair_cases():
    w = group.word("y[10] y[1110]^-1")
    factors = s_witness(w, "PairNonConsecutive")
    assert len(factors) == 2
    w = group.word("y[01] y[10]^-1")
    factors = s_witness(w, "PairConsecutive")
    assert len(factors) == 1
    # the leftover exercise from the pair lemma
    factors = s_witness(group.word("y[0] y[1]^-1"), "PairConsecutive")
    assert all(in_S(f) for f in factors)
    with pytest.raises(WitnessError):
        s_witness(group.word("y[01] y[10]^-1"), "PairNonConsecutive")
    with pytest.raises(WitnessError):
        s_witness(group.word("y[01] y[110]^-1"), "PairConsecutive")


def test_witness_balanced_families():
    w = group.word("y[10] y[110]^-1 y[1110] y[11110]^-1")
    facs = s_witness(w, "Balanced0")
    assert facs and all(in_S(f) for f in facs)
    w = group.word("y[110]^2 y[10]^-2")
    facs = s_witness(w, "Balanced0")
    assert facs
    w = group.word("y[01] y[001]^-1 y[010] y[0110]^-1")
    facs = s_witness(w, "Balanced1")
    assert facs
    w = group.word("y[0100] y[01]^-1 y[010]^2 y[0110]^-1 y[0111]^-1")
    facs = s_witness(w, "Balanced1")  # five letters
    assert facs
    with pytest.raises(WitnessError):
        s_witness(group.word("y[10] y[110]"), "Balanced0")  # sum 2
    with pytest.raises(WitnessError):
        s_witness(group.word("y[11] y[10]^-1"), "Balanced1")  # a 1-run subscript


def test_balanced1_witnesses_take_at_most_two_factors_per_unit():
    # one anchor y_b, b = 1^M 0, pairs with every letter: a consecutive
    # pair is one conjugate of the pair generator, any other pair two
    rng = random.Random(3)
    subs = [s for s in all_words(4) if s and "0" in s]
    for _ in range(30):
        k = rng.randint(1, 3)
        units = [(rng.choice(subs), e) for e in (1, -1) for _ in range(k)]
        rng.shuffle(units)
        w = group.GroupWord(tuple(("y", s, e) for s, e in units), "Shat")
        assert len(s_witness(w, "Balanced1")) <= 2 * len(units), w


def test_witness_validation_is_mechanical():
    # each factorization multiplies back to the input at depth 16 and
    # every factor is itself in S (checked inside s_witness); spot-check
    # one product explicitly
    w = group.word("y[10] y[1110]^-1")
    factors = s_witness(w, "PairNonConsecutive")
    prod = group.identity("Shat")
    for f in factors:
        prod = prod * f
    assert action.equal_at_depth(prod, w.retag("Shat"), 16) is None
