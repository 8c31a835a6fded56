"""The coding between eventually-constant binary sequences and the
rational circle, the relator schemas of the circle group, membership in
its commutator subgroup S, and constructive S-witness factorizations.

Points of the circle are Fraction values with None standing for the
point at infinity.  An eventually constant sequence is stored as a
TailPoint: a finite prefix plus the repeated bit, with the prefix never
ending in that bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Literal, Optional, Sequence, Tuple

from . import action, group
from .group import GroupWord
from .words import (
    all_words,
    check_word,
    consecutive,
    independent,
    is_one_run,
    is_zero_run,
    partial_action,
)

ProjectivePoint = Optional[Fraction]  # None is the point at infinity

INFINITY: ProjectivePoint = None


class WitnessError(RuntimeError):
    pass


class TransporterError(RuntimeError):
    pass


@dataclass(frozen=True)
class TailPoint:
    prefix: str
    tail: Literal["0", "1"]

    def __post_init__(self):
        check_word(self.prefix)
        if self.tail not in ("0", "1"):
            raise ValueError("tail bit must be '0' or '1'")
        object.__setattr__(self, "prefix", self.prefix.rstrip(self.tail))

    def bits(self, length: int) -> str:
        return (self.prefix + self.tail * length)[:length]

    def __str__(self) -> str:
        return f"{self.prefix or ''}{self.tail}^inf"


def _runs(s: str) -> List[int]:
    out: List[int] = []
    last = ""
    for c in s:
        if c == last:
            out[-1] += 1
        else:
            out.append(1)
            last = c
    return out


def phi(p: TailPoint) -> ProjectivePoint:
    """Continued-fraction value of an eventually constant sequence; the
    infinite final run contributes nothing (1/infinity), and the two
    constant sequences both land on infinity."""
    if p.prefix == "":
        return INFINITY
    runs = _runs(p.prefix)
    # first run includes the leading sign bit; inner runs are the terms
    terms = [runs[0] - 1] + runs[1:]
    value = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        value = Fraction(t) + Fraction(1) / value
    sign = 1 if p.prefix[0] == "1" else -1
    return sign * value


def _cf_terms(x: Fraction) -> List[int]:
    out = []
    num, den = x.numerator, x.denominator
    while den:
        q, r = divmod(num, den)
        out.append(q)
        num, den = den, r
    return out


def _point_from_terms(terms: Sequence[int], first: str) -> TailPoint:
    runs = [terms[0] + 1] + list(terms[1:])
    bits = []
    b = first
    for r in runs:
        bits.append(b * r)
        b = "0" if b == "1" else "1"
    return TailPoint("".join(bits), b)


def phi_inverse(q: ProjectivePoint) -> Tuple[TailPoint, TailPoint]:
    """The two preimages of a circle point: {0^inf, 1^inf} over infinity
    and a pair {s01^inf, s10^inf} over each rational."""
    if q is INFINITY:
        return (TailPoint("", "0"), TailPoint("", "1"))
    q = Fraction(q)
    if q == 0:
        return (TailPoint("0", "1"), TailPoint("1", "0"))
    first = "1" if q > 0 else "0"
    terms = _cf_terms(abs(q))
    if len(terms) > 1 and terms[-1] == 1:  # canonical: last term >= 2
        terms = terms[:-2] + [terms[-2] + 1]
    alt = terms[:-1] + [terms[-1] - 1, 1]
    a = _point_from_terms(terms, first)
    b = _point_from_terms(alt, first)
    for point in (a, b):
        if phi(point) != q:
            raise AssertionError(f"coding round trip failed at {q}")
    return (a, b)


def circularly_ordered(ts: Sequence[ProjectivePoint]) -> bool:
    """Increasing when finite; when infinity occurs at position i, the
    rotation starting after i must be increasing."""
    if len(set((None if t is None else Fraction(t)) for t in ts)) != len(ts):
        raise ValueError("points must be pairwise distinct")
    pts = list(ts)
    if INFINITY in pts:
        i = pts.index(INFINITY)
        pts = pts[i + 1:] + pts[:i]
    return all(a < b for a, b in zip(pts, pts[1:]))


# --------------------------------------------------------------------------
# Relator schemas


def relator_schemas(maxlen: int, maxp: int) -> List[GroupWord]:
    """Every instance, over subscripts of length <= maxlen and p-indices
    <= maxp, of the defining relations: the x-square and x-transport
    rules of F, the p-rotation rules of T together with the x-p
    transport, and the y-expansion, y-transport and independence rules.
    Each instance is returned as a relator (left side times the inverted
    right side).  Both bounds must be non-negative ints.
    """
    for name, bound in (("maxlen", maxlen), ("maxp", maxp)):
        if type(bound) is not int or bound < 0:
            raise ValueError(f"{name} must be a non-negative int, got {bound!r}")
    rels: List[GroupWord] = []
    subs = list(all_words(maxlen))

    def rel(left: GroupWord, right: GroupWord):
        rels.append(left * right.inverse())

    x, y, p, e = group.x_letter, group.y_letter, group.p_letter, group.identity

    for s in subs:
        # x_s^2 = x_{s0} x_s x_{s1}
        rel(x(s, 2), x(s + "0") * x(s) * x(s + "1"))
        # y_s = x_s y_{s0} y_{s10}^-1 y_{s11}
        rel(y(s), x(s) * y(s + "0") * y(s + "10", -1) * y(s + "11"))
    for s in subs:
        for t in subs:
            st = partial_action(s, ("x", t, 1))
            if st is not None and s != t:
                rel(x(s) * x(t), x(t) * x(st))
                rel(y(s) * x(t), x(t) * y(st))
            if independent(s, t):
                rel(y(s) * y(t), y(t) * y(s))
    for n in range(maxp + 1):
        # p_n^(n+2) = 1
        rel(p(n, n + 2), e())
        if n + 1 <= maxp:
            # p_n = x_{1^n} p_{n+1} and p_n x = p_{n+1}^2
            rel(p(n), x("1" * n) * p(n + 1))
            rel(p(n) * x(""), p(n + 1, 2))
        for s in subs:
            sp = partial_action(s, ("p", n, 1))
            if sp is not None:
                rel(y(s) * p(n), p(n) * y(sp))
                if s:  # x-p transport (trivial at the empty subscript)
                    rel(x(s) * p(n), p(n) * x(sp))
    return rels


# --------------------------------------------------------------------------
# Membership in S and constructive witnesses


def in_S(w: GroupWord) -> bool:
    """S is the kernel of the abelianization character of the circle
    group."""
    return group.char_value("psihat", w.retag("Shat")) == 0


PAIR_GEN = group.word("y[10] y[110]^-1")  # the extra generator of S over T


def _conjugate(core: GroupWord, f: GroupWord) -> GroupWord:
    f = f.retag("Shat")
    return f.inverse() * core.retag("Shat") * f


def t_transporter(
    from_pair: Tuple[str, str], to_pair: Tuple[str, str]
) -> GroupWord:
    """An element of T carrying one pair of addresses rigidly onto
    another: both pairs consecutive, or both independent and
    non-consecutive.  Built by completing both pairs to finite codes,
    padding arcs to matching lengths and aligning cyclically, then
    converting the prefix map to a word.  No element of T exists where,
    on one side, the arc between the pins is empty for one pair only: T
    acts by homeomorphisms of the circle, which keep an empty arc empty."""
    a1, a2 = from_pair
    b1, b2 = to_pair
    for s in (a1, a2, b1, b2):
        if not s:
            raise TransporterError("pair entries must be nonempty")
    cons_from = consecutive(a1, a2) is not None
    cons_to = consecutive(b1, b2) is not None
    if cons_from != cons_to:
        raise TransporterError("pairs are of different kinds")
    if not cons_from:
        for s, t in ((a1, a2), (b1, b2)):
            if not independent(s, t):
                raise TransporterError("non-consecutive pairs must be independent")

    src, s_arc = _completed_pair(a1, a2)
    dst, d_arc = _completed_pair(b1, b2)
    if s_arc != d_arc:
        # pad the pin-to-pin arc of the shorter side
        short, pins = (src, (a1, a2)) if s_arc < d_arc else (dst, (b1, b2))
        _pad_arc(short, pins[0], pins[1], abs(s_arc - d_arc))
    back_s, back_d = len(src) - _arc(src, a1, a2), len(dst) - _arc(dst, b1, b2)
    if back_s != back_d:
        short, pins = (src, (a1, a2)) if back_s < back_d else (dst, (b1, b2))
        _pad_arc(short, pins[1], pins[0], abs(back_s - back_d))
    k = len(src)
    r = (dst.index(b1) - src.index(a1)) % k
    pm = tuple(sorted((src[j], dst[(j + r) % k]) for j in range(k)))
    word = group.pm_to_word_T(pm)
    for s, t in ((a1, b1), (a2, b2)):
        image = s
        for letter in word.unit_letters():
            image = partial_action(image, letter)
            if image is None:
                raise TransporterError("transporter word loses the pin")
        if image != t:
            raise TransporterError("transporter word misses the pin")
    return word


def _completed_pair(s: str, t: str) -> Tuple[List[str], int]:
    """Minimal complete prefix code containing the independent s and t
    as leaves, sorted, plus the cyclic arc length from s to t."""
    leaves = [""]
    for target in (s, t):
        while True:
            host = next(l for l in leaves if target.startswith(l))
            if host == target:
                break
            leaves.remove(host)
            leaves.extend([host + "0", host + "1"])
            leaves.sort()
    return leaves, _arc(leaves, s, t)


def _arc(leaves: List[str], s: str, t: str) -> int:
    return (leaves.index(t) - leaves.index(s)) % len(leaves)


def _pad_arc(leaves: List[str], start: str, end: str, count: int):
    """Split interior leaves of the cyclic arc (start, end) count times."""
    for _ in range(count):
        k = len(leaves)
        i, j = leaves.index(start), leaves.index(end)
        interior = [leaves[(i + d) % k] for d in range(1, (j - i) % k)]
        if not interior:
            raise TransporterError(
                "no element of T exists: the arc between the pins is empty for one pair only"
            )
        leaf = interior[0]
        leaves.remove(leaf)
        leaves.extend([leaf + "0", leaf + "1"])
        leaves.sort()


def _pair_factors(s: str, t: str) -> List[GroupWord]:
    """Factors (T-words and conjugated pair generators) multiplying to
    y_s y_t^-1, for independent s, t."""
    if not independent(s, t):
        raise WitnessError(f"{s!r}, {t!r} are not independent")
    if {s, t} == {"0", "1"}:
        return _zero_one_factors(s)
    if is_one_run(s) != is_one_run(t) and all(is_zero_run(u) or is_one_run(u) for u in (s, t)):
        # a run of 1s against a run of 0s sits astride the seam of the
        # circle, where no transporter exists; step through a middle leaf
        u = "10" if independent("10", s) and independent("10", t) else "01"
        return _pair_factors(s, u) + _pair_factors(u, t)
    if consecutive(s, t) is not None:
        f = t_transporter(("10", "110"), (s, t))
        return [_conjugate(PAIR_GEN, f)]
    if consecutive(t, s) is not None:
        inner = _pair_factors(t, s)
        return [w.inverse() for w in reversed(inner)]
    f = t_transporter(("10", "1110"), (s, t))
    # y_10 y_1110^-1 = (y_10 y_110^-1) (x^-1 y_10 y_110^-1 x)
    return [
        _conjugate(PAIR_GEN, f),
        _conjugate(PAIR_GEN, group.word("x[e]", "T") * f),
    ]


def _zero_one_factors(first: str) -> List[GroupWord]:
    # y_0 y_1^-1 = (y_0 y_111^-1) (y_110 y_10^-1) x_1^-1, from the
    # expansion y_1 = x_1 y_10 y_110^-1 y_111
    factors = _pair_factors("0", "111")
    factors += [w.inverse() for w in reversed(_pair_factors("10", "110"))]
    factors.append(group.x_letter("1", -1))
    if first == "1":
        factors = [w.inverse() for w in reversed(factors)]
    return factors


FAMILIES = ("PairConsecutive", "PairNonConsecutive", "Balanced0", "Balanced1")


def s_witness(w: GroupWord, family: str) -> List[GroupWord]:
    """A factorization of w into T-words and conjugates of the pair
    generator, certifying membership in S; validated against the action
    oracle and the character test."""
    if family not in FAMILIES:
        raise WitnessError(f"unknown family {family!r}")
    units = w.unit_letters()
    if any(k != "y" for k, _, _ in units):
        raise WitnessError("witness families cover y-words only")
    pairs = [(s, e) for _, s, e in units]

    if family in ("PairConsecutive", "PairNonConsecutive"):
        if len(pairs) != 2 or pairs[0][1] != 1 or pairs[1][1] != -1:
            raise WitnessError("expected a word of the form y_s y_t^-1")
        s, t = pairs[0][0], pairs[1][0]
        is_cons = (
            consecutive(s, t) is not None
            or consecutive(t, s) is not None
            or {s, t} == {"0", "1"}
        )
        if family == "PairConsecutive" and not is_cons:
            raise WitnessError(f"({s}, {t}) is not consecutive")
        if family == "PairNonConsecutive" and is_cons:
            raise WitnessError(f"({s}, {t}) is consecutive")
        factors = _pair_factors(s, t)
    elif family == "Balanced0":
        if sum(e for _, e in pairs) != 0:
            raise WitnessError("exponent sum must vanish")
        for s, _ in pairs:
            if not (set(s) <= {"0", "1"} and s.endswith("0") and is_one_run(s[:-1])):
                raise WitnessError("subscripts must have the form 1^k 0")
        factors = _balanced0_factors(pairs)
    else:
        if sum(e for _, e in pairs) != 0:
            raise WitnessError("exponent sum must vanish")
        if any(is_one_run(s) for s, _ in pairs):
            raise WitnessError("subscripts of the form 1^m are not allowed")
        factors = _balanced1_factors(pairs)

    product = group.identity("Shat")
    for fac in factors:
        if not in_S(fac):
            raise AssertionError("factor escapes S")
        product = product * fac
    witness = action.equal_at_depth(w.retag("Shat"), product, group.DEFAULT_DEPTH)
    if witness is not None:
        raise AssertionError(f"factorization mismatch at input {witness!r}")
    return factors


def _balanced0_factors(pairs: List[Tuple[str, int]]) -> List[GroupWord]:
    # the exponents sum to 0 and each is +-1, so every letter finds its
    # inverse sign among the rest
    units = list(pairs)
    factors: List[GroupWord] = []
    while units:
        s, e = units[0]
        j = next(j for j in range(1, len(units)) if units[j][1] == -e)
        t = units[j][0]
        if s != t:  # equal subscripts cancel outright
            factors.extend(_pair_factors(s, t) if e == 1 else _pair_factors(t, s))
        del units[j], units[0]
    return factors


def _balanced1_factors(pairs: List[Tuple[str, int]]) -> List[GroupWord]:
    # b = 1^M 0 is longer than every subscript and, none of them being a
    # run of 1s, independent of each: y_b commutes with every letter, so
    # w = prod_k (y_{s_k} y_b^-1)^{e_k}, the exponents summing to 0
    b = "1" * max((len(s) for s, _ in pairs), default=0) + "0"
    factors: List[GroupWord] = []
    for s, e in pairs:
        factors.extend(_pair_factors(s, b) if e > 0 else _pair_factors(b, s))
    return factors
