"""Group words over the Lodha-Moore generating families.

A GroupWord is a tagged sequence of signed letters x_s, y_s, p_n.  The
tag names the ambient group and constrains the letters:

    F     x letters only
    T     x and p letters
    G     y subscripts avoid the runs 0^n and 1^n (n >= 0)
    Gy    y subscripts avoid 0^n
    yG    y subscripts avoid 1^n
    yGy   any y subscripts
    Shat  any letters (the group generated by yGy together with T)

Besides word plumbing this module provides the characters chi0, chi1,
psi0, psi1, psi and the abelianization character psihat of Shat,
special forms, exact tree-pair arithmetic for T (prefix maps), a
rewriting engine that converts any word to a standard form
f . y_{s1}^{e1} ... y_{sn}^{en} with f a T-word and the subscripts
strictly increasing in the tree order, and the word-problem /
F-membership / coset machinery built on all of that.

The rewriter holds the word as a head of x/p units and a tail of y
units.  One `push` moves an x/p unit left through the tail into the
head, transporting each y unit it passes or expanding it when the
partial action is undefined; one scan then sorts the tail, stepping
back one position after a cancellation or a swap and starting over only
after a rule that transports the tail's prefix.

Coset keys (`canonical_coset`, the vertices of the cluster complex)
skip the rewriter on a product of unit y letters with pairwise
independent subscripts: independent y letters commute by a defining
relation, so the standard form of such a word is the word sorted by
the tree order, and contracting a triple keeps the subscripts
independent.  The sort applies only that relation, so its result is
not checked against the action at run time; the tests check it on the
seeded suites.  Any other word is rewritten once, and a contraction is
taken only where, after free cancellation, the tail is strictly sorted.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from . import action
from .sigma import BASES
from .words import (
    X_ROWS,
    check_word,
    consecutive,
    independent,
    is_one_run,
    is_zero_run,
    letter_code,
    partial_action,
    text_to_word,
    tree_key,
    tree_order_less,
    word_to_text,
)

Letter = Tuple[str, object, int]  # (kind, subscript-or-index, exponent)

TAGS = ("F", "T", "G", "Gy", "yG", "yGy", "Shat")

DEFAULT_DEPTH = action.DEFAULT_DEPTH


class TagViolation(ValueError):
    pass


class CharacterUndefined(ValueError):
    pass


class RewriteBudgetExceeded(RuntimeError):
    def __init__(self, partial, message):
        super().__init__(message)
        self.partial = partial


def y_subscript_allowed(tag: str, s: str) -> bool:
    if tag in ("yGy", "Shat"):
        return True
    if tag == "G":
        return not (is_zero_run(s) or is_one_run(s))
    if tag == "Gy":
        return not is_zero_run(s)
    if tag == "yG":
        return not is_one_run(s)
    return False


def _validate_letter(letter, tag: str) -> Letter:
    """The letter as a (kind, subscript, exponent) tuple if it is valid
    under tag, else TagViolation or ValueError.  Checked once per letter
    and tag: the memo is typed, so 1, True and 1.0 are distinct keys, and
    an unhashable letter, or a rejected one, is checked afresh."""
    kind, sub, exp = letter
    try:
        return _checked_letter(kind, sub, exp, tag)
    except TypeError:
        return _check_letter(kind, sub, exp, tag)


def _check_letter(kind, sub, exp, tag: str) -> Letter:
    if isinstance(exp, bool) or not isinstance(exp, int) or exp == 0:
        raise TagViolation(f"exponent must be a nonzero integer, got {exp!r}")
    if kind == "p":
        if tag not in ("T", "Shat"):
            raise TagViolation(f"p letters are not allowed under tag {tag}")
        if isinstance(sub, bool) or not isinstance(sub, int) or sub < 0:
            raise TagViolation(f"p index must be a natural number, got {sub!r}")
    elif kind == "x":
        check_word(sub)
    elif kind == "y":
        if tag in ("F", "T"):
            raise TagViolation(f"y letters are not allowed under tag {tag}")
        check_word(sub)
        if not y_subscript_allowed(tag, sub):
            raise TagViolation(f"subscript {word_to_text(sub)!r} violates tag {tag}")
    else:
        raise TagViolation(f"unknown letter kind {kind!r}")
    return (kind, sub, exp)


_checked_letter = lru_cache(maxsize=65536, typed=True)(_check_letter)


@dataclass(frozen=True)
class GroupWord:
    letters: Tuple[Letter, ...]
    tag: str = "Shat"

    def __post_init__(self):
        if self.tag not in TAGS:
            raise TagViolation(f"unknown tag {self.tag!r}")
        object.__setattr__(
            self, "letters", tuple(_validate_letter(l, self.tag) for l in self.letters)
        )

    @classmethod
    def _trusted(cls, letters: Tuple[Letter, ...], tag: str) -> "GroupWord":
        """A word from letters already validated under tag, not checked again."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        object.__setattr__(w, "tag", tag)
        return w

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.tag != other.tag:
            raise TagViolation(f"tag mismatch: {self.tag} vs {other.tag}")
        return GroupWord._trusted(self.letters + other.letters, self.tag)

    def inverse(self) -> "GroupWord":
        return GroupWord._trusted(
            tuple((k, s, -e) for k, s, e in reversed(self.letters)), self.tag
        )

    def __pow__(self, n: int) -> "GroupWord":
        if n == 0:
            return GroupWord._trusted((), self.tag)
        base = self if n > 0 else self.inverse()
        return GroupWord._trusted(base.letters * abs(n), self.tag)

    def retag(self, tag: str) -> "GroupWord":
        return GroupWord(self.letters, tag)

    def unit_letters(self) -> List[Letter]:
        units: List[Letter] = []
        for k, s, e in self.letters:
            sg = 1 if e > 0 else -1
            units.extend([(k, s, sg)] * abs(e))
        return units

    def to_string(self) -> str:
        if not self.letters:
            return "e"
        parts = []
        for k, s, e in self.letters:
            body = f"p{s}" if k == "p" else f"{k}[{word_to_text(s)}]"
            parts.append(body if e == 1 else f"{body}^{e}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_string()


def word(text: str, tag: str = "Shat") -> GroupWord:
    """Parse the word grammar: letters x[w], y[w], p<k> with optional
    ^<int>, w a binary string or "e", whitespace separated."""
    letters: List[Letter] = []
    pat = re.compile(r"^(?:([xy])\[([01]+|e)\]|p(\d+))(?:\^(-?\d+))?$")
    for tok in text.split():
        if tok == "e":
            continue
        m = pat.match(tok)
        if not m:
            raise ValueError(f"cannot parse letter {tok!r}")
        kind, sub, pidx, exp = m.groups()
        e = int(exp) if exp else 1
        if e == 0:
            raise ValueError(f"zero exponent in {tok!r}")
        if pidx is not None:
            letters.append(("p", int(pidx), e))
        else:
            letters.append((kind, text_to_word(sub), e))
    return GroupWord(tuple(letters), tag)


def infer_tag(text: str) -> str:
    """The first tag in TAGS under which every letter of the text is
    valid (used by the CLI); the last, Shat, admits every parsed word."""
    letters = word(text, "Shat").letters
    for tag in TAGS:
        try:
            return GroupWord(letters, tag).tag
        except TagViolation:
            continue


def x_letter(sub: str, exp: int = 1, tag: str = "Shat") -> GroupWord:
    return GroupWord((("x", sub, exp),), tag)


def y_letter(sub: str, exp: int = 1, tag: str = "Shat") -> GroupWord:
    return GroupWord((("y", sub, exp),), tag)


def p_letter(n: int, exp: int = 1, tag: str = "Shat") -> GroupWord:
    return GroupWord((("p", n, exp),), tag)


def identity(tag: str = "Shat") -> GroupWord:
    return GroupWord((), tag)


# --------------------------------------------------------------------------
# Characters


CHARACTERS = ("chi0", "chi1", "psi0", "psi1", "psi", "psihat")

AVAILABLE_CHARACTERS: Dict[str, frozenset] = {
    "F": frozenset({"chi0", "chi1"}),
    "T": frozenset(),
    **{tag: frozenset(basis) for tag, basis in BASES.items()},
    "Shat": frozenset({"psihat"}),
}


def _char_letter(name: str, kind: str, sub) -> int:
    if kind == "x":
        if name == "chi0" and is_zero_run(sub):
            return -1
        if name == "chi1" and is_one_run(sub):
            return 1
        return 0
    if kind == "y":
        if name in ("psi", "psihat"):
            return 1
        if name == "psi0":
            return 1 if is_zero_run(sub) else 0
        if name == "psi1":
            return 1 if is_one_run(sub) else 0
        return 0
    return 0  # p letters vanish under every character


def char_value(name: str, w: GroupWord) -> int:
    """Value of the named character, summed over letters weighted by
    exponent.  Defined only where the character is a nontrivial
    homomorphism of the tagged group."""
    if name not in CHARACTERS:
        raise CharacterUndefined(f"unknown character {name!r}")
    if name not in AVAILABLE_CHARACTERS[w.tag]:
        raise CharacterUndefined(f"character {name} is not defined on tag {w.tag}")
    return sum(e * _char_letter(name, k, s) for k, s, e in w.letters)


def psi_like_value(w: GroupWord) -> int:
    """The exponent sum over y letters (psi on the Lodha-Moore groups,
    psihat on Shat); used as the Morse height."""
    return sum(e for k, _, e in w.letters if k == "y")


# --------------------------------------------------------------------------
# Special forms


@dataclass(frozen=True)
class SpecialForm:
    entries: Tuple[Tuple[str, int], ...]  # (subscript, sign), signs alternating

    def __post_init__(self):
        for s, e in self.entries:
            if isinstance(e, bool) or e not in (1, -1):
                raise ValueError(f"special-form signs are +-1, got {e!r}")
            check_word(s)
        if not is_special_entries(self.entries):
            raise ValueError(
                "a special form is nonempty, with alternating signs and consecutive subscripts"
            )

    def subscripts(self) -> Tuple[str, ...]:
        return tuple(s for s, _ in self.entries)

    def word(self, tag: str = "G") -> GroupWord:
        return GroupWord(tuple(("y", s, e) for s, e in self.entries), tag)

    def inverse_entries(self) -> Tuple[Tuple[str, int], ...]:
        return tuple((s, -e) for s, e in self.entries)

    def to_string(self) -> str:
        return self.word("yGy").to_string()


def special_form(text: str) -> SpecialForm:
    sf = is_special_form(word(text, "yGy"))
    if sf is None:
        raise ValueError(f"{text!r} is not a special form")
    return sf


def is_special_entries(entries: Sequence[Tuple[str, int]]) -> bool:
    """The special-form rule on (subscript, sign) units: nonempty,
    alternating signs, consecutive subscripts."""
    return bool(entries) and all(
        e2 == -e1 and consecutive(s, t) is not None
        for (s, e1), (t, e2) in zip(entries, entries[1:])
    )


def is_special_form(w: GroupWord) -> Optional[SpecialForm]:
    """The validated special form if the word literally matches the
    pattern y_{s1}^{e1}...y_{sk}^{ek} with consecutive subscripts and
    alternating unit signs, else None."""
    if any(k != "y" for k, _, _ in w.letters):
        return None
    units = [(s, sg) for _, s, sg in w.unit_letters()]
    return SpecialForm(tuple(units)) if is_special_entries(units) else None


def independent_forms(forms) -> bool:
    """True iff subscripts across distinct forms are pairwise independent."""
    forms = list(forms)
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            for s in forms[i].subscripts():
                for t in forms[j].subscripts():
                    if not independent(s, t):
                        return False
    return True


# --------------------------------------------------------------------------
# Tree pairs: exact prefix-map arithmetic for T


PrefixMap = Tuple[Tuple[str, str], ...]

IDENTITY_PM: PrefixMap = (("", ""),)


def pm_reduce(m: PrefixMap) -> PrefixMap:
    """The reduced tree pair: sibling leaves u0, u1 mapped onto sibling
    leaves v0, v1 merge into u -> v, from the leaves up toward the root.
    A merge only adds the parent, so only the parent needs a new look;
    the reduced pair is unique, so the order of merges does not matter."""
    d = dict(m)
    todo = list(d)
    while todo:
        a = todo.pop()
        if not a:
            continue
        u = a[:-1]
        b0, b1 = d.get(u + "0"), d.get(u + "1")
        if b0 is not None and b0.endswith("0") and b1 == b0[:-1] + "1":
            del d[u + "0"], d[u + "1"]
            d[u] = b0[:-1]
            todo.append(u)
    return tuple(sorted(d.items()))


def pm_compose(m1: PrefixMap, m2: PrefixMap) -> PrefixMap:
    """Apply m1 then m2, where m2 is a complete prefix code sorted by
    domain: each image b of m1 extends the greatest domain leaf <= b, or
    else is a proper prefix of the contiguous run of leaves after it."""
    doms = [c for c, _ in m2]
    out = []
    for a, b in m1:
        i = bisect_right(doms, b) - 1
        if i >= 0 and b.startswith(doms[i]):
            out.append((a, m2[i][1] + b[len(doms[i]):]))
            continue
        i += 1
        while i < len(m2) and doms[i].startswith(b):
            out.append((a + doms[i][len(b):], m2[i][1]))
            i += 1
    return pm_reduce(tuple(sorted(out)))


def pm_of_word(w: GroupWord) -> PrefixMap:
    pm = IDENTITY_PM
    for kind, sub, sg in w.unit_letters():
        if kind == "y":
            raise TagViolation("tree pairs exist only for x/p words")
        pm = pm_compose(pm, tuple(sorted(letter_code(kind, sub, sg))))
    return pm


def pm_order_preserving(m: PrefixMap) -> bool:
    """True iff the leaf map preserves the linear (lexicographic) order,
    i.e. the element lies in F."""
    imgs = [b for _, b in sorted(m)]
    return imgs == sorted(imgs)


def decide_T_identity(w: GroupWord) -> bool:
    """Exact word problem for T via reduced tree pairs."""
    if any(k == "y" for k, _, _ in w.letters):
        raise TagViolation("decide_T_identity expects an x/p word")
    return pm_of_word(w) == IDENTITY_PM


def _comb_letters(leaves: List[str]) -> List[Letter]:
    """Letters of the x-word that carries the sorted leaves of a complete
    prefix code, in order, onto the right comb 0, 10, ..., 1^(k-2)0,
    1^(k-1) (the right-vine normal form of Cannon-Floyd-Parry): walking
    down the right spine, x_{1^k} rotates the subtree at 1^k right until
    1^k 0 is a leaf.  Every other leaf branches off the spine above 1^k,
    so the rotation fixes it, and only the suffixes after 1^k are kept.
    The rotation rewrites the head of each by the row of x that it
    starts with and copies the rest: every suffix is long enough to
    choose a row, because neither 1^k nor 1^k 0 is a leaf yet."""
    letters: List[Letter] = []
    k = 0
    rest = leaves  # the leaves under 1^k, less that prefix
    while len(rest) > 1:
        if "0" in rest:
            rest = [s[1:] for s in rest if s != "0"]
            k += 1
        else:
            letters.append(("x", "1" * k, 1))
            rest = [next(out + s[len(pat):] for pat, out in X_ROWS[1] if s.startswith(pat))
                    for s in rest]
    return letters


def pm_to_word_T(pm: PrefixMap) -> GroupWord:
    """A T-word realizing a cyclic-order-preserving prefix map: comb the
    domain and range, rotate by the leaf shift with the comb rotation
    p_{k-2}, and validate against the input map."""
    pm = pm_reduce(pm)
    if pm == IDENTITY_PM:
        return identity("T")
    pairs = sorted(pm)
    doms = [d for d, _ in pairs]
    rngs = sorted(r for _, r in pairs)
    k = len(pairs)
    img = dict(pairs)
    r = rngs.index(img[doms[0]])
    for j, d in enumerate(doms):
        if img[d] != rngs[(j + r) % k]:
            raise ValueError("prefix map does not preserve the cyclic order")
    letters = _comb_letters(doms)
    if r:
        letters.append(("p", k - 2, r))
    letters += [(kk, ss, -ee) for kk, ss, ee in reversed(_comb_letters(rngs))]
    out = GroupWord(_merge_letters(letters), "T")
    if pm_of_word(out) != pm:
        raise AssertionError("tree-pair conversion produced a different map")
    return out


# --------------------------------------------------------------------------
# Standard forms and the rewriting engine


@dataclass(frozen=True)
class StandardForm:
    head: GroupWord  # x/p letters only
    tail: Tuple[Tuple[str, int], ...]  # (subscript, exponent), strictly increasing
    tag: str

    def word(self) -> GroupWord:
        tail = GroupWord(tuple(("y", s, e) for s, e in self.tail), self.tag)
        return GroupWord(self.head.letters, self.tag) * tail


def _expand_y(sub: str, sg: int) -> Tuple[List[Tuple[str, int]], Letter]:
    """The three y units and the x unit of y_s = x_s y_{s0} y_{s10}^-1 y_{s11}
    (for sg > 0; the inverse for sg < 0, its x unit on the right)."""
    ys = [(sub + "0", 1), (sub + "10", -1), (sub + "11", 1)]
    if sg > 0:
        return ys, ("x", sub, 1)
    return [(s, -e) for s, e in reversed(ys)], ("x", sub, -1)


def _commutes(s: str, t: str) -> bool:
    return s == t or independent(s, t)


def _ordered_commuting(
    tail: Sequence[Tuple[str, int]], want: Sequence[Tuple[str, int]], anchor: int
) -> Optional[List[int]]:
    """Positions of the first occurrences of the `want` entries, in that
    order, before position `anchor` of a unit tail of (subscript, sign)
    entries; None unless every entry passed over after the first chosen
    one commutes with each chosen entry to its left, so that the chosen
    entries can be brought together in front of the anchor."""
    pos: List[int] = []
    lo = 0
    for pat in want:
        if pat not in tail[lo:anchor]:
            return None
        pos.append(tail.index(pat, lo, anchor))
        lo = pos[-1] + 1
    for p in range(pos[0] + 1, anchor):
        if p not in pos and any(
            pi < p and not _commutes(tail[pi][0], tail[p][0]) for pi in pos
        ):
            return None
    return pos


def _absorb(
    tail: List[Tuple[str, int]], skip, at: int, u: str, e: int
) -> Optional[List[Tuple[str, int]]]:
    """The units before position `at` of a unit tail, less those at `skip`,
    transported as x_u^e at `at` moves left past them (into the rewriter's
    head, or into the F part of a coset key); None where one cannot be."""
    moved = [(partial_action(s, ("x", u, e)), g) for i, (s, g) in enumerate(tail[:at])
             if i not in skip]
    return None if any(s is None for s, _ in moved) else moved


def _find_quad(tail: List[Tuple[str, int]]) -> Optional[Tuple[int, int, int, int, str]]:
    """Locate units y_{u0} y_{u10}^-1 y_{u11} y_u^-1 (in that order,
    possibly separated by units that commute across them) in a unit tail
    of (subscript, sign) entries; their product is x_u^-1."""
    for q, (u, e) in enumerate(tail):
        if e != -1:
            continue
        pos = _ordered_commuting(tail, [(u + "0", 1), (u + "10", -1), (u + "11", 1)], q)
        if pos is not None:
            return (*pos, q, u)
    return None


def rewrite_standard_form(
    w: GroupWord,
    *,
    max_steps: int = 100_000,
    max_subscript: int = 12,
    validate: bool = True,
) -> StandardForm:
    """Convert w into a standard form representing the same element.

    The word is a head of x/p units and a tail of y units (subscript,
    sign), read left to right: a y unit joins the tail, any other unit
    is pushed into the head.  `push(g, r)` moves g left from just before
    the last r tail units, transporting each y_s it meets or, where the
    partial action is undefined, expanding y_s = x_s y_{s0} y_{s10}^-1
    y_{s11} and pushing that x unit first.  One scan then sorts the tail
    by the tree order and steps back one position after a cancellation
    or an independent swap.  An expansion, a quad contraction
    (y_{u0} y_{u10}^-1 y_{u11} y_u^-1 = x_u^-1) or a head absorption
    transports the tail's prefix, so the scan starts over.  Budgets
    guard termination; with validate the result is checked against the
    action oracle at DEFAULT_DEPTH.
    """
    unread = w.unit_letters()[::-1]
    head: List[Letter] = []
    tail: List[Tuple[str, int]] = []
    moving: List[List] = []  # [unit, r] on the way into head, innermost last
    steps = 0

    def budget_exceeded(message):
        letters = list(head)
        done = 0
        for g, r in reversed(moving):
            letters += [("y", s, e) for s, e in tail[done:len(tail) - r]] + [g]
            done = len(tail) - r
        letters += [("y", s, e) for s, e in tail[done:]] + unread[::-1]
        return RewriteBudgetExceeded(GroupWord(_merge_letters(letters), w.tag), message)

    def bump():
        nonlocal steps
        steps += 1
        if steps > max_steps:
            raise budget_exceeded("rewriting step budget exceeded")

    def expand(i):
        # tail[i] becomes its three y units; returns (x unit, units to its right)
        s, e = tail[i]
        if len(s) + 2 > max_subscript:
            raise budget_exceeded("rewriting subscript depth budget exceeded")
        ys, x = _expand_y(s, e)
        tail[i:i + 1] = ys
        return x, len(tail) - i - (0 if e > 0 else 3)

    def push(g, r):
        moving.append([g, r])
        while moving:
            g, r = moving[-1]
            i = len(tail) - r - 1
            if i < 0:
                head.append(moving.pop()[0])
                continue
            bump()
            s, e = tail[i]
            s2 = partial_action(s, g)
            if s2 is None:
                moving.append(list(expand(i)))
            else:
                tail[i] = (s2, e)
                moving[-1][1] = r + 1

    while unread:
        k, s, e = unread.pop()
        if k == "y":
            tail.append((s, e))
        else:
            push((k, s, e), 0)

    j = 0
    while True:
        while j + 1 < len(tail):
            (s, e), (t, f) = tail[j], tail[j + 1]
            if s == t and e + f == 0:
                bump()
                del tail[j:j + 2]
                j = max(j - 1, 0)
            elif s == t or tree_order_less(s, t):
                j += 1
            else:
                bump()
                if independent(s, t):
                    tail[j], tail[j + 1] = tail[j + 1], tail[j]
                    j = max(j - 1, 0)
                else:
                    # t extends s and must come first: deepen y_s
                    push(*expand(j))
                    j = 0
        j = 0
        quad = _find_quad(tail)
        if quad is not None:
            bump()
            p1, p2, p3, q, u = quad
            for idx in (q, p3, p2, p1):
                del tail[idx]
            push(("x", u, -1), len(tail) - q + 3)
            continue
        # head absorption: x_u^-1 y_u = y_{u0} y_{u10}^-1 y_{u11}, after
        # sliding x_u^-1 right through the tail prefix (transport by x_u)
        if head and head[-1][0] == "x" and head[-1][2] == -1 and (head[-1][1], 1) in tail:
            u = head[-1][1]
            k = tail.index((u, 1))
            moved = _absorb(tail, (), k, u, 1)
            if moved is not None:
                bump()
                head.pop()
                tail[:k + 1] = moved + _expand_y(u, 1)[0]
                continue
        break

    merged = _merge_letters([("y", s, e) for s, e in tail])
    for (_, s, _), (_, t, _) in zip(merged, merged[1:]):
        if not tree_order_less(s, t):
            raise AssertionError("standard-form tail is not sorted")
    sf = StandardForm(
        GroupWord(_merge_letters(head), w.tag), tuple((s, e) for _, s, e in merged), w.tag
    )
    if validate:
        witness = action.equal_at_depth(w, sf.word(), DEFAULT_DEPTH)
        if witness is not None:
            raise AssertionError(
                f"rewriting produced an unequal word (witness input {witness!r})"
            )
    return sf


def _merge_letters(units: List[Letter]) -> Tuple[Letter, ...]:
    out: List[Letter] = []
    for k, s, e in units:
        if out and out[-1][0] == k and out[-1][1] == s:
            me = out[-1][2] + e
            if me == 0:
                out.pop()
            else:
                out[-1] = (k, s, me)
        else:
            out.append((k, s, e))
    return tuple(out)


# --------------------------------------------------------------------------
# Word problem, F-membership, cosets


@dataclass(frozen=True)
class Verdict:
    result: str  # "yes" / "no" / "unknown" or "identity" / "not-identity"
    witness: Optional[object] = None


def word_problem(w: GroupWord, depth: int = DEFAULT_DEPTH) -> Verdict:
    """NotIdentity with an action witness within depth; Identity only when
    the unvalidated standard form has an empty tail and a trivial tree
    pair, which the same search vouches for: a head acting as the identity
    forces a prefix of u on any input u, so an input separating w from it
    would separate w from the identity too.  Unknown otherwise."""
    witness = action.equal_at_depth(w, identity(w.tag), depth)
    if witness is not None:
        return Verdict("not-identity", witness)
    try:
        sf = rewrite_standard_form(w, validate=False)
    except RewriteBudgetExceeded as exc:
        return Verdict("unknown", str(exc))
    if not sf.tail and decide_T_identity(sf.head):
        return Verdict("identity")
    return Verdict("unknown", f"agrees with the identity to depth {depth}")


def in_F(w: GroupWord) -> Verdict:
    """Sound tri-state membership in F.

    No: a psi-type character separates w from F (tested first, in
    CHARACTERS order), or w moves an endpoint.
    Yes: empty standard-form tail and an order-preserving tree pair, the
    one verdict that reads the form, so the one that checks it.
    Unknown otherwise (a nonempty tail alone is not proof).
    """
    if w.tag == "F":
        return Verdict("yes")
    for name in CHARACTERS:
        if name in AVAILABLE_CHARACTERS[w.tag] and name not in ("chi0", "chi1"):
            value = char_value(name, w)
            if value != 0:
                return Verdict("no", ("character", name, value))
    try:
        sf = rewrite_standard_form(w, validate=False)
    except RewriteBudgetExceeded as exc:
        return Verdict("unknown", str(exc))
    if not sf.tail:
        pm = pm_of_word(sf.head)
        if pm_order_preserving(pm):
            rewrite_standard_form(w)
            return Verdict("yes")
        # outside F the element moves an endpoint; the move shows up at
        # the depth of the tree pair's leaves
        moved = action.moved_endpoint(w, max(DEFAULT_DEPTH, max(len(a) for a, _ in pm) + 1))
        if moved is None:
            raise AssertionError("tree pair outside F but endpoints undisturbed")
        return Verdict("no", moved)
    moved = action.moved_endpoint(w, DEFAULT_DEPTH)
    if moved is not None:
        return Verdict("no", moved)
    return Verdict("unknown", "nonempty standard-form tail only")


def same_coset(g: GroupWord, g2: GroupWord) -> Verdict:
    """Whether Fg = Fg2, decided as F-membership of g g2^-1."""
    return in_F(g * g2.inverse())


# --------------------------------------------------------------------------
# Canonical coset keys (vertices of the cluster complex)


# the triples of a unit tail that equal x_u^e y_u^sign, keyed by the sign
# of their last unit: its subscript suffix, the two units before it, and e
_TRIPLES = {
    1: ("11", (("0", 1), ("10", -1)), -1),  # y_{u0} y_{u10}^-1 y_{u11} = x_u^-1 y_u
    -1: ("1", (("00", -1), ("01", 1)), 1),  # y_{u00}^-1 y_{u01} y_{u1}^-1 = x_u y_u^-1
}


def _triple_contract(tail: List[Tuple[str, int]]) -> Optional[List[Tuple[str, int]]]:
    """Find a triple of `_TRIPLES` inside a sorted unit tail and absorb
    its x_u^e into the F part on the left; returns the first new unit
    tail that is strictly sorted after free cancellation (so a quad is a
    triple and a cancellation), or None."""
    for p3, (v, sg) in enumerate(tail):
        suffix, before, e = _TRIPLES[sg]
        if not v.endswith(suffix):
            continue
        u = v[:-len(suffix)]
        pos = _ordered_commuting(tail, [(u + t, g) for t, g in before], p3)
        new = None if pos is None else _absorb(tail, pos, p3, u, e)
        if new is None:
            continue
        merged = _merge_letters([("y", s, g) for s, g in new + [(u, sg)] + tail[p3 + 1:]])
        if all(tree_order_less(s, t) for (_, s, _), (_, t, _) in zip(merged, merged[1:])):
            return _unit_entries([(s, g) for _, s, g in merged])
    return None


def _unit_entries(tail: Sequence[Tuple[str, int]]) -> List[Tuple[str, int]]:
    """A tail of (subscript, exponent) entries as (subscript, sign) units."""
    return [(s, 1 if e > 0 else -1) for s, e in tail for _ in range(abs(e))]


def _coset_units(w: GroupWord) -> Tuple[GroupWord, List[Tuple[str, int]]]:
    """The head and the unit tail of w's standard form, a tail the
    rewriter leaves unchanged.  A word of unit y letters whose
    subscripts are pairwise independent is its own tail, sorted by the
    tree order: y_s y_t = y_t y_s for independent s, t is a defining
    relation, and the rewriter on such a word only swaps.  The order is
    post-order, so a prefix-related pair of units (an equal pair
    included) always shows up as an adjacent pair once sorted.  Every
    other word goes to rewrite_standard_form, which checks its result
    against w with the action oracle; the sorted branch applies only the
    defining relation, so it calls no oracle."""
    if all(k == "y" and e in (1, -1) for k, _, e in w.letters):
        tail = sorted(w.letters, key=lambda l: tree_key(l[1]))
        if all(independent(s, t) for (_, s, _), (_, t, _) in zip(tail, tail[1:])):
            return GroupWord._trusted((), w.tag), [(s, e) for _, s, e in tail]
    sf = rewrite_standard_form(w)
    return sf.head, _unit_entries(sf.tail)


@lru_cache(maxsize=65536)
def canonical_coset(g: GroupWord) -> GroupWord:
    """Canonical representative word for the coset Fg: the standard-form
    tail with the F head dropped and every left-absorbable triple
    y_{u0} y_{u10}^-1 y_{u11}, or its mirror y_{u00}^-1 y_{u01} y_{u1}^-1,
    contracted to y_u, or to y_u^-1, where the tail is sorted after free
    cancellation, so the key needs no second rewrite.  Each contraction
    removes at least two units, so the loop ends.

    The tail comes from `_coset_units`, which sorts a product of unit y
    letters with pairwise independent subscripts (the vertex words of a
    cluster over the identity, for one) instead of rewriting it, with no
    oracle check: the sort is a sequence of defining relations.  There
    every contraction qualifies: each unit other than the triple is
    independent of the triple's subscripts, hence of u, so x_u^+-1 fixes
    it and the contracted tail is again sorted and pairwise independent."""
    head, units = _coset_units(g)
    if head.letters and not pm_order_preserving(pm_of_word(head)):
        raise TagViolation("coset representative has a head outside F")
    while (new := _triple_contract(units)) is not None:
        units = new
    key = GroupWord(_merge_letters([("y", s, e) for s, e in units]), g.tag)
    if psi_like_value(key) != psi_like_value(g):
        raise AssertionError("coset key changed the psi height")
    return key
