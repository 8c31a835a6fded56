"""Finite binary words and the partial generator actions on them.

Words are plain Python strings over the alphabet {'0', '1'}; the empty
word is ''.  Textual form uses "e" for the empty word.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional, Tuple


def check_word(s: str) -> str:
    if any(c not in "01" for c in s):
        raise ValueError(f"not a binary word: {s!r}")
    return s


def word_to_text(s: str) -> str:
    return s if s else "e"


def text_to_word(text: str) -> str:
    if text == "e":
        return ""
    return check_word(text)


def is_prefix(s: str, t: str) -> bool:
    """True iff s is an initial segment of t (equal words included)."""
    return t.startswith(s)


def independent(s: str, t: str) -> bool:
    """True iff neither word is a prefix of the other."""
    return not t.startswith(s) and not s.startswith(t)


def consecutive(s: str, t: str) -> Optional[Tuple[str, int, int]]:
    """Witness (u, m, n) with s = u 0 1^m and t = u 1 0^n, if one exists.

    u is forced to end at the last '0' of s and the last '1' of t, so
    the witness is unique.
    """
    i = s.rfind("0")
    j = t.rfind("1")
    if i < 0 or j < 0 or i != j or s[:i] != t[:i]:
        return None
    return s[:i], len(s) - i - 1, len(t) - j - 1


_TREE_LETTERS = str.maketrans("01", "ab")


def tree_key(s: str) -> str:
    """Sort key of the tree order: proper extensions come before their
    prefixes (the end marker c sorts after a and b), and words branching
    left at the first disagreement come before words branching right."""
    return s.translate(_TREE_LETTERS) + "c"


def tree_order_less(s: str, t: str) -> bool:
    """Strict total order on distinct words, by tree_key."""
    return tree_key(s) < tree_key(t)


# Pattern rows of the generator x at the root, per sign.  Each row maps
# the input pattern to its image; the unread remainder is copied.
X_ROWS = {
    1: (("00", "0"), ("01", "10"), ("1", "11")),
    -1: (("0", "00"), ("10", "01"), ("11", "1")),
}


def p_rows(n: int, sign: int) -> Tuple[Tuple[str, str], ...]:
    """Pattern rows of the circular generator p_n (a one-click rotation
    of the (n+2)-leaf right comb), per sign."""
    if n < 0:
        raise ValueError("p index must be >= 0")
    if sign > 0:
        rows = [("1" * k + "0", "1" * (k + 1) + "0") for k in range(n)]
        rows.append(("1" * n + "0", "1" * (n + 1)))
        rows.append(("1" * (n + 1), "0"))
    else:
        rows = [("1" * (k + 1) + "0", "1" * k + "0") for k in range(n)]
        rows.append(("1" * (n + 1), "1" * n + "0"))
        rows.append(("0", "1" * (n + 1)))
    return tuple(rows)


def _act_root_x(s: str, sign: int) -> Optional[str]:
    for pat, out in X_ROWS[sign]:
        if s.startswith(pat):
            return out + s[len(pat):]
    return None


def act_once_x(s: str, sub: str, sign: int) -> Optional[str]:
    """s . x_sub^sign, or None when the image cylinder is not forced."""
    if independent(s, sub):
        return s
    if s.startswith(sub):
        rest = _act_root_x(s[len(sub):], sign)
        if rest is None:
            return None
        return sub + rest
    return None  # s is a proper prefix of the subscript


def act_once_p(s: str, n: int, sign: int) -> Optional[str]:
    """s . p_n^sign, or None when s is too short to match a row."""
    for pat, out in p_rows(n, sign):
        if s.startswith(pat):
            return out + s[len(pat):]
    return None


def partial_action(s: str, letter) -> Optional[str]:
    """s . g for an x- or p-letter g = (kind, sub, exp); None if undefined.

    A defined value means g maps the cylinder at s rigidly onto the
    cylinder at the result, which is exactly the hypothesis of the
    transport relations y_s x_t = x_t y_{s.x_t} and y_s p_n = p_n y_{s.p_n}.
    """
    kind, sub, exp = letter
    step = 1 if exp > 0 else -1
    for _ in range(abs(exp)):
        if kind == "x":
            s = act_once_x(s, sub, step)
        elif kind == "p":
            s = act_once_p(s, sub, step)
        else:
            raise ValueError(f"no partial action for letter kind {kind!r}")
        if s is None:
            return None
    return s


def all_words(max_len: int, min_len: int = 0) -> Iterator[str]:
    """All binary words with min_len <= length <= max_len, shortlex order."""
    for n in range(min_len, max_len + 1):
        for bits in product("01", repeat=n):
            yield "".join(bits)


def is_zero_run(s: str) -> bool:
    return s == "0" * len(s)  # includes the empty word


def is_one_run(s: str) -> bool:
    return s == "1" * len(s)
