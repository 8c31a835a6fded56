"""Finite binary words and the row tables of the generators.

Words are plain Python strings over the alphabet {'0', '1'}; the empty
word is ''.  Textual form uses "e" for the empty word.  The rows of x,
y and p_n are defined here once; the action oracle, the partial actions
and the tree pairs of T are all built from them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, Optional, Tuple


def check_word(s: str) -> str:
    if not isinstance(s, str) or any(c not in "01" for c in s):
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


# Row tables of the generators at the root, per sign.  Each row maps an
# input pattern to its image.  After an x or p row the unread remainder
# is copied; y has the rows of x, and after a y row the remainder is read
# by the y letter of the row's third entry (the middle row flips it).
X_ROWS = {
    1: (("00", "0"), ("01", "10"), ("1", "11")),
    -1: (("0", "00"), ("10", "01"), ("11", "1")),
}
Y_ROWS = {
    sg: tuple((pat, out, sg * flip) for (pat, out), flip in zip(X_ROWS[sg], (1, -1, 1)))
    for sg in (1, -1)
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


@lru_cache(maxsize=4096)
def letter_code(kind: str, sub, sign: int) -> Tuple[Tuple[str, str], ...]:
    """The complete prefix code of a unit x or p letter: (pattern, image)
    rows covering every input.  x_sub is the identity on each leaf that
    branches off the subscript and the x rows behind it; p_n is p_rows."""
    if kind == "p":
        return p_rows(sub, sign)
    if kind != "x":
        raise ValueError(f"no prefix code for letter kind {kind!r}")
    off = tuple((sub[:i] + ("1" if b == "0" else "0"),) * 2 for i, b in enumerate(sub))
    return off + tuple((sub + pat, sub + out) for pat, out in X_ROWS[sign])


def partial_action(s: str, letter) -> Optional[str]:
    """s . g for an x- or p-letter g = (kind, sub, exp); None if undefined.

    A defined value means g maps the cylinder at s rigidly onto the
    cylinder at the result, which is exactly the hypothesis of the
    transport relations y_s x_t = x_t y_{s.x_t} and y_s p_n = p_n y_{s.p_n}.
    """
    kind, sub, exp = letter
    code = letter_code(kind, sub, 1 if exp > 0 else -1)
    for _ in range(abs(exp)):
        row = next((r for r in code if s.startswith(r[0])), None)
        if row is None:
            return None  # s is too short to choose a row
        s = row[1] + s[len(row[0]):]
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
