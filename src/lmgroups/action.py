"""Forced-prefix evaluation of group words on finite binary inputs.

A word acts letter by letter, left to right.  Each unit letter is one
letter machine, an asynchronous transducer built once from the row
tables of `words`: a dict from input pattern to (output, next state),
where the next state is None for the identity, plus the output already
forced by every proper prefix of a pattern.  A subscripted letter is a
chain of one-bit machines copying its subscript (a mismatching bit
leads to None: the input has left the subscript's cylinder) in front of
the root machine of x, y or p_n; the two y root machines continue into
each other.  A chain state is (machine, buffered bits) or None.  Feeding
input bit by bit through the chain gives the output prefix forced by an
input prefix.  A letter whose state has reached None only passes bits
through, so it is dropped from the chain.  Chain states are hashable:
the depth-bounded equality search walks pairs of them breadth-first
and expands each distinct node once, instead of enumerating 2^d
inputs.  A chain state fixes every output that follows it, so a node
whose two chains are equal and whose outputs are all matched has no
witness below it; the search does not expand it, which is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from os.path import commonprefix
from typing import Dict, List, Optional, Tuple

from . import words

State = Optional[Tuple["Machine", str]]

# The depth of the oracle searches that back verdicts and checks.
DEFAULT_DEPTH = 16


@dataclass(frozen=True)
class PrefixResult:
    forced: str
    exhausted: bool


class Machine:
    """rows: pattern -> (output, next state); pending: proper prefix of a
    pattern -> the common prefix of the images of the rows it can reach."""

    __slots__ = ("rows", "pending")

    def define(self, rows: Dict[str, Tuple[str, State]]) -> "Machine":
        self.rows = rows
        self.pending = {
            pat[:k]: commonprefix([o for p, (o, _) in rows.items() if p.startswith(pat[:k])])
            for pat in rows for k in range(len(pat))
        }
        return self


_Y_ROOTS = {1: Machine(), -1: Machine()}
for _sg, _m in _Y_ROOTS.items():
    _m.define({pat: (out, (_Y_ROOTS[nxt], "")) for pat, out, nxt in words.Y_ROWS[_sg]})


@lru_cache(maxsize=4096)
def _machine(kind: str, sub, sign: int) -> Machine:
    """The machine of the unit letter (kind, sub)^sign."""
    if kind == "p":
        return Machine().define({pat: (out, None) for pat, out in words.p_rows(sub, sign)})
    if sub:
        m = _machine(kind, "", sign)
        for b in reversed(sub):
            c = "1" if b == "0" else "0"
            m = Machine().define({b: (b, (m, "")), c: (c, None)})
        return m
    if kind == "y":
        return _Y_ROOTS[sign]
    return Machine().define({pat: (out, None) for pat, out in words.X_ROWS[sign]})


def initial_states(word) -> Tuple[State, ...]:
    """One machine per unit letter, in application order."""
    states: List[State] = []
    for kind, sub, exp in word.letters:
        states += [(_machine(kind, sub, 1 if exp > 0 else -1), "")] * abs(exp)
    return tuple(states)


def _feed(state: State, b: str) -> Tuple[State, str]:
    """Push one input bit into a letter; return (new state, emitted bits)."""
    if state is None:
        return None, b
    m, buf = state
    buf += b
    hit = m.rows.get(buf)
    if hit is None:
        return (m, buf), ""
    out, nxt = hit
    return nxt, out


def _pending(state: State) -> str:
    return state[0].pending[state[1]] if state else ""


def feed_word(states: Tuple[State, ...], bits: str) -> Tuple[Tuple[State, ...], str]:
    """Feed input bits through the whole chain; return final emission.
    Letters that reach None (the identity) only pass bits through, so
    they are dropped from the returned chain."""
    sts = []
    out = bits
    for st in states:
        chunk, out = out, ""
        for b in chunk:
            st, o = _feed(st, b)
            out += o
        if st is not None:
            sts.append(st)
    return tuple(sts), out


def forced_tail(states: Tuple[State, ...]) -> str:
    """Extra output already forced by buffered bits, cascaded to the end
    of the chain.  Probes a copy; the argument states are not advanced."""
    if not any(map(_pending, states)):
        return ""
    sts = list(states)
    n = len(sts)
    tail = ""
    for j in range(n):
        chunk = _pending(sts[j])
        for k in range(j + 1, n):
            nxt = ""
            for b in chunk:
                sts[k], o = _feed(sts[k], b)
                nxt += o
            chunk = nxt
        tail += chunk
    return tail


def act_prefix(word, xi: str) -> PrefixResult:
    """Longest output prefix forced by the input prefix xi."""
    words.check_word(xi)
    states, out = feed_word(initial_states(word), xi)
    forced = out + forced_tail(states)
    exhausted = all(s is None or s[1] == "" for s in states)
    return PrefixResult(forced, exhausted)


def _incompatible(x: str, y: str) -> bool:
    m = min(len(x), len(y))
    return x[:m] != y[:m]


def equal_at_depth(w1, w2, depth: int) -> Optional[str]:
    """Search all inputs of length <= depth for one forcing incompatible
    output prefixes of w1 and w2.

    Returns the shortlex-least such input (a sound witness that the
    words are distinct homeomorphisms), or None if the words agree so
    far.  The search is breadth-first over nodes (chain states of w1,
    chain states of w2, outputs emitted by one word and not yet matched
    by the other), in lexicographic order within a level, and expands
    each node once: a node reached again has already been tested, and so
    has every continuation of it, by a shortlex-smaller input.  A node
    whose two chains are equal and with no unmatched output is not
    expanded: a chain state fixes every output that follows it, so both
    words emit the same bits on every continuation and no witness lies
    below it.  Neither the verdict nor the witness changes.  The search
    stops early when a level adds no new node.
    """
    if depth < 0:
        raise ValueError(f"search depth must be >= 0, got {depth}")
    root = (initial_states(w1), initial_states(w2), "", "")
    if _incompatible(forced_tail(root[0]), forced_tail(root[1])):
        return ""
    if root[0] == root[1]:
        return None
    seen = {root}
    level = [(root, "")]
    for _ in range(depth):
        nxt = []
        for (st1, st2, a, b), path in level:
            for bit in "01":
                s1, o1 = feed_word(st1, bit)
                s2, o2 = feed_word(st2, bit)
                na, nb = a + o1, b + o2
                m = min(len(na), len(nb))
                if na[:m] != nb[:m]:  # only agreeing output may leave the key
                    return path + bit
                na, nb = na[m:], nb[m:]
                if s1 == s2 and not (na or nb):  # no witness below this node
                    continue
                node = (s1, s2, na, nb)
                if node in seen:
                    continue
                if _incompatible(na + forced_tail(s1), nb + forced_tail(s2)):
                    return path + bit
                seen.add(node)
                nxt.append((node, path + bit))
        if not nxt:
            return None
        level = nxt
    return None


def moved_endpoint(word, depth: int) -> Optional[str]:
    """The shortest 0^d or 1^d with d <= depth (0 first at equal d) whose
    forced image leaves the constant sequence, or None.  Each endpoint
    is fed one bit at a time through one chain."""
    if depth < 0:
        raise ValueError(f"search depth must be >= 0, got {depth}")
    moved = None
    for base in "01":
        limit = depth if moved is None else len(moved) - 1  # 0 wins ties
        states, out = initial_states(word), ""
        for d in range(1, limit + 1):
            states, emitted = feed_word(states, base)
            out += emitted
            if set(out + forced_tail(states)) - {base}:
                moved = base * d
                break
    return moved


def fixes_endpoints(word, depth: int = DEFAULT_DEPTH) -> bool:
    """True iff the forced images of 0^depth and 1^depth stay on the
    constant sequences."""
    return moved_endpoint(word, depth) is None
