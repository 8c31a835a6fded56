"""Shared random generators for cluster-complex tests."""

import oracles

from lmgroups import group, xcomplex


def random_special_form(rng, max_sub=5, max_len=3):
    """A random special form with G-legal subscripts of bounded length."""
    for _ in range(500):
        length = rng.randint(1, max_sub - 1)
        s = "".join(rng.choice("01") for _ in range(length))
        if set(s) == {"0"} or set(s) == {"1"}:
            continue
        chain = [s]
        for _ in range(rng.randint(0, max_len - 1)):
            i = chain[-1].rfind("0")
            if i < 0:
                break
            nxt = chain[-1][:i] + "1" + "0" * rng.randint(0, max_sub - i - 1)
            if len(nxt) > max_sub or set(nxt) <= {"1"}:
                break
            chain.append(nxt)
        sign = rng.choice([1, -1])
        entries = tuple((w, sign * (-1) ** i) for i, w in enumerate(chain))
        try:
            return group.SpecialForm(entries)
        except ValueError:
            continue
    raise AssertionError("no special form found")


def random_params(rng, max_forms=3, max_sub=5):
    forms = []
    for _ in range(80):
        if len(forms) == max_forms:
            break
        f = random_special_form(rng, max_sub=max_sub)
        if all(group.independent_forms((g, f)) for g in forms):
            forms.append(f)
    return forms


def clean_params(rng, max_forms=3, max_sub=5):
    """Independent sorted forms whose pairwise differences respect the
    arrangement model (no sign-clashed or non-adjacent special products)."""
    while True:
        forms = xcomplex.sort_params(random_params(rng, max_forms, max_sub))
        if not forms:
            continue
        ok = True
        for i in range(len(forms)):
            for j in range(len(forms)):
                if i == j:
                    continue
                merged = oracles.difference_entries(forms, frozenset({i}), frozenset({j}))
                if group.is_special_entries(merged) and j != i + 1:
                    ok = False
        if ok:
            return list(forms)
