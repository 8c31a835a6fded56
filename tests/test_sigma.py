import random
from fractions import Fraction
from itertools import product
from math import inf

import pytest

from lmgroups.group import char_value, word
from lmgroups.sigma import (
    BASES,
    CharacterVector,
    classify_normal_subgroup,
    lattice,
    sigma_membership,
    type_Fn,
)

INDICES = (1, 2, 5, inf)


def test_membership_examples():
    assert not sigma_membership("G", (1, 0, 0), 1)
    assert not sigma_membership("G", (7, 0, 0), 1)
    assert sigma_membership("G", (1, 1, 0), 1)
    assert not sigma_membership("G", (1, 1, 0), 2)
    assert sigma_membership("G", (0, 0, 1), inf)
    assert sigma_membership("G", (0, 0, -1), inf)
    assert not sigma_membership("G", (0, 1, 0), 1)
    assert sigma_membership("G", (-1, 0, 0), 1)  # only the positive ray is removed
    with pytest.raises(ValueError):
        sigma_membership("G", (0, 0, 0), 1)


def test_membership_other_groups():
    # Gy removes [chi0] and [-psi1]
    assert not sigma_membership("Gy", (1, 0, 0), 1)
    assert not sigma_membership("Gy", (0, -1, 0), 1)
    assert sigma_membership("Gy", (0, 1, 0), 1)
    assert not sigma_membership("Gy", (1, -1, 0), 2)
    assert sigma_membership("Gy", (1, 1, 0), 2)
    # yG removes [psi0] and [chi1]
    assert not sigma_membership("yG", (1, 0, 0), 1)
    assert not sigma_membership("yG", (0, 1, 0), 1)
    assert not sigma_membership("yG", (2, 3, 0), 2)
    # yGy removes [psi0] and [-psi1]
    assert not sigma_membership("yGy", (1, 0, 0), 1)
    assert not sigma_membership("yGy", (0, -1, 0), 1)
    assert not sigma_membership("yGy", (1, -2, 0), 2)
    assert sigma_membership("yGy", (1, 2, 0), 2)


def test_scale_invariance_and_stabilization():
    rng = random.Random(8)
    grid = [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)]
    for _ in range(300):
        chi = tuple(rng.choice(grid) for _ in range(3))
        if all(c == 0 for c in chi):
            continue
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for tag in BASES:
            for n in (1, 2, 5, inf):
                assert sigma_membership(tag, chi, n) == sigma_membership(
                    tag, tuple(q * c for c in chi), n
                )
            # monotone and stable from 2 on
            m1 = sigma_membership(tag, chi, 1)
            m2 = sigma_membership(tag, chi, 2)
            assert (not m1) <= (not m2)  # membership at 2 implies membership at 1
            for n in (3, 4, 7, inf):
                assert sigma_membership(tag, chi, n) == m2


def test_classifier_examples():
    assert classify_normal_subgroup(lattice((1, 0, 0))) == "NotFinitelyGenerated"
    assert classify_normal_subgroup(lattice((1, -1, 0))) == "FinitelyGeneratedNotFinitelyPresented"
    assert classify_normal_subgroup(lattice((1, 1, 0))) == "TypeFInfinity"
    assert classify_normal_subgroup(lattice()) == "NotFinitelyGenerated"
    assert classify_normal_subgroup(lattice((0, 1, 0), (0, 0, 1))) == "NotFinitelyGenerated"
    assert classify_normal_subgroup(lattice((1, 0, 0), (0, 1, 0), (0, 0, 1))) == "TypeFInfinity"
    assert classify_normal_subgroup(lattice((2, -3, 5))) == "FinitelyGeneratedNotFinitelyPresented"
    assert classify_normal_subgroup(lattice((2, 3, 5))) == "TypeFInfinity"


def random_unimodular(rng):
    # product of elementary integer matrices
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(rng.randint(1, 6)):
        i, j = rng.sample(range(3), 2)
        c = rng.randint(-2, 2)
        for k in range(3):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.3:
            i, j = rng.sample(range(3), 2)
            m[i], m[j] = [-v for v in m[j]], m[i]
    return m


def apply_matrix(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def test_generator_invariance():
    rng = random.Random(21)
    bases = [
        [(1, 0, 0)],
        [(1, -1, 0)],
        [(1, 1, 0)],
        [(1, 0, 0), (0, 1, 1)],
        [(0, 0, 1)],
        [(2, 4, 6), (0, 2, 2)],
    ]
    for gens in bases:
        base_class = classify_normal_subgroup(lattice(*gens))
        for _ in range(100):
            # change generating set: unimodular combinations of the
            # generators themselves (same lattice span)
            k = len(gens)
            newgens = [list(g) for g in gens]
            for _ in range(rng.randint(1, 5)):
                i, j = rng.randrange(k), rng.randrange(k)
                if i != j:
                    c = rng.randint(-2, 2)
                    newgens[i] = [a + c * b for a, b in zip(newgens[i], newgens[j])]
            extra = list(newgens)
            if rng.random() < 0.5 and k >= 1:
                extra.append([a + b for a, b in zip(newgens[0], newgens[-1])] if k > 1 else list(newgens[0]))
            assert classify_normal_subgroup(lattice(*extra)) == base_class


def test_classifier_consistent_with_type_Fn():
    rng = random.Random(34)
    samples = [
        [], [(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)], [(1, -1, 0)], [(1, 1, 0)],
        [(1, 2, 3)], [(1, 0, 0), (0, 1, 0)], [(1, 1, 0), (0, 0, 1)],
        [(1, -1, 0), (0, 0, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(2, -3, 1)], [(5, 7, 0)], [(3, 0, 1), (0, 2, 1)],
    ]
    for _ in range(20):
        samples.append([tuple(rng.randint(-3, 3) for _ in range(3))
                        for _ in range(rng.randint(1, 3))])
    for gens in samples:
        A = lattice(*gens)
        cls = classify_normal_subgroup(A)
        f1, f2, f5 = type_Fn(A, 1), type_Fn(A, 2), type_Fn(A, 5)
        assert (cls == "NotFinitelyGenerated") == (not f1)
        assert (cls == "FinitelyGeneratedNotFinitelyPresented") == (f1 and not f2)
        assert (cls == "TypeFInfinity") == (f1 and f2 and f5)
        assert f2 == f5  # stabilization


def test_type_Fn_examples():
    assert not type_Fn(lattice((1, 0, 0)), 1)
    assert type_Fn(lattice((1, -1, 0)), 1)
    assert not type_Fn(lattice((1, -1, 0)), 2)
    assert type_Fn(lattice((1, 0, 0), (0, 1, 0), (0, 0, 1)), 5)


def test_type_Fn_rejects_unknown_tag():
    # full rank (empty annihilator) and rank one (nonempty annihilator)
    for A in (lattice((1, 0, 0), (0, 1, 0), (0, 0, 1)), lattice((1, 0, 0))):
        with pytest.raises(ValueError, match="unknown group tag"):
            type_Fn(A, 1, tag="Q")


def test_character_vector_validation():
    with pytest.raises(ValueError):
        CharacterVector("Shat", (1, 0, 0))
    v = CharacterVector("G", (Fraction(1, 2), 0, 1))
    assert not v.is_zero()
    for coords in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match="a character is a triple"):
            CharacterVector("G", coords)
        with pytest.raises(ValueError, match="a character is a triple"):
            sigma_membership("G", coords, 1)


def test_membership_rejects_a_mistagged_character():
    chi = CharacterVector("Gy", (0, -1, 0))
    assert not sigma_membership("Gy", chi, 1)
    with pytest.raises(ValueError, match="a character of Gy is not a character of G"):
        sigma_membership("G", chi, 1)


def test_type_Fn_rejects_a_bad_index():
    # a bool is no index, though True == 1
    for n in (0, -1, 1.5, "2", True, False):
        for A in (lattice((1, 0, 0), (0, 1, 0), (0, 0, 1)), lattice((1, 0, 0)), lattice()):
            with pytest.raises(ValueError, match="invariant index"):
                type_Fn(A, n)
        with pytest.raises(ValueError, match="invariant index"):
            sigma_membership("G", (1, 0, 0), n)


def test_lattice_generator_entries_must_be_ints():
    # no entry is coerced to an int, a bool included
    for gen in ((0.5, 0, 0), (True, 0, 2), (1, 0, 2.9), ("1", 0, 0), (Fraction(1), 0, 0)):
        with pytest.raises(ValueError, match="generator entries are ints"):
            lattice(gen)


def seeded_lattices(seed, count):
    """Lattices with 0-4 generators and entries in [-6, 6]; about a third
    have collinear (g0, g1) projections."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(0, 4)
        if rng.random() < 0.35:
            u, v = rng.randint(-3, 3), rng.randint(-3, 3)
            scales = [rng.randint(-2, 2) for _ in range(k)]
            gens = [(c * u, c * v, rng.randint(-6, 6)) for c in scales]
        else:
            gens = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(k)]
        out.append(gens)
    return out


def _vanishing_in_box(gens, m):
    """Every nonzero integer character in [-m, m]^3 vanishing on the
    generators: for each (x, y), a generator (a, b, c) with c != 0 fixes
    z = -(x a + y b) / c, and one with c = 0 holds for every z or for
    none."""
    box = range(-m, m + 1)
    out = []
    for x, y in product(box, repeat=2):
        z = None
        for a, b, c in gens:
            r = x * a + y * b
            if c == 0:
                ok = r == 0
            elif r % c:
                ok = False
            elif z is None:
                z = -r // c
                ok = -m <= z <= m
            else:
                ok = z == -r // c
            if not ok:
                break
        else:
            out += [(x, y, zz) for zz in (box if z is None else (z,)) if x or y or zz]
    return out


def test_vanishing_box_enumeration_is_the_full_scan():
    for gens in seeded_lattices(89, 150):
        m = max([1] + [abs(c) for g in gens for c in g])
        box = range(-m, m + 1)
        scan = [
            (x, y, z) for x, y, z in product(box, repeat=3)
            if (x or y or z) and not any(x * a + y * b + z * c for a, b, c in gens)
        ]
        assert _vanishing_in_box(gens, m) == scan


def _check_against_the_box(lattices):
    """Check type_Fn and the classifier on each lattice against the
    Bieri-Renz criterion on the box [-m, m]^3: with m the largest generator
    entry (at least 1), a character that vanishes on A and lies outside an
    invariant can be chosen in the plane z = 0 with entries at most m (the
    primitive direction of the vanishing line, or e1 when the whole plane
    vanishes), so the box decides type F_n exactly, and the classifier
    reads type F_1 and F_2."""
    outside = {}  # character -> the (tag, n) whose invariant misses it
    for gens in lattices:
        A = lattice(*gens)
        m = max([1] + [abs(c) for g in gens for c in g])
        missed = set()
        for chi in _vanishing_in_box(gens, m):
            if chi not in outside:
                outside[chi] = {
                    (tag, n) for tag in BASES for n in INDICES
                    if not sigma_membership(tag, chi, n)
                }
            missed |= outside[chi]
        for tag in BASES:
            for n in INDICES:
                assert type_Fn(A, n, tag) == ((tag, n) not in missed)
            expected = (
                "NotFinitelyGenerated" if (tag, 1) in missed
                else "FinitelyGeneratedNotFinitelyPresented" if (tag, 2) in missed
                else "TypeFInfinity"
            )
            assert classify_normal_subgroup(A, tag) == expected


def test_type_Fn_is_the_bieri_renz_criterion_on_a_box():
    _check_against_the_box(seeded_lattices(89, 150))


def test_finiteness_matches_former_linear_algebra():
    # The 2000 seed-55 lattices once compared with the former Hermite-form
    # and annihilator computation; the box is now their one reference.
    _check_against_the_box(seeded_lattices(55, 2000))


def test_bases_name_the_available_characters():
    # the three basis characters of each group are defined on it and take
    # linearly independent values on three of its letters
    letters = {
        "G": ("x[0]", "x[1]", "y[01]"),
        "Gy": ("x[0]", "y[1]", "y[01]"),
        "yG": ("y[0]", "x[1]", "y[01]"),
        "yGy": ("y[0]", "y[1]", "y[01]"),
    }
    assert set(BASES) == set(letters)
    for tag, basis in BASES.items():
        (a, b, c), (d, e, f), (g, h, i) = (
            [char_value(name, word(text, tag)) for text in letters[tag]] for name in basis
        )
        assert a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) != 0, tag

