"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import inf

import oracles
from genutil import clean_params

from lmgroups import action, group, topology, xcomplex
from lmgroups.arrangements import Arrangement, cell_counts, enumerate_cells
from lmgroups.circle import (
    TailPoint,
    in_S,
    phi,
    phi_inverse,
    relator_schemas,
    s_witness,
)
from lmgroups.group import special_form, word
from lmgroups.sigma import (
    classify_normal_subgroup,
    lattice,
    sigma_membership,
    type_Fn,
)
from lmgroups.words import all_words

S = "01"
F = group.identity("G")
FIG1 = [special_form(f"y[{S}0]"), special_form(f"y[{S}10]^-1"), special_form(f"y[{S}11]")]


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_relator_suite():
    t0 = time.time()
    rels = relator_schemas(4, 3)
    assert len(rels) > 1000
    ident = group.identity("Shat")
    for r in rels:
        assert action.equal_at_depth(r, ident, 16) is None
        assert group.char_value("psihat", r) == 0
    elapsed = time.time() - t0
    assert elapsed < 60
    report(1, f"{len(rels)} relator instances verified at depth 16 "
              f"with vanishing abelianization in {elapsed:.1f}s")


def test_criterion_02_two_cluster_counts():
    cx = enumerate_cells(Arrangement(2, frozenset({1})))
    assert cx.counts() == [4, 5, 2]
    report(2, "square-with-diagonal cluster has cell counts (4, 5, 2)")


def test_criterion_03_figures():
    t0 = time.time()
    c1 = xcomplex.build_x_cluster(F, FIG1)
    c2 = xcomplex.build_x_cluster(
        F, [special_form(f"y[{S}0]"), special_form(f"y[{S}10]^-1"), special_form(f"y[{S}111]")]
    )
    c3 = xcomplex.build_x_cluster(
        F, [special_form(f"y[{S}00]"), special_form(f"y[{S}10]^-1"), special_form(f"y[{S}111]")]
    )
    assert sorted(c1.diagonals) == [1, 2]
    assert sorted(c2.diagonals) == [1]
    assert sorted(c3.diagonals) == []
    assert oracles.has_edge_between_coords(c1, (0, 0, 0), (1, 1, 1))
    assert not oracles.has_edge_between_coords(c2, (0, 0, 0), (1, 1, 1))
    assert not oracles.has_edge_between_coords(c3, (0, 0, 0), (1, 1, 1))
    far = word(f"y[{S}0] y[{S}10]^-1 y[{S}11]", "G")
    assert group.same_coset(far, word(f"y[{S}]", "G")).result == "yes"
    assert c1.label_of_coords((1, 1, 1)) == f"y[{S}]"
    elapsed = time.time() - t0
    assert elapsed < 5
    report(3, f"the three reference 3-clusters have diagonal sets "
              f"{{1,2}}/{{1}}/{{}} and the expected coset labels ({elapsed:.2f}s)")


def test_criterion_04_euler_characteristic():
    t0 = time.time()
    checked = 0
    for n in range(1, 6):
        for r in range(n):
            for D in combinations(range(1, n), r):
                cx = enumerate_cells(Arrangement(n, frozenset(D)))
                assert cx.complex.euler_characteristic() == 1
                checked += 1
    # push one dimension further on counts alone
    for r in range(6):
        for D in combinations(range(1, 6), r):
            counts = cell_counts(Arrangement(6, frozenset(D)))
            assert sum((-1) ** d * c for d, c in enumerate(counts)) == 1
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30
    report(4, f"Euler characteristic 1 on all {checked} arrangements "
              f"with n <= 6 ({elapsed:.1f}s)")


def test_criterion_05_cross_check_invariant():
    rng = random.Random(2024)
    built = 0
    t0 = time.time()
    while built < 200:
        params = clean_params(rng, max_forms=3, max_sub=5)
        pc = xcomplex.build_x_cluster(F, params)  # CrossCheckError on a clash
        assert oracles.skeleton_mismatches(pc.params, pc.cluster) == [], params
        built += 1
    report(5, f"arrangement skeleton equals the special-form edge rule on every "
              f"vertex pair of {built} random clusters ({time.time() - t0:.1f}s)")


def test_criterion_06_morse_suite():
    rng = random.Random(77)
    instances = 0
    t0 = time.time()
    while instances < 50:
        pieces = []
        for _ in range(rng.randint(1, 3)):
            params = clean_params(rng, max_forms=rng.randint(1, 2), max_sub=4)
            pieces.append((F, params))
        try:
            cx = xcomplex.assemble(pieces)
        except xcomplex.ClusterError:
            continue  # pieces whose union is not a complex of clusters
        assert xcomplex.verify_morse(cx)
        m, verified = xcomplex.find_cone_vertex(pieces)
        assert verified
        apex = special_form(f"y[{'0' * m}1]")
        big = xcomplex.assemble([(b, list(p) + [apex]) for b, p in pieces])
        assert xcomplex.verify_morse(big)
        link = xcomplex.ascending_link(big, "e")
        hom = topology.reduced_homology(link)
        assert topology.is_trivial_homology(hom)
        instances += 1
    report(6, f"Morse conditions and coned ascending-link acyclicity on "
              f"{instances} random assemblies ({time.time() - t0:.1f}s)")


def test_criterion_07_phi_suite():
    count = 0
    for s in all_words(8):
        assert phi(TailPoint(s + "0", "1")) == phi(TailPoint(s + "1", "0"))
        count += 1
    seen = set()
    for num in range(-50, 51):
        for den in range(1, 51):
            q = Fraction(num, den)
            if q in seen:
                continue
            seen.add(q)
            a, b = phi_inverse(q)
            assert phi(a) == q and phi(b) == q
    values = {}
    for s in all_words(8):
        for tail in "01":
            p = TailPoint(s, tail)
            values.setdefault((p.prefix, p.tail), phi(p))
    by_value = {}
    for key, v in values.items():
        by_value.setdefault(v, []).append(key)
    for v, keys in by_value.items():
        if len(keys) == 1:
            continue
        assert len(keys) == 2
        (p0, t0), (p1, t1) = sorted(keys, key=lambda k: k[1])
        if v is None:
            assert (p0, t0, p1, t1) == ("", "0", "", "1")
        else:
            assert p0[:-1] == p1[:-1] and p0.endswith("1") and p1.endswith("0")
    report(7, f"pairing on {count} prefixes, round trips for {len(seen)} "
              f"rationals, injectivity outside the stated pairs")


def test_criterion_08_s_membership_and_witnesses():
    rng = random.Random(55)
    subs = [s for s in all_words(4)]
    for _ in range(1000):
        letters = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(["x", "y", "y", "p"])
            if kind == "p":
                letters.append(("p", rng.randint(0, 3), rng.choice([1, -1])))
            else:
                letters.append((kind, rng.choice(subs), rng.choice([1, -1, 2])))
        w = group.GroupWord(tuple(letters), "Shat")
        psihat = sum(e for k, _, e in w.letters if k == "y")
        assert in_S(w) == (psihat == 0)
    # witness families, every factorization oracle-validated inside s_witness
    cases = [
        ("y[01] y[10]^-1", "PairConsecutive"),
        ("y[10] y[110]^-1", "PairConsecutive"),
        ("y[0] y[1]^-1", "PairConsecutive"),
        ("y[10] y[1110]^-1", "PairNonConsecutive"),
        ("y[00] y[10]^-1", "PairNonConsecutive"),
        ("y[110] y[1110]^-1 y[11110]^2 y[110]^-1 y[1110]^-1", "Balanced0"),
        ("y[10] y[110]^-1 y[1110] y[11110]^-1", "Balanced0"),
        ("y[01] y[001]^-1 y[010] y[0110]^-1", "Balanced1"),
        ("y[01]^2 y[001]^-2", "Balanced1"),
        ("y[10] y[010]^-1 y[011] y[0110]^-1", "Balanced1"),
    ]
    checked = 0
    for text, family in cases:
        factors = s_witness(word(text, "Shat"), family)
        assert factors and all(in_S(f) for f in factors)
        checked += 1
    report(8, f"in_S matched the abelianization on 1000 random words; "
              f"{checked} witness factorizations validated")


def test_criterion_09_classifier():
    assert classify_normal_subgroup(lattice((1, 0, 0))) == "NotFinitelyGenerated"
    assert classify_normal_subgroup(lattice((1, -1, 0))) == "FinitelyGeneratedNotFinitelyPresented"
    assert classify_normal_subgroup(lattice((1, 1, 0))) == "TypeFInfinity"
    rng = random.Random(9)
    bases = [
        [(1, 0, 0)], [(1, -1, 0)], [(1, 1, 0)], [(0, 0, 1)],
        [(1, 2, 0), (0, 0, 1)], [(2, -4, 2)], [(1, 1, 1), (0, 2, 0)],
    ]
    trials = 0
    for gens in bases:
        base_class = classify_normal_subgroup(lattice(*gens))
        for _ in range(100):
            k = len(gens)
            newgens = [list(g) for g in gens]
            for _ in range(rng.randint(1, 6)):
                i, j = rng.randrange(k), rng.randrange(k)
                if i != j:
                    c = rng.randint(-3, 3)
                    newgens[i] = [a + c * b for a, b in zip(newgens[i], newgens[j])]
                elif rng.random() < 0.3:
                    newgens[i] = [-v for v in newgens[i]]
            assert classify_normal_subgroup(lattice(*newgens)) == base_class
            trials += 1
    samples = bases + [[], [(0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                       [(3, -2, 1), (0, 0, 2)]]
    for _ in range(30):
        samples.append([tuple(rng.randint(-3, 3) for _ in range(3))
                        for _ in range(rng.randint(1, 3))])
    for gens in samples:
        A = lattice(*gens)
        cls = classify_normal_subgroup(A)
        f1, f2, f5 = type_Fn(A, 1), type_Fn(A, 2), type_Fn(A, 5)
        assert (cls == "NotFinitelyGenerated") == (not f1)
        assert (cls == "FinitelyGeneratedNotFinitelyPresented") == (f1 and not f2)
        assert (cls == "TypeFInfinity") == (f1 and f2 and f5)
    report(9, f"the three reference subgroups classify exactly; generator "
              f"invariance over {trials} changes; classifier/type_Fn consistent")


def test_criterion_10_sigma_oracle_table():
    # the removed classes per group, transcribed independently of the
    # implementation: the first invariant deletes the two listed rays,
    # the second deletes their whole nonnegative span
    removed = {
        "G": ((1, 0, 0), (0, 1, 0)),      # chi0, chi1
        "Gy": ((1, 0, 0), (0, -1, 0)),    # chi0, -psi1
        "yG": ((1, 0, 0), (0, 1, 0)),     # psi0, chi1
        "yGy": ((1, 0, 0), (0, -1, 0)),   # psi0, -psi1
    }

    def on_ray(chi, ray):
        # chi is a positive multiple of ray
        cross = [chi[i] * ray[j] - chi[j] * ray[i]
                 for i in range(3) for j in range(i + 1, 3)]
        if any(cross):
            return False
        dot = sum(c * r for c, r in zip(chi, ray))
        return dot > 0

    def in_cone(chi, r1, r2):
        # chi = a r1 + b r2 with a, b >= 0 (r1, r2 independent, third
        # coordinate zero)
        if chi[2] != 0:
            return False
        det = r1[0] * r2[1] - r1[1] * r2[0]
        a = (chi[0] * r2[1] - chi[1] * r2[0]) / det
        b = (r1[0] * chi[1] - r1[1] * chi[0]) / det
        return a >= 0 and b >= 0

    values = [Fraction(v) for v in (-3, -2, -1, 0, 1, 2, 3)]
    values += [Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]
    grid = [(a, b, c) for a in values for b in values for c in values
            if (a, b, c) != (0, 0, 0)]
    assert len(grid) == 10 ** 3 - 1
    for tag, (r1, r2) in removed.items():
        for chi in grid:
            expected_n1 = not (on_ray(chi, r1) or on_ray(chi, r2))
            expected_n2 = not in_cone(chi, r1, r2)
            assert sigma_membership(tag, chi, 1) == expected_n1
            assert sigma_membership(tag, chi, 2) == expected_n2
            assert sigma_membership(tag, chi, 5) == expected_n2
            assert sigma_membership(tag, chi, inf) == expected_n2
            scaled = tuple(Fraction(3, 2) * v for v in chi)
            assert sigma_membership(tag, scaled, 1) == expected_n1
            assert sigma_membership(tag, scaled, 2) == expected_n2
    report(10, f"oracle matches the removed classes and cones on a grid of "
               f"{len(grid)} characters for all four groups")
