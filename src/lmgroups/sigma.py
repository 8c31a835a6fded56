"""The BNSR membership oracle and the finiteness classifier.

Characters of a Lodha-Moore group live in a rational 3-space with a
basis depending on the group: G uses (chi0, chi1, psi), Gy uses
(chi0, psi1, psi), yG uses (psi0, chi1, psi), yGy uses (psi0, psi1,
psi).  The first invariant removes two character classes; from the
second invariant on, the whole nonnegative cone spanned by those two
classes is removed, and nothing more changes in higher invariants.
`sigma_membership` is the only place that states this, by exact sign
tests.

A normal subgroup N containing the commutator subgroup corresponds to
a subgroup A of Z^3 through the abelianization.  By the Bieri-Renz
criterion N is of type F_n exactly when every nonzero character
vanishing on A lies in the n-th invariant.  A character with a nonzero
psi coordinate lies in every invariant, so only the characters
(x, y, 0) matter, and those vanishing on A are read off the
projections (g0, g1) of A's generators: the whole plane z = 0 when
every projection is zero, only 0 when two projections are independent,
and otherwise the line spanned by (-v, u, 0) for any nonzero projection
(u, v).  `type_Fn` tests that line's two directions with
`sigma_membership`, and the classifier reads its answers at n = 1 and
n = 2.  For the groups other than G the classification covers the
subgroups containing the commutator subgroup only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Tuple

Vector = Tuple[Fraction, Fraction, Fraction]

BASES = {
    "G": ("chi0", "chi1", "psi"),
    "Gy": ("chi0", "psi1", "psi"),
    "yG": ("psi0", "chi1", "psi"),
    "yGy": ("psi0", "psi1", "psi"),
}

# the two character classes missing from the first invariant, as
# directions in the group's own basis: (sign of e1-ray, sign of e2-ray)
EXCLUDED_SIGNS = {
    "G": (1, 1),     # [chi0], [chi1]
    "Gy": (1, -1),   # [chi0], [-psi1]
    "yG": (1, 1),    # [psi0], [chi1]
    "yGy": (1, -1),  # [psi0], [-psi1]
}


def _triple(coords) -> Vector:
    vec = tuple(Fraction(c) for c in coords)
    if len(vec) != 3:
        raise ValueError(f"a character is a triple of rationals, not {len(vec)} of them")
    return vec


def _check(tag: str, n) -> None:
    if tag not in BASES:
        raise ValueError(f"unknown group tag {tag!r}")
    if n != inf and (isinstance(n, bool) or not isinstance(n, int) or n < 1):
        raise ValueError("the invariant index is a positive integer or infinity")


@dataclass(frozen=True)
class CharacterVector:
    tag: str
    coords: Vector

    def __post_init__(self):
        if self.tag not in BASES:
            raise ValueError(f"characters live on the Lodha-Moore tags, not {self.tag!r}")
        object.__setattr__(self, "coords", _triple(self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def sigma_membership(tag: str, chi, n) -> bool:
    """Whether the class of chi lies in the n-th invariant of the tagged
    group: for n = 1 the two excluded classes are removed; for n >= 2
    (or infinity) the closed nonnegative cone they span is removed.  A
    CharacterVector must carry the same tag."""
    _check(tag, n)
    if isinstance(chi, CharacterVector):
        if chi.tag != tag:
            raise ValueError(f"a character of {chi.tag} is not a character of {tag}")
        chi = chi.coords
    a, b, c = _triple(chi)
    if a == b == c == 0:
        raise ValueError("the zero vector has no character class")
    s1, s2 = EXCLUDED_SIGNS[tag]
    if n == 1:
        on_ray1 = b == 0 and c == 0 and s1 * a > 0
        on_ray2 = a == 0 and c == 0 and s2 * b > 0
        return not (on_ray1 or on_ray2)
    in_cone = c == 0 and s1 * a >= 0 and s2 * b >= 0
    return not in_cone


@dataclass(frozen=True)
class LatticeSubgroup:
    generators: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        gens = tuple(tuple(g) for g in self.generators)
        if any(len(g) != 3 for g in gens):
            raise ValueError("generators are integer triples")
        bad = [v for g in gens for v in g if isinstance(v, bool) or not isinstance(v, int)]
        if bad:
            raise ValueError(f"generator entries are ints, not {bad[0]!r}")
        object.__setattr__(self, "generators", gens)


def lattice(*gens) -> LatticeSubgroup:
    return LatticeSubgroup(tuple(tuple(g) for g in gens))


def type_Fn(A: LatticeSubgroup, n, tag: str = "G") -> bool:
    """True iff every nonzero character vanishing on A lies in the n-th
    invariant (Bieri-Renz), checked on the characters (x, y, 0) that
    vanish on A."""
    _check(tag, n)
    proj = [(g[0], g[1]) for g in A.generators if g[0] or g[1]]
    if not proj:
        return False  # the whole plane z = 0 vanishes, excluded rays included
    u, v = proj[0]
    if any(u * y != v * x for x, y in proj[1:]):
        return True  # only 0 vanishes on A
    return sigma_membership(tag, (-v, u, 0), n) and sigma_membership(tag, (v, -u, 0), n)


def classify_normal_subgroup(A: LatticeSubgroup, tag: str = "G") -> str:
    """NotFinitelyGenerated / FinitelyGeneratedNotFinitelyPresented /
    TypeFInfinity for the subgroup over A: not of type F_1, of type F_1
    but not F_2, or of type F_2 and hence of every type F_n."""
    if not type_Fn(A, 1, tag):
        return "NotFinitelyGenerated"
    if not type_Fn(A, 2, tag):
        return "FinitelyGeneratedNotFinitelyPresented"
    return "TypeFInfinity"
