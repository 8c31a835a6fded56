"""The BNSR membership oracle and the finiteness classifier.

Characters of a Lodha-Moore group live in a rational 3-space with a
basis depending on the group: G uses (chi0, chi1, psi), Gy uses
(chi0, psi1, psi), yG uses (psi0, chi1, psi), yGy uses (psi0, psi1,
psi).  The first invariant removes two character classes; from the
second invariant on, the whole nonnegative cone spanned by those two
classes is removed, and nothing more changes in higher invariants.
All geometry is exact rational sign arithmetic.

Normal subgroups correspond to subgroups A of Z^3 through the
abelianization; for the groups other than G the classification covers
the subgroups containing the commutator subgroup only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import List, Sequence, Tuple

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


@dataclass(frozen=True)
class CharacterVector:
    tag: str
    coords: Vector

    def __post_init__(self):
        if self.tag not in BASES:
            raise ValueError(f"characters live on the Lodha-Moore tags, not {self.tag!r}")
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def _as_vector(chi) -> Vector:
    if isinstance(chi, CharacterVector):
        return chi.coords
    return tuple(Fraction(c) for c in chi)


def sigma_membership(tag: str, chi, n) -> bool:
    """Whether the class of chi lies in the n-th invariant of the tagged
    group: for n = 1 the two excluded classes are removed; for n >= 2
    (or infinity) the closed nonnegative cone they span is removed."""
    if tag not in BASES:
        raise ValueError(f"unknown group tag {tag!r}")
    a, b, c = _as_vector(chi)
    if a == b == c == 0:
        raise ValueError("the zero vector has no character class")
    if n != inf and (not isinstance(n, int) or n < 1):
        raise ValueError("the invariant index is a positive integer or infinity")
    s1, s2 = EXCLUDED_SIGNS[tag]
    if n == 1:
        on_ray1 = b == 0 and c == 0 and s1 * a > 0
        on_ray2 = a == 0 and c == 0 and s2 * b > 0
        return not (on_ray1 or on_ray2)
    in_cone = c == 0 and s1 * a >= 0 and s2 * b >= 0
    return not in_cone


# --------------------------------------------------------------------------
# Integer lattices


def _row_reduce(rows: List[List[int]]) -> List[List[int]]:
    """Hermite-style integer row reduction; returns nonzero rows."""
    m = [list(r) for r in rows if any(r)]
    out: List[List[int]] = []
    for col in range(3):
        nz = [r for r in m if r[col]]
        if not nz:
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            piv = nz[0]
            for r in nz[1:]:
                q = r[col] // piv[col]
                for j in range(3):
                    r[j] -= q * piv[j]
            nz = [piv] + [r for r in nz[1:] if r[col]]
        piv = nz[0]
        if piv[col] < 0:
            piv[:] = [-v for v in piv]
        out.append(piv)
        m = [r for r in m if r is not piv and any(r)]
    return out


@dataclass(frozen=True)
class LatticeSubgroup:
    generators: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        gens = tuple(tuple(int(v) for v in g) for g in self.generators)
        if any(len(g) != 3 for g in gens):
            raise ValueError("generators are integer triples")
        object.__setattr__(self, "generators", gens)

    def reduced(self) -> List[List[int]]:
        return _row_reduce([list(g) for g in self.generators])

    def rank(self) -> int:
        return len(self.reduced())


def lattice(*gens) -> LatticeSubgroup:
    return LatticeSubgroup(tuple(tuple(g) for g in gens))


def _projection_12(A: LatticeSubgroup) -> List[List[int]]:
    rows = [[g[0], g[1], 0] for g in A.generators]
    return [r for r in _row_reduce(rows)]


def classify_normal_subgroup(A: LatticeSubgroup, tag: str = "G") -> str:
    """NotFinitelyGenerated / FinitelyGeneratedNotFinitelyPresented /
    TypeFInfinity for the subgroup over A, by exact integer reduction.

    For the tags other than G this classifies the subgroups containing
    the commutator subgroup only.
    """
    if tag not in BASES:
        raise ValueError(f"unknown group tag {tag!r}")
    pi1 = any(g[0] for g in A.generators)
    pi2 = any(g[1] for g in A.generators)
    if not pi1 or not pi2:
        return "NotFinitelyGenerated"
    proj = _projection_12(A)
    if len(proj) == 1:
        u, v = proj[0][0], proj[0][1]
        s1, s2 = EXCLUDED_SIGNS[tag]
        # annihilated by a*e1 + b*e2 with a, b > 0 iff the generator's
        # signs are mixed relative to the excluded directions
        if s1 * s2 * u * v < 0:
            return "FinitelyGeneratedNotFinitelyPresented"
    return "TypeFInfinity"


def _annihilator(A: LatticeSubgroup) -> List[Vector]:
    """Basis of the rational annihilator of A's span in character
    coordinates."""
    rows = A.reduced()
    r = len(rows)
    if r == 0:
        return [(Fraction(1), Fraction(0), Fraction(0)),
                (Fraction(0), Fraction(1), Fraction(0)),
                (Fraction(0), Fraction(0), Fraction(1))]
    if r == 3:
        return []
    # solve <x, row> = 0 exactly over the rationals
    mat = [[Fraction(v) for v in row] for row in rows]
    # Gauss-Jordan
    pivots: List[int] = []
    ri = 0
    for col in range(3):
        piv = next((i for i in range(ri, r) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[ri], mat[piv] = mat[piv], mat[ri]
        mat[ri] = [v / mat[ri][col] for v in mat[ri]]
        for i in range(r):
            if i != ri and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[ri])]
        pivots.append(col)
        ri += 1
    basis = []
    free = [c for c in range(3) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * 3
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(tuple(vec))
    return basis


def type_Fn(A: LatticeSubgroup, n, tag: str = "G") -> bool:
    """True iff every nonzero character vanishing on A lies in the n-th
    invariant, decided by finitely many cone cases on the annihilator
    subspace (dimension <= 3 keeps the casework complete)."""
    if n != inf and (not isinstance(n, int) or n < 1):
        raise ValueError("the finiteness index is a positive integer or infinity")
    if tag not in BASES:
        raise ValueError(f"unknown group tag {tag!r}")
    W = _annihilator(A)
    d = len(W)
    if d == 0:
        return True
    s1, s2 = EXCLUDED_SIGNS[tag]
    e1 = (Fraction(s1), Fraction(0), Fraction(0))
    e2 = (Fraction(0), Fraction(s2), Fraction(0))

    def contains(vec: Vector) -> bool:
        return _in_span(W, vec)

    if n == 1:
        return not (contains(e1) or contains(e2))
    # n >= 2: W must avoid the closed cone {a e1 + b e2 : a, b >= 0}\{0}
    if d == 3:
        return False
    if d == 1:
        (x, y, z) = W[0]
        if z != 0:
            return True
        return not (s1 * x >= 0 and s2 * y >= 0) and not (s1 * x <= 0 and s2 * y <= 0)
    # d == 2: intersect W with the plane z = 0
    # W = {u + t v}; find the line in that plane
    u, v = W
    if u[2] == 0 and v[2] == 0:
        return False  # W is the whole excluded plane: contains e1
    if v[2] != 0:
        u, v = v, u  # now u has nonzero last coordinate
    if v[2] != 0:
        # make v's last coordinate vanish
        v = tuple(vv - (v[2] / u[2]) * uu for vv, uu in zip(v, u))
    x, y = v[0], v[1]
    if x == 0 and y == 0:
        return True  # the plane meets z = 0 only at the origin: impossible at d=2
    return not (s1 * x >= 0 and s2 * y >= 0) and not (s1 * x <= 0 and s2 * y <= 0)


def _in_span(basis: Sequence[Vector], vec: Vector) -> bool:
    rows = [list(b) for b in basis]
    mat = [[Fraction(v) for v in row] for row in rows]
    target = [Fraction(v) for v in vec]
    # reduce target against the basis
    ri = 0
    for col in range(3):
        piv = next((i for i in range(ri, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[ri], mat[piv] = mat[piv], mat[ri]
        scale = mat[ri][col]
        mat[ri] = [v / scale for v in mat[ri]]
        for i in range(len(mat)):
            if i != ri and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[ri])]
        if target[col] != 0:
            f = target[col]
            target = [v - f * w for v, w in zip(target, mat[ri])]
        ri += 1
    return all(v == 0 for v in target)
