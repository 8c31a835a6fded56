"""Finite labeled pieces of the cluster complex on the F-cosets.

A piece is a base word g and a list of independent special forms; the
group is the base's tag, under which every form's word is built once.
Its vertices are the cosets of the subset products of those words over
the base, its arrangement marks the diagonal between adjacent
parameters exactly when their ordered product is again a special form,
and the special-form edge rule is checked against the arrangement's
1-skeleton on a table of junctions.  Pieces over one group
glue along shared cosets into larger complexes, carrying the Morse data
(psi height, then the negative lexicographic rank as an injective
tie-break, so every cell has a unique minimal vertex by construction).

Assemblies are memoised: equal pieces in one order, each with its
parameters in any order, return the same complex, so `find_cone_vertex`
and its caller glue each assembly once: the original pieces and the
pieces enlarged by the cone parameter, which is computed, not searched.
An XComplex is therefore immutable, as an XCluster is: fields cannot be
assigned, down to the cell complex, and maps are read-only, its cells
and facets too.  The cell complex of each arrangement is enumerated
once and shared, read-only, by all its clusters, together with one row
per cell, in `cells()` order, of its key, dimension and the row indices
of its vertices and facets, so a piece's cell ids come from its vertex
labels by index and gluing reads facets by index too.  One owner index,
each glued cell's pieces and local keys, gives every pair of pieces its
shared cells, and each piece's share must be a flat restriction, which
`arrangements.is_flat_restriction` decides by counting the cells of the
flat.  The edge rule is checked on one table per cluster, of the
junctions of the last unit of each parameter with the first unit of a
later one.  Adjacency is read from the facet table: an edge's vertices
are its facets, the squares on an edge are its cofacets, and a cell's
least Morse value is the least of its facets'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, compress, product
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from . import group
from .arrangements import Arrangement, ClusterComplex, enumerate_cells, is_flat_restriction
from .group import GroupWord, SpecialForm, TagViolation, canonical_coset, psi_like_value
from .topology import Complex
from .words import consecutive, independent, tree_key

__all__ = [
    "ClusterError",
    "CrossCheckError",
    "AssemblyError",
    "XCluster",
    "XComplex",
    "MorseValue",
    "build_x_cluster",
    "assemble",
    "morse_value",
    "morse_values",
    "verify_morse",
    "ascending_link",
    "find_cone_vertex",
]


class ClusterError(RuntimeError):
    pass


class CrossCheckError(ClusterError):
    pass


class AssemblyError(ClusterError):
    pass


@dataclass(frozen=True)
class MorseValue:
    h: int
    f: int

    def key(self) -> Tuple[int, int]:
        return (self.h, self.f)


@dataclass(frozen=True)
class XCluster:
    base: GroupWord
    params: Tuple[SpecialForm, ...]
    diagonals: FrozenSet[int]
    cluster: ClusterComplex
    labels: Mapping[str, str]  # local vertex cell key -> coset key string
    label_words: Mapping[str, GroupWord]

    def label_of_coords(self, coords: Sequence[int]) -> str:
        return self.labels[self.cluster.vertex_of_coords(coords)]


@dataclass(frozen=True)
class XComplex:
    complex: Complex
    vertex_words: Mapping[str, GroupWord]


def sort_params(params: Sequence[SpecialForm]) -> Tuple[SpecialForm, ...]:
    return tuple(sorted(params, key=lambda f: tree_key(f.entries[0][0])))


def _joins(forms: Sequence[SpecialForm]) -> Dict[tuple, bool]:
    """`joins[(i, a), (j, b)]` for forms i < j and signs a, b = +-1: the
    special-form rule on the last unit of form i, its sign times a, then
    the first unit of form j, its sign times b.  An edge's difference is
    the forms one vertex has and the inverses of those the other has, in
    index order, which is the tree order: the forms are independent and
    sorted by `sort_params`, a form's subscripts increase strictly (u01^m
    before u10^n), and every word strictly between u01^m and u10^n is a
    proper prefix of the first or a proper extension of the second, so
    no subscript of another form lies between a form's first and last
    subscripts.  The rule reads only adjacent units, and each form and
    its inverse pass it, so a difference is special exactly when every
    junction of neighbouring chosen forms passes.  On two units the rule
    asks for consecutive subscripts and opposite signs, so `consecutive`
    is read once per pair and the four sign choices off that one answer.
    Negating both signs keeps the rule, so `(i, -a), (j, -b)` reads as
    `(i, a), (j, b)`, and of the two sign classes of a pair, equal and
    opposite, at most one passes."""
    joins = {}
    for (i, fi), (j, fj) in combinations(enumerate(forms), 2):
        (s, e), (t, f) = fi.entries[-1], fj.entries[0]
        ok = consecutive(s, t) is not None
        for a, b in product((1, -1), repeat=2):
            joins[(i, a), (j, b)] = ok and e * a == -f * b
    return joins


@lru_cache(maxsize=64)
def _arrangement_frame(k: int, diagonals: FrozenSet[int]):
    """The cell complex of the k-cluster with these diagonals, its
    vertices with their coordinates, and one row per cell in `cells()`
    order: its key, its dimension, and the row indices of its vertices
    and of its facets.  The vertices come first in that order, so a
    vertex's row index is its index among the vertices.  All of it is
    shared by every cluster of this shape, so the complex's maps are
    read-only and the rows are tuples."""
    arr = Arrangement(k, diagonals)
    cells = enumerate_cells(arr).complex
    cx = Complex(MappingProxyType(cells.dims), MappingProxyType(dict(cells.facets.items())))
    cluster = ClusterComplex(arr, cx)
    order = cx.cells()
    index = {c: i for i, c in enumerate(order)}
    rows = tuple(
        (c, cx.dims[c], tuple(sorted(index[v] for v in cx.vertices_of(c))),
         tuple(sorted(index[f] for f in cx.facets[c])))
        for c in order
    )
    return cluster, tuple((v, cluster.vertex_coords(v)) for v in cx.cells_of_dim(0)), rows


def build_x_cluster(base: GroupWord, params: Sequence[SpecialForm]) -> XCluster:
    """The labeled k-cluster spanned by independent special-form
    parameters over a base coset, in the base's group: a parameter
    outside it raises TagViolation.  Raises CrossCheckError when the
    special-form edge rule disagrees with the arrangement's 1-skeleton.
    The skeleton joins two corners exactly when they differ, in one
    direction, on an interval of parameters each joined to the next by a
    diagonal; the rule, by `_joins`, when every junction of neighbouring
    differing parameters passes.  So the two agree exactly when no
    junction passes but those of neighbours with equal signs, the
    diagonals; one that does is the mismatch of the two corners that
    differ at its two parameters alone."""
    forms = sort_params(params)
    if not forms:
        raise ClusterError("a cluster needs at least one parameter")
    form_words = [f.word(base.tag) for f in forms]  # validates every subscript once
    if not group.independent_forms(forms):
        raise ClusterError("parameters are not independent")
    k = len(forms)
    joins = _joins(forms)
    diagonals = frozenset(i + 1 for i in range(k - 1) if joins[(i, 1), (i + 1, 1)])
    cluster, vertices, _ = _arrangement_frame(k, diagonals)
    form_letters = [w.letters for w in form_words]
    labels: Dict[str, str] = {}
    label_words: Dict[str, GroupWord] = {}
    for v, coords in vertices:
        # the chosen forms in index order, then the base: the product's letters
        chosen = chain.from_iterable(compress(form_letters, coords))
        key = canonical_coset(GroupWord._trusted((*chosen, *base.letters), base.tag))
        labels[v] = key.to_string()
        label_words[v] = key
    if len(set(labels.values())) != len(labels):
        raise ClusterError("coset collision among cluster vertices")

    clashes = sorted({(i, j, a == b) for ((i, a), (j, b)), ok in joins.items()
                      if ok and (j != i + 1 or a != b)})
    if clashes:
        raise CrossCheckError("edge rule and arrangement skeleton disagree on: " + "; ".join(
            f"({forms[i].to_string()}, {forms[j].to_string()}) with "
            f"{'equal' if same else 'opposite'} signs" for i, j, same in clashes
        ))
    return XCluster(
        base, forms, diagonals, cluster, MappingProxyType(labels), MappingProxyType(label_words)
    )


def _rows(piece: XCluster):
    """The per-shape cell rows of the piece's arrangement frame."""
    return _arrangement_frame(piece.cluster.arrangement.n, piece.diagonals)[2]


def _global_ids(piece: XCluster) -> List[str]:
    """Each cell's id in the complex, in the order of the piece's rows: a
    vertex's coset key, and for a higher cell its dimension and the sorted
    keys of its vertices, read by their row indices."""
    labels = piece.labels
    ids: List[str] = []
    for c, d, verts, _ in _rows(piece):
        ids.append(f"{d}|" + " && ".join(sorted([ids[i] for i in verts])) if d else labels[c])
    return ids


def assemble(pieces: Sequence[Tuple[GroupWord, Sequence[SpecialForm]]]) -> XComplex:
    """Union of labeled clusters with vertices identified by canonical
    coset keys and cells deduplicated by identified vertex sets; every
    pairwise intersection must be a subcluster of both pieces.  The
    bases must share one tag, the group of the complex.  Each glued
    cell takes the dimension and identified facets of a cell of a
    piece, and a cell met again with another dimension or facet set
    raises AssemblyError, so the union is right by construction and
    not checked again.  Memoised on the pieces in order, each as (base,
    sorted parameters): the result is shared, so its fields cannot be
    assigned and its maps, cells and facets included, are read-only; a
    failing assembly raises again."""
    tags = sorted({base.tag for base, _ in pieces})
    if len(tags) > 1:
        raise TagViolation(f"pieces under different tags: {', '.join(tags)}")
    return _assemble(tuple((base, sort_params(params)) for base, params in pieces))


@lru_cache(maxsize=4096)
def _assemble(pieces: Tuple[Tuple[GroupWord, Tuple[SpecialForm, ...]], ...]) -> XComplex:
    built = [build_x_cluster(b, p) for b, p in pieces]

    dims: Dict[str, int] = {}
    facets: Dict[str, FrozenSet[str]] = {}
    words: Dict[str, GroupWord] = {}
    # each glued cell's owners: (piece index, local key), in piece order
    owners: Dict[str, List[Tuple[int, str]]] = {}
    for p, pc in enumerate(built):
        ids = _global_ids(pc)
        for (c, d, _, facet_rows), gid in zip(_rows(pc), ids):
            fs = frozenset([ids[i] for i in facet_rows])
            met = owners.get(gid)
            if met is None:
                owners[gid] = [(p, c)]
                dims[gid] = d
                facets[gid] = fs
                if not d:
                    words[gid] = pc.label_words[c]
            elif dims[gid] != d or facets[gid] != fs:
                raise AssemblyError(
                    f"cell {gid} glued with inconsistent faces: intersection is not a subcluster"
                )
            else:
                met.append((p, c))

    # each pair's shared cells by their local keys in both pieces
    shared: Dict[Tuple[int, int], Tuple[List[str], List[str]]] = {}
    for met in owners.values():
        for (i, a), (j, b) in combinations(met, 2):
            keys = shared.get((i, j))
            if keys is None:
                keys = shared[i, j] = ([], [])
            keys[0].append(a)
            keys[1].append(b)
    for i, j in sorted(shared):
        for k, keys in zip((i, j), shared[i, j]):
            if not is_flat_restriction(built[k].cluster, keys):
                raise AssemblyError(
                    f"intersection of pieces {i} and {j} is not a subcluster of both"
                )

    return XComplex(
        Complex._trusted(MappingProxyType(dims), MappingProxyType(facets)),
        MappingProxyType(words),
    )


# --------------------------------------------------------------------------
# Morse data


def morse_values(cx: XComplex) -> Dict[str, MorseValue]:
    ordered = sorted(cx.vertex_words)
    rank = {k: -(i + 1) for i, k in enumerate(ordered)}
    return {
        k: MorseValue(psi_like_value(w), rank[k]) for k, w in cx.vertex_words.items()
    }


def morse_value(vertex: str, cx: XComplex) -> MorseValue:
    vals = morse_values(cx)
    if vertex not in vals:
        raise ValueError(f"{vertex!r} is not a vertex of the complex")
    return vals[vertex]


def verify_morse(cx: XComplex, values: Optional[Dict[str, MorseValue]] = None) -> bool:
    """Injective f and integer h (so every nonzero h-gap across an edge
    is at least the gap constant 1).  An injective f makes the (h, f)
    keys of a cell's vertices distinct, so every cell has a unique
    minimal vertex with no further check.  `morse_values` meets both by
    construction (its f is a rank), so the check only has content for
    values the caller supplies.  Raises ValueError, naming the least
    one, when a vertex has no value."""
    vals = values if values is not None else morse_values(cx)
    missing = [k for k, d in cx.complex.dims.items() if d == 0 and k not in vals]
    if missing:
        raise ValueError(f"vertex {min(missing)!r} of the complex has no Morse value")
    fs = [v.f for v in vals.values()]
    if len(set(fs)) != len(fs):
        return False
    return all(isinstance(v.h, int) for v in vals.values())


def ascending_link(cx: XComplex, vertex: str) -> Complex:
    """Link of the vertex in its ascending star: one link cell per cell
    whose (h, f)-minimum sits at the vertex (unique, since f is
    injective, so a cell whose minimum has the vertex's value holds the
    vertex).  A cell's minimum is the least of its facets' minima, read
    in `Complex.cells` order, dimension first, so no cell's vertex set
    is built.  A link cell keeps those facets of its cell that lie in
    the star, each one dimension lower, so the link is right by
    construction and not checked again."""
    if cx.complex.dims.get(vertex) != 0:
        raise ValueError(f"{vertex!r} is not a vertex of the complex")
    vals = morse_values(cx)
    low = vals[vertex].key()
    dims, facets = cx.complex.dims, cx.complex.facets
    least: Dict[str, Tuple[int, int]] = {}
    for c in cx.complex.cells():  # dimension first: facets before their cells
        least[c] = min(least[f] for f in facets[c]) if dims[c] else vals[c].key()
    star = [c for c, key in least.items() if dims[c] and key == low]
    star_set = set(star)
    return Complex._trusted(
        {c: dims[c] - 1 for c in star},
        {c: frozenset(f for f in facets[c] if f in star_set) for c in star},
    )


def find_cone_vertex(
    pieces: Sequence[Tuple[GroupWord, Sequence[SpecialForm]]],
) -> Tuple[int, bool]:
    """The cone parameter y_a, a = 0^m 1, that cones off the link of
    the base coset e, and (m, True) once the enlarged pieces are checked.
    m is the least value up to the longest parameter subscript plus 3
    for which a is independent of every parameter subscript and
    consecutive with none, in either order, and y_a times each base
    lies in the coset of y_a: then the apex joins no diagonal, so each
    enlarged cluster is its cluster times an interval.  No fitting m
    raises ClusterError.  The enlarged pieces are glued once, and the
    check asks for the apex edge at e and every original neighbour of e
    on a square with it; a failed gluing or check is a broken invariant
    and raises AssertionError naming m.  The bases must share one tag,
    as in `assemble`, and lie in the trivial coset."""
    if not pieces:
        return (0, True)
    # the cone is on the link of the root vertex, labelled e
    if any(canonical_coset(base).letters for base, _ in pieces):
        raise ClusterError("cone search expects all pieces based at the trivial coset")
    subs = sorted({s for _, params in pieces for f in params for s in f.subscripts()})
    original = assemble(pieces)
    tag = pieces[0][0].tag

    def fits(a: str) -> bool:
        if any(not independent(a, s) or consecutive(a, s) or consecutive(s, a) for s in subs):
            return False
        y_a = GroupWord((("y", a, 1),), tag)
        return all(canonical_coset(y_a * base) == y_a for base, _ in pieces)

    max_m = max((len(s) for s in subs), default=0) + 3
    m = next((m for m in range(1, max_m + 1) if fits("0" * m + "1")), None)
    if m is None:
        raise ClusterError("no verified cone parameter found within the subscript bound")
    apex_form = SpecialForm((("0" * m + "1", 1),))
    try:
        big = assemble([(base, list(params) + [apex_form]) for base, params in pieces])
    except ClusterError as exc:
        msg = f"cone parameter m={m}: the enlarged pieces do not glue: {exc}"
        raise AssertionError(msg) from exc
    # the edges at the root by their other vertex, and the squares on the apex edge
    froot = "e"
    at_root = {w: e for e, vv in big.complex.edges() if froot in vv for w in vv - {froot}}
    e_apex = at_root.get(apex_form.to_string())
    squares = [fs for fs in big.complex.facets.values() if e_apex in fs]
    if e_apex is None or not all(
        w in at_root and any(at_root[w] in fs for fs in squares)
        for w in original.complex.adjacent_vertices(froot)
    ):
        raise AssertionError(f"cone parameter m={m}: the enlarged pieces do not cone off e")
    return (m, True)
