"""Weyl groups as permutation groups on roots.

A group element is its image tuple, never a matrix: images[i] is the
index of the image of root i, composing is indexing (_compose) and the
degree stays <= 240.  The reflection tables, RootSystem.reflection_images,
are sign-equivariant isometries of the roots, as RootSystem._validate
proves, and a product of isometries is one, so composed tuples are never
revalidated.  A frame is the sorted tuple of the canonical root indices
of its lines (make_frame), so frames are hashable and orbit searches key
dictionaries by them directly.

The module also classifies Omega(G), the conjugacy classes of maximal
frames (pairwise-orthogonal root sets generating elementary abelian
2-subgroups of reflections), and builds the dihedral groups that have no
root geometry here.
"""
from __future__ import annotations

from itertools import repeat
from math import factorial
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    CapExceededError,
    NormalizerError,
    UnsupportedSystemError,
)
from ._records import record_eq, record_ne
from .roots import RootSystem, _bfs_orbits, _vec

__all__ = [
    "OmegaClasses",
    "group_order",
    "order_method",
    "weyl_order",
    "make_frame",
    "omega_classes",
    "normalizer_action",
    "standard_frames",
    "root_label",
    "DihedralGroup",
    "build_dihedral",
    "dihedral_omega",
    "g2_split_check",
    "DEFAULT_FRAME_CAP",
    "DEFAULT_ELEMENT_CAP",
]

DEFAULT_FRAME_CAP = 16_777_216
DEFAULT_ELEMENT_CAP = 2_000_000


def _compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The table k -> a[b[k]]: b first, then a."""
    return itemgetter(*b)(a) if len(b) > 1 else tuple(a[k] for k in b)


def weyl_order(sys_: RootSystem) -> int:
    """|W| from the classical product formulas / exceptional constants.

    Used as the validation table for coset-space order identities; tests
    re-derive the small entries by explicit enumeration.
    """
    n = sys_.rank
    label = sys_.type_label
    if label == "A":
        return factorial(n + 1)
    if label == "B":
        return (2**n) * factorial(n)
    if label == "D":
        return (2 ** (n - 1)) * factorial(n)
    if label == "F":
        return 1152
    if label == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[n]
    raise UnsupportedSystemError(label)


def order_method(sys_: RootSystem) -> str:
    """How group_order computes |W(Sigma)|: "coset-product" (E7/E8),
    "bfs" (rank <= 6 and F4) or "formula" (the other ranks)."""
    label, n = sys_.type_label, sys_.rank
    if label == "E" and n in (7, 8):
        return "coset-product"
    if n <= 6 or label == "F":
        return "bfs"
    return "formula"


def group_order(sys_: RootSystem, element_cap: int = DEFAULT_ELEMENT_CAP) -> int:
    """Order of W(Sigma), by the method order_method names.

    "bfs" visits every element of W as the orbit of the simple-root
    tuple (a_1, ..., a_n) under the simple reflections, one BFS layer
    at a time (_layered_order).  An element w is linear and the simple
    roots span, so w is determined by (w a_1, ..., w a_n): the orbit
    map is injective and the orbit has |W| elements.  "coset-product"
    multiplies the coset count |U\\W| by |U| (see weylinv.cosets); that
    BFS only counts the cosets and reads no frame.  "formula" is the
    product formula, which the enumerated ranks validate.
    """
    method = order_method(sys_)
    if method == "coset-product":
        from . import cosets  # local import: cosets depends on this module

        gens = cosets.standard_u_gens(sys_)
        size, _, u_order = cosets._coset_orbit(sys_, gens)
        return size * u_order
    if method == "bfs":
        return _layered_order(sys_, element_cap)
    return weyl_order(sys_)


def _layered_order(sys_: RootSystem, element_cap: int) -> int:
    """The size of the simple-root tuple's orbit under the simple
    reflections, holding two BFS layers of it at a time.

    An element is the bytes of its simple-root images, and a simple
    reflection maps it by one 256-byte bytes.translate table.  Layer k
    is the elements of length k.  The sign character makes the Cayley
    graph of (W, S) bipartite, so a neighbour of layer k lies in layer
    k - 1 or k + 1: the next layer is the current one's images minus
    the previous layer.  Every element is visited once.  Raises
    CapExceededError once the orbit has more than element_cap elements.
    A packed kernel, so not roots._bfs_orbits.
    """
    tables = [
        bytes(sys_.reflection_images(i)).ljust(256, b"\0")
        for i in sys_.simple_indices
    ]
    prev, level = set(), {bytes(sys_.simple_indices)}
    order = 0
    while level:
        order += len(level)
        if order > element_cap:
            raise CapExceededError(
                f"subgroup exceeds element cap {element_cap}", element_cap
            )
        nxt = set()
        for t in tables:
            nxt.update(map(bytes.translate, level, repeat(t)))
        nxt -= prev
        prev, level = level, nxt
    return order


# ---------------------------------------------------------------------------
# frames


def make_frame(
    sys_: RootSystem, roots: Iterable[int], require_maximal: bool = True
) -> tuple[int, ...]:
    """Canonicalize and validate a frame given by arbitrary root indices:
    the sorted sign-canonical representatives of its lines.

    Both checks read only the members' Gram rows: the Gram matrix is
    symmetric, so a line is orthogonal to every member exactly when
    each member's row is 0 at that line.
    """
    canon = sorted({sys_.canonical_rep[i] for i in roots})
    rows = [sys_.gram_row(m) for m in canon]
    for a in range(len(canon)):
        for b in range(a + 1, len(canon)):
            if rows[a][canon[b]] != 0:
                raise ValueError(
                    f"roots {canon[a]} and {canon[b]} are not orthogonal"
                )
    if require_maximal:
        members = set(canon)
        for line in sys_.lines:
            if line not in members and all(row[line] == 0 for row in rows):
                raise ValueError(
                    f"frame not maximal: root {line} is orthogonal to all members"
                )
    return tuple(canon)


# ---------------------------------------------------------------------------
# Omega classification


class OmegaClasses(NamedTuple):
    """Conjugacy classes of maximal frames.

    method is "bfs" (full set-orbit enumeration; orbit_sizes populated and
    summing to the total frame count) or "inductive" (frame cap fallback:
    the standard frames as representatives and orbit_sizes None).
    """

    representatives: tuple[tuple[int, ...], ...]
    orbit_sizes: Optional[tuple[int, ...]]
    method: str

    __eq__, __ne__, __hash__ = record_eq, record_ne, tuple.__hash__


def omega_classes(
    sys_: RootSystem, max_frames: int = DEFAULT_FRAME_CAP
) -> OmegaClasses:
    """Classify maximal frames up to W-conjugacy.

    Primary path: the set-orbits of the standard frames under the simple
    reflections (which generate W).  Reflections are isometries, so every
    orbit member is a maximal frame, and standard_frames meets every
    class (the tests check both against a listing of all maximal frames),
    so the orbits partition the maximal frames.  Orbits come in order of
    their lexicographically least member, which represents each.  If the
    orbits hold more than max_frames frames in all, the result is the
    inductive fallback instead: the standard frames as representatives,
    one per class, with orbit_sizes None.  No supported system has more
    than 2,025 maximal frames (E8), so the search itself needs no cap.
    """
    return sys_.memo(("omega", max_frames), lambda: _omega_classes(sys_, max_frames))


def _omega_classes(sys_: RootSystem, max_frames: int) -> OmegaClasses:
    frames = [make_frame(sys_, roots) for _, roots in standard_frames(sys_)]
    # a frame is the bytes of its sorted root indices, and a simple
    # reflection maps it by one line table, r -> canonical_rep[s(r)]
    # (root indices stay below 256, as in _layered_order); bytes
    # order like the index tuples, so orbits and least members agree
    canonical = sys_.canonical_rep
    lines = [
        bytes(canonical[r] for r in sys_.reflection_images(i)).ljust(256, b"\0")
        for i in sys_.simple_indices
    ]
    orbits = _bfs_orbits(
        map(bytes, frames),
        lambda key: [bytes(sorted(key.translate(t))) for t in lines],
    )
    if sum(map(len, orbits)) > max_frames:
        return OmegaClasses(
            representatives=tuple(frames), orbit_sizes=None, method="inductive"
        )
    classes = sorted((min(orbit), len(orbit)) for orbit in orbits)
    return OmegaClasses(
        representatives=tuple(tuple(rep) for rep, _ in classes),
        orbit_sizes=tuple(size for _, size in classes),
        method="bfs",
    )


# ---------------------------------------------------------------------------
# standard frames and labels


def _find_root(sys_: RootSystem, entries: dict[int, int]) -> int:
    """The index of the root with these nonzero doubled entries."""
    return sys_.index[_vec(len(sys_.roots[0]), entries)]


def standard_frames(sys_: RootSystem) -> list[tuple[str, tuple[int, ...]]]:
    """The canonical frame of each Omega class, in coordinate-pair order.

    Members come in the order (a_1, b_1, ..., a_L, b_L, e_{2L+1}, ...)
    with a_i = e_{2i-1} - e_{2i} and b_i = e_{2i-1} + e_{2i}; downstream
    torsor coordinates attach to these positions.
    """
    label, n = sys_.type_label, sys_.rank

    def a(i: int) -> int:
        return _find_root(sys_, {2 * i - 2: 2, 2 * i - 1: -2})

    def b(i: int) -> int:
        return _find_root(sys_, {2 * i - 2: 2, 2 * i - 1: 2})

    def e(i: int) -> int:
        return _find_root(sys_, {i - 1: 2})

    if label == "A":
        f = (n + 1) // 2
        return [("P", tuple(a(i) for i in range(1, f + 1)))]
    if label == "B":
        m = n // 2
        out = []
        for L in range(m + 1):
            members = []
            for i in range(1, L + 1):
                members += [a(i), b(i)]
            members += [e(i) for i in range(2 * L + 1, n + 1)]
            out.append((f"P_{L}", tuple(members)))
        return out
    if label == "D":
        m = n // 2
        members = []
        for i in range(1, m + 1):
            members += [a(i), b(i)]
        return [("P", tuple(members))]
    if label == "F":
        return [
            ("P_0", (e(1), e(2), e(3), e(4))),
            ("P_1", (a(1), b(1), e(3), e(4))),
            ("P_2", (a(1), b(1), a(2), b(2))),
        ]
    if label == "E":
        pairs = {6: 2, 7: 4, 8: 4}[n]
        members = []
        for i in range(1, pairs + 1):
            if n == 7 and i == 4:
                members.append(a(4))
            else:
                members += [a(i), b(i)]
        return [("P", tuple(members))]
    raise UnsupportedSystemError(label)


def root_label(sys_: RootSystem, root_idx: int) -> str:
    """Human label for a frame member: a3 / b3 / e5, else r<idx>."""
    d = sys_.roots[sys_.canonical_rep[root_idx]]
    support = [i for i, val in enumerate(d) if val]
    if len(support) == 1 and d[support[0]] == 2:
        return f"e{support[0] + 1}"
    if len(support) == 2:
        i, j = support
        if j == i + 1 and i % 2 == 0 and abs(d[i]) == 2 and abs(d[j]) == 2:
            k = i // 2 + 1
            return f"a{k}" if d[i] * d[j] < 0 else f"b{k}"
    return f"r{root_idx}"


# ---------------------------------------------------------------------------
# normalizer actions


def normalizer_action(
    sys_: RootSystem,
    g: Sequence[int],
    frame: Sequence[int],
) -> tuple[int, ...]:
    """Position permutation induced by conjugation on the frame's reflections.

    Signs are discarded (s_alpha = s_{-alpha}): position p maps to the
    position holding the line of g(root_p), where g is an image tuple.
    Raises NormalizerError when g does not map the frame's line set to
    itself.
    """
    roots = tuple(frame)
    canonical = sys_.canonical_rep
    canon_positions = {canonical[r]: p for p, r in enumerate(roots)}
    out = []
    for p, r in enumerate(roots):
        img = canonical[g[r]]
        if img not in canon_positions:
            raise NormalizerError(
                f"element maps frame member {p} outside the frame"
            )
        out.append(canon_positions[img])
    if sorted(out) != list(range(len(roots))):
        raise NormalizerError("induced map is not a permutation of positions")
    return tuple(out)


# ---------------------------------------------------------------------------
# dihedral groups


class DihedralGroup:
    """The dihedral group of order 2n in its natural degree-n representation.

    elements[k] for k < n is the rotation i -> i + k (mod n); element
    n + k is the reflection sigma^k tau where tau(i) = n - 1 - i.
    reflection_ids marks the n reflections.  _index, each element's
    position, is derived from elements and left out of equality.
    """

    __slots__ = ("n", "elements", "reflection_ids", "_index")

    def __init__(
        self,
        n: int,
        elements: tuple[tuple[int, ...], ...],
        reflection_ids: tuple[int, ...],
    ) -> None:
        self.n = n
        self.elements = elements
        self.reflection_ids = reflection_ids
        self._index = {p: i for i, p in enumerate(elements)}

    def __eq__(self, other: object) -> bool:
        if type(other) is not DihedralGroup:
            return NotImplemented
        return (self.n, self.elements, self.reflection_ids) == (
            other.n, other.elements, other.reflection_ids
        )

    def __hash__(self) -> int:
        return hash((self.n, self.elements, self.reflection_ids))

    def __repr__(self) -> str:
        return (
            f"DihedralGroup(n={self.n!r}, elements={self.elements!r}, "
            f"reflection_ids={self.reflection_ids!r})"
        )

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] followed by elements[j]."""
        return self._index[_compose(self.elements[j], self.elements[i])]

    def inverse(self, i: int) -> int:
        """Index of the inverse of elements[i]."""
        # rotation by k undoes rotation by n - k; reflections are involutions
        return i if i >= self.n else -i % self.n


def build_dihedral(n: int) -> DihedralGroup:
    if n < 3:
        raise UnsupportedSystemError("dihedral parameter must be >= 3")
    rotations = [
        tuple((i + k) % n for i in range(n)) for k in range(n)
    ]
    reflections = [
        tuple((n - 1 - i + k) % n for i in range(n)) for k in range(n)
    ]
    elements = tuple(rotations + reflections)
    return DihedralGroup(
        n=n,
        elements=elements,
        reflection_ids=tuple(range(n, 2 * n)),
    )


def dihedral_omega(group: DihedralGroup) -> list[list[tuple[int, ...]]]:
    """Conjugacy classes of maximal commuting reflection sets.

    Returns a list of classes; each class is the list of its frames and
    each frame is a tuple of element indices.  Odd n: singleton frames,
    one class.  n = 2m: frames {f_k, f_{k+m}}; one class when m is odd,
    two (k even / k odd) when 4 | n.
    """
    n = group.n
    refl = list(group.reflection_ids)
    if n % 2 == 1:
        frames = [(r,) for r in refl]
    else:
        m = n // 2
        frames = [(refl[k], refl[k + m]) for k in range(m)]
    # orbit BFS under conjugation by the full group
    mul = group.mul

    def conj_frame(frame: tuple[int, ...], g: int) -> tuple[int, ...]:
        # g^-1 r g as a permutation product (apply g, then r, then g^-1)
        ginv = group.inverse(g)
        return tuple(sorted(mul(mul(g, r), ginv) for r in frame))

    frames = [tuple(sorted(f)) for f in frames]
    orbits = _bfs_orbits(frames, lambda f: [conj_frame(f, g) for g in range(2 * n)])
    return [sorted(orbit) for orbit in orbits]


def g2_split_check(group: DihedralGroup) -> dict[str, bool]:
    """Structural facts used for the order-12 dihedral group (G2's Weyl group).

    Checks by enumeration: there is exactly one subgroup of order 3, it
    is normal, and together with a maximal reflection frame P it gives a
    semidirect decomposition |P| * 3 = 12 with trivial intersection.
    """
    if group.n != 6:
        raise ValueError("split check is specific to the order-12 group")
    elements = group.elements
    order3 = [
        i
        for i, p in enumerate(elements)
        if p != elements[0]
        and _compose(p, _compose(p, p)) == elements[0]
    ]
    # each order-3 subgroup contains two order-3 elements
    unique = len(order3) == 2
    subgroup = {0, *order3}
    normal = True
    for g in range(12):
        for u in subgroup:
            conj = group.mul(group.mul(group.inverse(g), u), g)
            if conj not in subgroup:
                normal = False
    classes = dihedral_omega(group)
    frame = classes[0][0]
    p_elems = {0}
    for r in frame:
        p_elems |= {group.mul(x, r) for x in p_elems}
    splits = (
        len(p_elems) * len(subgroup) == 12 and p_elems & subgroup == {0}
    )
    return {
        "unique_normal_order3": unique and normal,
        "splits_as_p_semidirect_u": splits,
        "one_omega_class": len(classes) == 1,
    }
