"""Weyl groups as permutation groups on roots.

Group elements are permutations of the root list, never matrices, once
constructed: composing is array indexing and the degree stays <= 240.
The module also classifies Omega(G), the conjugacy classes of maximal
frames (pairwise-orthogonal root sets generating elementary abelian
2-subgroups of reflections), and builds the dihedral groups that have no
root geometry here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import factorial, inf
from typing import Iterable, Optional, Sequence

from .errors import (
    CapExceededError,
    NormalizerError,
    UnsupportedSystemError,
)
from .roots import RootSystem, build_root_system

__all__ = [
    "RootPermutation",
    "GeneratedGroup",
    "OrthogonalFrame",
    "OmegaClasses",
    "perm_of_reflection",
    "compose",
    "enumerate_subgroup",
    "group_order",
    "order_method",
    "weyl_order",
    "maximal_orthogonal_frames",
    "make_frame",
    "omega_classes",
    "classify_frame",
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


@dataclass(frozen=True)
class RootPermutation:
    """A permutation of root indices induced by an orthogonal map.

    Instances produced by perm_of_reflection are fully validated
    (bijection, sign-equivariance, preservation of all pairwise inner
    products).  Compositions of validated permutations keep those
    properties automatically, so compose() does not revalidate.
    """

    images: tuple[int, ...]

    def __call__(self, idx: int) -> int:
        return self.images[idx]

    def after(self, other: "RootPermutation") -> "RootPermutation":
        """self composed after other: (self.after(other))(i) = self(other(i))."""
        im = self.images
        return RootPermutation(tuple(im[j] for j in other.images))

    def inverse(self) -> "RootPermutation":
        return RootPermutation(_inverse_images(self.images))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))


def _inverse_images(images: Sequence[int]) -> tuple[int, ...]:
    """The image sequence of the inverse permutation."""
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return tuple(inv)


def compose(*perms: RootPermutation) -> RootPermutation:
    """Left-to-right product: compose(p, q) applies p first, then q."""
    if not perms:
        raise ValueError("compose needs at least one permutation")
    result = list(range(len(perms[0].images)))
    for p in perms:
        result = [p.images[i] for i in result]
    return RootPermutation(tuple(result))


def validate_root_permutation(sys_: RootSystem, images: Sequence[int]) -> None:
    """Raise ValueError unless images defines a sign-equivariant isometry.

    Inner products are checked only between the simple roots b and all
    roots j: gram[b][j] == gram[pi b][pi j].  That suffices.  Taking j
    simple shows that the images pi b have the simple roots' Gram
    matrix, which is nondegenerate, so they form a basis of the roots'
    span and b -> pi b extends to a linear isometry T of it.  Each pi j
    is then fixed by its inner products with that basis, which equal
    those of T j, so pi j = T j: pi is the restriction of the isometry T
    and preserves every pairwise inner product.  The cost is
    O(rank x roots) instead of O(roots^2).
    """
    n = len(sys_.roots)
    if len(images) != n or sorted(images) != list(range(n)):
        raise ValueError("images is not a bijection of root indices")
    neg = sys_.negation
    for i in range(n):
        if images[neg[i]] != neg[images[i]]:
            raise ValueError(f"not sign-equivariant at root {i}")
    for b in sys_.simple_indices:
        gb, gpb = sys_.gram_row(b), sys_.gram_row(images[b])
        for j in range(n):
            if gb[j] != gpb[images[j]]:
                raise ValueError(
                    f"inner product not preserved on roots ({b}, {j})"
                )


def perm_of_reflection(sys_: RootSystem, root_idx: int) -> RootPermutation:
    """The validated root permutation induced by the reflection s_alpha."""

    def build():
        images = sys_.reflection_images(root_idx)
        validate_root_permutation(sys_, images)
        return RootPermutation(images)

    return sys_.memo(("reflection", root_idx), build)


@dataclass(frozen=True)
class GeneratedGroup:
    """A subgroup given by generators, enumerated by enumerate_subgroup.

    elements[k] is the k-th element found, as the bytes of its image
    sequence (elements[k][r] is the image of point r), identity first;
    with points, the bytes of the images of those points only.
    """

    generators: tuple[RootPermutation, ...]
    elements: Optional[tuple[bytes, ...]] = field(default=None, repr=False)
    order: Optional[int] = None


def enumerate_subgroup(
    gens: Sequence[RootPermutation],
    element_cap: int = DEFAULT_ELEMENT_CAP,
    points: Optional[Sequence[int]] = None,
) -> GeneratedGroup:
    """Breadth-first closure of the generated subgroup.

    The package's one permutation BFS.  Each generator becomes a
    256-byte bytes.translate table and each element the bytes of its
    images, so a product is one translate call; the degree is therefore
    at most 256.  Deterministic: elements appear in discovery order
    (identity first, frontier processed FIFO, generators applied in the
    given order).  Raises CapExceededError beyond element_cap, which
    signals that an index-based order computation should be used
    instead.

    With points given, an element is recorded by the images of points
    only (elements[k][i] is the image of points[i]): the BFS enumerates
    the orbit of that tuple, of the group's order exactly when those
    images determine the element.
    """
    if not gens:
        raise ValueError("need at least one generator")
    if element_cap <= 0:
        raise ValueError("element_cap must be positive")
    degree = len(gens[0].images)
    if any(len(g.images) != degree for g in gens):
        raise ValueError("generator degrees differ")
    if degree > 256:
        raise ValueError(f"degree {degree} exceeds 256, the bytes-image limit")
    tables = [bytes(g.images).ljust(256, b"\0") for g in gens]
    if points is not None and not all(0 <= i < degree for i in points):
        raise ValueError(f"points must be indices below the degree {degree}")
    identity = bytes(range(degree) if points is None else points)
    seen = {identity}
    ordered = [identity]
    # ordered is also the FIFO queue: the loop reaches appended elements
    for p in ordered:
        for t in tables:
            # q = p followed by the generator: q[r] = t[p[r]]
            q = p.translate(t)
            if q not in seen:
                if len(seen) >= element_cap:
                    raise CapExceededError(
                        f"subgroup exceeds element cap {element_cap}",
                        element_cap,
                    )
                seen.add(q)
                ordered.append(q)
    return GeneratedGroup(
        generators=tuple(gens),
        elements=tuple(ordered),
        order=len(ordered),
    )


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
    tuple (a_1, ..., a_n) under the simple reflections.  An element w
    is linear and the simple roots span, so w is determined by
    (w a_1, ..., w a_n): the orbit map is injective and the orbit has
    |W| elements.  "coset-product" multiplies the coset count |U\\W| by
    |U| (see weylinv.cosets); the tables of the coset space are not
    built.  "formula" is the product formula, which the enumerated
    ranks validate.
    """
    method = order_method(sys_)
    if method == "coset-product":
        from . import cosets  # local import: cosets depends on this module

        vectors, _, u_order = cosets._coset_orbit(sys_, cosets.standard_u_gens(sys_))
        return len(vectors) * u_order
    if method == "bfs":
        gens = [perm_of_reflection(sys_, i) for i in sys_.simple_indices]
        orbit = enumerate_subgroup(gens, element_cap, points=sys_.simple_indices)
        return orbit.order  # type: ignore[return-value]
    return weyl_order(sys_)


# ---------------------------------------------------------------------------
# frames


@dataclass(frozen=True)
class OrthogonalFrame:
    """A maximal set of pairwise-orthogonal root lines.

    root_indices holds the sign-canonical representative of each line,
    sorted ascending, so frames are hashable and orbit BFS can use them
    as dictionary keys directly.
    """

    root_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.root_indices)


def make_frame(
    sys_: RootSystem, roots: Iterable[int], require_maximal: bool = True
) -> OrthogonalFrame:
    """Canonicalize and validate a frame given by arbitrary root indices."""
    canon = sorted({sys_.canonical_rep[i] for i in roots})
    for a in range(len(canon)):
        for b in range(a + 1, len(canon)):
            if sys_.gram_row(canon[a])[canon[b]] != 0:
                raise ValueError(
                    f"roots {canon[a]} and {canon[b]} are not orthogonal"
                )
    if require_maximal:
        members = set(canon)
        for line in sys_.lines:
            if line in members:
                continue
            row = sys_.gram_row(line)
            if all(row[m] == 0 for m in canon):
                raise ValueError(
                    f"frame not maximal: root {line} is orthogonal to all members"
                )
    return OrthogonalFrame(tuple(canon))


def maximal_orthogonal_frames(
    sys_: RootSystem, cap: Optional[int] = None
) -> list[OrthogonalFrame]:
    """All maximal cliques of the orthogonality graph on root lines.

    Output sorted by the root-index tuple, so the listing is
    deterministic.  With cap set, raises CapExceededError as soon as
    the search finds a (cap + 1)-th frame.
    """
    lines = sys_.lines
    nlines = len(lines)
    adj = []
    for a in range(nlines):
        mask = 0
        ga = sys_.gram_row(lines[a])
        for b in range(nlines):
            if b != a and ga[lines[b]] == 0:
                mask |= 1 << b
        adj.append(mask)
    frames = []
    for mask in _maximal_cliques(adj, cap):
        members = []
        while mask:
            low = mask & -mask
            members.append(lines[low.bit_length() - 1])
            mask ^= low
        frames.append(OrthogonalFrame(tuple(members)))
    frames.sort(key=lambda f: f.root_indices)
    return frames


def _maximal_cliques(adj: Sequence[int], cap: Optional[int] = None) -> list[int]:
    """Maximal cliques of the graph with neighbour bitmasks adj, as
    bitmasks, by Bron-Kerbosch with Tomita's pivot.

    The pivot is a vertex of P | X with the most neighbours in P; no
    vertex of P has more than |P| - 1 (adj has no loops), so the scan
    stops at the first that has.  A vertex of X with all of P as
    neighbours extends every clique below, so none of them is maximal
    and the call returns at once.  Raises CapExceededError on finding
    a (cap + 1)-th clique.
    """
    cliques: list[int] = []
    limit = inf if cap is None else cap

    def bk(r: int, p: int, x: int) -> None:
        if not p:
            if not x:
                cliques.append(r)
                if len(cliques) > limit:
                    raise CapExceededError(f"more than {cap} maximal cliques", cap)
            return
        need = p.bit_count() - 1
        best, pivot = -1, 0
        scan = p | x
        while scan:
            low = scan & -scan
            scan ^= low
            nb = adj[low.bit_length() - 1]
            count = (p & nb).bit_count()
            if count > best:
                best, pivot = count, nb
                if count >= need:
                    if count > need:
                        return
                    break
        candidates = p & ~pivot
        while candidates:
            low = candidates & -candidates
            nb = adj[low.bit_length() - 1]
            bk(r | low, p & nb, x & nb)
            candidates ^= low
            p ^= low
            x |= low

    bk(0, (1 << len(adj)) - 1, 0)
    return cliques


# ---------------------------------------------------------------------------
# Omega classification


@dataclass(frozen=True)
class OmegaClasses:
    """Conjugacy classes of maximal frames.

    method is "bfs" (full set-orbit enumeration; orbit_sizes populated and
    summing to the total frame count) or "inductive" (cap fallback:
    representatives classified by invariants without enumeration, so
    orbit_sizes is None).
    """

    representatives: tuple[OrthogonalFrame, ...]
    orbit_sizes: Optional[tuple[int, ...]]
    method: str
    class_of: Optional[dict[tuple[int, ...], int]] = field(
        default=None, repr=False, compare=False
    )


def _frame_image(
    key: tuple[int, ...], images: tuple[int, ...], canonical: tuple[int, ...]
) -> tuple[int, ...]:
    return tuple(sorted(canonical[images[i]] for i in key))


def omega_classes(
    sys_: RootSystem, max_frames: int = DEFAULT_FRAME_CAP
) -> OmegaClasses:
    """Classify maximal frames up to W-conjugacy.

    Primary path: enumerate every maximal frame, then BFS set-orbits
    under the simple reflections (which generate W).  Frames map to
    frames because reflections are isometries, so the orbits partition
    the full frame list; representatives are the lexicographically least
    member of each orbit.  If there are more than max_frames frames, the
    clique search stops at the (max_frames + 1)-th and the inductive
    fallback classifies by invariants instead (see _omega_inductive).
    """
    return sys_.memo(("omega", max_frames), lambda: _omega_classes(sys_, max_frames))


def _omega_classes(sys_: RootSystem, max_frames: int) -> OmegaClasses:
    try:
        frames = maximal_orthogonal_frames(sys_, max_frames)
    except CapExceededError:
        return _omega_inductive(sys_)
    all_keys = {f.root_indices for f in frames}
    gens = [sys_.reflection_images(i) for i in sys_.simple_indices]
    canonical = sys_.canonical_rep
    class_of: dict[tuple[int, ...], int] = {}
    reps: list[tuple[int, ...]] = []
    sizes: list[int] = []
    for f in frames:
        start = f.root_indices
        if start in class_of:
            continue
        cls = len(reps)
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for key in frontier:
                for g in gens:
                    img = _frame_image(key, g, canonical)
                    if img not in orbit:
                        if img not in all_keys:
                            raise AssertionError(
                                "orbit left the maximal-frame set; clique "
                                "enumeration is incomplete"
                            )
                        orbit.add(img)
                        nxt.append(img)
            frontier = nxt
        for key in orbit:
            class_of[key] = cls
        reps.append(min(orbit))
        sizes.append(len(orbit))
    if sum(sizes) != len(frames):
        raise AssertionError("orbit sizes do not sum to the frame count")
    return OmegaClasses(
        representatives=tuple(OrthogonalFrame(r) for r in reps),
        orbit_sizes=tuple(sizes),
        method="bfs",
        class_of=class_of,
    )


def _omega_inductive(sys_: RootSystem) -> OmegaClasses:
    """Cap fallback: classify by complete invariants instead of enumerating.

    For B/F frames the number of norm-2 root pairs (a_i, b_i sharing a
    coordinate pair) is a complete conjugacy invariant; A/D/E types have
    a single class.  Representatives are the standard frames.
    """
    reps = tuple(
        make_frame(sys_, roots) for _, roots in standard_frames(sys_)
    )
    return OmegaClasses(
        representatives=reps, orbit_sizes=None, method="inductive", class_of=None
    )


def classify_frame(
    sys_: RootSystem, omega: OmegaClasses, frame: OrthogonalFrame | Sequence[int]
) -> int:
    """Index of the Omega class containing the given frame."""
    roots = frame.root_indices if isinstance(frame, OrthogonalFrame) else frame
    key = make_frame(sys_, roots).root_indices
    if omega.class_of is not None:
        try:
            return omega.class_of[key]
        except KeyError:
            raise ValueError("not a maximal frame of this system") from None
    # inductive fallback: match by the long-pair-count invariant
    for i, rep in enumerate(omega.representatives):
        if len(rep.root_indices) == len(key) and _pair_count(
            sys_, rep.root_indices
        ) == _pair_count(sys_, key):
            return i
    raise ValueError("no class matches the frame invariants")


def _pair_count(sys_: RootSystem, roots: tuple[int, ...]) -> int:
    """Number of (e_i - e_j, e_i + e_j) coordinate pairs inside the frame."""
    supports = []
    for idx in roots:
        d = sys_.roots[idx].doubled
        supports.append(frozenset(i for i, v in enumerate(d) if v))
    from collections import Counter

    counts = Counter(supports)
    return sum(1 for s, c in counts.items() if len(s) == 2 and c == 2)


# ---------------------------------------------------------------------------
# standard frames and labels


def _find_root(sys_: RootSystem, entries: dict[int, int]) -> int:
    ambient = len(sys_.roots[0].doubled)
    doubled = [0] * ambient
    for pos, val in entries.items():
        doubled[pos] = val
    return sys_.index[tuple(doubled)]


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
    d = sys_.roots[sys_.canonical_rep[root_idx]].doubled
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
    g: RootPermutation,
    frame: OrthogonalFrame | Sequence[int],
) -> tuple[int, ...]:
    """Position permutation induced by conjugation on the frame's reflections.

    Signs are discarded (s_alpha = s_{-alpha}): position p maps to the
    position holding the line of g(root_p).  Raises NormalizerError when
    g does not map the frame's line set to itself.
    """
    roots = tuple(
        frame.root_indices if isinstance(frame, OrthogonalFrame) else frame
    )
    canonical = sys_.canonical_rep
    canon_positions = {canonical[r]: p for p, r in enumerate(roots)}
    out = []
    for p, r in enumerate(roots):
        img = canonical[g.images[r]]
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


@dataclass(frozen=True)
class DihedralGroup:
    """The dihedral group of order 2n in its natural degree-n representation.

    elements[k] for k < n is the rotation i -> i + k (mod n); element
    n + k is the reflection sigma^k tau where tau(i) = n - 1 - i.
    reflection_ids marks the n reflections.
    """

    n: int
    elements: tuple[tuple[int, ...], ...]
    reflection_ids: tuple[int, ...]

    @property
    def order(self) -> int:
        return 2 * self.n

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {p: i for i, p in enumerate(self.elements)}

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] followed by elements[j]."""
        pi, pj = self.elements[i], self.elements[j]
        return self._index[tuple(pj[x] for x in pi)]

    def inverse(self, i: int) -> int:
        """Index of the inverse of elements[i]."""
        return self._index[_inverse_images(self.elements[i])]


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
    unseen = set(frames)
    classes: list[list[tuple[int, ...]]] = []
    for f in frames:
        if f not in unseen:
            continue
        orbit = {f}
        frontier = [f]
        while frontier:
            nxt = []
            for cur in frontier:
                for g in range(2 * n):
                    img = conj_frame(cur, g)
                    if img not in orbit:
                        orbit.add(img)
                        nxt.append(img)
            frontier = nxt
        unseen -= orbit
        classes.append(sorted(orbit))
    return classes


def g2_split_check(group: DihedralGroup) -> dict[str, bool]:
    """Structural facts used for the order-12 dihedral group (G2's Weyl group).

    Checks by enumeration: there is exactly one subgroup of order 3, it
    is normal, and together with a maximal reflection frame P it gives a
    semidirect decomposition |P| * 3 = 12 with trivial intersection.
    """
    if group.n != 6:
        raise ValueError("split check is specific to the order-12 group")
    elements = group.elements
    n = group.n
    order3 = [
        i
        for i, p in enumerate(elements)
        if p != elements[0]
        and tuple(p[p[p[x]]] for x in range(n)) == elements[0]
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
