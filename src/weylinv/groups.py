"""Weyl groups as permutation groups on roots.

A group element is its image tuple, never a matrix: images[i] is the
index of the image of root i, composing is indexing (_compose) and the
degree stays <= 240.  The reflection tables, RootSystem.reflection_images,
are sign-equivariant isometries of the roots, as RootSystem._validate
proves, and a product of isometries is one, so composed tuples are never
revalidated.  A frame is the sorted tuple of the canonical root indices
of its lines, so frames are hashable; omega_classes walks each as the
bytes of its line positions (RootSystem.line_of).

group_order never lists the elements of W: its "bfs" route is the
orbit-stabiliser chain of root orbits (_reflection_group_order).

The module also classifies Omega(G), the conjugacy classes of maximal
frames (pairwise-orthogonal root sets generating elementary abelian
2-subgroups of reflections), as sorted (representative, orbit size)
pairs, and builds the dihedral groups that have no root geometry here,
each as the tuple of its elements' image tuples.  resolve sends a
system as typed to the name every command prints and to its root
system or dihedral n.
"""
from __future__ import annotations

from math import factorial
from operator import itemgetter, mul
from typing import Sequence, Union

from .errors import (
    CapExceededError,
    NormalizerError,
    UnsupportedSystemError,
)
from .roots import RootSystem, _bfs_orbits, _vec, build_root_system

__all__ = [
    "group_order",
    "order_method",
    "weyl_order",
    "omega_classes",
    "normalizer_action",
    "standard_frames",
    "root_label",
    "system_name",
    "resolve",
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


def _reflection_group_order(sys_: RootSystem, roots: Sequence[int]) -> int:
    """|W(Sigma)| for a reflection-closed set of roots, without
    enumerating the group.

    Orbit-stabiliser on a root r gives |W| = |W r| x |Stab(r)|, and by
    Steinberg's theorem Stab(r) is generated by the reflections fixing
    r, i.e. it is the reflection group of the roots of Sigma orthogonal
    to r, again reflection-closed.  Repeat until no roots are left; for
    the S8 inside E8 the chain is 56 x 30 x 12 x 2.  W r is the set of
    roots of r's length in r's irreducible component (Humphreys,
    Introduction to Lie Algebras, 10.4 Lemma C), and that component is
    r's class under the chains of non-orthogonal roots, so only the
    inner products within Sigma are read.
    """
    order = 1
    left = [sys_.roots[r] for r in roots]
    while left:
        first, rest = left[0], set(left[1:])

        def near(v: tuple[int, ...]) -> list[tuple[int, ...]]:
            found = [w for w in rest if sum(map(mul, v, w))]
            rest.difference_update(found)
            return found

        length = sum(map(mul, first, first))
        component = _bfs_orbits([first], near)[0]
        order *= sum(1 for v in component if sum(map(mul, v, v)) == length)
        left = [v for v in left if not sum(map(mul, v, first))]
    return order


def order_method(sys_: RootSystem) -> str:
    """How group_order computes |W(Sigma)|: "coset-product" (E7/E8),
    "bfs" (rank <= 6 and F4: the root-orbit chain, whose orbits are
    breadth-first searches) or "formula" (the other ranks)."""
    label, n = sys_.type_label, sys_.rank
    if label == "E" and n in (7, 8):
        return "coset-product"
    if n <= 6 or label == "F":
        return "bfs"
    return "formula"


def group_order(sys_: RootSystem, element_cap: int = DEFAULT_ELEMENT_CAP) -> int:
    """Order of W(Sigma), by the method order_method names.

    "bfs" is the root-orbit chain over all of Phi
    (_reflection_group_order), whose root orbits are breadth-first
    searches (roots._bfs_orbits); it lists no element of W, reads no
    formula and so has no element cap.  "coset-product" multiplies the
    coset count |U\\W| by |U| (see weylinv.cosets); that walk only counts
    the cosets, reads no frame and is refused before it starts when
    there are more than element_cap cosets (CapExceededError).
    "formula" is the product formula, which the other two methods
    validate.
    """
    method = order_method(sys_)
    if method == "coset-product":
        from . import cosets  # local import: cosets depends on this module

        gens = cosets.standard_u_gens(sys_)
        size, _, u_order = cosets._coset_orbit(sys_, gens, element_cap=element_cap)
        return size * u_order
    if method == "bfs":
        return _reflection_group_order(sys_, range(len(sys_.roots)))
    return weyl_order(sys_)


# ---------------------------------------------------------------------------
# Omega classification


def omega_classes(
    sys_: RootSystem, max_frames: int = DEFAULT_FRAME_CAP
) -> list[tuple[tuple[int, ...], int]]:
    """Classify maximal frames up to W-conjugacy: the sorted
    (representative, orbit size) pairs.

    The classes are the set-orbits of the standard frames under the
    simple reflections (which generate W).  The standard frames are
    maximal frames meeting every class, program constants that the tests
    check against a listing of all maximal frames rather than each call;
    reflections are isometries, so every orbit member is a maximal frame
    and the orbits partition the maximal frames.  Each orbit is
    represented by its lexicographically least member.  The walk raises
    CapExceededError when it expands frame max_frames + 1; no supported
    system has more than 2,025 maximal frames (E8).
    """
    # a frame is the sorted bytes of its line positions (line_of), which
    # ascend with root index, so bytes order like the frames' index
    # tuples; a simple reflection s maps it by one table,
    # p -> line_of[s(lines[p])]
    lines, line_of = sys_.lines, sys_.line_of
    name = f"{sys_.type_label}{sys_.rank}"
    if len(lines) > 256:
        raise ValueError(f"{name} has {len(lines)} lines; a frame key holds 256")
    tables = [
        bytes(map(line_of.__getitem__, _compose(s, lines))).ljust(256, b"\0")
        for s in map(sys_.reflection_images, sys_.simple_indices)
    ]
    expanded = 0

    def step(key: bytes) -> list[bytes]:
        nonlocal expanded
        expanded += 1
        if expanded > max_frames:
            raise CapExceededError(
                f"{name} has more than {max_frames} maximal frames (the frame cap)",
                max_frames,
            )
        return [bytes(sorted(key.translate(t))) for t in tables]

    orbits = _bfs_orbits(
        [bytes(sorted(map(line_of.__getitem__, f))) for _, f in standard_frames(sys_)],
        step,
    )
    return sorted((_compose(lines, min(orbit)), len(orbit)) for orbit in orbits)


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
# system names


def system_name(label: str, rank: int) -> str:
    return f"I2({rank})" if label == "I2" else f"{label}{rank}"


def resolve(
    label: str, rank: int
) -> tuple[tuple[str, int], Union[RootSystem, int]]:
    """The (type, rank) to print for a system as typed, with its root
    system, or with n when it is the dihedral group I2(n) that has no
    root system here (G2 is I2(6)).

    C_n prints as B_n, whose root system it is; I2(4) stays I2(4) with
    the root system of B2.  A G or I2 label with no dihedral group (G3,
    I2(2)) raises UnsupportedSystemError naming the system, and any
    other label is build_root_system's to refuse.
    """
    if (label, rank) == ("G", 2):
        return (label, rank), 6
    if label == "I2" and rank >= 3:
        return (label, rank), build_root_system("B", 2) if rank == 4 else rank
    if label in ("G", "I2"):
        raise UnsupportedSystemError(f"unsupported system {system_name(label, rank)}")
    sys_ = build_root_system(label, rank)
    return (sys_.type_label, sys_.rank), sys_


# ---------------------------------------------------------------------------
# dihedral groups


def build_dihedral(n: int) -> tuple[tuple[int, ...], ...]:
    """The dihedral group of order 2n in its natural degree-n
    representation, as the image tuples of its elements: element k < n
    is the rotation i -> i + k (mod n), element n + k the reflection
    sigma^k tau where tau(i) = n - 1 - i."""
    if n < 3:
        raise UnsupportedSystemError("dihedral parameter must be >= 3")
    rotations = [
        tuple((i + k) % n for i in range(n)) for k in range(n)
    ]
    reflections = [
        tuple((n - 1 - i + k) % n for i in range(n)) for k in range(n)
    ]
    return tuple(rotations + reflections)


def _conjugate(g: Sequence[int], r: Sequence[int]) -> tuple[int, ...]:
    """g r g^-1: the table g[i] -> g[r[i]]."""
    out = [0] * len(g)
    for i, gi in enumerate(g):
        out[gi] = g[r[i]]
    return tuple(out)


def dihedral_omega(
    group: Sequence[tuple[int, ...]],
) -> list[list[tuple[tuple[int, ...], ...]]]:
    """Conjugacy classes of maximal commuting reflection sets of a
    build_dihedral group.

    Returns a list of classes; each class is the list of its frames and
    each frame is the sorted tuple of its reflections.  Odd n: singleton
    frames, one class.  n = 2m: frames {f_k, f_{k+m}}; one class when m
    is odd, two (k even / k odd) when 4 | n.
    """
    n = len(group) // 2
    refl = group[n:]
    if n % 2 == 1:
        frames = [(r,) for r in refl]
    else:
        m = n // 2
        frames = [tuple(sorted((refl[k], refl[k + m]))) for k in range(m)]
    orbits = _bfs_orbits(
        frames,
        lambda f: [tuple(sorted(_conjugate(g, r) for r in f)) for g in group],
    )
    return [sorted(orbit) for orbit in orbits]


def g2_split_check(group: Sequence[tuple[int, ...]]) -> dict[str, bool]:
    """Structural facts used for the order-12 dihedral group (G2's Weyl group).

    Checks by enumeration: there is exactly one subgroup of order 3, it
    is normal, and together with a maximal reflection frame P it gives a
    semidirect decomposition |P| * 3 = 12 with trivial intersection.
    """
    if len(group) != 12:
        raise ValueError("split check is specific to the order-12 group")
    one = group[0]
    order3 = [
        p
        for p in group
        if p != one
        and _compose(p, _compose(p, p)) == one
    ]
    # each order-3 subgroup contains two order-3 elements
    unique = len(order3) == 2
    subgroup = {one, *order3}
    normal = True
    for g in group:
        for u in subgroup:
            if _conjugate(g, u) not in subgroup:
                normal = False
    classes = dihedral_omega(group)
    frame = classes[0][0]
    p_elems = {one}
    for r in frame:
        p_elems |= {_compose(r, x) for x in p_elems}
    splits = (
        len(p_elems) * len(subgroup) == 12 and p_elems & subgroup == {one}
    )
    return {
        "unique_normal_order3": unique and normal,
        "splits_as_p_semidirect_u": splits,
        "one_omega_class": len(classes) == 1,
    }
