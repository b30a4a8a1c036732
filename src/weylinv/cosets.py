"""Coset spaces U\\W without enumerating W, and their fold certificates.

A coset Ug is keyed by the vector g^{-1}(v_U), where v_U is a primitive
vector of the weight lattice fixed by U and orthogonal to no root
outside the subsystem Sigma_U.  The stabiliser of a vector in a
reflection group is generated by the reflections fixing it, so that
orthogonality condition makes the stabiliser exactly U and the key map
injective on cosets.  This keeps E8 tractable: the 17280 cosets are
found by a walk over the simple reflections instead of listing 7 x 10^8
group elements.  The walk runs on each key's Dynkin labels packed into
one int, where a simple reflection is a field read and one subtraction;
each label field is as wide as the largest label on the orbit needs,
which is 3 bits for E8, so an E8 key is a 24-bit int.  It walks a tree
rooted at the orbit's dominant point, meeting each key from its one
canonical parent (_label_bfs), so it keeps no set of keys: a space is
its size, |U| and a fold certificate.  The tree is walked one depth at
a time, and only down to half its depth D, the number of positive roots
not orthogonal to the start: the longest element w0 maps depth k onto
depth D - k (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4-2.5;
Humphreys, Reflection Groups and Coxeter Groups, 1.8), so each depth
k < D/2 counts twice.  |U| is never enumerated either:
a chain of root orbits gives it as |U r| x |Stab_U(r)|, the stabiliser
again a reflection group by Steinberg's theorem.  The order identity
|orbit| x |U| = |W| is still re-checked at build time.

Frame reflections act on the keys linearly.  For orthogonal frame roots
b_1, ..., b_k, the element e = prod_{i in S} s_{b_i} sends x to
x - sum_{i in S} <x, b_i^v> b_i, with <x, b^v> = 2(x, b)/(b, b), and
the b_i are independent, so e fixes x exactly when <x, b_i^v> = 0 for
every i in S.  The frame's orbit of x therefore has 2^|A(x)| points,
A(x) = {i : <x, b_i^v> != 0} its active set, and the active reflections
act on it simply transitively: every orbit is certified, with fold
|A(x)| and Pfister symbol prod_{i in A} t_i (Garibaldi-Merkurjev-Serre,
Cohomological Invariants in Galois Cohomology, Ch. VII).  s_{b_i}
negates the i-th pairing and keeps the others, so each orbit holds
exactly one point whose pairings are all >= 0.  A certificate is the
sorted active sets of those points, which the coset walk reads off k
more packed fields holding the pairings (_label_bfs).  When w0 sends
every b_i to -b_i, as at the one standard frame of A1, D4-D8, E7 and
E8, w0 x has the pairings of x negated, so the points with every
pairing >= 0 past depth D/2 are the w0-images of the points with every
pairing <= 0 before it, with the same active sets, and the half walk
reads both kinds.  At any other frame (the standard frames of A2-A8 and
E6 among them) the frame walk goes on to depth D.

A cache file (format_version 5) is one line of compact JSON with sorted
keys and nothing after it: type, rank, u_gens, u_order, size and the
certificate as its list of a_sets, or null.  A certificate is only ever
stored for the system's one standard frame, so its frame roots and
labels are taken from standard_frames on load.  The loader checks the
stored u_order against |U| from the requested generators, size x
u_order against |W|, and that the a_sets are increasing frame positions
whose orbits, 2^|a| cosets each, add up to size; the a_sets themselves
are believed, not recomputed.  The file name hashes the format version,
so files of an older version (1 to 4) are never opened by a build;
`cache inspect` lists them and `cache clear` removes them.
"""
from __future__ import annotations

import json
import os
import re
from itertools import combinations
from math import gcd
from operator import mul
from typing import NamedTuple, Optional, Sequence

from ._records import record_eq, record_ne
from .algebra import KInvariant, Monomial, kinv
from .errors import (
    CacheFormatError,
    CapExceededError,
    CertificateError,
    CosetValidationError,
)
from .groups import (
    DEFAULT_ELEMENT_CAP,
    _find_root,
    _reflection_group_order,
    root_label,
    standard_frames,
    weyl_order,
)
from .roots import RootSystem, _bfs_orbits

__all__ = [
    "CosetSpace",
    "FoldCertificate",
    "standard_u_gens",
    "build_coset_space",
    "full_check",
    "f_restriction",
    "cache_path",
    "clear_cache",
    "CACHE_FORMAT_VERSION",
]

CACHE_FORMAT_VERSION = 5

Key = tuple[int, ...]
ASets = tuple[tuple[int, ...], ...]


class FoldCertificate(NamedTuple):
    """A frame's certified orbits on the cosets, each as its active set:
    the increasing frame positions whose reflections move it, the sets
    in sorted order.  The orbit has 2^|a| cosets and fold |a|."""

    frame_roots: tuple[int, ...]
    labels: tuple[str, ...]
    a_sets: ASets

    __eq__, __ne__, __hash__ = record_eq, record_ne, tuple.__hash__

    @property
    def min_fold(self) -> int:
        return min(map(len, self.a_sets), default=0)

    def fold_count(self, m: int) -> int:
        return sum(1 for a in self.a_sets if len(a) == m)


class CosetSpace(NamedTuple):
    """U\\W as its size and |U|, with the fold certificate of the
    system's one standard frame (None when it has several)."""

    type_label: str
    rank: int
    u_gen_roots: tuple[tuple[int, ...], ...]  # doubled coordinates
    u_order: int
    size: int
    certificate: Optional[FoldCertificate] = None

    __eq__, __ne__, __hash__ = record_eq, record_ne, tuple.__hash__


def standard_u_gens(sys_: RootSystem) -> tuple[int, ...]:
    """The reflection subgroup used for the coset construction.

    D_n: the S_n of coordinate permutations.  E7/E8: the A-type
    subsystems spanned by e1+e2 and the tail of coordinate differences
    (for E7 the chain breaks at e6 and picks up e7-e8 separately).
    """
    label, n = sys_.type_label, sys_.rank
    if label == "D":
        tail = range(n - 1)
    elif label == "E" and n in (7, 8):
        tail = [1, 2, 3, 4, 6] if n == 7 else range(1, 7)
    else:
        raise ValueError(f"no standard coset subgroup recorded for {label}{n}")
    head = [_find_root(sys_, {0: 2, 1: 2})] if label == "E" else []
    # tail entry i stands for the root e_{i+1} - e_{i+2}
    return tuple(head + [_find_root(sys_, {i: 2, i + 1: -2}) for i in tail])


def _labels(simple: Sequence[Key], vec: Key) -> list[int]:
    """Dynkin labels c_i = 2(v, a_i)/(a_i, a_i) of the doubled vector vec
    over the doubled simple roots.

    Raises CosetValidationError when one is not an integer, i.e. when
    vec lies outside the weight lattice.
    """
    out = []
    for a in simple:
        c, rem = divmod(2 * sum(map(mul, a, vec)), sum(map(mul, a, a)))
        if rem:
            raise CosetValidationError(
                f"coset key {vec} has a non-integral label against the simple "
                f"root {a}: it lies outside the weight lattice"
            )
        out.append(c)
    return out


def _label_width(sys_: RootSystem, vec: Key) -> int:
    """Bits per packed label for the W-orbit of vec, a weight-lattice
    vector (see _label_bfs): one sign bit past the largest |label|."""
    bound = max(
        abs(2 * sum(map(mul, b, vec)) // sum(map(mul, b, b)))
        for b in (sys_.roots[i] for i in sys_.lines)
    )
    return bound.bit_length() + 1


def _label_bfs(
    sys_: RootSystem, start: Key, frame_roots: Optional[Sequence[int]] = None
) -> tuple[int, Optional[ASets]]:
    """The size of the W-orbit of start, by a walk over the simple
    reflections, and with frame_roots the sorted active sets of the
    frame's orbits on it (None without: the walk only counts).

    The walk runs on packed Dynkin labels.  A vector v with labels c_j
    is the int sum_j (c_j + off) 2^(w j) with off = 2^(w-1).  The labels
    of s_i(v) are c_j - c_i A_ij, where A_ij = 2(a_i, a_j)/(a_j, a_j),
    so the image key is key - c_i row_i, row_i = sum_j A_ij 2^(w j), and
    c_i is read off field i.  This is exact: the labels of w(v) are
    2(v, b)/(b, b) with b = w^-1(a_j), a root, and every root is
    W-conjugate to a simple one, so the largest |label| on the orbit is
    M = max over the roots b of |2(v, b)/(b, b)|.  w is taken with
    off = 2^(w-1) > M, so every label of every orbit vector has
    c_j + off in [1, 2^w - 1].  Each key is then the base-2^w expansion
    of its labels, field reads are exact, and two keys agree exactly
    when the labels do, that is (v lies in the span of the roots) when
    the vectors do.  Integer labels stay integral under integer Cartan
    rows, so the lattice check on start, made before M is taken, covers
    the orbit.  _coset_orbit hands in a primitive start (see
    _invariant_vector): for E8, M is 3 and a key is 24 bits.

    The orbit is walked as a tree, so no set of met keys is kept
    (reverse search, Avis-Fukuda 1996).  Its root is the orbit's one
    dominant point, all c_j >= 0 (Humphreys, Reflection Groups and
    Coxeter Groups, 1.12), reached by applying s_j while some c_j < 0.
    The parent of any other y is s_i y for the least i with c_i(y) < 0,
    so from x the walk steps to y = s_i x exactly when c_i(x) > 0 and
    c_j(y) >= 0 for all j < i.  A field's top bit is set exactly when
    its value is >= 0, so that is one mask test, and
    ((key & lows) + lows) & key & tops marks the fields with c_i > 0.

    Each step raises by one the number of positive roots b with
    (y, b) < 0, so the tree is walked one depth at a time and depth k
    holds the points with k such roots, from the dominant point at 0 to
    the antidominant one at D, the number of positive roots not
    orthogonal to start.  The longest element w0 sends every positive
    root to a negative one, so it maps depth k onto depth D - k and the
    depth sizes are palindromic (Bjorner-Brenti, Combinatorics of
    Coxeter Groups, 2.4-2.5; Humphreys 1.8): the walk stops at depth
    floor(D/2) and counts each shallower depth twice.

    Frame roots b_1, ..., b_k add k fields after the labels, holding
    <v, b_j^v> + off.  s_i lowers <v, b_j^v> by c_i <a_i, b_j^v>, so
    row_i carries <a_i, b_j^v> in field rank + j and the same
    subtraction updates them.  A pairing is 2(v, b)/(b, b) for a root b,
    so M bounds it too and the width holds it.  The one vector of each
    frame orbit with every frame field's top bit set, its E-dominant
    point, gives the orbit's active set, the fields not equal to off
    (see the module docstring).  When w0 negates every frame root
    (_w0_negates), <w0 x, b_j^v> = -<x, b_j^v>, so the E-dominant points
    past depth D/2 are the w0-images of the E-antidominant points
    (every pairing <= 0) before it, with the same active sets: the walk
    reads those too, and still stops halfway.  Depth D/2 is its own w0
    image, so there it reads only the E-dominant points.  A point with
    every pairing 0 is both, and its w0-image is a second one-point
    orbit.  Otherwise the frame walk goes on to depth D.
    A packed kernel, so not roots._bfs_orbits.
    """
    simple = [sys_.roots[i] for i in sys_.simple_indices]
    frame = [sys_.roots[b] for b in frame_roots or ()]
    labels = _labels(simple, start)
    width = _label_width(sys_, start)
    off, mask = 1 << (width - 1), (1 << width) - 1

    def pack(fields: Sequence[int]) -> int:
        return sum(c << (width * j) for j, c in enumerate(fields))

    tail = width * len(simple)
    tops, lows = pack([off] * len(simple)), pack([off - 1] * len(simple))
    # a set of label top bits -> the steps (shift, row, top bits below)
    # of its fields; rank <= 8, so there are at most 256 sets
    kids = {0: ()}
    for i, a in enumerate(simple):
        step = (width * i, pack(_labels(simple + frame, a)), pack([off] * i))
        kids.update({p | off << step[0]: ks + (step,) for p, ks in kids.items()})
    key = pack([c + off for c in labels + _labels(frame, start)])
    while neg := tops & ~key:  # some c_j < 0: raise towards the root
        shift, row, _ = kids[neg & -neg][0]
        key -= (((key >> shift) & mask) - off) * row
    depth = sum(1 for b in sys_.lines if sum(map(mul, sys_.roots[b], start)))
    halve = frame_roots is None or _w0_negates(sys_, frame_roots)
    # the frame fields, their top bits and their low bits: a field minus
    # 1 is below off exactly when its pairing is <= 0
    fields, ftops, ones = (pack([f] * len(frame)) << tail for f in (mask, off, 1))
    size, found, layer = 0, [], [key]
    for d in range(depth // 2 + 1 if halve else depth + 1):
        mirrored = halve and 2 * d < depth
        size += len(layer) << mirrored
        if frame_roots is not None:
            found += [x >> tail for x in layer if x & ftops == ftops]
            if mirrored:
                found += [x >> tail for x in layer if not ((x & fields) - ones) & ftops]
        deeper = []
        for key in layer:
            for shift, row, below in kids[((key & lows) + lows) & key & tops]:
                img = key - ((key >> shift) & (off - 1)) * row  # c_i > 0: its low bits
                if img & below == below:
                    deeper.append(img)
        layer = deeper
    if frame_roots is None:
        return size, None
    a_sets = [
        tuple(j for j in range(len(frame)) if (f >> (width * j)) & mask != off)
        for f in found
    ]
    return size, tuple(sorted(a_sets))


def _w0_negates(sys_: RootSystem, roots: Sequence[int]) -> bool:
    """Whether the longest element w0 of W sends each of roots to its
    negative.  w0 is read off a reduced word: from rho, all labels 1,
    apply some s_i with c_i > 0 until every label is < 0, which takes
    one step per positive root and ends at -rho = w0(rho); the simple
    reflections' tables are applied to roots along the same word."""
    simple = [sys_.roots[i] for i in sys_.simple_indices]
    rows = [_labels(simple, a) for a in simple]
    tables = [sys_.reflection_images(i) for i in sys_.simple_indices]
    labels, images = [1] * len(simple), list(roots)
    while (top := max(labels)) > 0:
        i = labels.index(top)
        labels = [c - top * a for c, a in zip(labels, rows[i])]
        images = [tables[i][r] for r in images]
    return images == [sys_.negation[r] for r in roots]


def _u_orbits(
    sys_: RootSystem, u_gen_roots: Sequence[int]
) -> tuple[list[list[int]], list[int]]:
    """U's orbits on the roots, ordered by least root, and Sigma_U, the
    roots of U, ascending.

    Sigma_U is the union of the orbits that hold a generator's root:
    each of their members is u(g), and s_u(g) = u s_g u^-1 lies in U,
    so that union is closed under reflecting its members in each other.
    """
    images = [sys_.reflection_images(g) for g in u_gen_roots]
    orbits = _bfs_orbits(range(len(sys_.roots)), lambda r: [g[r] for g in images])
    gens = set(u_gen_roots)
    sigma_u = sorted(r for o in orbits if not gens.isdisjoint(o) for r in o)
    return orbits, sigma_u


def _invariant_vector(
    sys_: RootSystem, orbits: Sequence[Sequence[int]], domain_lines: set[int]
) -> Optional[Key]:
    """A primitive weight-lattice vector whose stabiliser in W is
    exactly U, or None when no candidate has that stabiliser.

    orbits are U's orbits on the roots (_u_orbits).  Candidates are
    weighted sums of the orbits' root sums (each summand is U-invariant
    and lies in the root lattice).  A candidate is accepted when the
    lines orthogonal to it are precisely domain_lines, those of Sigma_U:
    by Steinberg's theorem the stabiliser of a vector is generated by the
    reflections fixing it, so acceptance proves Stab(v) = U and the
    coset key g^{-1}(v) is collision-free.  For U = W that is the zero
    vector, the one vector every root is orthogonal to.  The accepted
    vector is divided by the gcd g of its doubled coordinates and its
    Dynkin labels (by 1 when they are all 0), which keeps both integral;
    a positive multiple has the same orthogonal roots, so the proof
    stands, and the same order on its orbit.  g is 294 for E8, 242 for
    E7 and 18 for D4.
    """
    sums = [tuple(map(sum, zip(*(sys_.roots[r] for r in o)))) for o in orbits]
    for t in range(1, 65):
        vec = [0] * len(sums[0])
        weight = 1
        for s in sums:
            for i, d in enumerate(s):
                vec[i] += weight * d
            weight *= t
        perp = {
            pos
            for pos in range(len(sys_.lines))
            if sum(
                a * b for a, b in zip(sys_.roots[sys_.lines[pos]], vec)
            )
            == 0
        }
        if perp == domain_lines:
            simple = [sys_.roots[i] for i in sys_.simple_indices]
            g = gcd(*vec, *_labels(simple, vec)) or 1
            return tuple(x // g for x in vec)
    return None


def build_coset_space(
    sys_: RootSystem,
    u_gen_roots: Optional[Sequence[int]] = None,
    cache_dir: Optional[str] = None,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> CosetSpace:
    """Count U\\W(sys) and validate the order identity.

    When the system has one standard frame, the same coset walk reads
    off that frame's fold certificate.  With cache_dir set, a previously
    built space for the same (type, rank, generators, format version)
    is loaded instead, and a fresh build is written back.  A space of
    more than element_cap cosets raises CapExceededError, built or
    loaded; a build refuses it before the first coset is enumerated.
    """
    if u_gen_roots is None:
        u_gen_roots = standard_u_gens(sys_)
    u_gen_roots = tuple(u_gen_roots)
    if cache_dir is not None:
        path = cache_path(sys_, u_gen_roots, cache_dir)
        if _is_cache_dir(cache_dir) and os.path.exists(path):
            space = _load_space(sys_, u_gen_roots, path)
            _check_cap(sys_, space.size, space.u_order, element_cap)
            return space
    frames = standard_frames(sys_)
    frame_roots = frames[0][1] if len(frames) == 1 else None
    size, a_sets, u_order = _coset_orbit(sys_, u_gen_roots, frame_roots, element_cap)
    space = _space(sys_, u_gen_roots, u_order, size, frame_roots, a_sets)
    if cache_dir is not None:
        _write_space(space, path)
    return space


def _space(
    sys_: RootSystem,
    u_gen_roots: Sequence[int],
    u_order: int,
    size: int,
    frame_roots: Optional[tuple[int, ...]],
    a_sets: Optional[ASets],
) -> CosetSpace:
    cert = None
    if a_sets is not None:
        labels = tuple(root_label(sys_, r) for r in frame_roots)
        cert = FoldCertificate(frame_roots=frame_roots, labels=labels, a_sets=a_sets)
    return CosetSpace(
        type_label=sys_.type_label,
        rank=sys_.rank,
        u_gen_roots=tuple(sys_.roots[g] for g in u_gen_roots),
        u_order=u_order,
        size=size,
        certificate=cert,
    )


def _check_cap(
    sys_: RootSystem, size: int, u_order: int, element_cap: Optional[int]
) -> None:
    if element_cap is not None and size > element_cap:
        raise CapExceededError(
            f"U\\W({sys_.type_label}{sys_.rank}) with |U| = {u_order} has "
            f"{size} cosets, more than the element cap {element_cap}",
            element_cap,
        )


def _coset_orbit(
    sys_: RootSystem,
    u_gen_roots: Sequence[int],
    frame_roots: Optional[Sequence[int]] = None,
    element_cap: Optional[int] = None,
) -> tuple[int, Optional[ASets], int]:
    """|U\\W|, the frame's sorted active sets (see _label_bfs; None
    without frame_roots) and |U|, after checking the order identity
    |orbit| x |U| = |W|.  |W| / |U| is known before the walk, which does
    not start when it is above element_cap (None: no cap)."""
    orbits, sigma_u = _u_orbits(sys_, u_gen_roots)
    u_order = _reflection_group_order(sys_, sigma_u)
    expected = weyl_order(sys_)
    _check_cap(sys_, expected // u_order, u_order, element_cap)
    start = _invariant_vector(sys_, orbits, {sys_.line_of[r] for r in sigma_u})
    if start is None:
        gens = ", ".join(str(sys_.roots[g]) for g in u_gen_roots)
        raise CosetValidationError(
            f"cannot key the cosets of U = <{gens}> in {sys_.type_label}"
            f"{sys_.rank}: no weighted sum of U's root-orbit sums has stabiliser "
            "exactly U (none can when U is no vector's stabiliser)"
        )
    size, a_sets = _label_bfs(sys_, start, frame_roots)
    if size * u_order != expected:
        raise CosetValidationError(
            f"|orbit| x |U| = {size} x {u_order} != |W| = {expected}: "
            "the coset enumeration is inconsistent with the group order"
        )
    return size, a_sets, u_order


# ---------------------------------------------------------------------------
# frame actions


def full_check(
    sys_: RootSystem, space: CosetSpace, frame_roots: Sequence[int]
) -> FoldCertificate:
    """The frame's fold certificate on the cosets: each orbit's active
    set A_k, the generators that move it, with |O_k| = 2^|A_k|, which
    pins the orbit's form to an |A_k|-fold Pfister class.

    Every orbit of a frame of orthogonal roots is certified: the frame
    reflections commute, e = prod_{i in S} s_{b_i} sends a coset key x
    to x - sum_{i in S} <x, b_i^v> b_i, and the b_i are independent, so
    the inactive reflections, those with <x, b_i^v> = 0, span the
    stabiliser of every point of the orbit and the active ones act
    simply transitively (see the module docstring).  Repeated or
    non-orthogonal roots raise CertificateError naming the pair.

    The space's stored certificate is returned for the frame it was
    made for.  Any other frame is read off one coset walk that carries
    the frame pairings (_label_bfs).
    """
    frame_roots = tuple(frame_roots)
    if space.certificate is not None and _same_frame(
        sys_, space.certificate.frame_roots, frame_roots
    ):
        return space.certificate
    labels = tuple(root_label(sys_, r) for r in frame_roots)
    for (i, r), (j, s) in combinations(enumerate(frame_roots), 2):
        if sys_.line_of[r] == sys_.line_of[s]:
            raise CertificateError(
                f"the frame roots {labels[i]} and {labels[j]} lie on one line"
            )
        if sum(map(mul, sys_.roots[r], sys_.roots[s])):
            raise CertificateError(
                f"the reflections in {labels[i]} and {labels[j]} do not "
                "commute on the cosets: the roots are not orthogonal"
            )
    gens = [sys_.index[g] for g in space.u_gen_roots]
    _, a_sets, _ = _coset_orbit(sys_, gens, frame_roots)
    return FoldCertificate(frame_roots=frame_roots, labels=labels, a_sets=a_sets)


def _same_frame(
    sys_: RootSystem, a: Sequence[int], b: Sequence[int]
) -> bool:
    canon = sys_.canonical_rep
    return [canon[r] for r in a] == [canon[r] for r in b]


# ---------------------------------------------------------------------------
# certificate consumers


def f_restriction(cert: FoldCertificate, m: int) -> KInvariant:
    """e_m of the certified decomposition (the f_m restriction values).

    Requires every fold >= m (the I^m membership certificate).  An orbit
    of fold m with active set A contributes its Pfister symbol
    prod_{i in A} t_i; orbits of larger fold lie in I^{m+1} and
    contribute nothing.  The 2-power scales are dropped: the graded Witt
    ring here is an F2 algebra and the <2^m> normalization of the
    defining invariants absorbs them.
    """
    if cert.a_sets and cert.min_fold < m:
        raise CertificateError(
            f"certificate has fold {cert.min_fold} < {m}: not in I^{m}"
        )
    return kinv(
        cert.labels,
        (Monomial(sum(1 << i for i in a)) for a in cert.a_sets if len(a) == m),
    )


# ---------------------------------------------------------------------------
# cache


def cache_path(
    sys_: RootSystem, u_gen_roots: Sequence[int], cache_dir: str
) -> str:
    # imported here: hashlib loads OpenSSL, and only cached builds need it
    import hashlib

    payload = json.dumps(
        {
            "format_version": CACHE_FORMAT_VERSION,
            "type": sys_.type_label,
            "rank": sys_.rank,
            "u_gens": sorted(sys_.roots[g] for g in u_gen_roots),
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    name = f"cosets-{sys_.type_label}{sys_.rank}-{digest}.json"
    return os.path.join(cache_dir, name)


def _write_space(space: CosetSpace, path: str) -> None:
    """Write the header line, which is the whole file (see the module
    docstring)."""
    cert = space.certificate
    doc = {
        "format_version": CACHE_FORMAT_VERSION,
        "type": space.type_label,
        "rank": space.rank,
        "u_gens": space.u_gen_roots,
        "u_order": space.u_order,
        "size": space.size,
        # tuples encode as JSON arrays, so they go in uncopied
        "certificate": None if cert is None else cert.a_sets,
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    # unique per writer: concurrent builders of the same space must not
    # share a scratch file (the final replace is atomic either way)
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
        fh.write(b"\n")
    os.replace(tmp, path)


def _read_header(fh, path: str) -> dict:
    """The first line of a cache file, a JSON object in every format
    version (a version 1 or 5 file is that one line)."""
    try:
        doc = json.loads(fh.readline().decode())
    except ValueError as bad:  # UnicodeDecodeError is one
        raise CacheFormatError(
            f"cache file {path} does not start with a JSON line: {bad}"
        ) from None
    if not isinstance(doc, dict):
        raise CacheFormatError(f"cache file {path} does not hold a JSON object")
    return doc


def _load_space(
    sys_: RootSystem, u_gen_roots: tuple[int, ...], path: str
) -> CosetSpace:
    """The space stored at path, read from its header line; a byte
    after that line is an error."""
    with open(path, "rb") as fh:
        doc = _read_header(fh, path)
        past = fh.read(1)
    try:
        version = doc.get("format_version")
        if version != CACHE_FORMAT_VERSION:
            raise CacheFormatError(
                f"cache file {path} has format_version {version!r}; "
                f"expected {CACHE_FORMAT_VERSION}"
            )
        if past:
            raise CacheFormatError(f"cache file {path} has bytes past its header line")
        if doc["type"] != sys_.type_label or doc["rank"] != sys_.rank:
            raise CacheFormatError(f"cache file {path} is for {doc['type']}{doc['rank']}")
        expected_gens = sorted(sys_.roots[g] for g in u_gen_roots)
        if sorted(tuple(g) for g in doc["u_gens"]) != expected_gens:
            raise CacheFormatError(f"cache file {path} was built from different generators")
        size, u_order, a_sets = doc["size"], doc["u_order"], doc["certificate"]
        order = weyl_order(sys_)
        if not all(type(n) is int and n > 0 for n in (size, u_order)) or (
            size * u_order != order
        ):
            raise CacheFormatError(
                f"cache file {path} is inconsistent: size x |U| = "
                f"{size!r} x {u_order!r} != |W| = {order}"
            )
        true_order = _reflection_group_order(sys_, _u_orbits(sys_, u_gen_roots)[1])
        if u_order != true_order:
            raise CacheFormatError(
                f"cache file {path} has u_order {u_order}; its generators "
                f"give |U| = {true_order}"
            )
        frames = standard_frames(sys_)
        problem = _a_set_problem(frames, a_sets, size)
        if problem:
            raise CacheFormatError(f"cache file {path} is inconsistent: {problem}")
    except (KeyError, TypeError) as bad:
        raise CacheFormatError(
            f"cache file {path} has a missing or malformed entry: {bad!r}"
        ) from None
    if a_sets is None:
        return _space(sys_, u_gen_roots, u_order, size, None, None)
    (_, frame_roots), = frames
    return _space(
        sys_, u_gen_roots, u_order, size, frame_roots, tuple(map(tuple, a_sets))
    )


def _a_set_problem(frames: list, a_sets, size: int) -> Optional[str]:
    """What makes a stored certificate, a list of a_sets or None,
    unusable, or None.  A certificate is for the system's one standard
    frame, each a_set is increasing positions of its roots, and the
    orbits, 2^|a_set| cosets each, add up to the size cosets."""
    if a_sets is None:
        return None
    if len(frames) != 1:
        return f"a certificate, but {len(frames)} standard frames"
    if not isinstance(a_sets, list):
        return f"a certificate that is a {type(a_sets).__name__}, not a list of a_sets"
    positions = range(len(frames[0][1]))
    for oi, a in enumerate(a_sets):
        if not (
            isinstance(a, list)
            and all(type(i) is int and i in positions for i in a)
            and a == sorted(set(a))
        ):
            return (
                f"certificate orbit {oi} has a_set {a!r}, not increasing "
                f"positions of its {len(positions)} frame roots"
            )
    total = sum(1 << len(a) for a in a_sets)
    if total != size:
        return f"certificate orbits hold {total} cosets, not {size}"
    return None


_CACHE_NAME = re.compile(r"cosets-.*\.json(\.tmp\d+)?")


def _is_cache_dir(cache_dir: str) -> bool:
    """Whether cache_dir exists.  One that is not a directory raises
    NotADirectoryError naming it."""
    if os.path.isdir(cache_dir):
        return True
    if os.path.exists(cache_dir):
        raise NotADirectoryError(f"cache dir {cache_dir} is not a directory")
    return False


def _cache_names(cache_dir: str) -> list[str]:
    """The sorted names of cache files of any format version and of
    scratch files of interrupted writes in cache_dir (see
    _is_cache_dir)."""
    if not _is_cache_dir(cache_dir):
        return []
    return [n for n in sorted(os.listdir(cache_dir)) if _CACHE_NAME.fullmatch(n)]


def _inspect_entries(cache_dir: str) -> list[dict]:
    """What `cache inspect` lists: one entry per cache file in cache_dir,
    read from its header line alone.  Raises CacheFormatError naming the
    file when a header is not a JSON object or lacks an entry."""
    entries = []
    for name in _cache_names(cache_dir):
        if not name.endswith(".json"):
            continue  # scratch files are not listed
        path = os.path.join(cache_dir, name)
        with open(path, "rb") as fh:
            doc = _read_header(fh, path)
            size = os.fstat(fh.fileno()).st_size
        try:
            entries.append(
                {
                    "file": name,
                    "bytes": size,
                    "type": doc["type"],
                    "rank": doc["rank"],
                    "cosets": doc["size"],
                    "format_version": doc["format_version"],
                    "certified": doc["certificate"] is not None,
                }
            )
        except KeyError as bad:
            raise CacheFormatError(
                f"cache file {path} has no {bad.args[0]!r} entry"
            ) from None
    return entries


def clear_cache(cache_dir: str) -> list[str]:
    """Remove coset cache files and scratch files of interrupted writes,
    and return their names (see _cache_names)."""
    removed = _cache_names(cache_dir)
    for name in removed:
        os.remove(os.path.join(cache_dir, name))
    return removed
