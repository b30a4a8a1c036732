"""Coset spaces U\\W without enumerating W, and their fold certificates.

A coset Ug is keyed by the vector g^{-1}(v_U), where v_U is an integer
vector in the root lattice fixed by U and orthogonal to no root outside
the subsystem Sigma_U.  The stabiliser of a vector in a reflection group
is generated by the reflections fixing it, so that orthogonality
condition makes the stabiliser exactly U and the key map injective on
cosets.  This keeps E8 tractable: the 17280 cosets are found by a BFS
over the simple reflections instead of walking 7 x 10^8 group elements.
The BFS runs on each key's Dynkin labels packed into one int, where a
simple reflection is a field read and one subtraction (_label_bfs); the
doubled-coordinate key is built once per new coset from its parent.
|U| is never enumerated either: a chain of root orbits gives it as
|U r| x |Stab_U(r)|, the stabiliser again a reflection group by
Steinberg's theorem.  The order identity |orbit| x |U| = |W| is still
re-checked at build time.

Frame actions on the cosets decompose into orbits whose sizes are powers
of two; the fold certificate records, per orbit, the generator subset
that acts simply transitively, which is exactly the datum needed to
place the associated form in a power of the fundamental ideal.  Once the
frame tables are checked to be commuting involutions, that subset is
read off one point of the orbit, and the orbit's fold and delta masks
follow from it (see full_check).
"""
from __future__ import annotations

import hashlib
import json
import os
import re
from array import array
from dataclasses import dataclass, replace
from math import isqrt
from operator import itemgetter, mul
from typing import Optional, Sequence

from .algebra import KInvariant, one
from .errors import (
    CacheFormatError,
    CertificateError,
    CosetValidationError,
)
from .forms import OrbitPfister, OrbitPfisterDecomp, _entry_class, e_fold
from .groups import root_label, weyl_order
from .roots import RootSystem

__all__ = [
    "CosetSpace",
    "FoldCertificate",
    "CertOrbit",
    "standard_u_gens",
    "build_coset_space",
    "p_orbits",
    "full_check",
    "compare_support",
    "f_restriction",
    "cache_path",
    "read_cache_file",
    "clear_cache",
    "CACHE_FORMAT_VERSION",
]

CACHE_FORMAT_VERSION = 1

Key = tuple[int, ...]


@dataclass(frozen=True)
class CertOrbit:
    members: tuple[int, ...]
    a_set: tuple[int, ...]  # frame positions acting non-trivially
    fold: int
    delta_masks: tuple[int, ...]


@dataclass(frozen=True)
class FoldCertificate:
    frame_roots: tuple[int, ...]
    labels: tuple[str, ...]
    orbits: tuple[CertOrbit, ...]

    @property
    def min_fold(self) -> int:
        return min((o.fold for o in self.orbits), default=0)

    def fold_count(self, m: int) -> int:
        return sum(1 for o in self.orbits if o.fold == m)

    def decomp(self) -> OrbitPfisterDecomp:
        return OrbitPfisterDecomp(
            self.labels,
            tuple(
                OrbitPfister(o.fold, o.delta_masks, o.fold) for o in self.orbits
            ),
        )


@dataclass(frozen=True)
class CosetSpace:
    """U\\W as vector keys with per-simple-reflection action tables.

    representatives[i] is a doubled-coordinate integer tuple; they are
    sorted ascending, and the action tables are computed from that
    sorted order, so rebuilt and cached spaces agree byte for byte.
    """

    type_label: str
    rank: int
    u_gen_roots: tuple[tuple[int, ...], ...]  # doubled coordinates
    u_order: int
    representatives: tuple[Key, ...]
    action_tables: tuple[tuple[int, ...], ...]
    certificate: Optional[FoldCertificate] = None

    @property
    def size(self) -> int:
        return len(self.representatives)


def standard_u_gens(sys_: RootSystem) -> tuple[int, ...]:
    """The reflection subgroup used for the coset construction.

    D_n: the S_n of coordinate permutations.  E7/E8: the A-type
    subsystems spanned by e1+e2 and the tail of coordinate differences
    (for E7 the chain breaks at e6 and picks up e7-e8 separately).
    """
    label, n = sys_.type_label, sys_.rank
    ambient = len(sys_.roots[0].doubled)

    def idx(pos_a: int, val_a: int, pos_b: int, val_b: int) -> int:
        d = [0] * ambient
        d[pos_a] = val_a
        d[pos_b] = val_b
        return sys_.index[tuple(d)]

    if label == "D":
        return tuple(idx(i, 2, i + 1, -2) for i in range(n - 1))
    if label == "E" and n == 7:
        gens = [idx(0, 2, 1, 2)]
        gens += [idx(i, 2, i + 1, -2) for i in range(1, 5)]
        gens.append(idx(6, 2, 7, -2))
        return tuple(gens)
    if label == "E" and n == 8:
        gens = [idx(0, 2, 1, 2)]
        gens += [idx(i, 2, i + 1, -2) for i in range(1, 7)]
        return tuple(gens)
    raise ValueError(f"no standard coset subgroup recorded for {label}{n}")


def _root_orbit(
    images: Sequence[Sequence[int]], start: Sequence[int], seen: set[int]
) -> list[int]:
    """Roots reached from start under the reflection tables images, in
    BFS order; each is added to seen, and roots already in it are not
    revisited."""
    orbit = [r for r in start if r not in seen]
    seen.update(orbit)
    for r in orbit:  # FIFO: the loop reaches appended roots
        for img in images:
            s = img[r]
            if s not in seen:
                seen.add(s)
                orbit.append(s)
    return orbit


def _reflection_group_order(sys_: RootSystem, roots: Sequence[int]) -> int:
    """|W(Sigma)| for a reflection-closed set of roots, without
    enumerating the group.

    Orbit-stabiliser on a root r gives |W| = |W r| x |Stab(r)|, and by
    Steinberg's theorem Stab(r) is generated by the reflections fixing
    r, i.e. it is the reflection group of the roots of Sigma orthogonal
    to r, again reflection-closed.  Repeat until no roots are left; for
    the S8 inside E8 the chain is 56 x 30 x 12 x 2.
    """
    images = {r: sys_.reflection_images(r) for r in roots if sys_.canonical_rep[r] == r}
    order = 1
    left = list(roots)
    while left:
        mirrors = [images[r] for r in left if r in images]
        orbit = _root_orbit(mirrors, left[:1], set())
        order *= len(orbit)
        row = sys_.gram_row(orbit[0])
        left = [r for r in left if not row[r]]
    return order


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


def _label_width(simple: Sequence[Key], vec: Key) -> int:
    """Bits per packed label for the W-orbit of vec (see _label_bfs)."""
    vv = sum(map(mul, vec, vec))
    bound = max(isqrt(4 * vv // sum(map(mul, a, a))) for a in simple)
    return bound.bit_length() + 1


def _label_bfs(sys_: RootSystem, start: Key) -> tuple[list[Key], array]:
    """The W-orbit of start by BFS over the simple reflections.

    Returns the orbit's doubled-coordinate vectors in discovery order
    and the BFS edges: edges[k * rank + i] is the BFS id of s_i applied
    to vector k.

    The BFS runs on packed Dynkin labels.  A vector v with labels c_j is
    the int sum_j (c_j + off) 2^(w j) with off = 2^(w-1).  The labels of
    s_i(v) are c_j - c_i A_ij, where A_ij = 2(a_i, a_j)/(a_j, a_j), so
    the image key is key - c_i row_i, row_i = sum_j A_ij 2^(w j), and
    c_i is read off field i.  This is exact: by Cauchy-Schwarz
    c_j^2 <= 4(v, v)/(a_j, a_j), and (v, v) is W-invariant, so w is
    taken with off > max_j sqrt(4(v, v)/(a_j, a_j)) and every label of
    every orbit vector has c_j + off in [1, 2^w - 1].  Each key is then
    the base-2^w expansion of its labels, field reads are exact, and two
    keys agree exactly when the labels do, that is (v lies in the span of
    the roots) when the vectors do.  Integer labels stay integral under
    integer Cartan rows, so the lattice check on start covers the orbit.
    Each new vector is its parent minus c_i a_i over a_i's support.
    """
    simple = [sys_.roots[i].doubled for i in sys_.simple_indices]
    width = _label_width(simple, start)
    off, mask = 1 << (width - 1), (1 << width) - 1
    steps = [
        (
            width * i,
            sum(c << (width * j) for j, c in enumerate(_labels(simple, a))),
            tuple((p, x) for p, x in enumerate(a) if x),
        )
        for i, a in enumerate(simple)
    ]
    first = sum((c + off) << (width * j) for j, c in enumerate(_labels(simple, start)))
    keys = [first]
    ids = {first: 0}
    vectors = [start]
    edges = array("l")
    for k, key in enumerate(keys):  # FIFO: the loop reaches appended keys
        for shift, row, support in steps:
            q = ((key >> shift) & mask) - off
            if not q:
                edges.append(k)
                continue
            img = key - q * row
            j = ids.get(img)
            if j is None:
                j = ids[img] = len(keys)
                keys.append(img)
                vec = list(vectors[k])
                for p, x in support:
                    vec[p] -= q * x
                vectors.append(tuple(vec))
            edges.append(j)
    return vectors, edges


def _u_orbit_sums(sys_: RootSystem, images: Sequence[Sequence[int]]) -> list[Key]:
    """Sum of roots over each U-orbit, orbits ordered by least root."""
    ambient = len(sys_.roots[0].doubled)
    seen: set[int] = set()
    sums = []
    for start in range(len(sys_.roots)):
        if start in seen:
            continue
        vec = [0] * ambient
        for r in _root_orbit(images, (start,), seen):
            for i, d in enumerate(sys_.roots[r].doubled):
                vec[i] += d
        sums.append(tuple(vec))
    return sums


def _invariant_vector(
    sys_: RootSystem, images: Sequence[Sequence[int]], domain_lines: set[int]
) -> Key:
    """A root-lattice vector whose stabiliser in W is exactly U.

    images are the reflection tables of U's generators.  Candidates are
    weighted sums of the U-orbit sums of the roots (each summand is
    U-invariant and lies in the root lattice).  A candidate is accepted
    when the set of roots orthogonal to it is precisely Sigma_U: by
    Steinberg's theorem the stabiliser of a vector is generated by the
    reflections fixing it, so acceptance proves Stab(v) = U and the
    coset key g^{-1}(v) is collision-free.
    """
    sums = _u_orbit_sums(sys_, images)
    for t in range(1, 65):
        vec = [0] * len(sums[0])
        weight = 1
        for s in sums:
            for i, d in enumerate(s):
                vec[i] += weight * d
            weight *= t
        if not any(vec):
            continue
        perp = {
            pos
            for pos in range(len(sys_.lines))
            if sum(
                a * b for a, b in zip(sys_.roots[sys_.lines[pos]].doubled, vec)
            )
            == 0
        }
        if perp == domain_lines:
            return tuple(vec)
    raise CosetValidationError(
        "no generic invariant vector found; the orbit-sum family does not "
        "span the fixed space of this subgroup"
    )


def build_coset_space(
    sys_: RootSystem,
    u_gen_roots: Optional[Sequence[int]] = None,
    cache_dir: Optional[str] = None,
) -> CosetSpace:
    """Enumerate U\\W(sys) and validate the order identity.

    With cache_dir set, a previously built space for the same
    (type, rank, generators, format version) is loaded instead, and a
    fresh build is written back together with the canonical frame's
    fold certificate in a single pass.
    """
    if u_gen_roots is None:
        u_gen_roots = standard_u_gens(sys_)
    u_gen_roots = tuple(u_gen_roots)
    if cache_dir is not None:
        path = cache_path(sys_, u_gen_roots, cache_dir)
        if os.path.exists(path):
            return _load_space(sys_, u_gen_roots, path)
    space = _build_space(sys_, u_gen_roots)
    if cache_dir is not None:
        space = replace(space, certificate=_canonical_certificate(sys_, space))
        _write_space(space, path)
    return space


def _coset_orbit(
    sys_: RootSystem, u_gen_roots: Sequence[int]
) -> tuple[list[Key], array, int]:
    """The coset keys in BFS order, the BFS edges (see _label_bfs) and
    |U|, after checking the order identity |orbit| x |U| = |W|."""
    images = [sys_.reflection_images(g) for g in u_gen_roots]
    # Sigma_U is the U-orbit of the generators' roots: each member is
    # u(g), and s_u(g) = u s_g u^-1 lies in U, so the orbit is closed
    # under reflecting its members in each other
    sigma_u = sorted(_root_orbit(images, u_gen_roots, set()))
    u_order = _reflection_group_order(sys_, sigma_u)
    start = _invariant_vector(sys_, images, {sys_.line_of[r] for r in sigma_u})
    vectors, edges = _label_bfs(sys_, start)
    size = len(vectors)
    expected = weyl_order(sys_)
    if size * u_order != expected:
        raise CosetValidationError(
            f"|orbit| x |U| = {size} x {u_order} != |W| = {expected}: "
            "the coset enumeration is inconsistent with the group order"
        )
    return vectors, edges, u_order


def _build_space(sys_: RootSystem, u_gen_roots: tuple[int, ...]) -> CosetSpace:
    vectors, edges, u_order = _coset_orbit(sys_, u_gen_roots)
    ngen = len(sys_.simple_indices)
    size = len(vectors)
    order = sorted(range(size), key=vectors.__getitem__)  # sorted pos -> BFS id
    reps = tuple(vectors[k] for k in order)
    position = [0] * size  # BFS id -> sorted pos
    for i, k in enumerate(order):
        position[k] = i
    tables = []
    for g in range(ngen):
        column = edges[g::ngen]
        table = tuple(position[column[k]] for k in order)
        if sorted(table) != list(range(size)):
            raise CosetValidationError("action table is not a bijection")
        tables.append(table)
    return CosetSpace(
        type_label=sys_.type_label,
        rank=sys_.rank,
        u_gen_roots=tuple(sys_.roots[g].doubled for g in u_gen_roots),
        u_order=u_order,
        representatives=reps,
        action_tables=tuple(tables),
    )


# ---------------------------------------------------------------------------
# frame actions


def _frame_tables(
    sys_: RootSystem, space: CosetSpace, frame_roots: Sequence[int]
) -> list[tuple[int, ...]]:
    """Coset action tables of the reflections in the frame roots.

    They are composed from the stored simple-reflection tables t_i: if
    x = s_i(y) then s_x = s_i s_y s_i, so T_x[k] = t_i[T_y[t_i[k]]].  A
    BFS over the roots from the simple roots records one such parent
    (i, y) per root; each frame root's table is its chain conjugated
    outwards from a simple reflection's table.
    """
    simple = sys_.simple_indices
    images = [sys_.reflection_images(a) for a in simple]
    parent: dict[int, tuple[int, int]] = {}
    start: dict[int, int] = {}
    for i, a in enumerate(simple):
        start[a] = start[sys_.negation[a]] = i
    frontier = list(start)
    while frontier:
        nxt = []
        for y in frontier:
            for i, img in enumerate(images):
                x = img[y]
                if x not in start and x not in parent:
                    parent[x] = (i, y)
                    nxt.append(x)
        frontier = nxt
    t = space.action_tables
    tables = []
    for x in frame_roots:
        chain = []
        while x not in start:
            i, x = parent[x]
            chain.append(i)
        table = t[start[x]]
        for i in reversed(chain):
            table = _compose(t[i], _compose(table, t[i]))
        tables.append(table)
    return tables


def _compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The table k -> a[b[k]]."""
    return itemgetter(*b)(a) if len(b) > 1 else tuple(a[k] for k in b)


def _is_involution(t: Sequence[int], identity: tuple[int, ...]) -> bool:
    """Is t an involutive permutation of range(len(identity))?"""
    size = len(identity)
    return (
        len(t) == size and min(t) >= 0 and max(t) < size and _compose(t, t) == identity
    )


def p_orbits(
    sys_: RootSystem, space: CosetSpace, frame_roots: Sequence[int]
) -> list[tuple[int, ...]]:
    """Orbit partition of the coset indices under the frame generators."""
    return _orbits(_frame_tables(sys_, space, frame_roots), space.size)


def _orbits(tables: Sequence[Sequence[int]], size: int) -> list[tuple[int, ...]]:
    """Orbit partition of range(size) under the given action tables."""
    seen = [False] * size
    orbits = []
    for start in range(size):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        seen[start] = True
        while frontier:
            nxt = []
            for p in frontier:
                for t in tables:
                    q = t[p]
                    if q not in orbit:
                        orbit.add(q)
                        seen[q] = True
                        nxt.append(q)
            frontier = nxt
        orbits.append(tuple(sorted(orbit)))
    return orbits


def full_check(
    sys_: RootSystem, space: CosetSpace, frame_roots: Sequence[int]
) -> FoldCertificate:
    """Certify that every frame orbit is simply transitive for its A_k.

    A_k is the set of generators moving some point of the orbit; the
    certificate requires |O_k| = 2^|A_k|, which pins the orbit's form to
    an |A_k|-fold Pfister class.  There is no a-priori reason for this
    to hold; failure raises CertificateError naming the orbit.

    The frame tables are checked once to be commuting involutive
    permutations, so they generate an elementary abelian 2-group G.  G
    acts on each orbit through a quotient that is regular (an abelian
    transitive action has one stabiliser, the kernel), so a generator
    fixing one point of the orbit fixes all of it and A_k is read off a
    single point.  The active generators map onto that quotient, which
    has |O_k| = 2^|A_k| elements, so they stay independent in it and
    the kernel in F2^frame is spanned by the inactive generators.  Its
    annihilator, the orbit's delta masks, is spanned by the active
    ones: fold |A_k|, masks 1 << i for i in A_k.
    """
    frame_roots = tuple(frame_roots)
    if space.certificate is not None and _same_frame(
        sys_, space.certificate.frame_roots, frame_roots
    ):
        return space.certificate
    labels = tuple(root_label(sys_, r) for r in frame_roots)
    tables = _frame_tables(sys_, space, frame_roots)
    identity = tuple(range(space.size))
    for i, t in enumerate(tables):
        if not _is_involution(t, identity):
            raise CertificateError(
                f"the reflection in {labels[i]} is not an involution on the cosets"
            )
        for j in range(i):
            if _compose(t, tables[j]) != _compose(tables[j], t):
                raise CertificateError(
                    f"the reflections in {labels[j]} and {labels[i]} do not "
                    "commute on the cosets: the roots are not orthogonal"
                )
    cert_orbits = []
    for oi, members in enumerate(_orbits(tables, space.size)):
        base = members[0]
        a_set = tuple(i for i, t in enumerate(tables) if t[base] != base)
        if (1 << len(a_set)) != len(members):
            raise CertificateError(
                f"orbit {oi} (size {len(members)}) is not simply transitive "
                f"under its {len(a_set)} active generators"
            )
        cert_orbits.append(
            CertOrbit(
                members=members,
                a_set=a_set,
                fold=len(a_set),
                delta_masks=tuple(1 << i for i in a_set),
            )
        )
    if sum(len(o.members) for o in cert_orbits) != space.size:
        raise AssertionError("orbit sizes do not sum to the coset count")
    return FoldCertificate(
        frame_roots=frame_roots, labels=labels, orbits=tuple(cert_orbits)
    )


def _same_frame(
    sys_: RootSystem, a: Sequence[int], b: Sequence[int]
) -> bool:
    canon = sys_.canonical_rep
    return [canon[r] for r in a] == [canon[r] for r in b]


def _canonical_certificate(
    sys_: RootSystem, space: CosetSpace
) -> Optional[FoldCertificate]:
    from .groups import standard_frames

    try:
        frames = standard_frames(sys_)
    except Exception:
        return None
    if len(frames) != 1:
        return None
    _, frame_roots = frames[0]
    return full_check(sys_, space, frame_roots)


# ---------------------------------------------------------------------------
# certificate consumers


def compare_support(cert: FoldCertificate, expected: KInvariant) -> bool:
    """Do the fold-m orbit products biject onto the expected monomials?

    m is the minimal fold and also the uniform degree of `expected`.
    Each fold-m orbit contributes the product of its delta symbols; the
    comparison demands that these products are single monomials hitting
    each expected term exactly once.
    """
    if not cert.orbits:
        return expected.is_zero()
    m = cert.min_fold
    products = []
    for o in cert.orbits:
        if o.fold != m:
            continue
        term = one(cert.labels)
        for dmask in o.delta_masks:
            term = term * _entry_class(cert.labels, 0, dmask)
        products.append(frozenset(term.terms))
    if expected.labels != cert.labels:
        raise ValueError("expected invariant uses a different context")
    targets = {frozenset((t,)) for t in expected.terms}
    if len(products) != len(expected.terms):
        return False
    return sorted(products, key=sorted) == sorted(targets, key=sorted)


def f_restriction(cert: FoldCertificate, m: int) -> KInvariant:
    """e_m of the certified decomposition (the f_m restriction values)."""
    return e_fold(cert.decomp(), m)


# ---------------------------------------------------------------------------
# cache


def cache_path(
    sys_: RootSystem, u_gen_roots: Sequence[int], cache_dir: str
) -> str:
    payload = json.dumps(
        {
            "format_version": CACHE_FORMAT_VERSION,
            "type": sys_.type_label,
            "rank": sys_.rank,
            "u_gens": sorted(sys_.roots[g].doubled for g in u_gen_roots),
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    name = f"cosets-{sys_.type_label}{sys_.rank}-{digest}.json"
    return os.path.join(cache_dir, name)


def _write_space(space: CosetSpace, path: str) -> None:
    # tuples encode as JSON arrays, so the stored tuples go in uncopied
    cert = space.certificate
    cert_json = None
    if cert is not None:
        cert_json = {
            "frame_roots": cert.frame_roots,
            "labels": cert.labels,
            "orbits": [
                {
                    "members": o.members,
                    "a_set": o.a_set,
                    "fold": o.fold,
                    "delta_masks": o.delta_masks,
                }
                for o in cert.orbits
            ],
        }
    doc = {
        "format_version": CACHE_FORMAT_VERSION,
        "type": space.type_label,
        "rank": space.rank,
        "u_gens": space.u_gen_roots,
        "u_order": space.u_order,
        "size": space.size,
        "representatives": space.representatives,
        "action_tables": space.action_tables,
        "certificate": cert_json,
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    # unique per writer: concurrent builders of the same space must not
    # share a scratch file (the final replace is atomic either way)
    tmp = f"{path}.tmp{os.getpid()}"
    # json.dumps without indent runs the C encoder; json.dump or an
    # indent would take the pure-Python one
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.write("\n")
    os.replace(tmp, path)


def read_cache_file(path: str) -> dict:
    """The JSON object stored in a cache file.

    Raises CacheFormatError naming the file when it does not hold one,
    for instance after a write was cut short.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as bad:
        raise CacheFormatError(f"cache file {path} is not valid JSON: {bad}") from None
    if not isinstance(doc, dict):
        raise CacheFormatError(f"cache file {path} does not hold a JSON object")
    return doc


def _load_space(
    sys_: RootSystem, u_gen_roots: tuple[int, ...], path: str
) -> CosetSpace:
    doc = read_cache_file(path)
    try:
        version = doc.get("format_version")
        if version != CACHE_FORMAT_VERSION:
            raise CacheFormatError(
                f"cache file {path} has format_version {version!r}; "
                f"expected {CACHE_FORMAT_VERSION}"
            )
        if doc["type"] != sys_.type_label or doc["rank"] != sys_.rank:
            raise CacheFormatError(f"cache file {path} is for {doc['type']}{doc['rank']}")
        expected_gens = sorted(tuple(sys_.roots[g].doubled) for g in u_gen_roots)
        if sorted(tuple(g) for g in doc["u_gens"]) != expected_gens:
            raise CacheFormatError(f"cache file {path} was built from different generators")
        cert = None
        if doc.get("certificate"):
            c = doc["certificate"]
            cert = FoldCertificate(
                frame_roots=tuple(c["frame_roots"]),
                labels=tuple(c["labels"]),
                orbits=tuple(
                    CertOrbit(
                        members=tuple(o["members"]),
                        a_set=tuple(o["a_set"]),
                        fold=o["fold"],
                        delta_masks=tuple(o["delta_masks"]),
                    )
                    for o in c["orbits"]
                ),
            )
        space = CosetSpace(
            type_label=doc["type"],
            rank=doc["rank"],
            u_gen_roots=tuple(tuple(g) for g in doc["u_gens"]),
            u_order=doc["u_order"],
            representatives=tuple(tuple(k) for k in doc["representatives"]),
            action_tables=tuple(tuple(t) for t in doc["action_tables"]),
            certificate=cert,
        )
        problem = _structural_problem(sys_, space, doc["size"])
    except (KeyError, TypeError) as bad:
        raise CacheFormatError(
            f"cache file {path} has a missing or malformed entry: {bad!r}"
        ) from None
    if problem:
        raise CacheFormatError(f"cache file {path} is inconsistent: {problem}")
    return space


def _structural_problem(
    sys_: RootSystem, space: CosetSpace, size: int
) -> Optional[str]:
    """What makes a loaded space unusable, or None.

    Frame tables are composed from the stored action tables, so each
    must be an involutive permutation; the certificate's orbits must
    partition the cosets with 2^|A| members each, A must be increasing
    frame positions, and the fold and delta masks are those full_check
    derives from A.
    """
    if space.size != size:
        return f"{space.size} representatives for size {size}"
    expected = weyl_order(sys_)
    if size * space.u_order != expected:
        return f"size x |U| = {size} x {space.u_order} != |W| = {expected}"
    if len(space.action_tables) != len(sys_.simple_indices):
        return f"{len(space.action_tables)} action tables for rank {sys_.rank}"
    identity = tuple(range(size))
    for i, t in enumerate(space.action_tables):
        if not _is_involution(t, identity):
            return f"action table {i} is not an involutive permutation of range({size})"
    cert = space.certificate
    if cert is not None:
        members = sorted(m for o in cert.orbits for m in o.members)
        if members != list(identity):
            return "certificate orbits do not partition the cosets"
        positions = range(len(cert.frame_roots))
        for oi, o in enumerate(cert.orbits):
            if len(o.members) != 1 << len(o.a_set):
                return (
                    f"certificate orbit {oi} has {len(o.members)} members "
                    f"for {len(o.a_set)} active generators"
                )
            if list(o.a_set) != sorted(set(o.a_set)) or not all(
                i in positions for i in o.a_set
            ):
                return (
                    f"certificate orbit {oi} has a_set {o.a_set}, not increasing "
                    f"positions of its {len(positions)} frame roots"
                )
            masks = tuple(1 << i for i in o.a_set)
            if o.fold != len(o.a_set) or o.delta_masks != masks:
                return (
                    f"certificate orbit {oi} has fold {o.fold} and delta masks "
                    f"{o.delta_masks} for a_set {o.a_set}"
                )
    return None


_CACHE_NAME = re.compile(r"cosets-.*\.json(\.tmp\d+)?")


def clear_cache(cache_dir: str) -> list[str]:
    """Remove coset cache files and scratch files of interrupted writes.

    Returns the removed names.
    """
    removed = []
    if not os.path.isdir(cache_dir):
        return removed
    for name in sorted(os.listdir(cache_dir)):
        if _CACHE_NAME.fullmatch(name):
            os.remove(os.path.join(cache_dir, name))
            removed.append(name)
    return removed
