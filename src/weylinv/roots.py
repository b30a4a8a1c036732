"""Exact crystallographic root systems in doubled-integer coordinates.

Every coordinate is stored as twice its real value, so the half-integer
roots of the E family stay exact integers.  Inner products consequently
carry a denominator of 4 and are returned as Fraction.

Supported systems: A_n (n >= 1), B_n/C_n (n >= 2, C aliased to B), D_n
(n >= 4), E6, E7, E8, F4.  The dihedral families (including G2) have no
root geometry here; they are handled as permutation groups in
weylinv.groups.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import mul
from typing import Iterable

from .errors import IsotropicRootError, RankMismatchError, UnsupportedSystemError

__all__ = [
    "RootVector",
    "RootSystem",
    "build_root_system",
    "inner_product",
    "reflect",
    "cartan_integer",
    "roots_to_json",
    "SUPPORTED",
]

#: (type_label, min_rank, max_rank) rows of the supported table.  E/F entries
#: are fixed-rank.  max_rank 8 keeps every enumeration comfortably in memory.
SUPPORTED: tuple[tuple[str, int, int], ...] = (
    ("A", 1, 8),
    ("B", 2, 8),
    ("C", 2, 8),
    ("D", 4, 8),
    ("E", 6, 8),
    ("F", 4, 4),
)


@dataclass(frozen=True)
class RootVector:
    """A vector with entries equal to 2x the real coordinates."""

    doubled: tuple[int, ...]

    def __post_init__(self) -> None:
        if not any(self.doubled):
            raise ValueError("root vector must be nonzero")

    @property
    def rank(self) -> int:
        """Ambient coordinate dimension."""
        return len(self.doubled)

    def __neg__(self) -> "RootVector":
        return RootVector(tuple(-d for d in self.doubled))

    def sign_canonical(self) -> "RootVector":
        """The representative of {v, -v} whose first nonzero entry is positive."""
        for d in self.doubled:
            if d > 0:
                return self
            if d < 0:
                return -self
        raise AssertionError("unreachable: zero vector")

    def norm(self) -> Fraction:
        return inner_product(self, self)

    def render(self) -> str:
        return "(" + ", ".join(
            str(Fraction(d, 2)) for d in self.doubled
        ) + ")"


def inner_product(v: RootVector, w: RootVector) -> Fraction:
    """Exact scalar product; doubled coordinates give (sum d_i d'_i) / 4."""
    if len(v.doubled) != len(w.doubled):
        raise RankMismatchError(
            f"rank mismatch: {len(v.doubled)} vs {len(w.doubled)}"
        )
    return Fraction(sum(a * b for a, b in zip(v.doubled, w.doubled)), 4)


def cartan_integer(v: RootVector, w: RootVector) -> int:
    """2(v,w)/(v,v), guaranteed integral for root pairs of a root system."""
    vv = inner_product(v, v)
    if vv == 0:
        raise IsotropicRootError("isotropic vector has no Cartan pairing")
    c = 2 * inner_product(v, w) / vv
    if c.denominator != 1:
        raise ValueError(f"non-integral Cartan pairing {c} for {v} , {w}")
    return int(c)


def reflect(v: RootVector, w: RootVector) -> RootVector:
    """Image of w under the reflection through the hyperplane orthogonal to v.

    s_v(w) = w - (2(v,w)/(v,v)) v, evaluated exactly.  For root pairs the
    coefficient is the (integral) Cartan number, so the result stays in
    doubled-integer coordinates.
    """
    vv = inner_product(v, v)
    if vv == 0:
        raise IsotropicRootError("cannot reflect through an isotropic vector")
    coeff = 2 * inner_product(v, w) / vv
    doubled = tuple(
        dw - coeff * dv for dv, dw in zip(v.doubled, w.doubled)
    )
    out = []
    for d in doubled:
        if isinstance(d, Fraction):
            if d.denominator != 1:
                raise ValueError("reflection left the doubled-integer lattice")
            d = int(d)
        out.append(d)
    return RootVector(tuple(out))


def _vec(ambient: int, entries: dict[int, int]) -> RootVector:
    doubled = [0] * ambient
    for pos, val in entries.items():
        doubled[pos] = val
    return RootVector(tuple(doubled))


def _roots_a(n: int) -> tuple[list[RootVector], list[RootVector]]:
    ambient = n + 1
    roots = [
        _vec(ambient, {i: 2, j: -2})
        for i in range(ambient)
        for j in range(ambient)
        if i != j
    ]
    simple = [_vec(ambient, {i: 2, i + 1: -2}) for i in range(n)]
    return roots, simple


def _roots_b(n: int) -> tuple[list[RootVector], list[RootVector]]:
    roots = [_vec(n, {i: 2 * s}) for i in range(n) for s in (1, -1)]
    roots += [
        _vec(n, {i: 2 * si, j: 2 * sj})
        for i, j in combinations(range(n), 2)
        for si in (1, -1)
        for sj in (1, -1)
    ]
    simple = [_vec(n, {i: 2, i + 1: -2}) for i in range(n - 1)]
    simple.append(_vec(n, {n - 1: 2}))
    return roots, simple


def _roots_d(n: int) -> tuple[list[RootVector], list[RootVector]]:
    roots = [
        _vec(n, {i: 2 * si, j: 2 * sj})
        for i, j in combinations(range(n), 2)
        for si in (1, -1)
        for sj in (1, -1)
    ]
    simple = [_vec(n, {i: 2, i + 1: -2}) for i in range(n - 1)]
    simple.append(_vec(n, {n - 2: 2, n - 1: 2}))
    return roots, simple


def _roots_e8() -> tuple[list[RootVector], list[RootVector]]:
    roots = [
        _vec(8, {i: 2 * si, j: 2 * sj})
        for i, j in combinations(range(8), 2)
        for si in (1, -1)
        for sj in (1, -1)
    ]
    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(RootVector(signs))
    simple = [
        RootVector((1, -1, -1, -1, -1, -1, -1, 1)),
        _vec(8, {0: 2, 1: 2}),
        _vec(8, {1: 2, 0: -2}),
        _vec(8, {2: 2, 1: -2}),
        _vec(8, {3: 2, 2: -2}),
        _vec(8, {4: 2, 3: -2}),
        _vec(8, {5: 2, 4: -2}),
        _vec(8, {6: 2, 5: -2}),
    ]
    return roots, simple


def _roots_e7() -> tuple[list[RootVector], list[RootVector]]:
    all_e8, simple_e8 = _roots_e8()
    # E7 = roots of E8 orthogonal to e7 + e8 (doubled coords 6 and 7 sum to 0)
    roots = [r for r in all_e8 if r.doubled[6] + r.doubled[7] == 0]
    return roots, simple_e8[:7]


def _roots_e6() -> tuple[list[RootVector], list[RootVector]]:
    all_e8, simple_e8 = _roots_e8()
    # E6 = roots of E8 orthogonal to both e7 + e8 and e6 - e7
    roots = [
        r
        for r in all_e8
        if r.doubled[6] + r.doubled[7] == 0 and r.doubled[5] == r.doubled[6]
    ]
    return roots, simple_e8[:6]


def _roots_f4() -> tuple[list[RootVector], list[RootVector]]:
    roots = [
        _vec(4, {i: 2 * si, j: 2 * sj})
        for i, j in combinations(range(4), 2)
        for si in (1, -1)
        for sj in (1, -1)
    ]
    roots += [_vec(4, {i: 2 * s}) for i in range(4) for s in (1, -1)]
    roots += [RootVector(signs) for signs in product((1, -1), repeat=4)]
    simple = [
        _vec(4, {1: 2, 2: -2}),
        _vec(4, {2: 2, 3: -2}),
        _vec(4, {3: 2}),
        RootVector((1, -1, -1, -1)),
    ]
    return roots, simple


class RootSystem:
    """Immutable root system with deterministic lexicographic root order.

    Attributes:
        type_label: one of A, B, D, E, F (C is aliased to B at build time).
        rank: Coxeter rank.
        roots: tuple of RootVector, sorted lexicographically on doubled coords.
        simple_indices: indices of a Bourbaki simple system.
        negation: negation[i] is the index of -roots[i].
        lines: indices of the sign-canonical root of each +- pair, ascending.
        line_of: root index -> position of its line in `lines`.
        canonical_rep: root index -> index of the sign-canonical partner.
        notes: informational strings (e.g. the C -> B alias).

    gram_row(i)[j] is the dot product of the doubled coordinates of
    roots i and j, an integer equal to 4 (roots[i], roots[j]).  It and
    every other value derived from the system (reflection tables, Omega
    classes, frame forms, coset spaces, fold certificates) is computed
    at its first use and held by memo(), so it lives exactly as long as
    the system: build_root_system.cache_clear() drops them all.
    """

    def __init__(
        self,
        type_label: str,
        rank: int,
        roots: Iterable[RootVector],
        simple: Iterable[RootVector],
        notes: tuple[str, ...] = (),
    ):
        self.type_label = type_label
        self.rank = rank
        self.roots: tuple[RootVector, ...] = tuple(
            sorted(roots, key=lambda r: r.doubled)
        )
        self.notes = notes
        self.index: dict[tuple[int, ...], int] = {
            r.doubled: i for i, r in enumerate(self.roots)
        }
        if len(self.index) != len(self.roots):
            raise ValueError("duplicate roots")
        self.simple_indices: tuple[int, ...] = tuple(
            self.index[s.doubled] for s in simple
        )
        self.negation: tuple[int, ...] = tuple(
            self.index[(-r).doubled] for r in self.roots
        )
        canonical = []
        for i, r in enumerate(self.roots):
            canonical.append(self.index[r.sign_canonical().doubled])
        self.canonical_rep: tuple[int, ...] = tuple(canonical)
        self.lines: tuple[int, ...] = tuple(
            i for i, c in enumerate(self.canonical_rep) if c == i
        )
        self.line_of: dict[int, int] = {}
        for pos, root_idx in enumerate(self.lines):
            self.line_of[root_idx] = pos
            self.line_of[self.negation[root_idx]] = pos
        self._memo: dict = {}
        self._validate()

    def __repr__(self) -> str:
        return f"RootSystem({self.type_label}{self.rank}, {len(self.roots)} roots)"

    def memo(self, key, build):
        """The value derived from this system under key: build() on the
        first request, the stored value after that.

        Keys are tuples led by the kind of value: ("gram", i),
        ("reflection", i), ("omega", max_frames), ("cosets", cache_dir),
        ("certificate", cache_dir, frame) and, in basis, a recipe kind
        with a frame's roots for its forms and total SW classes.
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def gram_row(self, i: int) -> tuple[int, ...]:
        """Dot products of the doubled coordinates of roots[i] with every root."""

        def build():
            vd = self.roots[i].doubled
            return tuple([sum(map(mul, vd, w.doubled)) for w in self.roots])

        return self.memo(("gram", i), build)

    def root_index(self, v: RootVector) -> int:
        try:
            return self.index[v.doubled]
        except KeyError:
            raise ValueError(f"{v.render()} is not a root of {self!r}") from None

    def _validate(self) -> None:
        """Check that the roots form a crystallographic root system.

        In O(rank x roots) integer operations on doubled coordinates:
        (a) negation is a perfect matching; (b) every pairing
        <w, a_i^v> = 2(w, a_i)/(a_i, a_i) with a simple root a_i is an
        integer and s_i(w) = w - <w, a_i^v> a_i is a root; (c) a search
        from the simple roots under the simple reflections reaches every
        root, so Phi = W.Delta with W = <s_i>.

        That is enough for closure under every reflection and integral
        Cartan pairings (Humphreys, Reflection Groups and Coxeter
        Groups, 1.5 and 1.14).  By (b) each s_i maps the finite set Phi
        injectively into itself, so it permutes Phi, and so does every
        w in W.  By (c) each root is b = w a_i for some w in W; then
        s_b = w s_i w^-1 permutes Phi, and since w is an isometry,
        <g, b^v> = <w^-1 g, a_i^v>, an integer by (b) because w^-1 g is
        a root.

        The Gram matrix is not needed here: `gram_row` computes each row
        the first time it is read.
        """
        roots = self.roots
        n = len(roots)
        if n % 2 != 0:
            raise ValueError("root count must be even (negation pairing)")
        for i in range(n):
            j = self.negation[i]
            if j == i or self.negation[j] != i:
                raise ValueError("negation is not a perfect matching")
        doubles = [r.doubled for r in roots]
        index = self.index
        tables = []
        for s in self.simple_indices:
            ad = doubles[s]
            aa = sum(map(mul, ad, ad))
            table = []
            for j, wd in enumerate(doubles):
                c, rem = divmod(2 * sum(map(mul, ad, wd)), aa)
                if rem:
                    raise ValueError(
                        f"non-integral Cartan pairing between {ad} and {wd}"
                    )
                if c:  # s_i fixes the roots orthogonal to a_i
                    j = index.get(tuple([b - c * a for a, b in zip(ad, wd)]))
                    if j is None:
                        raise ValueError(f"not closed: s_{ad}({wd}) missing")
                table.append(j)
            tables.append(table)
        seen = set(self.simple_indices)
        frontier = list(seen)
        while frontier:
            i = frontier.pop()
            for table in tables:
                j = table[i]
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
        if len(seen) != n:
            missing = next(d for i, d in enumerate(doubles) if i not in seen)
            raise ValueError(
                f"root {missing} is not reached from the simple roots"
            )

    def reflection_images(self, root_idx: int) -> tuple[int, ...]:
        """Root-index images of the reflection at roots[root_idx].

        The Cartan integers come from the Gram row; a root orthogonal to
        roots[root_idx] is its own image.
        """
        vd = self.roots[root_idx].doubled
        row = self.gram_row(root_idx)
        vv = row[root_idx]
        index = self.index
        out = []
        for j, (w, g) in enumerate(zip(self.roots, row)):
            if g:
                c = 2 * g // vv
                j = index[tuple([b - c * a for a, b in zip(vd, w.doubled)])]
            out.append(j)
        return tuple(out)


_ALIAS_NOTE = "type C aliased to B: identical Weyl group and reflection set"


@lru_cache(maxsize=None)
def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Construct a supported root system; results are cached per (type, rank).

    C_n requests return the B_n system with a note recorded on the object.
    """
    label = type_label.upper()
    notes: tuple[str, ...] = ()
    if label == "C":
        label = "B"
        notes = (_ALIAS_NOTE,)
    for t, lo, hi in SUPPORTED:
        if t == label and lo <= rank <= hi:
            break
    else:
        raise UnsupportedSystemError(
            f"unsupported root system {type_label}{rank}"
        )
    if label == "A":
        roots, simple = _roots_a(rank)
    elif label == "B":
        roots, simple = _roots_b(rank)
    elif label == "D":
        roots, simple = _roots_d(rank)
    elif label == "E":
        if rank == 6:
            roots, simple = _roots_e6()
        elif rank == 7:
            roots, simple = _roots_e7()
        elif rank == 8:
            roots, simple = _roots_e8()
        else:
            raise UnsupportedSystemError(f"unsupported root system E{rank}")
    elif label == "F":
        roots, simple = _roots_f4()
    else:  # pragma: no cover - SUPPORTED table guards this
        raise UnsupportedSystemError(type_label)
    return RootSystem(label, rank, roots, simple, notes)


def roots_to_json(sys_: RootSystem) -> str:
    """Canonical JSON export of the root list (doubled integer coordinates)."""
    payload = {
        "type": sys_.type_label,
        "rank": sys_.rank,
        "count": len(sys_.roots),
        "doubled_roots": [list(r.doubled) for r in sys_.roots],
        "simple_indices": list(sys_.simple_indices),
        "notes": list(sys_.notes),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
