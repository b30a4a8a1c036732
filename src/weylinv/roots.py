"""Exact crystallographic root systems in doubled-integer coordinates.

A root is the tuple of its coordinates, each stored as twice its real
value, so the half-integer roots of the E family stay exact integers.
The dot product of two such tuples is 4 times the inner product of the
roots, an integer.

Reflection tables find each image by its packed key, one int:
key(x) = sum_k x_k 2^(w k) in balanced base 2^w.  Vectors with all
|x_k| < 2^(w-1) have equal keys only if equal (the lowest differing
entries would differ by a multiple of 2^w), so a dict from root keys
finds exactly the roots among them.  RootSystem._validate takes w past
every entry of an image s_i(x) = x - c a_i, top + cmax top (top the
largest |entry| of a root, cmax the largest |c|), so an image that is
no root finds no key.  That index is the system's one, memoized as
("packed",): after validation every image of every reflection is a root
(Humphreys 1.14), so reflection_images finds its images in it too.

Supported systems (SUPPORTED): A_n (1 <= n <= 8), B_n/C_n (2 <= n <= 8,
C aliased to B), D_n (4 <= n <= 8), E6, E7, E8, F4.  The dihedral
families (including G2) have no root geometry here; they are handled as
permutation groups in weylinv.groups.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product, repeat
from operator import add, eq, mul, sub
from typing import Callable, Iterable

from .errors import UnsupportedSystemError

__all__ = [
    "RootSystem",
    "build_root_system",
    "SUPPORTED",
]

#: A root: its doubled coordinates.
Root = tuple[int, ...]

#: (type_label, min_rank, max_rank) rows of the supported table.  E/F entries
#: are fixed-rank.  The A/B/C/D cap of 8 stays until ROADMAP item 3 lifts it.
SUPPORTED: tuple[tuple[str, int, int], ...] = (
    ("A", 1, 8),
    ("B", 2, 8),
    ("C", 2, 8),
    ("D", 4, 8),
    ("E", 6, 8),
    ("F", 4, 4),
)


def _vec(ambient: int, entries: dict[int, int]) -> Root:
    """The root of this width with the given nonzero doubled entries."""
    doubled = [0] * ambient
    for pos, val in entries.items():
        doubled[pos] = val
    return tuple(doubled)


def _roots_a(n: int) -> tuple[list[Root], list[Root]]:
    roots = [_vec(n + 1, {i: 2, j: -2}) for i, j in permutations(range(n + 1), 2)]
    simple = [_vec(n + 1, {i: 2, i + 1: -2}) for i in range(n)]
    return roots, simple


def _roots_d(n: int) -> tuple[list[Root], list[Root]]:
    """D_n; its roots +-e_i +-e_j are also roots of B_n, E8 and F4."""
    roots = [
        _vec(n, {i: 2 * si, j: 2 * sj})
        for i, j in combinations(range(n), 2)
        for si in (1, -1)
        for sj in (1, -1)
    ]
    simple = [_vec(n, {i: 2, i + 1: -2}) for i in range(n - 1)]
    simple.append(_vec(n, {n - 2: 2, n - 1: 2}))
    return roots, simple


def _roots_b(n: int) -> tuple[list[Root], list[Root]]:
    roots = _roots_d(n)[0] + [_vec(n, {i: 2 * s}) for i in range(n) for s in (1, -1)]
    simple = [_vec(n, {i: 2, i + 1: -2}) for i in range(n - 1)]
    simple.append(_vec(n, {n - 1: 2}))
    return roots, simple


def _roots_e(n: int) -> tuple[list[Root], list[Root]]:
    """E8, or the E7 (E6) of its roots orthogonal to e7 + e8 (and e6 - e7)."""
    roots = _roots_d(8)[0]
    roots += [signs for signs in product((1, -1), repeat=8) if signs.count(-1) % 2 == 0]
    if n < 8:  # doubled coords 6 and 7 sum to 0 (and 5 equals 6)
        roots = [r for r in roots if r[6] + r[7] == 0 and (n == 7 or r[5] == r[6])]
    simple = [
        (1, -1, -1, -1, -1, -1, -1, 1),
        _vec(8, {0: 2, 1: 2}),
        _vec(8, {1: 2, 0: -2}),
        _vec(8, {2: 2, 1: -2}),
        _vec(8, {3: 2, 2: -2}),
        _vec(8, {4: 2, 3: -2}),
        _vec(8, {5: 2, 4: -2}),
        _vec(8, {6: 2, 5: -2}),
    ]
    return roots, simple[:n]


def _roots_f(n: int) -> tuple[list[Root], list[Root]]:
    roots = _roots_b(4)[0]
    roots += list(product((1, -1), repeat=4))
    simple = [
        _vec(4, {1: 2, 2: -2}),
        _vec(4, {2: 2, 3: -2}),
        _vec(4, {3: 2}),
        (1, -1, -1, -1),
    ]
    return roots, simple


class RootSystem:
    """Immutable root system with deterministic lexicographic root order.

    Attributes:
        type_label: one of A, B, D, E, F (C is aliased to B at build time).
        rank: Coxeter rank.
        roots: tuple of roots, each a tuple of ints (its doubled
            coordinates), sorted lexicographically.
        index: root -> its position in roots.
        simple_indices: indices of a Bourbaki simple system.
        negation: negation[i] is the index of -roots[i].
        lines: indices of the sign-canonical root of each +- pair, ascending.
        line_of: root index -> position of its line in `lines`.
        canonical_rep: root index -> index of the sign-canonical partner.
        notes: informational strings (e.g. the C -> B alias).

    The values derived from the system (the packed key index, reflection
    tables, frame forms and their total classes, coset spaces) are held
    by memo(), so they live exactly as long as the system:
    build_root_system.cache_clear() drops them all.
    """

    def __init__(
        self,
        type_label: str,
        rank: int,
        roots: Iterable[Root],
        simple: Iterable[Root],
        notes: tuple[str, ...] = (),
    ):
        self.type_label = type_label
        self.rank = rank
        self.roots: tuple[Root, ...] = tuple(sorted(roots))
        self.notes = notes
        self.index: dict[Root, int] = {r: i for i, r in enumerate(self.roots)}
        if len(self.index) != len(self.roots):
            raise ValueError("duplicate roots")
        simple = tuple(simple)
        negatives = [tuple([-d for d in r]) for r in self.roots]
        for s in simple:
            if s not in self.index:
                raise ValueError(f"simple root {s} is not among the roots")
        for neg in negatives:
            if neg not in self.index:
                raise ValueError(f"negation is not a perfect matching: {neg} is missing")
        self.simple_indices: tuple[int, ...] = tuple(self.index[s] for s in simple)
        self.negation: tuple[int, ...] = tuple(self.index[r] for r in negatives)
        # r and -r first differ at r's first nonzero entry, so the later
        # of the two in root order is the one whose entry there is positive
        self.canonical_rep: tuple[int, ...] = tuple(map(max, enumerate(self.negation)))
        self.lines: tuple[int, ...] = tuple(
            i for i, c in enumerate(self.canonical_rep) if c == i
        )
        position = {r: pos for pos, r in enumerate(self.lines)}
        self.line_of: tuple[int, ...] = tuple(map(position.get, self.canonical_rep))
        self._memo: dict = {}
        self._validate()

    def __repr__(self) -> str:
        return f"RootSystem({self.type_label}{self.rank}, {len(self.roots)} roots)"

    def memo(self, key, build):
        """The value derived from this system under key: build() on the
        first request, the stored value after that.

        Keys are tuples led by the kind of value: ("packed",),
        ("reflection", i), ("cosets", cache_dir) and, in
        basis, a FormSW action with a frame's roots for its forms and
        total SW classes.
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def _validate(self) -> None:
        """Check that the roots form a crystallographic root system.

        In O(rank x roots) integer operations on doubled coordinates:
        (a) no root is zero (__init__ has matched each root with its
        negative, so negation is then a perfect matching); (b) every pairing
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

        The tables of (b) are stored as the simple reflections'
        reflection_images: each is then a permutation of Phi, and as the
        restriction of an orthogonal reflection a sign-equivariant
        isometry, so no later check repeats this one.  Images are found
        by packed key (see the module docstring), building no tuple, and
        the key index is kept as the system's ("packed",).
        """
        roots = self.roots
        n = len(roots)
        if any(map(eq, self.negation, range(n))):  # a zero vector is its own negative
            raise ValueError("negation is not a perfect matching")
        cols = tuple(zip(*roots))
        pairings = []
        for s in self.simple_indices:
            ad = roots[s]
            aa = sum(map(mul, ad, ad))
            twice = _combine(cols, [2 * a for a in ad], n)  # 2 ad.wd per root wd
            if any(map(aa.__rmod__, twice)):
                wd = roots[next(j for j, t in enumerate(twice) if t % aa)]
                raise ValueError(f"non-integral Cartan pairing between {ad} and {wd}")
            pairings.append(list(map(aa.__rfloordiv__, twice)))
        # Phi = -Phi, so the largest entry and pairing are the largest |.|
        top = max(map(max, cols), default=0)
        index = _packed_index(cols, top + top * max(map(max, pairings), default=0), n)
        self._memo["packed",] = index
        keys = list(index)
        tables = []
        for s, cs in zip(self.simple_indices, pairings):
            # key(s_i w) = key(w) - c key(a_i); c = 0 gives w its own key
            table = tuple(map(index.get, map(sub, keys, map(keys[s].__mul__, cs))))
            if None in table:
                wd = roots[table.index(None)]
                raise ValueError(f"not closed: s_{roots[s]}({wd}) missing")
            tables.append(table)
            self._memo["reflection", s] = table
        reached = _bfs_orbits(self.simple_indices, lambda i: [t[i] for t in tables])
        seen = {i for orbit in reached for i in orbit}
        if len(seen) != n:
            missing = next(d for i, d in enumerate(roots) if i not in seen)
            raise ValueError(
                f"root {missing} is not reached from the simple roots"
            )

    def reflection_images(self, root_idx: int) -> tuple[int, ...]:
        """Root-index images of the reflection at roots[root_idx].

        The Cartan integers come from the coordinate columns, and each
        image is looked up by its packed key, key(w) - c key(v), in the
        ("packed",) index _validate built.  _validate also stores the
        simple reflections' tables, so those are never rebuilt here.
        """

        def build():
            n = len(self.roots)
            cols = tuple(zip(*self.roots))
            index = self._memo["packed",]
            vd = self.roots[root_idx]
            vv = sum(map(mul, vd, vd))
            cs = map(vv.__rfloordiv__, _combine(cols, [2 * a for a in vd], n))
            keys = list(index)
            images = map(sub, keys, map(keys[root_idx].__mul__, cs))
            return tuple(map(index.__getitem__, images))

        return self.memo(("reflection", root_idx), build)


def _combine(cols: tuple[tuple[int, ...], ...], coeffs: list[int], n: int) -> list[int]:
    """sum_k coeffs[k] cols[k], one entry per root: the dot products of
    coeffs with every root, or with coeffs = 2^(w k) the packed keys."""
    out = [0] * n
    for c, col in zip(coeffs, cols):
        if c:
            out = map(add, out, map(mul, col, repeat(c, n)))
    return list(out)


def _packed_index(cols, bound: int, n: int) -> dict[int, int]:
    """Packed key -> root index, in base 2^w with 2^(w-1) > bound."""
    w = bound.bit_length() + 1
    keys = _combine(cols, [1 << (w * k) for k in range(len(cols))], n)
    return dict(zip(keys, range(n)))


def _bfs_orbits(points: Iterable, step: Callable[..., Iterable]) -> list[list]:
    """The orbits of points under step, where step(x) gives the images
    of x under the generators.

    Each orbit is a list in breadth-first discovery order, led by the
    first of points it contains; orbits come in the order of those
    leading points, and a point already reached is skipped.  The
    package's one orbit search; the cosets._label_bfs tree walk is a
    packed kernel kept apart for speed.
    """
    seen = set()
    orbits = []
    for start in points:
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for x in orbit:  # FIFO: the loop reaches appended points
            for y in step(x):
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        orbits.append(orbit)
    return orbits


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
    build = {"A": _roots_a, "B": _roots_b, "D": _roots_d, "E": _roots_e, "F": _roots_f}
    roots, simple = build[label](rank)
    return RootSystem(label, rank, roots, simple, notes)

