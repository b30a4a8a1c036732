"""Torsor-parameterized quadratic forms and their symbol-algebra images.

Two routes from an embedding of (Z/2)^k into an orthogonal group to a
diagonal form over the torsor coordinates:

 * linear route: simultaneous exact eigenspace splitting of the
   commuting involution matrices; each twisted basis vector contributes
   one diagonal entry 2^a * (product of coordinates where the character
   is -1).
 * permutation route: the action on a finite point set decomposes into
   orbits; each orbit of size 2^f is a scaled f-fold Pfister form whose
   slots are pullbacks of the dual basis of P/kernel.  One kernel,
   _orbit_pfister, finds each orbit by doubling from its least point and
   reads the kernel off the same pass, in O(k + 2^f) table reads.  The
   coset fold certificate does not need it: cosets reads each orbit's
   active set off the frame pairings of a coset key.

Entries are square classes: only 2-power scales times coordinate
monomials occur for the embeddings treated here, and anything else
raises UnsupportedEmbeddingError instead of approximating.
"""
from __future__ import annotations

from math import gcd
from operator import mul
from typing import Optional, Sequence

from .algebra import KInvariant, Monomial, _f2_eliminate, kinv, one, two
from .errors import UnsupportedEmbeddingError
from .groups import _compose, root_label

__all__ = [
    "DiagonalForm",
    "form_of_linear_action",
    "form_of_permutation_action",
    "total_sw",
    "twist_by_two",
]


class DiagonalForm:
    """<2^a * prod(coords), ...> over a fixed coordinate context."""

    __slots__ = ("labels", "entries")

    def __init__(
        self, labels: tuple[str, ...], entries: tuple[tuple[int, int], ...]
    ) -> None:
        limit = 1 << len(labels)
        for a, mask in entries:  # (two_exponent, var_mask)
            if a < 0:
                raise ValueError("negative 2-exponent")
            if not 0 <= mask < limit:
                raise ValueError("entry references a coordinate outside the context")
        self.labels = labels
        self.entries = entries

    def __eq__(self, other: object) -> bool:
        if type(other) is not DiagonalForm:
            return NotImplemented
        return self.labels == other.labels and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.labels, self.entries))

    def __repr__(self) -> str:
        return f"DiagonalForm(labels={self.labels!r}, entries={self.entries!r})"

    @property
    def dim(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# linear route


def _primitive(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries (v nonzero)."""
    g = gcd(*v)
    return v if g == 1 else [x // g for x in v]


def _echelon(rows: list[list[int]]) -> list[list[int]]:
    """Primitive echelon basis of the rows' span, in ascending pivot order.

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968): a row is
    reduced at each earlier pivot p by row <- b[p] row - row[p] b.  If
    the inputs are nonzero rational multiples of rows r_k, every row
    kept is a nonzero multiple of the one that rational elimination
    row <- row - (row[p] / b[p]) b builds from the r_k with the same
    pivot order, because the update is bilinear in (row, b) and b[p]
    is nonzero; so the zero tests and pivots are the same too.
    """
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        for piv, b in zip(pivots, basis):
            c = row[piv]
            if c:
                bp = b[piv]
                row = [bp * x - c * y for x, y in zip(row, b)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        basis.append(_primitive(row))
        pivots.append(lead)
    order = sorted(range(len(basis)), key=pivots.__getitem__)
    return [basis[i] for i in order]


def _orthogonalize(basis: list[list[int]]) -> list[list[int]]:
    """Unnormalized Gram-Schmidt on integer vectors, in basis order.

    w <- (u.u) w - (u.w) u is (u.u) times w - (u.w / u.u) u, and it is
    bilinear in (w, u) again, so each vector stays a nonzero multiple of
    the one rational Gram-Schmidt builds from the same inputs.
    """
    ortho: list[list[int]] = []
    for w in basis:
        for u in ortho:
            uw = sum(map(mul, u, w))
            if uw:
                uu = sum(map(mul, u, u))
                w = _primitive([uu * x - uw * y for x, y in zip(w, u)])
        ortho.append(w)
    return ortho


def _square_free_two_part(x: int) -> Optional[int]:
    """x = 2^a * square -> a mod 2; None when the odd square-free part != 1.

    A rational x works too: x.numerator * x.denominator is x times the
    square of its denominator, and for an int it is x itself.
    """
    if x <= 0:
        return None
    n = x.numerator * x.denominator
    a = 0
    while n % 2 == 0:
        n //= 2
        a += 1
    # strip odd square factors
    f = 3
    while f * f <= n:
        while n % (f * f) == 0:
            n //= f * f
        f += 2
    if n != 1:
        return None
    return a % 2


def _form_of_numerators(
    numerators: Sequence[tuple[list[list[int]], int]], labels: Sequence[str]
) -> DiagonalForm:
    """Diagonal form of the torsor twist for commuting orthogonal
    involutions M = A / den, given as the pairs (A, den), den > 0.

    The involution, orthogonality and commutation checks run on the
    integer numerators: M is an orthogonal involution exactly when
    A.A = A^T.A = den^2 * I, and M_i, M_j commute exactly when
    A_i.A_j = A_j.A_i.  A common orthogonal eigenbasis is then computed
    on integer vectors; a vector u with character chi and squared norm
    2^a * (square) yields the entry 2^a * prod_{i in chi} c_i.  Each
    vector is a nonzero rational multiple of the one that the same
    eliminations in rational arithmetic build, so its norm differs by a
    square and the entry is the same.  Any common denominator of M will
    do for den: the checks and the character spaces scale with it.
    """
    k = len(numerators)
    if k != len(labels):
        raise ValueError("one label per generator required")
    dim = len(numerators[0][0]) if numerators else 0

    def int_mul(a, b):
        cols = list(zip(*b))
        return [[sum(map(mul, row, col)) for col in cols] for row in a]

    for a, den in numerators:
        if len(a) != dim or any(len(row) != dim for row in a):
            raise ValueError("matrices must be square of equal size")
        scaled_ident = [[den * den * (i == j) for j in range(dim)] for i in range(dim)]
        if int_mul(a, a) != scaled_ident:
            raise ValueError("generator is not an involution")
        if int_mul(list(zip(*a)), a) != scaled_ident:
            raise ValueError("generator is not orthogonal")
    for i in range(k):
        for j in range(i + 1, k):
            ai, aj = numerators[i][0], numerators[j][0]
            if int_mul(ai, aj) != int_mul(aj, ai):
                raise ValueError("generators do not commute")

    # split into simultaneous character spaces: with v in a space, the
    # (+1)- and (-1)-parts of v under M = A / den are positive multiples
    # of den v + A v and den v - A v
    spaces: list[tuple[int, list[list[int]]]] = [
        (0, [[int(i == j) for j in range(dim)] for i in range(dim)])
    ]
    for gi, (a, den) in enumerate(numerators):
        nxt = []
        for chi, basis in spaces:
            plus, minus = [], []
            for v in basis:
                av = [sum(map(mul, row, v)) for row in a]
                plus.append([den * x + y for x, y in zip(v, av)])
                minus.append([den * x - y for x, y in zip(v, av)])
            pb, mb = _echelon(plus), _echelon(minus)
            if pb:
                nxt.append((chi, pb))
            if mb:
                nxt.append((chi | (1 << gi), mb))
        spaces = nxt
    if sum(len(b) for _, b in spaces) != dim:
        raise AssertionError("character spaces do not fill the ambient space")

    entries = []
    for chi, basis in spaces:
        for u in _orthogonalize(basis):
            norm = sum(map(mul, u, u))
            a = _square_free_two_part(norm)
            if a is None:
                raise UnsupportedEmbeddingError(
                    f"eigenvector norm {norm} is not 2^a times a square"
                )
            entries.append((a, chi))
    entries.sort(key=lambda e: (e[1] == 0, e[1], e[0]))
    return DiagonalForm(tuple(labels), tuple(entries))


def form_of_linear_action(
    sys_, frame_roots: Sequence[int], labels: Optional[Sequence[str]] = None
) -> DiagonalForm:
    """Diagonal form of a frame acting on the root system's ambient space."""
    if labels is None:
        labels = [root_label(sys_, r) for r in frame_roots]
    # the reflection at d is A / dd with A = dd I - 2 d d^T
    numerators = []
    for r in frame_roots:
        d = sys_.roots[r]
        dd = sum(map(mul, d, d))
        a = [[-2 * x * y for y in d] for x in d]
        for i in range(len(d)):
            a[i][i] += dd
        numerators.append((a, dd))
    return _form_of_numerators(numerators, labels)


# ---------------------------------------------------------------------------
# permutation route


def _f2_kernel_basis(vectors: list[int], width: int) -> list[int]:
    """Deterministic basis of {x : x . v = 0 for all v} in F2^width."""
    # row-reduce the constraint matrix, then solve back from each free variable
    rows = [r for r, _ in _f2_eliminate(vectors)[0]]
    pivots = [(r & -r).bit_length() - 1 for r in rows]
    free = [i for i in range(width) if i not in pivots]
    basis = []
    for f in free:
        x = 1 << f
        # solve pivot coordinates; rows are in ascending pivot order, and
        # each row may involve free vars and later pivots, so sweep from
        # the highest pivot down
        for r, p in sorted(zip(rows, pivots), key=lambda t: -t[1]):
            if (r & x).bit_count() % 2:
                x ^= 1 << p
        basis.append(x)
    return sorted(basis)


def _commuting_involution_failure(
    tables: Sequence[Sequence[int]], size: int
) -> Optional[tuple[int, ...]]:
    """None when the tables are commuting involutive permutations of
    range(size); otherwise the first failure, (i,) when table i is not an
    involutive permutation and (j, i), j < i, when tables j and i do not
    commute."""
    identity = tuple(range(size))
    for i, t in enumerate(tables):
        in_range = len(t) == size and (not t or min(t) >= 0 and max(t) < size)
        if not in_range or _compose(t, t) != identity:
            return (i,)
        for j in range(i):
            if _compose(t, tables[j]) != _compose(tables[j], t):
                return (j, i)
    return None


def _orbit_pfister(
    tables: Sequence[Sequence[int]], size: int
) -> list[tuple[tuple[int, ...], int, list[int]]]:
    """Orbits of commuting involutive permutations with their Pfister data.

    The tables must pass _commuting_involution_failure.  For each orbit,
    in order of its least point (the base), returns (a_set, fold,
    kernel): the active set, the increasing positions of the generators
    moving the base, the orbit's 2^fold = |orbit|, and k - fold vectors
    spanning the kernel of F2^k on the orbit.  When fold = |a_set| the
    orbit is certified and is its active set: the kernel's annihilator
    is spanned by 1 << i for i in a_set, so only form_of_permutation_action
    solves for it.

    The orbit is found by doubling from the base, labelling each point
    with an exponent vector that carries the base to it.  Once generators
    0..i-1 are done, the labelled points are the base's orbit under them.
    If g_i(base) is unlabelled, g_i moves that whole set off itself (were
    g_i(p) labelled, so would g_i(base) be), and its images, labelled
    with bit i added, double it.  Otherwise label(g_i(base)) + e_i fixes
    the base and is new, having bit i; the orbit did not grow, so the
    stabiliser of the base gained one dimension, and these vectors span
    it.  An abelian transitive action has one stabiliser, the kernel.
    This search labels points with group elements, so it is not
    roots._bfs_orbits.
    """
    label = [-1] * size
    out = []
    for base in range(size):
        if label[base] >= 0:
            continue
        label[base] = 0
        points, a_set, kernel = [base], [], []
        for i, t in enumerate(tables):
            img = t[base]
            if img != base:
                a_set.append(i)
            if label[img] >= 0:
                kernel.append(label[img] | 1 << i)
                continue
            images = [t[p] for p in points]
            for p, q in zip(points, images):
                label[q] = label[p] | 1 << i
            points += images
        fold = len(points).bit_length() - 1
        out.append((tuple(a_set), fold, kernel))
    return out


def form_of_permutation_action(
    gens: Sequence[Sequence[int]], labels: Sequence[str]
) -> DiagonalForm:
    """Diagonal form of a permutation embedding, orbit by orbit.

    gens[i] is the point-image tuple of the i-th frame generator.  Every
    orbit of the generated abelian 2-group has 2^f points on which the
    quotient by the kernel acts simply transitively, so it is the scaled
    Pfister form <2^f> <<-d_1, ..., -d_f>>, the d_j the kernel's
    annihilator basis (see _orbit_pfister).  Its entries are the
    products of the d_j over all subsets (signs vanish since {-1} = 0,
    and square classes multiply by XOR of coordinate masks), each scaled
    by 2^f.  A certified orbit (fold = |a_set|, as on the cosets) is its
    active set: its d_j are the t_i for i in a_set.
    """
    if len(gens) != len(labels):
        raise ValueError("one label per generator required")
    size = len(gens[0]) if gens else 0
    bad = _commuting_involution_failure(gens, size)
    if bad is not None and len(bad) == 1:
        raise ValueError(
            f"generator {bad[0]} is not an involutive permutation of range({size})"
        )
    if bad is not None:
        raise ValueError(f"generators {bad[0]} and {bad[1]} do not commute")
    entries = []
    for _, fold, kernel in _orbit_pfister(gens, size):
        deltas = _f2_kernel_basis(kernel, len(gens))
        for s in range(1 << fold):
            mask = 0
            for j, d in enumerate(deltas):
                if (s >> j) & 1:
                    mask ^= d
            entries.append((fold, mask))
    return DiagonalForm(tuple(labels), tuple(entries))


# ---------------------------------------------------------------------------
# invariant images


def _entry_class(labels: tuple[str, ...], a: int, mask: int) -> KInvariant:
    terms = []
    if a % 2:
        terms.append(Monomial(0, True))
    v = mask
    while v:
        low = v & -v
        v ^= low
        terms.append(Monomial(low))
    return kinv(labels, terms)


def total_sw(form: DiagonalForm) -> KInvariant:
    """prod over entries of (1 + {entry})."""
    acc = one(form.labels)
    for a, mask in form.entries:
        acc = acc * (one(form.labels) + _entry_class(form.labels, a, mask))
    return acc


def twist_by_two(form: DiagonalForm) -> DiagonalForm:
    return DiagonalForm(
        form.labels, tuple((a + 1, mask) for a, mask in form.entries)
    )


def _modified_from_twisted(twisted: KInvariant, d: int, parity: int) -> KInvariant:
    """The d-th modified Stiefel-Whitney class of a form, read off
    twisted = total_sw(twist_by_two(form)).

    Even ambient dimension (parity 0): w_d of the <2>-twisted form.  Odd:
    the recursion starting at 1 that subtracts the {2}-multiple of the
    previous class at each step.  The parity is that of the ambient
    space, which can exceed the form's entry count.  Callers that need
    several degrees of one form multiply the total class out once and
    read every degree off it here.
    """
    if parity % 2 == 0:
        return twisted.degree_part(d)
    current = one(twisted.labels)
    s = two(twisted.labels)
    for deg in range(1, d + 1):
        current = twisted.degree_part(deg) + s * current
    return current
