"""Torsor-parameterized quadratic forms and their symbol-algebra images.

Two routes from an embedding of (Z/2)^k into an orthogonal group to a
diagonal form over the torsor coordinates:

 * linear route: each line of the frame is one character space, and
   the lines' orthogonal complement is fixed; each vector of an
   orthogonal basis of the lines and the complement contributes one
   diagonal entry 2^a * (product of coordinates where the character is
   -1).
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


def _orthogonalize(basis: list[list[int]]) -> list[list[int]]:
    """Unnormalized Gram-Schmidt on nonzero integer vectors, in basis
    order; a vector in the span of the ones before it is dropped.

    w <- (u.u) w - (u.w) u is (u.u) times w - (u.w / u.u) u, and it is
    bilinear in (w, u) again, so each vector stays a nonzero multiple of
    the one rational Gram-Schmidt builds from the same inputs, and is 0
    exactly when that one is.
    """
    ortho: list[list[int]] = []
    for w in basis:
        for u in ortho:
            uw = sum(map(mul, u, w))
            if uw:
                uu = sum(map(mul, u, u))
                w = [uu * x - uw * y for x, y in zip(w, u)]
                if not any(w):
                    break
                w = _primitive(w)
        else:
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


def _form_of_lines(
    roots: Sequence[Sequence[int]], labels: Sequence[str], dim: int
) -> DiagonalForm:
    """Diagonal form of the torsor twist for the reflections at the
    integer vectors roots[i] of the standard inner-product space of
    dimension dim (given, since roots may be empty).

    Two reflections commute exactly when their vectors are parallel or
    orthogonal.  Each line is then one character space, with bit i for
    every vector on it, and the lines' orthogonal complement is fixed.
    Gram-Schmidt on the lines, then e_1, ..., e_N, gives the complement
    an orthogonal basis; a vector u with character chi and squared norm
    2^a * (square) yields the entry 2^a * prod_{i in chi} c_i.
    """
    if len(roots) != len(labels):
        raise ValueError("one label per generator required")
    lines: list[list[int]] = []
    chars: list[int] = []
    for i, r in enumerate(roots):
        v = _primitive(list(r))
        j = next((j for j, u in enumerate(lines) if sum(map(mul, u, v))), None)
        if j is None:
            lines.append(v)
            chars.append(1 << i)
        elif lines[j] in (v, [-x for x in v]):
            chars[j] |= 1 << i
        else:
            raise ValueError("generators do not commute")
    unit = [[int(i == j) for j in range(dim)] for i in range(dim)]
    entries = []
    for chi, u in zip(chars + [0] * dim, _orthogonalize(lines + unit)):
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
    roots = [sys_.roots[r] for r in frame_roots]
    return _form_of_lines(roots, labels, len(sys_.roots[0]))


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
