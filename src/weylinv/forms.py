"""Torsor-parameterized quadratic forms and their symbol-algebra images.

One route from an embedding of (Z/2)^k into an orthogonal group, given
by the k commuting reflections' vectors, to a diagonal form over the
torsor coordinates: each line of the vectors is one character space,
and the lines' orthogonal complement is fixed; each vector of an
orthogonal basis of the lines and the complement contributes one
diagonal entry 2^a * (product of coordinates where the character is
-1).  The reflection representation of a frame and every point action
of the basis recipes are embeddings of this kind (see basis._frame_form).

Entries are square classes: only 2-power scales times coordinate
monomials occur for the embeddings treated here, and anything else
raises UnsupportedEmbeddingError instead of approximating.
"""
from __future__ import annotations

from math import gcd
from operator import mul
from typing import Optional, Sequence

from .algebra import KInvariant, Monomial, kinv, one, two
from .errors import UnsupportedEmbeddingError
from .groups import root_label

__all__ = [
    "DiagonalForm",
    "form_of_linear_action",
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
# forms of reflection embeddings


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
    roots: Sequence[Optional[Sequence[int]]], labels: Sequence[str], dim: int
) -> DiagonalForm:
    """Diagonal form of the torsor twist for the reflections at the
    integer vectors roots[i] of the standard inner-product space of
    dimension dim (given, since roots may be empty); roots[i] is None
    when generator i acts trivially.

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
        if r is None:
            continue
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
