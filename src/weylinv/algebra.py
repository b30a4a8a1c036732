"""Exterior algebra over F2 on torsor coordinates, with a formal {2}.

Elements live in F2[s]/(s^2) tensor Lambda(t_1, ..., t_k): s stands for
the symbol {2}, the t_i for the square classes attached to the frame
generator at each coordinate position.  {-1} = 0 throughout (the base
field has -1 a square), which forces {a}{a} = 0 and s^2 = 0.  Both
factors are square-zero, so this is the exterior algebra over F2 on the
k + 1 generators s, t_1, ..., t_k, and a product of two monomials
vanishes exactly when they share a generator.

A monomial is one int, the set of its generators: bit 0 is s = {2} and
bit i + 1 is t_i, the coordinate at label position i.  Sums are term
sets with XOR semantics.  No other module reads or shifts these bits:
they build monomials through Monomial, one, two and x_monomial,
move coordinates through relabel, which takes a tuple of positions,
and read a frame mask's pair and tail counts through BnContext.shape.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from ._records import record_eq, record_ne
from .errors import ContextMismatchError

__all__ = [
    "Monomial",
    "coordinate_mask",
    "KInvariant",
    "BnContext",
    "kinv",
    "zero",
    "one",
    "two",
    "x_monomial",
    "relabel",
    "stacked_independence",
    "IndependenceResult",
]


def Monomial(var_mask: int, two_flag: bool = False) -> int:
    """{2}^two_flag times the product of the t_i with bit i set in var_mask."""
    return var_mask << 1 | bool(two_flag)


def coordinate_mask(m: int) -> int:
    """The coordinates of a monomial, as a mask over label positions."""
    return m >> 1


_ONE = 0
_S = 1


class KInvariant:
    """An F2 sum of monomials over a fixed tuple of coordinate labels."""

    __slots__ = ("labels", "terms")

    def __init__(self, labels: tuple[str, ...], terms: frozenset[int]) -> None:
        limit = 2 << len(labels)
        for m in terms:
            if not 0 <= m < limit:
                raise ValueError("monomial references a coordinate outside the context")
        self.labels = labels
        self.terms = terms

    def __eq__(self, other: object) -> bool:
        if type(other) is not KInvariant:
            return NotImplemented
        return self.labels == other.labels and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.labels, self.terms))

    def __repr__(self) -> str:
        return f"KInvariant(labels={self.labels!r}, terms={self.terms!r})"

    def _check_context(self, other: "KInvariant") -> None:
        if self.labels != other.labels:
            raise ContextMismatchError(
                f"coordinate contexts differ: {self.labels} vs {other.labels}"
            )

    def __add__(self, other: "KInvariant") -> "KInvariant":
        self._check_context(other)
        return KInvariant(self.labels, self.terms ^ other.terms)

    # subtraction is addition in characteristic 2; kept for readability
    # when transcribing formulas stated with minus signs
    __sub__ = __add__

    def __mul__(self, other: "KInvariant") -> "KInvariant":
        self._check_context(other)
        acc: set[int] = set()
        for m1 in self.terms:
            for m2 in other.terms:
                if not m1 & m2:  # t_i^2 = 0 and s^2 = 0
                    acc ^= {m1 | m2}
        return KInvariant(self.labels, frozenset(acc))

    def degree_part(self, d: int) -> "KInvariant":
        return KInvariant(
            self.labels, frozenset(m for m in self.terms if m.bit_count() == d)
        )

    def mod_s(self) -> "KInvariant":
        """Image in the quotient by (s): drop every term carrying {2}."""
        return KInvariant(
            self.labels, frozenset(m for m in self.terms if not m & 1)
        )

    def sorted_terms(self) -> list[int]:
        """Terms by degree, then without {2} before with, then coordinates."""
        return sorted(self.terms, key=lambda m: (m.bit_count(), m & 1, m))

    def _names(self, m: int) -> list[str]:
        return [name for i, name in enumerate(self.labels) if (m >> i + 1) & 1]

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in self.sorted_terms():
            if m == _ONE:
                parts.append("1")
                continue
            text = "{2}" if m & 1 else ""
            parts.append(text + "".join("{" + name + "}" for name in self._names(m)))
        return " + ".join(parts)


def kinv(labels: Sequence[str], terms: Iterable[int] = ()) -> KInvariant:
    acc: set[int] = set()
    for m in terms:
        acc.symmetric_difference_update((m,))
    return KInvariant(tuple(labels), frozenset(acc))


def zero(labels: Sequence[str]) -> KInvariant:
    return KInvariant(tuple(labels), frozenset())


def one(labels: Sequence[str]) -> KInvariant:
    return KInvariant(tuple(labels), frozenset((_ONE,)))


def two(labels: Sequence[str]) -> KInvariant:
    """The symbol {2}."""
    return KInvariant(tuple(labels), frozenset((_S,)))


def x_monomial(labels: Sequence[str], names: Iterable[str]) -> KInvariant:
    mask = 0
    labels = tuple(labels)
    for name in names:
        mask |= 1 << labels.index(name)
    return KInvariant(labels, frozenset((Monomial(mask),)))


# ---------------------------------------------------------------------------
# the B_n frame context


class _Shape(NamedTuple):
    """Counts of a frame monomial: lone a's, lone b's, full pairs, tail entries."""

    A: int
    B: int
    C: int
    E: int


class BnContext:
    """Coordinate context of the frame X_L inside B_n (or its D_n/A_n cuts).

    Label layout: a1, b1, ..., aL, bL, then e_{2L+1}, ..., e_n; the
    position of e_j is j - 1, which keeps tail masks independent of L.
    """

    __slots__ = ("L", "n")

    def __init__(self, L: int, n: int) -> None:
        if not 0 <= 2 * L <= n:
            raise ValueError(f"no frame X_L at (L, n) = ({L}, {n}): need 0 <= 2L <= n")
        self.L = L
        self.n = n

    def __eq__(self, other: object) -> bool:
        if type(other) is not BnContext:
            return NotImplemented
        return self.L == other.L and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.L, self.n))

    def __repr__(self) -> str:
        return f"BnContext(L={self.L!r}, n={self.n!r})"

    @property
    def labels(self) -> tuple[str, ...]:
        out = []
        for i in range(1, self.L + 1):
            out += [f"a{i}", f"b{i}"]
        out += [f"e{j}" for j in range(2 * self.L + 1, self.n + 1)]
        return tuple(out)

    def shape(self, mask: int) -> _Shape:
        """(A, B, C, E) of a coordinate mask, as counts: the pair slots
        holding a_i alone, b_i alone or both, and the tail entries."""
        evens = (4**self.L - 1) // 3  # bit 2(i - 1), the a_i of each pair slot
        a = mask & evens
        b = mask >> 1 & evens
        return _Shape(
            (a & ~b).bit_count(),
            (b & ~a).bit_count(),
            (a & b).bit_count(),
            (mask >> 2 * self.L).bit_count(),
        )


# ---------------------------------------------------------------------------
# relabeling


def _moved(m: int, images: Sequence[int]) -> int:
    """The monomial m with coordinate bit i moved to position images[i]."""
    out = m & 1  # {2} is fixed
    v = m >> 1
    while v:
        i = (v & -v).bit_length() - 1
        v &= v - 1
        out |= 2 << images[i]
    return out


def relabel(
    inv: KInvariant, images: Sequence[int], labels: Optional[Sequence[str]] = None
) -> KInvariant:
    """inv with coordinate i renamed to position images[i] of labels.

    labels defaults to inv's own, so images is a permutation; a larger
    context makes it an injection.  Every coordinate map the package
    needs is one of these: a normalizer element permutes a frame's
    coordinates, and a context embeds in a larger one.
    """
    target = inv.labels if labels is None else tuple(labels)
    if len(images) != len(inv.labels):
        raise ContextMismatchError(
            f"{len(images)} images for the context {inv.labels}"
        )
    if len(set(images)) != len(images) or not all(
        0 <= p < len(target) for p in images
    ):
        raise ValueError(
            f"images {tuple(images)} are not distinct positions of {target}"
        )
    return KInvariant(target, frozenset(_moved(m, images) for m in inv.terms))


# ---------------------------------------------------------------------------
# independence


class IndependenceResult(NamedTuple):
    """Verdict on a list of invariants; rank is the F2 rank of all inputs mod s."""

    independent: bool
    rank: int
    # non-trivial combination of input indices summing to 0 mod s, when dependent
    dependency: Optional[tuple[int, ...]] = None

    __eq__, __ne__, __hash__ = record_eq, record_ne, tuple.__hash__


def _f2_eliminate(
    vectors: Sequence[int],
) -> tuple[list[tuple[int, int]], Optional[tuple[int, ...]]]:
    """F2 Gaussian elimination with row tracking.

    Each vector is an int bitset.  Returns the non-zero reduced rows as
    (row, combination) pairs sorted by pivot (lowest set bit), where the
    combination is the bitset of input indices that sums to the row, and
    the first dependency: the indices whose sum reduced the first
    dependent input to 0, or None when the inputs are independent.
    """
    rows: list[tuple[int, int]] = []
    first = None
    for i, cur in enumerate(vectors):
        comb = 1 << i
        for rv, rc in rows:
            if cur & rv & -rv:
                cur ^= rv
                comb ^= rc
        if cur:
            rows.append((cur, comb))
            rows.sort(key=lambda t: t[0] & -t[0])
        elif first is None:
            first = tuple(j for j in range(i + 1) if (comb >> j) & 1)
    return rows, first


def stacked_independence(
    rows: Sequence[Sequence[KInvariant]],
) -> IndependenceResult:
    """Independence of tuples of invariants over several contexts.

    Row j is (v_{j,1}, ..., v_{j,r}) with column c in a fixed context;
    this is the direct-sum vector used when stacking restrictions over
    several frames, and one column is a plain list of invariants.

    The rows are reduced mod s and ranked over F2.  Independence mod s
    implies independence over F2[s]/(s^2): if some non-trivial
    combination Sum (c_j + d_j s) v_j = 0 with not all c_j zero,
    reducing mod s gives a dependency; if all c_j = 0, dividing by s
    (s annihilates only s-multiples) gives Sum d_j (v_j mod s) = 0, a
    dependency again.  So mod-s rank is conclusive for verdicts of
    independence; a mod-s dependency is reported with its combination.
    """
    if not rows:
        return IndependenceResult(True, 0, None)
    ncols = len(rows[0])
    for row in rows:
        if len(row) != ncols:
            raise ValueError("rows have differing column counts")
        for c in range(ncols):
            if row[c].labels != rows[0][c].labels:
                raise ContextMismatchError(f"column {c} contexts differ")
    # assign one bit per (column, monomial) pair
    key_bits: dict[tuple[int, int], int] = {}
    vectors = []
    for row in rows:
        bits = 0
        for c, v in enumerate(row):
            for m in v.mod_s().terms:
                key = (c, m)
                if key not in key_bits:
                    key_bits[key] = len(key_bits)
                bits |= 1 << key_bits[key]
        vectors.append(bits)
    rows, dependency = _f2_eliminate(vectors)
    return IndependenceResult(dependency is None, len(rows), dependency)
