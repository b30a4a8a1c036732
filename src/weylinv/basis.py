"""Named invariant bases and their verification reports.

Every supported reflection group carries a finite list of named
invariants (u_d, v_d, w_d, the twisted wt_d, fold invariants e_m / f_3 /
f_4, x_I pullbacks, and products of these), each with a recipe the
restriction engine can evaluate at a maximal orthogonal frame:

  * FormSW          - Stiefel-Whitney classes of one frame form, plain or
                      2-twisted: the reflection representation, or a
                      point action (signed coordinates, the pair
                      collapse B_n -> S_n, the three-point quotient used
                      for F4), each read off the frame's reflection
                      vectors;
  * SignClass       - the degree-one class of one frame coordinate's
                      sign character;
  * FoldInvariant   - elementary symmetric functions of the fold data
                      of a certified coset decomposition;
  * Product         - products of previously defined invariants;
  * Correction      - explicit F2[s]-combinations of products.

verify_basis, tensor_basis and abelian_x_report build their reports
through _report, the one BasisReport builder, whose checks run in a
fixed order: the caller's first checks (closed-form expectations where
one is on record), mod-s independence of the restrictions stacked over
the frames, cardinality, invariance under the recorded normalizer
elements, degree-by-degree dimension bounds, then the caller's last
checks.  The bounds are closed counts of normalizer-orbit signatures
for A, B/C, D and I2(4) (see upper_bound_dim), which the tests derive
again by orbit sums and by linking the B_n frames; for F4 and the E
types the constrained dimension lists are encoded and cross-checked
against a machine computation of the torsor-element constraint on the
upstream restriction span.
"""
from __future__ import annotations

import json
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence, Union

from ._records import record_eq, record_ne
from .algebra import (
    BnContext,
    KInvariant,
    Monomial,
    coordinate_mask,
    one,
    relabel,
    stacked_independence,
    two,
    x_monomial,
    zero,
)
from .cosets import build_coset_space, f_restriction, full_check, standard_u_gens
from .errors import UnsupportedEmbeddingError, UnsupportedSystemError
from .forms import (
    DiagonalForm,
    _form_of_lines,
    form_of_linear_action,
    _modified_from_twisted,
    total_sw,
    twist_by_two,
)
from .groups import (
    _compose,
    _conjugate,
    _find_root,
    build_dihedral,
    dihedral_omega,
    g2_split_check,
    normalizer_action,
    resolve,
    root_label,
    standard_frames,
)
from .roots import SUPPORTED, Root, RootSystem, _vec, build_root_system

__all__ = [
    "FormSW",
    "SignClass",
    "FoldInvariant",
    "Product",
    "Correction",
    "NamedInvariant",
    "CheckResult",
    "BasisReport",
    "restrict",
    "generators_for",
    "lambda_sum",
    "stated_formula",
    "normalizer_families",
    "upper_bound_dim",
    "upstream_table",
    "verify_basis",
    "tensor_basis",
    "abelian_x_report",
]


# ---------------------------------------------------------------------------
# recipes


class FormSW(NamedTuple):
    """w_d of a frame form, of its <2>-twist when modified.

    action names the form: "linear" is the reflection representation
    (for A_n, on R^(n+1), the permutation action on its n + 1 points),
    and every other value is a point action, which _frame_form reads as
    a reflection representation too: "signed" acts on the 2n points
    +-e_i, so that sign flips become transpositions, "pairs" on the n
    pairs {+-e_i}, killing the sign flips, and "triality" on three
    points, where axis reflections all act as the same transposition
    and coordinate-pair reflections trivially.
    """

    d: int
    action: str
    modified: bool

    __eq__, __ne__, __hash__ = record_eq, record_ne, tuple.__hash__


class SignClass(NamedTuple):
    """The degree-one class of the sign character of one frame
    coordinate, named by its label."""

    label: str

    __eq__, __ne__, __hash__ = record_eq, record_ne, tuple.__hash__


class FoldInvariant(NamedTuple):
    """m-th elementary symmetric class of the certified fold data."""

    m: int

    __eq__, __ne__, __hash__ = record_eq, record_ne, tuple.__hash__


class Product(NamedTuple):
    factors: tuple["NamedInvariant", ...]

    __eq__, __ne__, __hash__ = record_eq, record_ne, tuple.__hash__


class Correction(NamedTuple):
    """Sum of s^eps * (product of named factors) terms, all of one degree."""

    terms: tuple[tuple[int, tuple["NamedInvariant", ...]], ...]

    __eq__, __ne__, __hash__ = record_eq, record_ne, tuple.__hash__


Recipe = Union[FormSW, SignClass, FoldInvariant, Product, Correction]


class NamedInvariant:
    __slots__ = ("name", "degree", "recipe")

    def __init__(self, name: str, degree: int, recipe: Recipe) -> None:
        r = recipe
        if isinstance(r, FormSW):
            stated = r.d
        elif isinstance(r, SignClass):
            stated = 1
        elif isinstance(r, FoldInvariant):
            stated = r.m
        else:
            terms = r.terms if isinstance(r, Correction) else ((0, r.factors),)
            degs = {eps + sum(f.degree for f in fs) for eps, fs in terms}
            if len(degs) != 1:
                raise ValueError(f"{name}: correction terms differ in degree")
            stated = degs.pop()
        if stated != degree:
            raise ValueError(f"{name}: recipe degree {stated} != declared {degree}")
        self.name = name
        self.degree = degree
        self.recipe = recipe

    def __eq__(self, other: object) -> bool:
        if type(other) is not NamedInvariant:
            return NotImplemented
        return (self.name, self.degree, self.recipe) == (
            other.name, other.degree, other.recipe
        )

    def __hash__(self) -> int:
        return hash((self.name, self.degree, self.recipe))

    def __repr__(self) -> str:
        return (
            f"NamedInvariant(name={self.name!r}, degree={self.degree!r}, "
            f"recipe={self.recipe!r})"
        )


_ONE = NamedInvariant("1", 0, Product(()))


def _product_name(*parts: str) -> str:
    out = []
    for p in parts:
        if p == "1":
            continue
        out.append(f"({p})" if "-" in p else p)
    return "".join(out) or "1"


def _x_single(label: str) -> NamedInvariant:
    name = label if label.startswith("x") else f"x{label}"
    return NamedInvariant(name, 1, SignClass(label))


# ---------------------------------------------------------------------------
# the restriction engine


def _root_coords(sys_: RootSystem, root_idx: int) -> tuple[str, int, int]:
    """Classify a frame root as an axis vector e_i or a pair e_i -+ e_j."""
    d = sys_.roots[root_idx]
    support = [(i, v) for i, v in enumerate(d) if v]
    if len(support) == 1 and abs(support[0][1]) == 2:
        return "axis", support[0][0], -1
    if len(support) == 2 and abs(support[0][1]) == 2 and abs(support[1][1]) == 2:
        kind = "difference" if support[0][1] * support[1][1] < 0 else "sum"
        return kind, support[0][0], support[1][0]
    raise UnsupportedEmbeddingError(
        "frame root is neither an axis vector nor a coordinate pair; "
        "no point action applies"
    )


def _point_vector(sys_: RootSystem, root_idx: int, action: str) -> Optional[Root]:
    """The vector of the reflection by which a frame root acts on the
    points of a "pairs" or "triality" action, or None when it acts
    trivially (see _frame_form)."""
    kind, i, j = _root_coords(sys_, root_idx)
    if action == "triality":
        return (0, 2, -2) if kind == "axis" else None
    if kind == "axis":
        return None
    return _vec(len(sys_.roots[0]), {i: 2, j: -2})


def _fold_certificate(sys_, frame_roots, cache_dir):
    """The frame's fold certificate on the standard coset space, which
    is memoized per cache_dir so that every cache dir gets its file;
    full_check returns the space's own certificate for its frame."""
    space = sys_.memo(
        ("cosets", cache_dir),
        lambda: build_coset_space(sys_, standard_u_gens(sys_), cache_dir=cache_dir),
    )
    return full_check(sys_, space, frame_roots)


def restrict(
    inv: NamedInvariant,
    frame: Sequence[int],
    sys_: RootSystem,
    cache_dir: Optional[str] = None,
) -> KInvariant:
    """Evaluate a named invariant at a maximal orthogonal frame.

    The result lives in the coordinate algebra on the frame's labels (in
    member order).  cache_dir only matters for fold-invariant recipes,
    which need the coset space of the ambient system.
    """
    roots = tuple(frame)
    labels = tuple(root_label(sys_, r) for r in roots)
    return _restrict(inv, roots, labels, sys_, cache_dir)


def _restrict(inv, roots, labels, sys_, cache_dir) -> KInvariant:
    """restrict() on precomputed labels, the root_label of each of roots.

    The system memoizes the frame's diagonal form of each FormSW action,
    keyed by the action and roots, and next to it the total
    Stiefel-Whitney class of the form, or of its <2>-twist for modified
    classes.  Each form is then diagonalized and multiplied out once,
    and every degree and every element is read off the total class.
    """
    return _fold_recipe(
        inv, labels, lambda f: _restrict_leaf(f, roots, labels, sys_, cache_dir)
    )


def _restrict_leaf(inv, roots, labels, sys_, cache_dir) -> KInvariant:
    r = inv.recipe
    if isinstance(r, FoldInvariant):
        return f_restriction(_fold_certificate(sys_, roots, cache_dir), r.m)
    if isinstance(r, SignClass):
        return _restrict_abelian(inv, labels)
    form = _memo_form(sys_, r.action, roots, labels)
    total = sys_.memo(
        (r.action, roots, r.modified),
        lambda: total_sw(twist_by_two(form) if r.modified else form),
    )
    if r.modified:
        return _modified_from_twisted(total, r.d, form.dim)
    return total.degree_part(r.d)


def _memo_form(sys_, action, roots, labels) -> DiagonalForm:
    """The frame's form of this action, built once per system."""
    return sys_.memo((action, roots), lambda: _frame_form(sys_, action, roots, labels))


def _frame_form(sys_, action, roots, labels) -> DiagonalForm:
    """The diagonal form of the frame's reflections in the reflection
    representation (action "linear") or in a point action.

    A point action is a reflection representation too: a root acting on
    the points as the transposition (i j) is the reflection at
    p(i) - p(j).  "pairs" collapses each signed pair +-e_i to one
    point, so e_i +- e_j acts as (i j) and an axis root trivially; on
    the three points of "triality" every axis root acts as (2 3) and
    every other root trivially.  The 2N points +-e_i of "signed" span
    p(e_i) + p(-e_i), which carry the pairs action, and p(e_i) - p(-e_i),
    which carry the reflection representation; all have squared norm 2,
    so the signed form is the <2>-twist of those two forms side by side,
    each the one memoized for its own action.  Its entries are sorted by
    (mask, exponent), which keeps total_sw's products small.
    """
    if action == "linear":
        return form_of_linear_action(sys_, roots, labels)
    if action == "signed":
        pairs, linear = (
            _memo_form(sys_, half, roots, labels).entries for half in ("pairs", "linear")
        )
        entries = sorted(pairs + linear, key=itemgetter(1, 0))
        return twist_by_two(DiagonalForm(labels, tuple(entries)))
    if action not in ("pairs", "triality"):
        raise ValueError(f"unknown point action {action!r}")
    dim = 3 if action == "triality" else len(sys_.roots[0])
    return _form_of_lines([_point_vector(sys_, r, action) for r in roots], labels, dim)


def _restrict_abelian(inv: NamedInvariant, labels: tuple[str, ...]) -> KInvariant:
    """The degree-one class of a SignClass: the leaf of restrictions to a
    bare x-context."""
    if isinstance(inv.recipe, SignClass):
        return x_monomial(labels, (inv.recipe.label,))
    raise UnsupportedEmbeddingError(
        f"{inv.name}: recipe has no restriction to a bare x-context"
    )


def _fold_recipe(inv, labels, leaf) -> Optional[KInvariant]:
    """Evaluate inv, folding Product and Correction recipes over leaf.

    A Correction is the sum of its s^eps * (product of factors) terms and
    a Product is the one-term correction ((0, factors),); every other
    recipe is a leaf and goes to leaf(inv).  A leaf may return None
    (no value on record), and then so does the fold.
    """
    r = inv.recipe
    if not isinstance(r, (Product, Correction)):
        return leaf(inv)
    terms = r.terms if isinstance(r, Correction) else ((0, r.factors),)
    acc = zero(labels)
    for eps, factors in terms:
        term = two(labels) if eps % 2 else one(labels)
        for f in factors:
            part = _fold_recipe(f, labels, leaf)
            if part is None:
                return None
            term = term * part
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# closed-form expectations


def _subset_monomials(k: int, d: int) -> list[int]:
    # no monomial has a negative degree (w_0's {2}-part reads degree -1)
    return [
        Monomial(sum(1 << p for p in subset))
        for subset in (combinations(range(k), d) if d >= 0 else ())
    ]


def lambda_sum(L: int, n: int, d: int, predicate=None) -> KInvariant:
    """Sum of the degree-d frame monomials, optionally filtered.

    The workhorse oracle: sums every degree-d monomial of the (L, n)
    context whose shape (the counts A, B, C, E of BnContext.shape) the
    predicate accepts.
    """
    ctx = BnContext(L, n)
    return KInvariant(
        ctx.labels,
        frozenset(
            m
            for m in _subset_monomials(n, d)
            if predicate is None or predicate(ctx.shape(coordinate_mask(m)))
        ),
    )


def _no_tail_no_c(shape) -> bool:
    return not shape.C and not shape.E


def _pairs_free(shape) -> bool:
    return not shape.A and not shape.B


def _plain_reflection_formula(d: int, ctx: BnContext) -> KInvariant:
    """Untwisted w_d of the reflection representation at a coordinate
    frame: lambda_d + {2} lambda_(d-1)[A + B odd].

    Each pair slot contributes (1 + s + a)(1 + s + b) = 1 + a + b + ab +
    s(a + b) to the total class and each tail entry 1 + e, and s^2 = 0,
    so a degree-(d - 1) monomial carries {2} once for each pair slot it
    holds one entry of alone.
    """
    return lambda_sum(ctx.L, ctx.n, d) + two(ctx.labels) * lambda_sum(
        ctx.L, ctx.n, d - 1, lambda i: (i.A + i.B) % 2 == 1
    )


def _natural_sw_formula(d: int, labels: Sequence[str]) -> KInvariant:
    # the linear form of A_n is that of the natural action of S_(n+1);
    # its total SW at a frame of f disjoint transpositions is
    # (1+s)^f * prod_i (1 + s + x_i)
    labels = tuple(labels)
    total = one(labels)
    for lab in labels:
        total = total * (one(labels) + two(labels) + x_monomial(labels, (lab,)))
    if len(labels) % 2 == 1:
        total = total * (one(labels) + two(labels))
    return total.degree_part(d)


def _triality_formula(d: int, ctx: BnContext) -> Optional[KInvariant]:
    if d != 1:
        return None
    return lambda_sum(ctx.L, ctx.n, 1, lambda i: not i.A and not i.B and not i.C)


#: closed forms of FormSW classes at a coordinate frame, keyed by the
#: recipe's (action, modified); each maps (d, ctx) to a value or None
_STATED_SW = {
    ("pairs", True): lambda d, ctx: lambda_sum(ctx.L, ctx.n, d, _no_tail_no_c),
    ("signed", True): lambda d, ctx: lambda_sum(ctx.L, ctx.n, d, _pairs_free),
    ("triality", True): _triality_formula,
    ("linear", False): _plain_reflection_formula,
}


def _sw_key(inv: NamedInvariant) -> Optional[tuple[str, bool]]:
    """(action, modified) of a FormSW recipe, None for any other."""
    r = inv.recipe
    return (r.action, r.modified) if isinstance(r, FormSW) else None


def stated_formula(inv: NamedInvariant, ctx: BnContext) -> Optional[KInvariant]:
    """The closed-form restriction on record for this recipe, if any.

    Products and corrections fold their factors' formulas, as restrict
    folds their restrictions (_fold_recipe).  Returns None when some
    leaf has no formula on record; verify_basis then relies on the
    independence, cardinality and normalizer checks alone for that
    element.
    """
    return _fold_recipe(inv, ctx.labels, lambda f: _stated_leaf(f, ctx))


def _stated_leaf(inv: NamedInvariant, ctx: BnContext) -> Optional[KInvariant]:
    r = inv.recipe
    if isinstance(r, FoldInvariant):
        return lambda_sum(
            ctx.L,
            ctx.n,
            r.m,
            lambda i: not i.C and not i.E and i.A % 2 == 0,
        )
    stated = _STATED_SW.get(_sw_key(inv))
    return stated(r.d, ctx) if stated else None


def _full_pairs(labels: Sequence[str]) -> int:
    """The frame's full coordinate pairs {a_i, b_i}: one b_i each."""
    return sum(lab[0] == "b" for lab in labels)


def _context_for_frame(labels: Sequence[str]) -> BnContext:
    """The coordinate context of a B_n, D_n, F4 or I2(4) frame with these
    labels: its full pairs, then lone axis entries."""
    return BnContext(_full_pairs(labels), len(labels))


def _a_stated(inv: NamedInvariant, labels: Sequence[str]) -> Optional[KInvariant]:
    """The _fold_recipe leaf of stated formulas at an A-type frame, whose
    coordinates are plain transpositions, not pair slots."""
    if _sw_key(inv) == ("linear", False):
        return _natural_sw_formula(inv.recipe.d, labels)
    return None


# ---------------------------------------------------------------------------
# generator tables


def _w(k: int) -> NamedInvariant:
    return NamedInvariant(f"w{k}", k, FormSW(k, "linear", False))


def _u(k: int) -> NamedInvariant:
    return NamedInvariant(f"u{k}", k, FormSW(k, "pairs", True))


def _v(k: int) -> NamedInvariant:
    return NamedInvariant(f"v{k}", k, FormSW(k, "signed", True))


def _uv(d: int, r: int) -> NamedInvariant:
    """The basis element with pair-degree d - r and signed degree r."""
    if r == 0:
        return _u(d)
    if r == d:
        return _v(r)
    return NamedInvariant(
        _product_name(f"v{r}", f"u{d - r}"), d, Product((_v(r), _u(d - r)))
    )


def _fold(m: int) -> NamedInvariant:
    return NamedInvariant(f"e{m}", m, FoldInvariant(m))


def _minus_fold(k: int) -> NamedInvariant:
    # u_k with the fold class split off; over F2 the difference is a sum
    return NamedInvariant(
        f"u{k}-e{k}", k, Correction(((0, (_u(k),)), (0, (_fold(k),))))
    )


def _d_degree_block(n: int, d: int) -> list[NamedInvariant]:
    m = n // 2
    out = []
    lo = max(0, d - m)
    for i in range(lo, d // 2 + 1):
        if n % 2 == 0 and d == m and i == 0:
            out.append(_minus_fold(m) if m > 0 else _ONE)
        else:
            out.append(_ONE if d == 0 else _uv(d, 2 * i))
    if n % 2 == 0 and d == m:
        out.append(_fold(m))
    return out


#: (min_rank, max_rank) of each crystallographic type, as roots supports it
_WEYL_RANKS = {t: (lo, hi) for t, lo, hi in SUPPORTED}


def generators_for(type_label: str, rank: int) -> tuple[NamedInvariant, ...]:
    """The named basis of the invariants of (type_label, rank).

    Elements come degree-graded; products reference previously built
    names only.  Raises UnsupportedSystemError outside the supported
    table.
    """
    t = type_label
    ranks = _WEYL_RANKS.get(t)
    if ranks is not None and not ranks[0] <= rank <= ranks[1]:
        raise UnsupportedSystemError(f"unsupported system {t}{rank}")
    if t == "A":
        f = (rank + 1) // 2
        return (_ONE,) + tuple(_w(d) for d in range(1, f + 1))
    if t in ("B", "C"):
        out = []
        for d in range(rank + 1):
            for r in range(max(0, 2 * d - rank), d + 1):
                out.append(_ONE if d == 0 else _uv(d, r))
        return tuple(out)
    if t == "D":
        out = []
        for d in range(rank + 1):
            out.extend(_d_degree_block(rank, d))
        return tuple(out)
    if t == "F":
        v1 = NamedInvariant("v1", 1, FormSW(1, "triality", True))
        return (
            _ONE,
            _w(1),
            v1,
            _w(2),
            NamedInvariant("v1w1", 2, Product((v1, _w(1)))),
            _w(3),
            NamedInvariant("v1w2", 3, Product((v1, _w(2)))),
            _w(4),
        )
    if t == "E":
        wt = {
            d: NamedInvariant(f"wt{d}", d, FormSW(d, "linear", True))
            for d in range(1, rank + 1)
        }
        if rank == 6:
            return (_ONE, wt[1], wt[2], wt[3], wt[4])
        if rank == 7:
            f3 = NamedInvariant("f3", 3, FoldInvariant(3))
            f3wt1 = NamedInvariant("f3wt1", 4, Product((f3, wt[1])))
            return (_ONE, wt[1], wt[2], wt[3], f3, wt[4], f3wt1) + tuple(
                wt[d] for d in range(5, 8)
            )
        f4 = NamedInvariant("f4", 4, FoldInvariant(4))
        return (_ONE, wt[1], wt[2], wt[3], wt[4], f4) + tuple(
            wt[d] for d in range(5, 9)
        )
    if t == "G":
        if rank != 2:
            raise UnsupportedSystemError(f"unsupported system G{rank}")
        return _x_subset_basis(("x1", "x2"))
    if t == "I2":
        n = rank
        if n == 4:
            return (_ONE, _w(1), _v(1), _w(2))
        if n >= 3 and n % 2 == 1:
            return _x_subset_basis(("x1",))
        if n >= 3 and n % 4 == 2:
            return _x_subset_basis(("x1", "x2"))
        raise UnsupportedSystemError(
            f"I2({n}) has no finite restriction basis of this kind"
        )
    raise UnsupportedSystemError(f"unsupported type {type_label!r}")


def _x_subset_basis(labels: tuple[str, ...]) -> tuple[NamedInvariant, ...]:
    singles = [_x_single(lab) for lab in labels]
    out = []
    for size in range(len(labels) + 1):
        for subset in combinations(range(len(labels)), size):
            if size == 0:
                out.append(_ONE)
            elif size == 1:
                out.append(singles[subset[0]])
            else:
                out.append(
                    NamedInvariant(
                        "".join(singles[i].name for i in subset),
                        size,
                        Product(tuple(singles[i] for i in subset)),
                    )
                )
    return tuple(out)


# ---------------------------------------------------------------------------
# normalizer families


def _refl_at(sys_: RootSystem, coords: dict[int, int]) -> tuple[int, ...]:
    """The reflection table of the root with these nonzero doubled
    coordinates."""
    return sys_.reflection_images(_find_root(sys_, coords))


def _pair_swap_elem(sys_: RootSystem, i: int, j: int) -> tuple[int, ...]:
    # swap coordinate pair i with pair j (1-based): product of the two
    # difference reflections on matching slots
    return _compose(
        _refl_at(sys_, {2 * i - 1: 2, 2 * j - 1: -2}),
        _refl_at(sys_, {2 * i - 2: 2, 2 * j - 2: -2}),
    )


def _double_flip_elem(sys_: RootSystem, p: int, q: int) -> tuple[int, ...]:
    # negate coordinates p and q (1-based) inside a group without single
    # sign flips: s_{e_p} s_{e_q} = s_{e_p - e_q} s_{e_p + e_q}
    return _compose(
        _refl_at(sys_, {p - 1: 2, q - 1: 2}),
        _refl_at(sys_, {p - 1: 2, q - 1: -2}),
    )


#: doubled coordinates of the two half-vector reflections whose product is
#: the recorded torsor-swapping normalizer element of the E systems
_E_TORSOR_ROOTS = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (-1, 1, 1, 1, -1, -1, -1, 1),
)


def _torsor_elem(sys_: RootSystem) -> tuple[int, ...]:
    """The recorded torsor-swapping normalizer element: for F4 the
    reflection in (e1 + e2 + e3 + e4) / 2, which normalizes its pair
    frame P_2, and for the E systems the product of the two _E_TORSOR_ROOTS
    reflections, which normalizes the standard frame."""
    if sys_.type_label == "F":
        return sys_.reflection_images(sys_.index[(1, 1, 1, 1)])
    r1, r2 = _E_TORSOR_ROOTS
    return _compose(
        sys_.reflection_images(sys_.index[r2]),
        sys_.reflection_images(sys_.index[r1]),
    )


def normalizer_families(
    sys_: RootSystem, frame_roots: Sequence[int]
) -> list[tuple[str, tuple[int, ...]]]:
    """Recorded normalizer elements as labeled position permutations.

    The families are fixed per type and come in this order: swaps of
    neighbouring full pairs (A_n: of neighbouring frame members), then
    pair flips for B/F, double flips of neighbouring pairs for even D
    and for E (single flips are not in those groups), or pair flips
    through the spare coordinate for odd D, then tail swaps for B/F,
    then the torsor element for F4's pair frame and for the E types.
    The frame's full pairs are counted off its labels (_full_pairs).
    Each element genuinely lives in the group (built from root
    reflections) and is pushed through normalizer_action, so a
    bookkeeping mistake raises instead of silently constraining nothing.
    """
    t, n = sys_.type_label, sys_.rank
    if t not in ("A", "B", "D", "E", "F"):
        raise UnsupportedSystemError(f"no normalizer families for type {t!r}")
    roots = tuple(frame_roots)
    # each member a_i of an A_n frame fills a coordinate pair on its own
    if t == "A":
        L = (n + 1) // 2
    else:
        L = _full_pairs([root_label(sys_, r) for r in roots])
    out = [
        (f"pair-swap({i},{i + 1})", _pair_swap_elem(sys_, i, i + 1))
        for i in range(1, L)
    ]
    if t == "E" or (t == "D" and n % 2 == 0):
        out += [
            (f"double-flip({i},{i + 1})", _double_flip_elem(sys_, 2 * i, 2 * i + 2))
            for i in range(1, L)
        ]
    elif t != "A":
        # odd D: the spare coordinate absorbs the second sign change
        out += [
            (
                f"pair-flip({i})",
                _double_flip_elem(sys_, 2 * i, n)
                if t == "D"
                else _refl_at(sys_, {2 * i - 1: 2}),
            )
            for i in range(1, L + 1)
        ]
    if t in ("B", "F"):
        out += [
            (f"tail-swap(e{j},e{j + 1})", _refl_at(sys_, {j - 1: 2, j: -2}))
            for j in range(2 * L + 1, n)
        ]
    if t == "E" or (t == "F" and L == 2):
        out.append(("torsor-g", _torsor_elem(sys_)))
    return [(label, normalizer_action(sys_, g, roots)) for label, g in out]


# ---------------------------------------------------------------------------
# dimension bounds


_ENCODED_BOUNDS = {
    ("F", 4): (1, 2, 2, 2, 1),
    ("E", 6): (1, 1, 1, 1, 1),
    ("E", 7): (1, 1, 1, 2, 2, 1, 1, 1),
    ("E", 8): (1, 1, 1, 1, 2, 1, 1, 1, 1),
}


def upper_bound_dim(type_label: str, rank: int, degree: int) -> int:
    """Upper bound for the degree component of the invariants' image.

    A, B/C, D and I2(4) = W(B2): closed counts of the normalizer-orbit
    signatures of the degree-d frame monomials, built from no root
    system, from the type's least supported rank up.  A_n: [d <= f],
    f = (n + 1) // 2, the GMS basis of S_(n+1); D_n: the (full pairs,
    lone entries) count plus a parity split; both are derived again in
    tests as orbit sums (orbit_sum_bound, and the full normalizer
    action).  B_n: min(d, n - d) + 1, derived again by linking the
    (L, k, ell) orbit nodes of every frame (b_linked_bound).  F4/E6/E7/
    E8: the encoded constrained-dimension lists, cross-checkable against
    _constrained_dims.  Other dihedral types: binomials of the x-context.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    t, n, d = type_label, rank, degree
    if t in _WEYL_RANKS and n < _WEYL_RANKS[t][0]:
        raise UnsupportedSystemError(f"no dimension bound for {t}{n}")
    if t == "A":
        # the pair swaps permute the f = (n + 1) // 2 frame lines as S_f:
        # one orbit of d-subsets for each d <= f
        return int(d <= (n + 1) // 2)
    if t in ("B", "C"):
        # one class per j = 2k + ell, the degree on full pairs and tail
        # entries: the frames link every (L, k, ell) orbit of one j, and
        # d - j lone entries fit beside them when max(0, 2d - n) <= j <= d
        return max(0, min(d, n - d) + 1)
    if t == "D":
        m = n // 2
        # one orbit per count k of full pairs, the other d - 2k entries
        # alone in their pairs; for n even and d = m only double flips
        # act, so the all-alone orbit splits by the parity of its b entries
        return len(range(max(0, d - m), d // 2 + 1)) + (n % 2 == 0 and d == m)
    if (t, n) in _ENCODED_BOUNDS:
        bounds = _ENCODED_BOUNDS[(t, n)]
        return bounds[d] if d < len(bounds) else 0
    if t == "G" and n == 2:
        return comb(2, d) if d <= 2 else 0
    if t == "I2":
        if n == 4:
            return upper_bound_dim("B", 2, d)
        if n % 2 == 1:
            return comb(1, d) if d <= 1 else 0
        if n % 4 == 2:
            return comb(2, d) if d <= 2 else 0
    raise UnsupportedSystemError(f"no dimension bound for {type_label}{rank}")


# ---------------------------------------------------------------------------
# upstream restriction spans and the encoded-bound cross-check


def _injection(source: Sequence[str], target: Sequence[str]) -> tuple[int, ...]:
    """The position of each source label in target, for relabel."""
    return tuple(tuple(target).index(lab) for lab in source)


def upstream_table(
    type_label: str, rank: int, cache_dir: Optional[str] = None
) -> list[tuple[str, int, KInvariant]]:
    """Restrictions of the upstream product basis in the E-frame labels.

    E6 and E8 read off their D_5 / D_8 bases directly; E7 tensors the
    D_6 basis with the sign character of its spare frame member a4.
    Entries come degree-graded, plain elements before a4-multiples.
    """
    if type_label != "E" or rank not in (6, 7, 8):
        raise UnsupportedSystemError("upstream tables exist for E6/E7/E8 only")
    inner_rank = {6: 5, 7: 6, 8: 8}[rank]
    sys_d = build_root_system("D", inner_rank)
    _, roots_d = standard_frames(sys_d)[0]
    labels_d = tuple(root_label(sys_d, r) for r in roots_d)
    sys_e = build_root_system("E", rank)
    _, roots_e = standard_frames(sys_e)[0]
    labels_e = tuple(root_label(sys_e, r) for r in roots_e)
    inj = _injection(labels_d, labels_e)
    entries = []
    for b in generators_for("D", inner_rank):
        val = _restrict(b, roots_d, labels_d, sys_d, cache_dir)
        entries.append((b.name, b.degree, relabel(val, inj, labels_e)))
    if rank != 7:
        return entries
    xa4 = x_monomial(labels_e, ("a4",))
    combined = []
    for name, deg, val in entries:
        combined.append((name, deg, 0, val))
        combined.append((_product_name(name, "xa4"), deg + 1, 1, val * xa4))
    combined.sort(key=lambda row: (row[1], row[2]))
    return [
        (name, deg, val)
        for name, deg, _, val in combined
    ]


#: expected upstream decompositions of the E-type basis restrictions;
#: names refer to upstream_table entries
_E_TABLES = {
    6: {
        "wt1": ("u1",),
        "wt2": ("u2", "v2"),
        "wt3": ("v2u1",),
        "wt4": ("v4",),
    },
    7: {
        "wt1": ("u1", "xa4"),
        "wt2": ("u2", "v2", "u1xa4"),
        "wt3": ("u3-e3", "e3", "v2u1", "u2xa4", "v2xa4"),
        "wt4": ("v2u2", "v4", "(u3-e3)xa4", "e3xa4", "v2u1xa4"),
        "wt5": ("v4u1", "v4xa4", "v2u2xa4"),
        "wt6": ("v6", "v4u1xa4"),
        "wt7": ("v6xa4",),
        "f3": ("v2u1", "u3-e3", "u2xa4"),
        "f3wt1": ("v2u2", "v2u1xa4", "e3xa4"),
    },
    8: {
        "wt1": ("u1",),
        "wt2": ("u2", "v2"),
        "wt3": ("u3", "v2u1"),
        "wt4": ("u4-e4", "e4", "v2u2", "v4"),
        "wt5": ("v2u3", "v4u1"),
        "wt6": ("v4u2", "v6"),
        "wt7": ("v6u1",),
        "wt8": ("v8",),
        "f4": ("v2u2", "u4-e4"),
    },
}


def _constrained_dims(
    type_label: str,
    rank: int,
    cache_dir: Optional[str],
    upstream: Optional[list[tuple[str, int, KInvariant]]] = None,
) -> dict[int, int]:
    """Machine computation behind the encoded F4/E6/E7/E8 bounds, by degree.

    For every degree that has upstream vectors, counts the combinations
    of upstream degree-d restrictions fixed by the extra normalizer
    element (mod s): the nullity of the stacked g-plus-identity images.
    F4 constrains the B_4 basis at its pair frame; the E types constrain
    their upstream tables, read from upstream, the upstream_table of the
    same system and cache_dir, which is built here when not given.
    """
    if (type_label, rank) == ("F", 4):
        sys_b = build_root_system("B", 4)
        _, roots_b = standard_frames(sys_b)[2]
        labels = tuple(root_label(sys_b, r) for r in roots_b)
        graded = [
            (b.degree, _restrict(b, roots_b, labels, sys_b, cache_dir))
            for b in generators_for("B", 4)
        ]
        sys_ = build_root_system("F", 4)
        _, roots = standard_frames(sys_)[2]
    elif type_label == "E" and rank in (6, 7, 8):
        sys_ = build_root_system("E", rank)
        _, roots = standard_frames(sys_)[0]
        if upstream is None:
            upstream = upstream_table(type_label, rank, cache_dir)
        graded = [(deg, val) for _, deg, val in upstream]
    else:
        raise UnsupportedSystemError(
            "constrained dimensions are computed for F4/E6/E7/E8 only"
        )
    action = normalizer_action(sys_, _torsor_elem(sys_), roots)
    by_degree: dict[int, list[KInvariant]] = {}
    for deg, val in graded:
        by_degree.setdefault(deg, []).append(val)
    dims = {}
    for deg, vecs in by_degree.items():
        images = [(relabel(v, action) + v,) for v in vecs]
        dims[deg] = len(vecs) - stacked_independence(images).rank
    return dims


# ---------------------------------------------------------------------------
# reports


class CheckResult(NamedTuple):
    check_id: str
    status: str
    witness: Optional[str] = None

    __eq__, __ne__, __hash__ = record_eq, record_ne, tuple.__hash__


class BasisReport(NamedTuple):
    """Verification record for one named basis.

    frames pairs each frame name with its coordinate labels;
    restrictions[i][j] is basis element i at frame j; dims rows are
    (degree, achieved, bound).
    """

    type_label: str
    rank: int
    basis: tuple[NamedInvariant, ...]
    frames: tuple[tuple[str, tuple[str, ...]], ...]
    restrictions: tuple[tuple[KInvariant, ...], ...]
    checks: tuple[CheckResult, ...]
    dims: tuple[tuple[int, int, int], ...]
    warnings: tuple[str, ...] = ()

    __eq__, __ne__, __hash__ = record_eq, record_ne, tuple.__hash__

    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(self._payload(), indent=2, sort_keys=True)

    def _payload(self) -> dict:
        """The report as the plain dict that to_json serializes."""
        return {
            "type": self.type_label,
            "rank": self.rank,
            "basis": [{"name": b.name, "degree": b.degree} for b in self.basis],
            "checks": [
                {"id": c.check_id, "status": c.status}
                if c.witness is None
                else {"id": c.check_id, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
            "dims": {
                str(d): {"achieved": a, "bound": b} for d, a, b in self.dims
            },
            "warnings": list(self.warnings),
        }


def _check(check_id: str, ok: bool, witness: Optional[str] = None) -> CheckResult:
    return CheckResult(check_id, "pass" if ok else "fail", witness)


def _degree_rank(basis, restrictions, d: int) -> int:
    """Rank of the degree-d elements' stacked restriction rows."""
    return stacked_independence(
        [row for b, row in zip(basis, restrictions) if b.degree == d]
    ).rank


def _report(
    type_label: str,
    rank: int,
    basis,
    frames,
    restrictions,
    bound,
    first=(),
    actions=None,
    last=(),
    warnings=(),
    card_note: Optional[str] = None,
) -> BasisReport:
    """Build a BasisReport with the checks every report shares, in the
    order first..., independence, cardinality, normalizer-invariance,
    dimension-bounds, last....

    bound(d) is the degree-d upper bound; the element count must equal
    their total over the basis's degrees and, where one is recorded, the
    _PINNED_COUNTS entry.  card_note, when given, is the cardinality
    witness.  actions = (elements, pass_note) adds normalizer-invariance:
    each element (frame_index, desc, perm) permutes that frame's label
    positions and must fix every restriction there.
    """
    checks = list(first)
    verdict = stacked_independence(restrictions)
    checks.append(
        _check(
            "independence",
            verdict.independent,
            None
            if verdict.independent
            else "dependent combination at indices "
            + ",".join(str(i) for i in verdict.dependency),
        )
    )
    dims = tuple(
        (d, _degree_rank(basis, restrictions, d), bound(d))
        for d in range(max(b.degree for b in basis) + 1)
    )
    bound_total = sum(b for _, _, b in dims)
    pinned = _PINNED_COUNTS.get((type_label, rank))
    checks.append(
        _check(
            "cardinality",
            len(basis) == bound_total and pinned in (None, len(basis)),
            card_note
            or f"{len(basis)} elements; bound total {bound_total}"
            + (f"; recorded count {pinned}" if pinned is not None else ""),
        )
    )
    if actions is not None:
        elements, pass_note = actions
        failures = []
        for j, desc, perm in elements:
            fname = frames[j][0]
            for b, row in zip(basis, restrictions):
                if relabel(row[j], perm) != row[j]:
                    failures.append(f"{b.name} at {fname} under {desc}")
        checks.append(
            _check(
                "normalizer-invariance",
                not failures,
                "; ".join(failures[:4]) if failures else pass_note,
            )
        )
    bad = [f"degree {d}: {a} != {b}" for d, a, b in dims if a != b]
    checks.append(_check("dimension-bounds", not bad, "; ".join(bad) or None))
    return BasisReport(
        type_label=type_label,
        rank=rank,
        basis=tuple(basis),
        frames=tuple(frames),
        restrictions=tuple(restrictions),
        checks=tuple(checks) + tuple(last),
        dims=dims,
        warnings=tuple(warnings),
    )


_PINNED_COUNTS = {
    ("B", 4): 9,
    ("D", 4): 7,
    ("D", 8): 16,
    ("F", 4): 8,
    ("E", 6): 5,
    ("E", 7): 10,
    ("E", 8): 10,
    ("G", 2): 4,
    ("I2", 4): 4,
}


def verify_basis(
    type_label: str, rank: int, cache_dir: Optional[str] = None
) -> BasisReport:
    """Build the full verification report for one supported pair."""
    (t, n), target = resolve(type_label, rank)
    if isinstance(target, int):
        return _dihedral_report(t, n, target)
    return _weyl_report(t, n, target, cache_dir)


def _weyl_report(out_type, out_rank, sys_, cache_dir) -> BasisReport:
    basis = generators_for(out_type, out_rank)
    std = standard_frames(sys_)
    frames = tuple(
        (name, tuple(root_label(sys_, r) for r in roots)) for name, roots in std
    )
    restrictions = tuple(
        tuple(
            _restrict(b, tuple(roots), labels, sys_, cache_dir)
            for (_, roots), (_, labels) in zip(std, frames)
        )
        for b in basis
    )

    # stated formulas
    upstream = None
    if out_type == "E":
        upstream = upstream_table(out_type, out_rank, cache_dir)
        stated = _e_table_check(out_rank, basis, restrictions, upstream)
    else:
        failures = []
        covered = 0
        for b, row in zip(basis, restrictions):
            for (fname, labels), value in zip(frames, row):
                if out_type == "A":
                    expected = _fold_recipe(b, labels, lambda f: _a_stated(f, labels))
                else:
                    expected = stated_formula(b, _context_for_frame(labels))
                if expected is None:
                    continue
                covered += 1
                if value != expected:
                    failures.append(f"{b.name} at {fname}")
        stated = _check(
            "stated-formulas",
            not failures,
            "; ".join(failures) if failures else f"{covered} formula(s) matched",
        )

    # the encoded bound lists are recomputed from the constraint itself
    last = ()
    encoded = _ENCODED_BOUNDS.get((out_type, out_rank))
    if encoded is not None:
        constrained = _constrained_dims(out_type, out_rank, cache_dir, upstream)
        mism = [
            f"degree {d}: constrained {constrained.get(d, 0)} != encoded {bound}"
            for d, bound in enumerate(encoded)
            if constrained.get(d, 0) != bound
        ]
        last = (_check("encoded-bound-crosscheck", not mism, "; ".join(mism) or None),)

    warnings = []
    if out_type == "A":
        f = (out_rank + 1) // 2
        warnings.append(
            f"A-type count ambiguity: {f + 1} including the constant, "
            f"{f} without it; this report includes the constant"
        )
    if out_type == "E" and out_rank == 7:
        warnings.append(
            "f3 is computed from untwisted fold data; the scale twist in its "
            "defining form does not change fold invariants"
        )
    if out_type == "E" and out_rank == 6:
        warnings.append(
            "wt4 equals the plain degree-4 class here: the fourth power of "
            "{2} vanishes because s squares to zero"
        )

    elements = [
        (j, desc, perm)
        for j, (_, roots) in enumerate(std)
        for desc, perm in normalizer_families(sys_, roots)
    ]
    return _report(
        out_type,
        out_rank,
        basis,
        frames,
        restrictions,
        lambda d: upper_bound_dim(out_type, out_rank, d),
        first=(stated,),
        actions=(
            elements,
            f"{len(elements)} recorded elements across {len(frames)} frame(s)",
        ),
        last=last,
        warnings=warnings,
    )


def _e_table_check(out_rank, basis, restrictions, upstream) -> CheckResult:
    entries = {name: val for name, _, val in upstream}
    table = _E_TABLES[out_rank]
    failures = []
    for b, row in zip(basis, restrictions):
        if b.name == "1":
            continue
        expected_names = table.get(b.name)
        if expected_names is None:
            failures.append(f"{b.name} has no recorded table line")
            continue
        expected = entries[expected_names[0]]
        for nm in expected_names[1:]:
            expected = expected + entries[nm]
        if row[0] != expected:
            failures.append(f"{b.name} != {'+'.join(expected_names)}")
    return _check(
        "stated-formulas",
        not failures,
        "; ".join(failures) if failures else f"{len(table)} table line(s) matched",
    )


def _dihedral_report(out_type: str, out_rank: int, n: int) -> BasisReport:
    group = build_dihedral(n)
    classes = dihedral_omega(group)
    frame = classes[0][0]
    labels = tuple(f"x{i + 1}" for i in range(len(frame)))
    basis = generators_for(out_type, out_rank)
    # frame stabilizer: conjugation position actions, almost always trivial
    stab_perms = _dihedral_stabilizer_perms(group, frame)
    last = ()
    if n == 6:
        facts = g2_split_check(group)
        last = (
            _check(
                "structure-facts",
                all(facts.values()),
                ", ".join(k for k, v in facts.items() if v),
            ),
        )
    return _report(
        out_type,
        out_rank,
        basis,
        (("P", labels),),
        _x_rows(basis, labels),
        lambda d: upper_bound_dim(out_type, out_rank, d),
        first=(
            _check(
                "stated-formulas",
                True,
                "restriction is the defining x-coordinate expression",
            ),
        ),
        actions=(
            [(0, str(perm), perm) for perm in stab_perms],
            f"stabilizer induces {len(stab_perms)} position action(s)",
        ),
        last=last,
        warnings=(
            f"one of {len(classes)} frame class(es) shown; restriction is "
            "bijective onto the x-context",
        ),
        card_note=f"{len(basis)} = 2^{len(labels)}",
    )


def _dihedral_stabilizer_perms(group, frame) -> list[tuple[int, ...]]:
    perms = set()
    members = list(frame)
    for g in group:
        images = [_conjugate(g, r) for r in members]
        if set(images) == set(members):
            perms.add(tuple(members.index(i) for i in images))
    return sorted(perms)


# ---------------------------------------------------------------------------
# tensor products of verified bases


def _x_rows(basis, labels: tuple[str, ...]) -> tuple[tuple[KInvariant], ...]:
    """Each element's restriction to the bare x-context on labels, as a
    one-frame row."""
    return tuple(
        (_fold_recipe(b, labels, lambda f: _restrict_abelian(f, labels)),)
        for b in basis
    )


def abelian_x_report(labels: Sequence[str], type_label: str = "Z2") -> BasisReport:
    """Report for an elementary abelian factor with the given coordinates.

    Used for the sign-character factors that tensor into larger bases;
    every check is computed, none assumed.
    """
    labels = tuple(labels)
    basis = _x_subset_basis(labels)
    return _report(
        type_label,
        len(labels),
        basis,
        (("P", labels),),
        _x_rows(basis, labels),
        lambda d: comb(len(labels), d),
    )


def tensor_basis(report_a: BasisReport, report_b: BasisReport) -> BasisReport:
    """Product basis of two verified reports on concatenated contexts.

    Elements a_i * b_j are degree-graded with the plain a_i before the
    b-multiples, matching the displayed product lists; independence and
    per-degree ranks are recomputed from the product restrictions, and
    bounds convolve.
    """
    frames = []
    pair_maps = []
    for ja, (fa, la) in enumerate(report_a.frames):
        for jb, (fb, lb) in enumerate(report_b.frames):
            combined = la + lb
            if len(set(combined)) != len(combined):
                raise ValueError("tensor contexts share coordinate labels")
            frames.append((fa if fb == "P" else f"{fa}x{fb}", combined))
            inj_a, inj_b = _injection(la, combined), _injection(lb, combined)
            pair_maps.append((ja, jb, combined, inj_a, inj_b))
    indexed = []
    for bj, eb in enumerate(report_b.basis):
        for ai, ea in enumerate(report_a.basis):
            indexed.append((ea.degree + eb.degree, bj, ai, ea, eb))
    indexed.sort(key=lambda row: row[:3])
    basis: list[NamedInvariant] = []
    restrictions = []
    for _, bj, ai, ea, eb in indexed:
        if eb.name == "1":
            elem = ea
        elif ea.name == "1":
            elem = eb
        else:
            elem = NamedInvariant(
                _product_name(ea.name, eb.name),
                ea.degree + eb.degree,
                Product((ea, eb)),
            )
        basis.append(elem)
        restrictions.append(
            tuple(
                relabel(report_a.restrictions[ai][ja], inj_a, combined)
                * relabel(report_b.restrictions[bj][jb], inj_b, combined)
                for ja, jb, combined, inj_a, inj_b in pair_maps
            )
        )
    bounds_a = {d: v for d, _, v in report_a.dims}
    bounds_b = {d: v for d, _, v in report_b.dims}
    return _report(
        f"{report_a.type_label}{report_a.rank}x"
        f"{report_b.type_label}{report_b.rank}",
        report_a.rank + report_b.rank,
        basis,
        frames,
        restrictions,
        lambda d: sum(
            bounds_a.get(k, 0) * bounds_b.get(d - k, 0) for k in range(d + 1)
        ),
        warnings=report_a.warnings + report_b.warnings,
    )
