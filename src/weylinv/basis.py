"""Named invariant bases and their verification reports.

Every supported reflection group carries a finite list of named
invariants (u_d, v_d, w_d, the twisted wt_d, hat-corrected wh_d, fold
invariants e_m / f_3 / f_4, x_I pullbacks, and products of these), each
with a recipe the restriction engine can evaluate at a maximal
orthogonal frame:

  * ReflectionSW    - Stiefel-Whitney classes of the defining
                      reflection representation, plain or 2-twisted;
  * PermutationSW   - SW classes of the signed-coordinate action on 2n
                      points or of the natural point action of A-type;
  * ProjectionSW    - SW classes pulled back through a quotient: the
                      pair-collapse B_n -> S_n, the three-point quotient
                      used for F4, or a single sign character;
  * FoldInvariant   - elementary symmetric functions of the fold data
                      of a certified coset decomposition;
  * Product         - products of previously defined invariants;
  * Correction      - explicit F2[s]-combinations of products.

verify_basis turns the list into a report: restrictions are compared
against closed-form expectations where one is on record, stacked over
the frame classes and tested for mod-s independence, checked for
invariance under the recorded normalizer elements, and counted degree
by degree against upper bounds.  The bounds themselves come from
normalizer orbit sums (genuinely computed for A/B/D) together with, for
B_n, cross-frame consistency equalities; for F4 and the E types the
constrained dimension lists are encoded and cross-checked against a
machine computation of the torsor-element constraint on the upstream
restriction span.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Mapping, Optional, Sequence, Union

from .algebra import (
    BnContext,
    CoordinateMap,
    KInvariant,
    Monomial,
    lambda_indices,
    one,
    orbit_sums,
    stacked_independence,
    substitute,
    two,
    x_basis,
    x_monomial,
    zero,
)
from .cosets import build_coset_space, f_restriction, full_check, standard_u_gens
from .errors import UnsupportedEmbeddingError, UnsupportedSystemError
from .forms import (
    DiagonalForm,
    expand_to_diagonal,
    form_of_linear_action,
    form_of_permutation_action,
    _modified_from_twisted,
    total_sw,
    twist_by_two,
)
from .groups import (
    OrthogonalFrame,
    RootPermutation,
    build_dihedral,
    compose,
    dihedral_omega,
    g2_split_check,
    normalizer_action,
    perm_of_reflection,
    root_label,
    standard_frames,
)
from .roots import RootSystem, build_root_system

__all__ = [
    "ReflectionSW",
    "PermutationSW",
    "ProjectionSW",
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
    "constrained_dim",
    "upstream_table",
    "verify_identity",
    "verify_basis",
    "tensor_basis",
    "abelian_x_report",
    "f4_hat",
]


# ---------------------------------------------------------------------------
# recipes


@dataclass(frozen=True)
class ReflectionSW:
    """w_d of the reflection representation, 2-twisted when modified."""

    d: int
    modified: bool = False


@dataclass(frozen=True)
class PermutationSW:
    """SW class of a permutation action.

    points selects the action: "signed" doubles each coordinate into a
    point pair (i, i+n) so that sign flips become transpositions,
    "natural" is the bare action on the n+1 points of an A-type system.
    """

    d: int
    points: str
    modified: bool = True


@dataclass(frozen=True)
class ProjectionSW:
    """Twisted SW class pulled back through a quotient homomorphism.

    "pairs" collapses each signed coordinate pair to one point, killing
    the sign flips; "triality" is the three-point action where axis
    reflections all map to the same transposition and coordinate-pair
    reflections die; "sign:<label>" is the degree-one class of the sign
    character attached to a single frame coordinate.
    """

    d: int
    projection: str


@dataclass(frozen=True)
class FoldInvariant:
    """m-th elementary symmetric class of the certified fold data."""

    m: int


@dataclass(frozen=True)
class Product:
    factors: tuple["NamedInvariant", ...]


@dataclass(frozen=True)
class Correction:
    """Sum of s^eps * (product of named factors) terms, all of one degree."""

    terms: tuple[tuple[int, tuple["NamedInvariant", ...]], ...]


Recipe = Union[
    ReflectionSW, PermutationSW, ProjectionSW, FoldInvariant, Product, Correction
]


@dataclass(frozen=True)
class NamedInvariant:
    name: str
    degree: int
    recipe: Recipe

    def __post_init__(self) -> None:
        r = self.recipe
        if isinstance(r, (ReflectionSW, PermutationSW, ProjectionSW)):
            stated = r.d
        elif isinstance(r, FoldInvariant):
            stated = r.m
        else:
            terms = r.terms if isinstance(r, Correction) else ((0, r.factors),)
            degs = {eps + sum(f.degree for f in fs) for eps, fs in terms}
            if len(degs) != 1:
                raise ValueError(f"{self.name}: correction terms differ in degree")
            stated = degs.pop()
        if stated != self.degree:
            raise ValueError(
                f"{self.name}: recipe degree {stated} != declared {self.degree}"
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
    return NamedInvariant(name, 1, ProjectionSW(1, f"sign:{label}"))


# ---------------------------------------------------------------------------
# the restriction engine


def _root_coords(sys_: RootSystem, root_idx: int) -> tuple[str, int, int]:
    """Classify a frame root as an axis vector e_i or a pair e_i -+ e_j."""
    d = sys_.roots[root_idx].doubled
    support = [(i, v) for i, v in enumerate(d) if v]
    if len(support) == 1 and abs(support[0][1]) == 2:
        return "axis", support[0][0], -1
    if len(support) == 2 and abs(support[0][1]) == 2 and abs(support[1][1]) == 2:
        kind = "difference" if support[0][1] * support[1][1] < 0 else "sum"
        return kind, support[0][0], support[1][0]
    raise UnsupportedEmbeddingError(
        "frame root is neither an axis vector nor a coordinate pair; "
        "no permutation recipe applies"
    )


def _swap(images: list[int], p: int, q: int) -> None:
    images[p], images[q] = images[q], images[p]


def _signed_point_perm(sys_: RootSystem, root_idx: int, n: int) -> tuple[int, ...]:
    kind, i, j = _root_coords(sys_, root_idx)
    images = list(range(2 * n))
    if kind == "axis":
        _swap(images, i, i + n)
    elif kind == "difference":
        _swap(images, i, j)
        _swap(images, i + n, j + n)
    else:
        _swap(images, i, j + n)
        _swap(images, j, i + n)
    return tuple(images)


def _natural_point_perm(sys_: RootSystem, root_idx: int, npts: int) -> tuple[int, ...]:
    kind, i, j = _root_coords(sys_, root_idx)
    if kind != "difference":
        raise UnsupportedEmbeddingError("natural point action needs e_i - e_j roots")
    images = list(range(npts))
    _swap(images, i, j)
    return tuple(images)


def _pair_point_perm(sys_: RootSystem, root_idx: int, npts: int) -> tuple[int, ...]:
    kind, i, j = _root_coords(sys_, root_idx)
    images = list(range(npts))
    if kind != "axis":
        _swap(images, i, j)
    return tuple(images)


def _triality_point_perm(sys_: RootSystem, root_idx: int, npts: int) -> tuple[int, ...]:
    kind = _root_coords(sys_, root_idx)[0]
    return (0, 2, 1) if kind == "axis" else (0, 1, 2)


#: point-action builders by PermutationSW.points / ProjectionSW.projection
_POINT_PERMS = {
    "signed": _signed_point_perm,
    "natural": _natural_point_perm,
    "pairs": _pair_point_perm,
    "triality": _triality_point_perm,
}


def _fold_certificate(sys_, frame_roots, cache_dir):
    """The frame's fold certificate on the standard coset space, both
    memoized per cache_dir so that every cache dir gets its file."""

    def certify():
        space = sys_.memo(
            ("cosets", cache_dir),
            lambda: build_coset_space(sys_, standard_u_gens(sys_), cache_dir=cache_dir),
        )
        return full_check(sys_, space, frame_roots)

    canonical = tuple(sys_.canonical_rep[r] for r in frame_roots)
    return sys_.memo(("certificate", cache_dir, canonical), certify)


def restrict(
    inv: NamedInvariant,
    frame: Union[OrthogonalFrame, Sequence[int]],
    sys_: RootSystem,
    cache_dir: Optional[str] = None,
) -> KInvariant:
    """Evaluate a named invariant at a maximal orthogonal frame.

    The result lives in the coordinate algebra on the frame's labels (in
    member order).  cache_dir only matters for fold-invariant recipes,
    which need the coset space of the ambient system.
    """
    roots = tuple(
        frame.root_indices if isinstance(frame, OrthogonalFrame) else frame
    )
    labels = tuple(root_label(sys_, r) for r in roots)
    return _restrict(inv, roots, labels, sys_, cache_dir)


def _restrict(inv, roots, labels, sys_, cache_dir) -> KInvariant:
    """restrict() on precomputed labels, the root_label of each of roots.

    The system memoizes the frame's diagonal form of each recipe kind
    ("linear", a points value or a projection value), keyed by the kind
    and roots, and next to it the total Stiefel-Whitney class of the
    form, or of its <2>-twist for modified classes.  Each form is then
    diagonalized and multiplied out once, and every degree and every
    element is read off the total class.
    """
    return _fold_recipe(
        inv, labels, lambda f: _restrict_leaf(f, roots, labels, sys_, cache_dir)
    )


def _restrict_leaf(inv, roots, labels, sys_, cache_dir) -> KInvariant:
    r = inv.recipe
    if isinstance(r, FoldInvariant):
        return f_restriction(_fold_certificate(sys_, roots, cache_dir), r.m)
    if isinstance(r, ReflectionSW):
        kind, modified = "linear", r.modified
    elif isinstance(r, PermutationSW):
        kind, modified = r.points, r.modified
    elif r.projection.startswith("sign:"):
        return _restrict_abelian(inv, labels)
    else:
        kind, modified = r.projection, True
    key = (kind, roots)
    form = sys_.memo(key, lambda: _frame_form(sys_, kind, roots, labels))
    total = sys_.memo(
        key + (modified,),
        lambda: total_sw(twist_by_two(form) if modified else form),
    )
    if modified:
        return _modified_from_twisted(total, r.d, form.dim)
    return total.degree_part(r.d)


def _frame_form(sys_, kind, roots, labels) -> DiagonalForm:
    """The diagonal form of the frame's reflections acting linearly
    (kind "linear") or on the points of a _POINT_PERMS action."""
    if kind == "linear":
        return form_of_linear_action(sys_, roots, labels)
    build = _POINT_PERMS.get(kind)
    if build is None:
        raise ValueError(f"unknown point action {kind!r}")
    npts = len(sys_.roots[0].doubled)
    gens = [build(sys_, idx, npts) for idx in roots]
    return expand_to_diagonal(form_of_permutation_action(gens, labels))


def _restrict_abelian(inv: NamedInvariant, labels: tuple[str, ...]) -> KInvariant:
    """The degree-one class of a "sign:<label>" projection: the leaf of
    restrictions to a bare x-context."""
    r = inv.recipe
    if isinstance(r, ProjectionSW) and r.projection.startswith("sign:"):
        return x_monomial(labels, (r.projection[5:],))
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


def lambda_sum(L: int, n: int, d: int, predicate=None) -> KInvariant:
    """Sum of the degree-d index monomials, optionally filtered.

    The workhorse oracle: sums x_{A,B,C,E} over all index tuples of
    degree d in the (L, n) context, keeping those the predicate accepts.
    """
    ctx = BnContext(L, n)
    acc = zero(ctx.labels)
    for idx in lambda_indices(L, n, d):
        if predicate is None or predicate(idx):
            acc = acc + x_basis(idx, ctx)
    return acc


def _no_tail_no_c(idx) -> bool:
    return not idx.C and not idx.E


def _pairs_free(idx) -> bool:
    return not idx.A and not idx.B


def _plain_reflection_formula(d: int, ctx: BnContext) -> Optional[KInvariant]:
    # untwisted w_d of the reflection embedding at a coordinate frame;
    # the {2}-part shifts through the norm-2 pair entries
    L, n = ctx.L, ctx.n
    if d == 1:
        return lambda_sum(L, n, 1)
    if d == 2:
        return lambda_sum(L, n, 2) + two(ctx.labels) * lambda_sum(
            L, n, 1, _no_tail_no_c
        )
    if d == 3:
        return lambda_sum(L, n, 3) + two(ctx.labels) * lambda_sum(
            L, n, 2, lambda i: not i.C and len(i.E) == 1
        )
    if d == 4:
        return lambda_sum(L, n, 4) + two(ctx.labels) * lambda_sum(
            L, n, 3, lambda i: 2 * len(i.C) + len(i.E) == 2
        )
    return None


def _natural_sw_formula(d: int, labels: Sequence[str]) -> KInvariant:
    # total SW of the natural action at a frame of f disjoint
    # transpositions is (1+s)^f * prod_i (1 + s + x_i)
    labels = tuple(labels)
    total = one(labels)
    for lab in labels:
        total = total * (one(labels) + two(labels) + x_monomial(labels, (lab,)))
    if len(labels) % 2 == 1:
        total = total * (one(labels) + two(labels))
    return total.degree_part(d)


def stated_formula(inv: NamedInvariant, ctx: BnContext) -> Optional[KInvariant]:
    """The closed-form restriction on record for this recipe, if any.

    Returns None when no formula is stated; verify_basis then relies on
    the independence, cardinality and normalizer checks alone for that
    element.  A product of pair and signed classes has a formula of its
    own; other products and corrections fold their factors' formulas.
    """
    r = inv.recipe
    if isinstance(r, Product) and r.factors:
        kinds = {type(f.recipe) for f in r.factors}
        if kinds <= {ProjectionSW, PermutationSW} and all(
            getattr(f.recipe, "projection", "pairs") == "pairs"
            and getattr(f.recipe, "points", "signed") == "signed"
            for f in r.factors
        ):
            # product formula: the signed-action degree singles out the
            # monomials whose C/E weight equals it
            f_deg = sum(
                f.recipe.d for f in r.factors if isinstance(f.recipe, PermutationSW)
            )
            return lambda_sum(
                ctx.L,
                ctx.n,
                inv.degree,
                lambda i: 2 * len(i.C) + len(i.E) == f_deg,
            )
    return _fold_recipe(inv, ctx.labels, lambda f: _stated_leaf(f, ctx))


def _stated_leaf(inv: NamedInvariant, ctx: BnContext) -> Optional[KInvariant]:
    r = inv.recipe
    if isinstance(r, ProjectionSW):
        if r.projection == "pairs":
            return lambda_sum(ctx.L, ctx.n, r.d, _no_tail_no_c)
        if r.projection == "triality":
            return lambda_sum(
                ctx.L, ctx.n, 1, lambda i: not i.A and not i.B and not i.C
            )
        return None
    if isinstance(r, PermutationSW):
        if r.points == "signed":
            return lambda_sum(ctx.L, ctx.n, r.d, _pairs_free)
        return None
    if isinstance(r, ReflectionSW) and not r.modified:
        return _plain_reflection_formula(r.d, ctx)
    if isinstance(r, FoldInvariant):
        return lambda_sum(
            ctx.L,
            ctx.n,
            r.m,
            lambda i: not i.C and not i.E and len(i.A) % 2 == 0,
        )
    return None


def _context_for_frame(
    type_label: str, rank: int, frame_name: str
) -> Optional[BnContext]:
    if type_label in ("B", "F") or (type_label == "I2" and rank == 4):
        n = 4 if type_label == "F" else (2 if type_label == "I2" else rank)
        return BnContext(int(frame_name.split("_")[1]), n)
    if type_label == "D":
        m = rank // 2
        return BnContext(m, 2 * m)
    return None


def _a_stated(inv: NamedInvariant, labels: Sequence[str]) -> Optional[KInvariant]:
    # A-type frames carry plain transposition coordinates, not pair slots
    if inv.name == "1":
        return one(tuple(labels))
    if isinstance(inv.recipe, PermutationSW) and inv.recipe.points == "natural":
        return _natural_sw_formula(inv.recipe.d, labels)
    return None


# ---------------------------------------------------------------------------
# generator tables


def _u(k: int) -> NamedInvariant:
    return NamedInvariant(f"u{k}", k, ProjectionSW(k, "pairs"))


def _v(k: int) -> NamedInvariant:
    return NamedInvariant(f"v{k}", k, PermutationSW(k, "signed"))


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


def generators_for(type_label: str, rank: int) -> tuple[NamedInvariant, ...]:
    """The named basis of the invariants of (type_label, rank).

    Elements come degree-graded; products reference previously built
    names only.  Raises UnsupportedSystemError outside the supported
    table.
    """
    t = type_label
    if t == "A":
        if rank < 1 or rank > 8:
            raise UnsupportedSystemError(f"unsupported system A{rank}")
        f = (rank + 1) // 2
        return (_ONE,) + tuple(
            NamedInvariant(f"w{d}", d, PermutationSW(d, "natural", modified=False))
            for d in range(1, f + 1)
        )
    if t in ("B", "C"):
        if rank < 2 or rank > 8:
            raise UnsupportedSystemError(f"unsupported system {t}{rank}")
        out = []
        for d in range(rank + 1):
            for r in range(max(0, 2 * d - rank), d + 1):
                out.append(_ONE if d == 0 else _uv(d, r))
        return tuple(out)
    if t == "D":
        if rank < 4 or rank > 8:
            raise UnsupportedSystemError(f"unsupported system D{rank}")
        out = []
        for d in range(rank + 1):
            out.extend(_d_degree_block(rank, d))
        return tuple(out)
    if t == "F":
        if rank != 4:
            raise UnsupportedSystemError(f"unsupported system F{rank}")
        w = {d: NamedInvariant(f"w{d}", d, ReflectionSW(d)) for d in range(1, 5)}
        v1 = NamedInvariant("v1", 1, ProjectionSW(1, "triality"))
        return (
            _ONE,
            w[1],
            v1,
            w[2],
            NamedInvariant("v1w1", 2, Product((v1, w[1]))),
            w[3],
            NamedInvariant("v1w2", 3, Product((v1, w[2]))),
            w[4],
        )
    if t == "E":
        if rank not in (6, 7, 8):
            raise UnsupportedSystemError(f"unsupported system E{rank}")
        wt = {
            d: NamedInvariant(f"wt{d}", d, ReflectionSW(d, modified=True))
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
            w1 = NamedInvariant("w1", 1, ReflectionSW(1))
            v1 = NamedInvariant("v1", 1, PermutationSW(1, "signed"))
            w2 = NamedInvariant("w2", 2, ReflectionSW(2))
            return (_ONE, w1, v1, w2)
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


def f4_hat(d: int) -> NamedInvariant:
    """The hat-corrected degree-d class of the F4 list (d in 1..4)."""
    gens = {g.name: g for g in generators_for("F", 4)}
    w1, v1 = gens["w1"], gens["v1"]
    if d == 1:
        return w1
    if d == 2:
        return NamedInvariant(
            "wh2",
            2,
            Correction(((0, (gens["w2"],)), (1, (w1,)), (1, (v1,)))),
        )
    if d == 3:
        return NamedInvariant(
            "wh3",
            3,
            Correction(((0, (gens["w3"],)), (1, (w1, v1)), (1, (v1, v1)))),
        )
    if d == 4:
        wh2 = f4_hat(2)
        return NamedInvariant(
            "wh4",
            4,
            Correction(((0, (gens["w4"],)), (1, (wh2, w1)), (1, (wh2, v1)))),
        )
    raise ValueError("hat classes exist for degrees 1 through 4")


# ---------------------------------------------------------------------------
# normalizer families


def _refl_at(sys_: RootSystem, coords: Mapping[int, int]) -> RootPermutation:
    ambient = len(sys_.roots[0].doubled)
    vec = [0] * ambient
    for p, val in coords.items():
        vec[p] = val
    return perm_of_reflection(sys_, sys_.index[tuple(vec)])


def _pair_swap_elem(sys_: RootSystem, i: int, j: int) -> RootPermutation:
    # swap coordinate pair i with pair j (1-based): product of the two
    # difference reflections on matching slots
    return compose(
        _refl_at(sys_, {2 * i - 2: 2, 2 * j - 2: -2}),
        _refl_at(sys_, {2 * i - 1: 2, 2 * j - 1: -2}),
    )


def _double_flip_elem(sys_: RootSystem, p: int, q: int) -> RootPermutation:
    # negate coordinates p and q (1-based) inside a group without single
    # sign flips: s_{e_p} s_{e_q} = s_{e_p - e_q} s_{e_p + e_q}
    return compose(
        _refl_at(sys_, {p - 1: 2, q - 1: -2}),
        _refl_at(sys_, {p - 1: 2, q - 1: 2}),
    )


#: doubled coordinates of the two half-vector reflections whose product is
#: the recorded torsor-swapping normalizer element of the E systems
_E_TORSOR_ROOTS = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (-1, 1, 1, 1, -1, -1, -1, 1),
)


def _e_torsor_elem(sys_: RootSystem) -> RootPermutation:
    r1, r2 = _E_TORSOR_ROOTS
    return compose(
        perm_of_reflection(sys_, sys_.index[r1]),
        perm_of_reflection(sys_, sys_.index[r2]),
    )


def normalizer_families(
    sys_: RootSystem, frame_name: str, frame_roots: Sequence[int]
) -> list[tuple[str, tuple[int, ...]]]:
    """Recorded normalizer elements as labeled position permutations.

    The families are fixed per type: pair swaps, pair flips and tail
    swaps for A/B/D/F (flips through paired sign changes where single
    flips are not available), plus the torsor element for F4's pair
    frame and for the E types.  Each element genuinely lives in the
    group (built from root reflections) and is pushed through
    normalizer_action, so a bookkeeping mistake raises instead of
    silently constraining nothing.
    """
    t, n = sys_.type_label, sys_.rank
    roots = tuple(frame_roots)
    out: list[tuple[str, tuple[int, ...]]] = []

    def add(label: str, g: RootPermutation) -> None:
        out.append((label, normalizer_action(sys_, g, roots)))

    if t == "A":
        f = (n + 1) // 2
        for i in range(1, f):
            add(f"pair-swap({i},{i + 1})", _pair_swap_elem(sys_, i, i + 1))
        return out
    if t in ("B", "F"):
        L = int(frame_name.split("_")[1])
        for i in range(1, L):
            add(f"pair-swap({i},{i + 1})", _pair_swap_elem(sys_, i, i + 1))
        for i in range(1, L + 1):
            add(f"pair-flip({i})", _refl_at(sys_, {2 * i - 1: 2}))
        for j in range(2 * L + 1, n):
            add(
                f"tail-swap(e{j},e{j + 1})",
                _refl_at(sys_, {j - 1: 2, j: -2}),
            )
        if t == "F" and L == 2:
            add("torsor-g", perm_of_reflection(sys_, sys_.index[(1, 1, 1, 1)]))
        return out
    if t == "D":
        m = n // 2
        for i in range(1, m):
            add(f"pair-swap({i},{i + 1})", _pair_swap_elem(sys_, i, i + 1))
        if n % 2 == 0:
            for i in range(1, m):
                add(
                    f"double-flip({i},{i + 1})",
                    _double_flip_elem(sys_, 2 * i, 2 * i + 2),
                )
        else:
            # the spare coordinate absorbs the second sign change, so
            # every pair flips individually
            for i in range(1, m + 1):
                add(f"pair-flip({i})", _double_flip_elem(sys_, 2 * i, n))
        return out
    if t == "E":
        pairs = {6: 2, 7: 3, 8: 4}[n]
        for i in range(1, pairs):
            add(f"pair-swap({i},{i + 1})", _pair_swap_elem(sys_, i, i + 1))
        for i in range(1, pairs):
            add(
                f"double-flip({i},{i + 1})",
                _double_flip_elem(sys_, 2 * i, 2 * i + 2),
            )
        add("torsor-g", _e_torsor_elem(sys_))
        return out
    raise UnsupportedSystemError(f"no normalizer families for type {t!r}")


# ---------------------------------------------------------------------------
# dimension bounds


def _subset_monomials(k: int, d: int) -> list[Monomial]:
    return [
        Monomial(sum(1 << p for p in subset), False)
        for subset in combinations(range(k), d)
    ]


def _orbit_count(labels: Sequence[str], perms: Sequence[Sequence[int]], d: int) -> int:
    if d == 0:
        return 1
    if d > len(labels):
        return 0
    return len(orbit_sums(_subset_monomials(len(labels), d), perms, labels))


def _monomial_signature(mask: int, ctx: BnContext) -> tuple[int, int]:
    k = sum(
        1
        for i in range(1, ctx.L + 1)
        if (mask >> ctx.a_pos(i)) & 1 and (mask >> ctx.b_pos(i)) & 1
    )
    ell = sum(
        1 for j in range(2 * ctx.L + 1, ctx.n + 1) if (mask >> ctx.e_pos(j)) & 1
    )
    return k, ell


def _b_upper_bound(n: int, d: int) -> int:
    if d == 0:
        return 1
    if d > n:
        return 0
    sys_ = build_root_system("B", n)
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for frame_name, roots in standard_frames(sys_):
        L = int(frame_name.split("_")[1])
        ctx = BnContext(L, n)
        perms = [p for _, p in normalizer_families(sys_, frame_name, roots)]
        for s in orbit_sums(_subset_monomials(n, d), perms, ctx.labels):
            mask = next(iter(s.terms)).var_mask
            node = (L,) + _monomial_signature(mask, ctx)
            if node in parent:
                raise AssertionError("duplicate orbit signature; family bug")
            parent[node] = node
    by_sig: dict = {}
    for (L, k, ell) in parent:
        by_sig.setdefault((k, ell), []).append((L, k, ell))
    for group in by_sig.values():
        # the same signature restricts identically from every frame that
        # carries it: the shared subgroup comparison pins the multiplier
        for node in group[1:]:
            union(group[0], node)
    for (L, k, ell) in list(parent):
        # the two-slot product subgroup trades a tail doubleton against a
        # full pair one frame up, merging (k, ell) with (k+1, ell-2)
        other = (L + 1, k + 1, ell - 2)
        if other in parent:
            union((L, k, ell), other)
    return len({find(x) for x in parent})


_ENCODED_BOUNDS = {
    ("F", 4): (1, 2, 2, 2, 1),
    ("E", 6): (1, 1, 1, 1, 1),
    ("E", 7): (1, 1, 1, 2, 2, 1, 1, 1),
    ("E", 8): (1, 1, 1, 1, 2, 1, 1, 1, 1),
}


def upper_bound_dim(type_label: str, rank: int, degree: int) -> int:
    """Upper bound for the degree component of the invariants' image.

    A/B/D: the number of normalizer orbit sums on the frame monomials,
    with the cross-frame consistency identifications for B (orbits whose
    pair/tail signature agrees restrict compatibly from every frame, and
    a two-slot product subgroup identifies the (k, ell) and (k+1, ell-2)
    signatures).  F4/E6/E7/E8: the encoded constrained-dimension lists,
    cross-checkable against constrained_dim.  Dihedral types: binomial
    coefficients of the free x-context, I2(4) via its rank-2 coordinate
    realization.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    t = type_label
    if t in ("A", "D"):
        if degree == 0:
            return 1
        sys_ = build_root_system(t, rank)
        frame_name, roots = standard_frames(sys_)[0]
        perms = [p for _, p in normalizer_families(sys_, frame_name, roots)]
        labels = tuple(root_label(sys_, r) for r in roots)
        return _orbit_count(labels, perms, degree)
    if t in ("B", "C"):
        return _b_upper_bound(rank, degree)
    if (t, rank) in _ENCODED_BOUNDS:
        bounds = _ENCODED_BOUNDS[(t, rank)]
        return bounds[degree] if degree < len(bounds) else 0
    if t == "G" and rank == 2:
        return comb(2, degree) if degree <= 2 else 0
    if t == "I2":
        if rank == 4:
            return _b_upper_bound(2, degree)
        if rank % 2 == 1:
            return comb(1, degree) if degree <= 1 else 0
        if rank % 4 == 2:
            return comb(2, degree) if degree <= 2 else 0
    raise UnsupportedSystemError(f"no dimension bound for {type_label}{rank}")


# ---------------------------------------------------------------------------
# upstream restriction spans and the encoded-bound cross-check


def _injection(source: Sequence[str], target: Sequence[str]) -> CoordinateMap:
    target = tuple(target)
    rows = tuple((1 << target.index(lab), False) for lab in source)
    return CoordinateMap(tuple(source), target, rows)


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
        entries.append((b.name, b.degree, inj.apply(val)))
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


def constrained_dim(
    type_label: str, rank: int, degree: int, cache_dir: Optional[str] = None
) -> int:
    """Machine computation behind the encoded F4/E6/E7/E8 bounds.

    Counts the combinations of upstream degree-d restrictions fixed by
    the extra normalizer element (mod s): the nullity of the stacked
    g-plus-identity images.  F4 constrains the B_4 basis at its pair
    frame; the E types constrain their upstream tables.
    """
    return _constrained_dims(type_label, rank, cache_dir).get(degree, 0)


def _constrained_dims(
    type_label: str,
    rank: int,
    cache_dir: Optional[str],
    upstream: Optional[list[tuple[str, int, KInvariant]]] = None,
) -> dict[int, int]:
    """constrained_dim for every degree that has upstream vectors.

    E types read their vectors from upstream, the upstream_table of the
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
        sys_f = build_root_system("F", 4)
        _, roots_f = standard_frames(sys_f)[2]
        action = normalizer_action(
            sys_f, perm_of_reflection(sys_f, sys_f.index[(1, 1, 1, 1)]), roots_f
        )
    elif type_label == "E" and rank in (6, 7, 8):
        sys_e = build_root_system("E", rank)
        _, roots_e = standard_frames(sys_e)[0]
        labels = tuple(root_label(sys_e, r) for r in roots_e)
        if upstream is None:
            upstream = upstream_table(type_label, rank, cache_dir)
        graded = [(deg, val) for _, deg, val in upstream]
        action = normalizer_action(sys_e, _e_torsor_elem(sys_e), roots_e)
    else:
        raise UnsupportedSystemError(
            "constrained dimensions are computed for F4/E6/E7/E8 only"
        )
    cmap = CoordinateMap.from_permutation(labels, action)
    by_degree: dict[int, list[KInvariant]] = {}
    for deg, val in graded:
        by_degree.setdefault(deg, []).append(val)
    dims = {}
    for deg, vecs in by_degree.items():
        images = [(substitute(v, cmap) + v,) for v in vecs]
        dims[deg] = len(vecs) - stacked_independence(images).rank
    return dims


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str
    witness: Optional[str] = None


@dataclass(frozen=True)
class BasisReport:
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

    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self) -> str:
        payload = {
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
        return json.dumps(payload, indent=2, sort_keys=True)


def _check(check_id: str, ok: bool, witness: Optional[str] = None) -> CheckResult:
    return CheckResult(check_id, "pass" if ok else "fail", witness)


def _degree_rank(basis, restrictions, d: int) -> int:
    """Rank of the degree-d elements' stacked restriction rows."""
    return stacked_independence(
        [row for b, row in zip(basis, restrictions) if b.degree == d]
    ).rank


def _bounded_dims(out_type, out_rank, basis, restrictions):
    """Rows (degree, achieved rank, upper bound) for every degree of the
    basis, and the dimension-bounds check on them."""
    dims = [
        (
            d,
            _degree_rank(basis, restrictions, d),
            upper_bound_dim(out_type, out_rank, d),
        )
        for d in range(max(b.degree for b in basis) + 1)
    ]
    bad = [f"degree {d}: {a} != {b}" for d, a, b in dims if a != b]
    return dims, _check("dimension-bounds", not bad, "; ".join(bad) if bad else None)


def verify_identity(
    lhs,
    rhs,
    sys_: RootSystem,
    cache_dir: Optional[str] = None,
    check_id: Optional[str] = None,
) -> CheckResult:
    """Compare two invariants on every frame class.

    Either side may be a NamedInvariant or a mapping frame-name ->
    expected value; agreement on all classes is what equality of
    invariants means here.
    """

    def side(x, name, roots, labels):
        if isinstance(x, NamedInvariant):
            return _restrict(x, tuple(roots), labels, sys_, cache_dir)
        return x[name]

    def describe(x):
        return x.name if isinstance(x, NamedInvariant) else "table"

    cid = check_id or f"identity:{describe(lhs)}={describe(rhs)}"
    for name, roots in standard_frames(sys_):
        labels = tuple(root_label(sys_, r) for r in roots)
        lv = side(lhs, name, roots, labels)
        rv = side(rhs, name, roots, labels)
        if lv != rv:
            return _check(
                cid, False, f"differs at {name}: {lv.render()} != {rv.render()}"
            )
    return _check(cid, True)


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
    t = type_label
    if t == "G":
        if rank != 2:
            raise UnsupportedSystemError(f"unsupported system G{rank}")
        return _dihedral_report("G", 2, 6)
    if t == "I2":
        if rank == 4:
            return _weyl_report("I2", 4, build_root_system("B", 2), cache_dir)
        if rank >= 3 and (rank % 2 == 1 or rank % 4 == 2):
            return _dihedral_report("I2", rank, rank)
        raise UnsupportedSystemError(
            f"I2({rank}) has no finite restriction basis of this kind"
        )
    sys_ = build_root_system(t, rank)
    return _weyl_report(sys_.type_label, sys_.rank, sys_, cache_dir)


def _weyl_report(out_type, out_rank, sys_, cache_dir) -> BasisReport:
    basis = generators_for(out_type, out_rank)
    frames = standard_frames(sys_)
    frame_labels = [
        tuple(root_label(sys_, r) for r in roots) for _, roots in frames
    ]
    restrictions = tuple(
        tuple(
            _restrict(b, tuple(roots), labels, sys_, cache_dir)
            for (_, roots), labels in zip(frames, frame_labels)
        )
        for b in basis
    )
    warnings: list[str] = []
    checks: list[CheckResult] = []

    # (1) stated formulas
    upstream = None
    if out_type == "E":
        upstream = upstream_table(out_type, out_rank, cache_dir)
        checks.append(_e_table_check(out_rank, basis, restrictions, upstream))
    else:
        failures = []
        covered = 0
        for b, row in zip(basis, restrictions):
            for (fname, _), labels, value in zip(frames, frame_labels, row):
                if out_type == "A":
                    expected = _a_stated(b, labels)
                else:
                    ctx = _context_for_frame(out_type, out_rank, fname)
                    expected = stated_formula(b, ctx) if ctx is not None else None
                if expected is None:
                    continue
                covered += 1
                if value != expected:
                    failures.append(f"{b.name} at {fname}")
        checks.append(
            _check(
                "stated-formulas",
                not failures,
                "; ".join(failures) if failures else f"{covered} formula(s) matched",
            )
        )

    # (2) stacked independence
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

    # dims feed both the cardinality and the bound check
    dims, bounds_check = _bounded_dims(out_type, out_rank, basis, restrictions)

    # (3) cardinality
    bound_total = sum(b for _, _, b in dims)
    pinned = _PINNED_COUNTS.get((out_type, out_rank))
    card_ok = len(basis) == bound_total and (pinned is None or len(basis) == pinned)
    checks.append(
        _check(
            "cardinality",
            card_ok,
            f"{len(basis)} elements; bound total {bound_total}"
            + (f"; recorded count {pinned}" if pinned is not None else ""),
        )
    )
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

    # (4) normalizer invariance
    failures = []
    family_count = 0
    for j, ((fname, roots), labels) in enumerate(zip(frames, frame_labels)):
        fams = normalizer_families(sys_, fname, roots)
        family_count += len(fams)
        for desc, action in fams:
            cmap = CoordinateMap.from_permutation(labels, action)
            for b, row in zip(basis, restrictions):
                if substitute(row[j], cmap) != row[j]:
                    failures.append(f"{b.name} at {fname} under {desc}")
    checks.append(
        _check(
            "normalizer-invariance",
            not failures,
            "; ".join(failures[:4])
            if failures
            else f"{family_count} recorded elements across {len(frames)} frame(s)",
        )
    )

    # (5) per-degree achieved vs bound
    checks.append(bounds_check)

    # (6) the encoded lists are recomputed from the constraint itself
    if (out_type, out_rank) in _ENCODED_BOUNDS:
        constrained = _constrained_dims(out_type, out_rank, cache_dir, upstream)
        mism = []
        for d, _, bound in dims:
            got = constrained.get(d, 0)
            if got != bound:
                mism.append(f"degree {d}: constrained {got} != encoded {bound}")
        checks.append(
            _check(
                "encoded-bound-crosscheck",
                not mism,
                "; ".join(mism) if mism else None,
            )
        )

    return BasisReport(
        type_label=out_type,
        rank=out_rank,
        basis=basis,
        frames=tuple((name, labels) for (name, _), labels in zip(frames, frame_labels)),
        restrictions=restrictions,
        checks=tuple(checks),
        dims=tuple(dims),
        warnings=tuple(warnings),
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
    restrictions = tuple(
        (_fold_recipe(b, labels, lambda f: _restrict_abelian(f, labels)),)
        for b in basis
    )
    checks = [
        _check(
            "stated-formulas",
            True,
            "restriction is the defining x-coordinate expression",
        )
    ]
    verdict = stacked_independence(restrictions)
    checks.append(_check("independence", verdict.independent))
    pinned = _PINNED_COUNTS.get((out_type, out_rank))
    card_ok = len(basis) == 2 ** len(labels) and (
        pinned is None or len(basis) == pinned
    )
    checks.append(
        _check("cardinality", card_ok, f"{len(basis)} = 2^{len(labels)}")
    )
    # frame stabilizer: conjugation position actions, almost always trivial
    stab_perms = _dihedral_stabilizer_perms(group, frame)
    failures = []
    for action in stab_perms:
        cmap = CoordinateMap.from_permutation(labels, action)
        for b, row in zip(basis, restrictions):
            if substitute(row[0], cmap) != row[0]:
                failures.append(f"{b.name} under {action}")
    checks.append(
        _check(
            "normalizer-invariance",
            not failures,
            "; ".join(failures)
            if failures
            else f"stabilizer induces {len(stab_perms)} position action(s)",
        )
    )
    dims, bounds_check = _bounded_dims(out_type, out_rank, basis, restrictions)
    checks.append(bounds_check)
    if n == 6:
        facts = g2_split_check(group)
        checks.append(
            _check(
                "structure-facts",
                all(facts.values()),
                ", ".join(k for k, v in facts.items() if v),
            )
        )
    return BasisReport(
        type_label=out_type,
        rank=out_rank,
        basis=basis,
        frames=(("P", labels),),
        restrictions=restrictions,
        checks=tuple(checks),
        dims=tuple(dims),
        warnings=(
            f"one of {len(classes)} frame class(es) shown; restriction is "
            "bijective onto the x-context",
        ),
    )


def _dihedral_stabilizer_perms(group, frame) -> list[tuple[int, ...]]:
    perms = set()
    members = list(frame)
    for g in range(len(group.elements)):
        ginv = group.inverse(g)
        images = [group.mul(group.mul(ginv, r), g) for r in members]
        if set(images) == set(members):
            perms.add(tuple(members.index(i) for i in images))
    return sorted(perms)


# ---------------------------------------------------------------------------
# tensor products of verified bases


def abelian_x_report(labels: Sequence[str], type_label: str = "Z2") -> BasisReport:
    """Report for an elementary abelian factor with the given coordinates.

    Used for the sign-character factors that tensor into larger bases;
    every check is computed, none assumed.
    """
    labels = tuple(labels)
    basis = list(_x_subset_basis(labels))
    restrictions = tuple(
        (_fold_recipe(b, labels, lambda f: _restrict_abelian(f, labels)),)
        for b in basis
    )
    verdict = stacked_independence(restrictions)
    dims = tuple(
        (d, _degree_rank(basis, restrictions, d), comb(len(labels), d))
        for d in range(len(labels) + 1)
    )
    checks = (
        _check("independence", verdict.independent),
        _check("cardinality", len(basis) == 2 ** len(labels)),
        _check(
            "dimension-bounds", all(a == b for _, a, b in dims)
        ),
    )
    return BasisReport(
        type_label=type_label,
        rank=len(labels),
        basis=tuple(basis),
        frames=(("P", labels),),
        restrictions=restrictions,
        checks=checks,
        dims=dims,
        warnings=(),
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
    for fa, la in report_a.frames:
        for fb, lb in report_b.frames:
            combined = la + lb
            if len(set(combined)) != len(combined):
                raise ValueError("tensor contexts share coordinate labels")
            frames.append((fa if fb == "P" else f"{fa}x{fb}", combined))
            pair_maps.append((_injection(la, combined), _injection(lb, combined)))
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
        row = []
        pk = 0
        for fa_idx in range(len(report_a.frames)):
            for fb_idx in range(len(report_b.frames)):
                inj_a, inj_b = pair_maps[pk]
                row.append(
                    inj_a.apply(report_a.restrictions[ai][fa_idx])
                    * inj_b.apply(report_b.restrictions[bj][fb_idx])
                )
                pk += 1
        restrictions.append(tuple(row))
    verdict = stacked_independence(restrictions)
    max_deg = max(b.degree for b in basis)
    bounds_a = {d: v for d, _, v in report_a.dims}
    bounds_b = {d: v for d, _, v in report_b.dims}
    dims = []
    for d in range(max_deg + 1):
        bound = sum(
            bounds_a.get(k, 0) * bounds_b.get(d - k, 0) for k in range(d + 1)
        )
        dims.append((d, _degree_rank(basis, restrictions, d), bound))
    checks = (
        _check("independence", verdict.independent),
        _check(
            "cardinality",
            len(basis) == len(report_a.basis) * len(report_b.basis),
            f"{len(report_a.basis)} x {len(report_b.basis)}",
        ),
        _check(
            "dimension-bounds",
            all(a == b for _, a, b in dims),
        ),
    )
    return BasisReport(
        type_label=f"{report_a.type_label}{report_a.rank}x"
        f"{report_b.type_label}{report_b.rank}",
        rank=report_a.rank + report_b.rank,
        basis=tuple(basis),
        frames=tuple(frames),
        restrictions=tuple(restrictions),
        checks=checks,
        dims=tuple(dims),
        warnings=report_a.warnings + report_b.warnings,
    )
