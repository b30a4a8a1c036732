"""Named bases: restriction formulas, independence, bounds, reports."""
from __future__ import annotations

import json
import os
import tracemalloc
from functools import lru_cache
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest

from oracles import (
    abelian_x_report,
    b_linked_bound,
    b_nodes,
    b_orbit_nodes,
    enumerate_subgroup,
    f4_hat,
    lambda_sum,
    make_frame,
    normalizer_action_full,
    orbit_count,
    orbit_sum_bound,
    parse_terms,
    tensor_basis,
    verify_identity,
)
from weylinv import algebra, basis
from weylinv.algebra import BnContext, relabel
from weylinv.basis import (
    Correction,
    FoldInvariant,
    FormSW,
    NamedInvariant,
    Product,
    SignClass,
    _constrained_dims,
    generators_for,
    normalizer_families,
    restrict,
    upper_bound_dim,
    upstream_table,
    verify_basis,
)
from weylinv.errors import UnsupportedEmbeddingError, UnsupportedSystemError
from weylinv.groups import normalizer_action, resolve, root_label, standard_frames
from weylinv.roots import build_root_system


def _frame_map(sys_):
    return {name: roots for name, roots in standard_frames(sys_)}


def _named(type_label, rank):
    return {g.name: g for g in generators_for(type_label, rank)}


# ---------------------------------------------------------------------------
# closed-form restriction oracles


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pair_projection_classes_match_formula(n):
    sys_ = build_root_system("B", n)
    for fname, roots in standard_frames(sys_):
        L = int(fname.split("_")[1])
        for d in range(1, n + 1):
            inv = NamedInvariant(f"u{d}", d, FormSW(d, "pairs", True))
            expected = lambda_sum(L, n, d, lambda i: not i.C and not i.E)
            assert restrict(inv, roots, sys_) == expected, (n, L, d)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_signed_action_classes_match_formula(n):
    sys_ = build_root_system("B", n)
    for fname, roots in standard_frames(sys_):
        L = int(fname.split("_")[1])
        for d in range(1, n + 1):
            inv = NamedInvariant(f"v{d}", d, FormSW(d, "signed", True))
            expected = lambda_sum(L, n, d, lambda i: not i.A and not i.B)
            assert restrict(inv, roots, sys_) == expected, (n, L, d)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_product_classes_select_by_signed_weight(n):
    # u_a * v_f sums exactly the monomials whose pair/tail weight is f
    sys_ = build_root_system("B", n)
    frames = standard_frames(sys_)
    for a in range(0, n + 1):
        for f in range(0, n + 1 - a):
            if a + f == 0:
                continue
            factors = []
            if f:
                factors.append(NamedInvariant(f"v{f}", f, FormSW(f, "signed", True)))
            if a:
                factors.append(NamedInvariant(f"u{a}", a, FormSW(a, "pairs", True)))
            inv = NamedInvariant("p", a + f, Product(tuple(factors)))
            for fname, roots in frames:
                L = int(fname.split("_")[1])
                expected = lambda_sum(
                    L, n, a + f, lambda i: 2 * len(i.C) + len(i.E) == f
                )
                assert restrict(inv, roots, sys_) == expected, (n, L, a, f)


@pytest.mark.parametrize("type_label", ["B", "F"])
def test_stated_formulas_are_keyed_by_the_whole_recipe(type_label):
    # a closed form on record must be the restriction itself, so recipes
    # that share an action but differ in degree or twist are told apart
    sys_ = build_root_system(type_label, 4)
    leaves = [
        NamedInvariant(f"c{d}", d, FormSW(d, action, modified))
        for action in ("linear", "signed", "pairs", "triality")
        for modified in (True, False)
        for d in range(1, 5)
    ]
    u = [NamedInvariant(f"u{d}", d, FormSW(d, "pairs", True)) for d in (1, 2, 3)]
    v = [NamedInvariant(f"v{d}", d, FormSW(d, "signed", True)) for d in (1, 2, 3)]
    products = [
        Product((NamedInvariant(f"v{d}", d, FormSW(d, "signed", False)), u[0]))
        for d in (1, 2, 3)
    ]
    # products with repeated factors, and u_a * v_f, fold their factors
    products += [
        Product(fs)
        for k in (2, 3)
        for fs in combinations_with_replacement(u + v, k)
        if sum(f.degree for f in fs) <= 4
    ]
    invs = leaves + [
        NamedInvariant("p", sum(f.degree for f in p.factors), p) for p in products
    ]
    for fname, roots in standard_frames(sys_):
        ctx = basis._context_for_frame([root_label(sys_, r) for r in roots])
        stated = [(inv, basis.stated_formula(inv, ctx)) for inv in invs]
        for inv, expected in stated:
            if expected is not None:
                assert expected == restrict(inv, roots, sys_), (fname, inv)
        # pairs, signed and linear in degrees 1-4, triality in degree 1
        # only, and every product: the unmodified signed factor's own
        # formula is not on record, so the first three products are None
        on_record = sum(expected is not None for _, expected in stated)
        assert on_record == 13 + len(products) - 3, fname


def test_each_stated_leaf_is_built_once_per_report(monkeypatch):
    # B6's products share their factors, so folding each product's
    # stated formula afresh built 84 leaves for 36 (recipe, context) pairs
    real = basis._stated_leaf
    keys = []

    def counted(inv, ctx):
        keys.append((inv.recipe, ctx))
        return real(inv, ctx)

    monkeypatch.setattr(basis, "_stated_leaf", counted)
    assert _check_of(verify_basis("B", 6), "stated-formulas").status == "pass"
    assert len(keys) == len(set(keys)) == 36
    verify_basis("B", 6)  # the memo is the report's own
    assert len(keys) == 72


def test_a_warm_report_keeps_one_move_table():
    """relabel memoizes the move table of the last position tuple only.
    A warm verify_basis("D", 8), started with that memo empty, kept 41 KiB
    of tracemalloc memory once it returned with Python 3.11 (40 KiB with
    3.10, 3.12 and 3.13): 28 KiB with no memo, 101 KiB with one that kept
    every tuple the report applies.  The ceiling leaves room for the int,
    tuple and dict sizes of Python 3.10 to 3.13."""
    verify_basis("D", 8)  # root system, frames, forms and coset space
    algebra._move_table.cache_clear()
    tracemalloc.start()
    try:
        report = verify_basis("D", 8)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed()
    assert kept < 64 * 2**10, kept


@pytest.mark.parametrize(
    "type_label,rank", [("B", n) for n in range(2, 9)] + [("F", 4)]
)
def test_plain_linear_formula_is_the_restriction_in_every_degree(type_label, rank):
    """The one closed form of the plain reflection classes holds at every
    standard frame in every degree up to the rank, w_0 = 1 included;
    frames with three or more full pairs have monomials with three lone
    pair entries."""
    sys_ = build_root_system(type_label, rank)
    for fname, roots in standard_frames(sys_):
        ctx = basis._context_for_frame([root_label(sys_, r) for r in roots])
        for d in range(rank + 1):
            inv = NamedInvariant(f"w{d}", d, FormSW(d, "linear", False))
            expected = restrict(inv, roots, sys_)
            assert basis.stated_formula(inv, ctx) == expected, (fname, d)


#: shape predicates for lambda_sum: the ones basis passes (the
#: _STATED_SW entries, the {2}-part of _plain_reflection_formula and the
#: fold classes) and two that weigh full pairs against tail entries; the
#: signed weights of u_a * v_f products are added per case
_SHAPE_PREDICATES = [
    basis._no_tail_no_c,
    basis._pairs_free,
    lambda s: not s.A and not s.B and not s.C,
    lambda s: (s.A + s.B) % 2 == 1,
    lambda s: not s.C and s.E == 1,
    lambda s: 2 * s.C + s.E == 2,
    lambda s: not s.C and not s.E and s.A % 2 == 0,
]


def _counts(idx):
    """The shape of an index tuple: the sizes of its sets."""
    return SimpleNamespace(A=len(idx.A), B=len(idx.B), C=len(idx.C), E=len(idx.E))


@pytest.mark.parametrize(
    "L,n", [(0, 2), (1, 3), (2, 4), (2, 6), (3, 8), (4, 8), (6, 12), (3, 13)]
)
def test_lambda_sum_matches_index_tuple_oracle(L, n):
    weights = [lambda s, f=f: 2 * s.C + s.E == f for f in range(n + 1)]
    for d in range(n + 1):
        for pred in [None] + _SHAPE_PREDICATES + weights:
            on_sets = pred and (lambda idx, pred=pred: pred(_counts(idx)))
            expected = lambda_sum(L, n, d, on_sets)
            assert basis.lambda_sum(L, n, d, pred) == expected, (L, n, d, pred)


@pytest.mark.parametrize("L,n", [(3, 4), (-1, 4)])
def test_lambda_sum_rejects_frames_outside_the_rank(L, n):
    with pytest.raises(ValueError, match=rf"\({L}, {n}\)"):
        basis.lambda_sum(L, n, 1)


def test_rank_two_display_values():
    # the six displayed restriction values of the square's reflection group
    sys_ = build_root_system("B", 2)
    frames = _frame_map(sys_)
    gens = _named("I2", 4)
    e_labels = ("e1", "e2")
    p_labels = ("a1", "b1")
    cases = [
        ("w1", "P_0", parse_terms(e_labels, "{e1} + {e2}")),
        ("w1", "P_1", parse_terms(p_labels, "{a1} + {b1}")),
        ("v1", "P_0", parse_terms(e_labels, "{e1} + {e2}")),
        ("v1", "P_1", parse_terms(p_labels, "0")),
        ("w2", "P_0", parse_terms(e_labels, "{e1}{e2}")),
        ("w2", "P_1", parse_terms(p_labels, "{a1}{b1} + {2}{a1} + {2}{b1}")),
    ]
    for name, fname, expected in cases:
        assert restrict(gens[name], frames[fname], sys_) == expected, (name, fname)


def test_fold_class_formula_even_d():
    sys_ = build_root_system("D", 4)
    roots = standard_frames(sys_)[0][1]
    e2 = NamedInvariant("e2", 2, FoldInvariant(2))
    labels = ("a1", "b1", "a2", "b2")
    assert restrict(e2, roots, sys_) == parse_terms(labels, "{a1}{a2} + {b1}{b2}")


def test_fold_class_formula_d6():
    sys_ = build_root_system("D", 6)
    roots = standard_frames(sys_)[0][1]
    e3 = NamedInvariant("e3", 3, FoldInvariant(3))
    labels = ("a1", "b1", "a2", "b2", "a3", "b3")
    expected = parse_terms(
        labels,
        "{b1}{b2}{b3} + {a1}{a2}{b3} + {a1}{a3}{b2} + {a2}{a3}{b1}",
    )
    assert restrict(e3, roots, sys_) == expected


def test_natural_action_small_cases():
    # 4 points: w1 = sum, w2 = pair sum plus twisted singles, w3 vanishes
    sys_ = build_root_system("A", 3)
    roots = standard_frames(sys_)[0][1]
    labels = ("a1", "a2")
    w = lambda d: NamedInvariant(f"w{d}", d, FormSW(d, "linear", False))
    assert restrict(w(1), roots, sys_) == parse_terms(labels, "{a1} + {a2}")
    assert restrict(w(2), roots, sys_) == parse_terms(
        labels, "{a1}{a2} + {2}{a1} + {2}{a2}"
    )
    assert restrict(w(3), roots, sys_) == parse_terms(labels, "0")
    # 6 points: the odd frame count shifts the twisted part out of w3
    sys6 = build_root_system("A", 5)
    roots6 = standard_frames(sys6)[0][1]
    labels6 = ("a1", "a2", "a3")
    assert restrict(w(3), roots6, sys6) == parse_terms(labels6, "{a1}{a2}{a3}")


# ---------------------------------------------------------------------------
# F4: plain classes, hat corrections, rank-4 comparison claims


def test_f4_w2_two_term_display():
    sys_ = build_root_system("F", 4)
    for fname, roots in standard_frames(sys_):
        L = int(fname.split("_")[1])
        w2 = _named("F", 4)["w2"]
        expected = lambda_sum(L, 4, 2) + parse_terms(
            BnContext(L, 4).labels, "{2}"
        ) * lambda_sum(L, 4, 1, lambda i: not i.C and not i.E)
        assert restrict(w2, roots, sys_) == expected, fname


def test_f4_w3_w4_displays():
    sys_ = build_root_system("F", 4)
    gens = _named("F", 4)
    for fname, roots in standard_frames(sys_):
        L = int(fname.split("_")[1])
        two_ = parse_terms(BnContext(L, 4).labels, "{2}")
        exp3 = lambda_sum(L, 4, 3) + two_ * lambda_sum(
            L, 4, 2, lambda i: not i.C and len(i.E) == 1
        )
        exp4 = lambda_sum(L, 4, 4) + two_ * lambda_sum(
            L, 4, 3, lambda i: 2 * len(i.C) + len(i.E) == 2
        )
        assert restrict(gens["w3"], roots, sys_) == exp3, fname
        assert restrict(gens["w4"], roots, sys_) == exp4, fname


def test_f4_triality_class_hits_tail_only():
    sys_ = build_root_system("F", 4)
    v1 = _named("F", 4)["v1"]
    for fname, roots in standard_frames(sys_):
        L = int(fname.split("_")[1])
        expected = lambda_sum(L, 4, 1, lambda i: not i.A and not i.B and not i.C)
        assert restrict(v1, roots, sys_) == expected, fname


@pytest.mark.parametrize("d", [2, 3, 4])
def test_f4_hat_classes_flatten_to_full_sums(d):
    sys_ = build_root_system("F", 4)
    expected = {
        fname: lambda_sum(int(fname.split("_")[1]), 4, d)
        for fname, _ in standard_frames(sys_)
    }
    assert verify_identity(f4_hat(d), expected, sys_).status == "pass"


def test_f4_pair_frame_comparison_claims():
    # at the pair frames of both groups the named classes line up
    sys_f = build_root_system("F", 4)
    sys_b = build_root_system("B", 4)
    fr_f = standard_frames(sys_f)[2][1]
    fr_b = standard_frames(sys_b)[2][1]
    f4g = _named("F", 4)
    b4g = _named("B", 4)
    u1 = NamedInvariant("u1", 1, Correction(((0, (f4g["w1"],)), (0, (f4g["v1"],)))))
    wh2, wh3, wh4 = f4_hat(2), f4_hat(3), f4_hat(4)

    def F(inv):
        return restrict(inv, fr_f, sys_f)

    def B(inv):
        return restrict(inv, fr_b, sys_b)

    assert F(u1) == B(b4g["u1"])
    assert F(f4g["v1"]) == B(b4g["v1"])
    u1v1 = NamedInvariant("u1v1", 2, Product((u1, f4g["v1"])))
    assert F(u1v1) == B(b4g["v1u1"])
    rem2 = NamedInvariant("r2", 2, Correction(((0, (wh2,)), (0, (u1v1,)))))
    assert F(rem2) == B(b4g["u2"]) + B(b4g["v2"])
    u1wh2 = NamedInvariant("u1wh2", 3, Product((u1, wh2)))
    assert F(u1wh2) == B(b4g["v2u1"])
    rem3 = NamedInvariant("r3", 3, Correction(((0, (wh3,)), (0, (u1wh2,)))))
    assert F(rem3) == B(b4g["v3"])
    assert F(wh4) == B(b4g["v4"])


# ---------------------------------------------------------------------------
# the E-type restriction tables


E6_TABLE = {
    "wt1": ["u1"],
    "wt2": ["u2", "v2"],
    "wt3": ["v2u1"],
    "wt4": ["v4"],
}

E7_TABLE = {
    "wt1": ["u1", "xa4"],
    "wt2": ["u2", "v2", "u1xa4"],
    "wt3": ["u3-e3", "e3", "v2u1", "u2xa4", "v2xa4"],
    "wt4": ["v2u2", "v4", "(u3-e3)xa4", "e3xa4", "v2u1xa4"],
    "wt5": ["v4u1", "v4xa4", "v2u2xa4"],
    "wt6": ["v6", "v4u1xa4"],
    "wt7": ["v6xa4"],
    "f3": ["v2u1", "u3-e3", "u2xa4"],
    "f3wt1": ["v2u2", "v2u1xa4", "e3xa4"],
}

E8_TABLE = {
    "wt1": ["u1"],
    "wt2": ["u2", "v2"],
    "wt3": ["u3", "v2u1"],
    "wt4": ["u4-e4", "e4", "v2u2", "v4"],
    "wt5": ["v2u3", "v4u1"],
    "wt6": ["v4u2", "v6"],
    "wt7": ["v6u1"],
    "wt8": ["v8"],
    "f4": ["v2u2", "u4-e4"],
}


@pytest.mark.parametrize(
    "rank,table", [(6, E6_TABLE), (7, E7_TABLE), (8, E8_TABLE)]
)
def test_e_type_restriction_tables_line_by_line(rank, table, tmp_path):
    sys_ = build_root_system("E", rank)
    roots = standard_frames(sys_)[0][1]
    entries = {n: v for n, _, v in upstream_table("E", rank, str(tmp_path))}
    gens = _named("E", rank)
    for name, combo in table.items():
        value = restrict(gens[name], roots, sys_, str(tmp_path))
        expected = entries[combo[0]]
        for nm in combo[1:]:
            expected = expected + entries[nm]
        assert value == expected, name


def test_e7_product_identity(tmp_path):
    sys_ = build_root_system("E", 7)
    gens = _named("E", 7)
    lhs = NamedInvariant("p", 4, Product((gens["f3"], gens["wt1"])))
    entries = {n: v for n, _, v in upstream_table("E", 7, str(tmp_path))}
    expected = {"P": entries["v2u2"] + entries["v2u1xa4"] + entries["e3xa4"]}
    assert verify_identity(lhs, expected, sys_, str(tmp_path)).status == "pass"


def test_trivial_product_identity():
    sys_ = build_root_system("F", 4)
    gens = _named("F", 4)
    lhs = NamedInvariant("w2", 2, Product((gens["1"], gens["w2"])))
    assert verify_identity(lhs, gens["w2"], sys_).status == "pass"
    bad = verify_identity(gens["w1"], gens["v1"], sys_)
    assert bad.status == "fail"
    assert "differs at" in bad.witness


# ---------------------------------------------------------------------------
# generator tables and cardinalities


CARDINALITIES = [
    ("A", 1, 2),
    ("A", 2, 2),
    ("A", 3, 3),
    ("A", 4, 3),
    ("A", 5, 4),
    ("A", 6, 4),
    ("B", 2, 4),
    ("B", 4, 9),
    ("B", 5, 12),
    ("B", 6, 16),
    ("D", 4, 7),
    ("D", 5, 6),
    ("D", 6, 11),
    ("D", 8, 16),
    ("F", 4, 8),
    ("E", 6, 5),
    ("E", 7, 10),
    ("E", 8, 10),
    ("G", 2, 4),
    ("I2", 4, 4),
]


@pytest.mark.parametrize("type_label,rank,count", CARDINALITIES)
def test_basis_cardinalities(type_label, rank, count):
    assert len(generators_for(type_label, rank)) == count


def test_b4_names_in_order():
    assert [g.name for g in generators_for("B", 4)] == [
        "1", "u1", "v1", "u2", "v1u1", "v2", "v2u1", "v3", "v4",
    ]


def test_d8_names_include_fold_split():
    names = [g.name for g in generators_for("D", 8)]
    assert "e4" in names and "u4-e4" in names
    assert names == [
        "1", "u1", "u2", "v2", "u3", "v2u1", "u4-e4", "v2u2", "v4",
        "e4", "v2u3", "v4u1", "v4u2", "v6", "v6u1", "v8",
    ]


def test_d5_has_no_fold_classes():
    names = [g.name for g in generators_for("D", 5)]
    assert names == ["1", "u1", "u2", "v2", "v2u1", "v4"]


def test_f4_names_in_order():
    assert [g.name for g in generators_for("F", 4)] == [
        "1", "w1", "v1", "w2", "v1w1", "w3", "v1w2", "w4",
    ]


def test_degree_bookkeeping_is_validated():
    u2 = NamedInvariant("u2", 2, FormSW(2, "pairs", True))
    with pytest.raises(ValueError):
        NamedInvariant("u2", 3, FormSW(2, "pairs", True))
    with pytest.raises(ValueError):
        NamedInvariant("p", 5, Product((u2, u2)))
    with pytest.raises(ValueError):
        NamedInvariant("c", 2, Correction(((0, (u2,)), (1, (u2,)))))


def test_unsupported_pairs_raise():
    for t, r in [
        ("A", 0), ("A", 9), ("B", 1), ("B", 9), ("C", 9), ("D", 3), ("D", 9),
        ("E", 5), ("E", 9), ("F", 5), ("G", 3), ("I2", 8), ("Z", 2),
    ]:
        with pytest.raises(UnsupportedSystemError):
            generators_for(t, r)
    with pytest.raises(UnsupportedSystemError):
        verify_basis("I2", 12)


# ---------------------------------------------------------------------------
# dimension bounds


@pytest.mark.parametrize("n", range(2, 25))
def test_b_bounds_match_interval_count(n):
    # the closed count against the (L, k, ell) orbit nodes linked across
    # the frames, B2-B24 (past the supported ranks: the count is
    # arithmetic)
    for d in range(n + 2):
        expected = (
            len(range(max(0, 2 * d - n), d + 1)) if d <= n else 0
        )
        assert b_linked_bound(n, d) == expected, (n, d)
        assert upper_bound_dim("B", n, d) == expected, (n, d)
        assert upper_bound_dim("C", n, d) == expected, (n, d)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_b_nodes_are_the_orbit_signatures(n):
    # the orbit-sum route asserts that no two orbits at one frame share a
    # signature, so each node it returns is one whole orbit
    for d in range(n + 2):
        assert sorted(b_nodes(n, d)) == sorted(b_orbit_nodes(n, d)), (n, d)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_d_bounds_match_interval_count_with_parity_split(n):
    m = n // 2
    for d in range(n + 3):
        if d > n:
            expected = 0
        else:
            expected = len(range(max(0, d - m), d // 2 + 1))
            if d == m and n % 2 == 0:
                expected += 1
        assert orbit_sum_bound("D", n, d) == expected, (n, d)
        assert upper_bound_dim("D", n, d) == expected, (n, d)


def test_d5_bounds_have_no_parity_split():
    assert [upper_bound_dim("D", 5, d) for d in range(6)] == [1, 1, 2, 1, 1, 0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_a_bounds_are_flat(n):
    f = (n + 1) // 2
    for d in range(n + 3):
        assert orbit_sum_bound("A", n, d) == (1 if d <= f else 0)
        assert upper_bound_dim("A", n, d) == (1 if d <= f else 0)


def test_closed_bounds_build_no_root_system(monkeypatch):
    def refuse(*args):
        raise AssertionError("the bound reached for a root system")

    systems = [("A", 8), ("B", 8), ("C", 8), ("D", 7), ("D", 8), ("I2", 4)]
    expected = {(t, n): [upper_bound_dim(t, n, d) for d in range(n + 2)] for t, n in systems}
    for name in ("build_root_system", "standard_frames", "normalizer_families"):
        monkeypatch.setattr(basis, name, refuse)
    for t, n in systems:
        assert [upper_bound_dim(t, n, d) for d in range(n + 2)] == expected[t, n]


@pytest.mark.parametrize(
    "rank,bounds",
    [
        (6, [1, 1, 1, 1, 1]),
        (7, [1, 1, 1, 2, 2, 1, 1, 1]),
        (8, [1, 1, 1, 1, 2, 1, 1, 1, 1]),
    ],
)
def test_encoded_e_bounds_match_constraint_computation(rank, bounds, tmp_path):
    # one degree past the top: no upstream vectors, so both read 0
    for d, b in enumerate(bounds + [0]):
        assert upper_bound_dim("E", rank, d) == b
        assert _constrained_dims("E", rank, str(tmp_path)).get(d, 0) == b, d


def test_encoded_f4_bounds_match_constraint_computation():
    for d, b in enumerate([1, 2, 2, 2, 1, 0]):
        assert upper_bound_dim("F", 4, d) == b
        assert _constrained_dims("F", 4, None).get(d, 0) == b, d


# ---------------------------------------------------------------------------
# the full normalizer action


_WEYL_SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4)]
)


@lru_cache(maxsize=None)
def _full_actions(type_label, rank):
    """(frame name, frame roots, full action generators) per standard frame."""
    sys_ = build_root_system(type_label, rank)
    return [
        (name, roots, normalizer_action_full(sys_, roots))
        for name, roots in standard_frames(sys_)
    ]


def _generated(gens, size):
    return set(enumerate_subgroup([tuple(range(size)), *gens]).elements)


@pytest.mark.parametrize("type_label,rank", _WEYL_SYSTEMS)
def test_recorded_families_generate_the_full_normalizer_action(type_label, rank):
    sys_ = build_root_system(type_label, rank)
    for name, roots, full in _full_actions(type_label, rank):
        recorded = [p for _, p in normalizer_families(sys_, roots)]
        full_group = _generated(full, len(roots))
        recorded_group = _generated(recorded, len(roots))
        assert recorded_group <= full_group, name
        if (type_label, rank) == ("E", 6):
            # three recorded elements miss a factor 3: 51840 / 135 frames / 2^4
            assert (len(recorded_group), len(full_group)) == (8, 24)
        else:
            assert recorded_group == full_group, name


@pytest.mark.parametrize("type_label,rank", _WEYL_SYSTEMS)
def test_restrictions_are_invariant_under_the_full_normalizer_action(
    type_label, rank
):
    sys_ = build_root_system(type_label, rank)
    basis_ = generators_for(type_label, rank)
    for name, roots, full in _full_actions(type_label, rank):
        for inv in basis_:
            restricted = restrict(inv, roots, sys_)
            for g in full:
                assert relabel(restricted, g) == restricted, (inv.name, name, g)


@pytest.mark.parametrize(
    "type_label,rank", [s for s in _WEYL_SYSTEMS if s[0] in "AD"]
)
def test_full_normalizer_orbits_count_the_a_and_d_bounds(type_label, rank):
    # a derivation of the A/D closed counts that reads no recorded family
    sys_ = build_root_system(type_label, rank)
    ((_, roots, full),) = _full_actions(type_label, rank)
    labels = tuple(root_label(sys_, r) for r in roots)
    degrees = range(rank + 3)
    assert [orbit_count(labels, full, d) for d in degrees] == [
        upper_bound_dim(type_label, rank, d) for d in degrees
    ]


# ---------------------------------------------------------------------------
# verification reports


ALL_PAIRS = [
    ("A", 3), ("A", 6), ("A", 7), ("A", 8),
    ("B", 2), ("B", 4), ("B", 5), ("B", 6), ("B", 7), ("B", 8),
    ("D", 4), ("D", 5), ("D", 6), ("D", 7), ("D", 8), ("F", 4),
    ("E", 6), ("E", 7), ("E", 8), ("G", 2), ("I2", 4), ("I2", 5), ("I2", 6),
]


@pytest.mark.parametrize("type_label,rank", ALL_PAIRS)
def test_verify_basis_passes(type_label, rank, tmp_path):
    report = verify_basis(type_label, rank, str(tmp_path))
    failing = [c for c in report.checks if c.status != "pass"]
    assert report.passed(), failing
    assert all(a == b for _, a, b in report.dims), report.dims
    if (type_label, rank) in (("F", 4), ("E", 6), ("E", 7), ("E", 8)):
        # the report shares one constraint pass with its upstream table;
        # recompute it here without one
        dims = _constrained_dims(type_label, rank, str(tmp_path))
        for d, _, bound in report.dims:
            got = dims.get(d, 0)
            assert got == bound, (d, got, bound)


def test_one_linear_form_per_frame(monkeypatch):
    calls = []
    real = basis.form_of_linear_action

    def counted(sys_, frame_roots, labels=None):
        calls.append(tuple(frame_roots))
        return real(sys_, frame_roots, labels)

    monkeypatch.setattr(basis, "form_of_linear_action", counted)
    build_root_system.cache_clear()  # a fresh E8 holds no forms yet
    report = verify_basis("E", 8)
    assert report.passed()
    frames = [tuple(roots) for _, roots in standard_frames(build_root_system("E", 8))]
    # then the D8 frame of the upstream table, whose signed form has the
    # frame's linear form as one half
    frames.append(standard_frames(build_root_system("D", 8))[0][1])
    assert calls == frames
    verify_basis("E", 8)  # the systems keep their forms
    assert calls == frames


def test_report_checks_cover_required_ids():
    report = verify_basis("B", 4)
    ids = [c.check_id for c in report.checks]
    for required in (
        "stated-formulas",
        "independence",
        "cardinality",
        "normalizer-invariance",
        "dimension-bounds",
    ):
        assert required in ids
    e_ids = [c.check_id for c in verify_basis("E", 6).checks]
    assert "encoded-bound-crosscheck" in e_ids


def test_a_type_reports_both_counts():
    report = verify_basis("A", 5)
    assert any("3 without" in w and "4 including" in w for w in report.warnings)


def test_g2_structure_facts_check():
    report = verify_basis("G", 2)
    assert any(c.check_id == "structure-facts" and c.status == "pass"
               for c in report.checks)


def test_normalizer_negative_case():
    # a bare pair coordinate is not flip-invariant, so the constraint bites
    sys_ = build_root_system("B", 2)
    _, roots = standard_frames(sys_)[1]
    fams = dict(normalizer_families(sys_, roots))
    action = fams["pair-flip(1)"]
    labels = ("a1", "b1")
    bare = parse_terms(labels, "{a1}")
    moved = relabel(bare, action)
    assert moved == parse_terms(labels, "{b1}")
    assert moved != bare


def _named_context(type_label, rank, frame_name):
    """The stated-formula context read off the frame's name: P_L holds
    L full pairs, a D_n frame n // 2."""
    if type_label in ("B", "F") or (type_label == "I2" and rank == 4):
        n = 4 if type_label == "F" else (2 if type_label == "I2" else rank)
        return BnContext(int(frame_name.split("_")[1]), n)
    if type_label == "D":
        m = rank // 2
        return BnContext(m, 2 * m)
    return None


def _named_families(sys_, frame_name, frame_roots):
    """normalizer_families with the frame's full pairs taken from its
    name and type: parsed from P_L for B and F, n // 2 for D, a table
    for E."""
    t, n = sys_.type_label, sys_.rank
    roots = tuple(frame_roots)
    out = []

    def add(label, g):
        out.append((label, normalizer_action(sys_, g, roots)))

    if t == "A":
        for i in range(1, (n + 1) // 2):
            add(f"pair-swap({i},{i + 1})", basis._pair_swap_elem(sys_, i, i + 1))
        return out
    if t in ("B", "F"):
        L = int(frame_name.split("_")[1])
        for i in range(1, L):
            add(f"pair-swap({i},{i + 1})", basis._pair_swap_elem(sys_, i, i + 1))
        for i in range(1, L + 1):
            add(f"pair-flip({i})", basis._refl_at(sys_, {2 * i - 1: 2}))
        for j in range(2 * L + 1, n):
            add(f"tail-swap(e{j},e{j + 1})", basis._refl_at(sys_, {j - 1: 2, j: -2}))
        if t == "F" and L == 2:
            add("torsor-g", sys_.reflection_images(sys_.index[(1, 1, 1, 1)]))
        return out
    if t == "D":
        m = n // 2
        for i in range(1, m):
            add(f"pair-swap({i},{i + 1})", basis._pair_swap_elem(sys_, i, i + 1))
        if n % 2 == 0:
            for i in range(1, m):
                add(
                    f"double-flip({i},{i + 1})",
                    basis._double_flip_elem(sys_, 2 * i, 2 * i + 2),
                )
        else:
            for i in range(1, m + 1):
                add(f"pair-flip({i})", basis._double_flip_elem(sys_, 2 * i, n))
        return out
    pairs = {6: 2, 7: 3, 8: 4}[n]
    for i in range(1, pairs):
        add(f"pair-swap({i},{i + 1})", basis._pair_swap_elem(sys_, i, i + 1))
    for i in range(1, pairs):
        flip = basis._double_flip_elem(sys_, 2 * i, 2 * i + 2)
        add(f"double-flip({i},{i + 1})", flip)
    add("torsor-g", basis._torsor_elem(sys_))
    return out


@pytest.mark.parametrize("type_label,rank", _WEYL_SYSTEMS + [("C", 3), ("I2", 4)])
def test_pair_counts_read_off_labels_match_the_frame_names(type_label, rank):
    """One b_i per full pair: the labels give the stated-formula context
    and the normalizer families that parsing P_L gave at every standard
    frame."""
    (t, n), sys_ = resolve(type_label, rank)
    for fname, roots in standard_frames(sys_):
        labels = [root_label(sys_, r) for r in roots]
        if t not in ("A", "E"):
            assert basis._context_for_frame(labels) == _named_context(t, n, fname)
        assert normalizer_families(sys_, roots) == _named_families(sys_, fname, roots)


# ---------------------------------------------------------------------------
# the shared report checks fail with a witness


def _check_of(report, check_id):
    (check,) = [c for c in report.checks if c.check_id == check_id]
    return check


@pytest.mark.parametrize("type_label,rank", [("B", 2), ("G", 2)])
def test_repeated_element_fails_independence(type_label, rank, monkeypatch):
    real = basis.generators_for
    monkeypatch.setattr(
        basis, "generators_for", lambda t, r: real(t, r) + real(t, r)[-1:]
    )
    check = _check_of(verify_basis(type_label, rank), "independence")
    assert check.status == "fail"
    assert check.witness == "dependent combination at indices 3,4"


def test_repeated_x_element_fails_independence(monkeypatch):
    real = basis._x_subset_basis
    monkeypatch.setattr(
        basis, "_x_subset_basis", lambda labels: real(labels) + real(labels)[-1:]
    )
    check = _check_of(abelian_x_report(("p",)), "independence")
    assert check.status == "fail"
    assert check.witness == "dependent combination at indices 1,2"


@pytest.mark.parametrize(
    "type_label,rank,card_witness,bounds_witness",
    [
        ("B", 2, "4 elements; bound total 5", "degree 1: 2 != 3"),
        ("G", 2, "4 = 2^2", "degree 1: 2 != 3"),
        ("E", 6, "5 elements; bound total 6; recorded count 5", "degree 1: 1 != 2"),
    ],
)
def test_bound_off_by_one_fails_cardinality_and_bounds(
    type_label, rank, card_witness, bounds_witness, monkeypatch
):
    real = basis.upper_bound_dim
    monkeypatch.setattr(
        basis, "upper_bound_dim", lambda t, r, d: real(t, r, d) + (d == 1)
    )
    report = verify_basis(type_label, rank)
    card = _check_of(report, "cardinality")
    bounds = _check_of(report, "dimension-bounds")
    assert (card.status, card.witness) == ("fail", card_witness)
    assert (bounds.status, bounds.witness) == ("fail", bounds_witness)
    if type_label == "E":
        # the cross-check compares the constraint with the encoded list itself
        assert _check_of(report, "encoded-bound-crosscheck").status == "pass"


def test_tensor_cardinality_counts_the_convolved_bound(monkeypatch):
    # a factor whose bounds total more than its elements: |A| x |B| elements
    # still come out, but the convolved bound total is larger
    real = basis.upper_bound_dim
    monkeypatch.setattr(
        basis, "upper_bound_dim", lambda t, r, d: real(t, r, d) + (d == 1)
    )
    prod = tensor_basis(verify_basis("G", 2), abelian_x_report(("p",)))
    card = _check_of(prod, "cardinality")
    assert (card.status, card.witness) == ("fail", "8 elements; bound total 10")


def test_moved_element_fails_normalizer_invariance(monkeypatch):
    # x_{a1} is not fixed by the swap of A3's two frame coordinates
    real = basis.generators_for
    xa1 = NamedInvariant("xa1", 1, SignClass("a1"))
    monkeypatch.setattr(basis, "generators_for", lambda t, r: real(t, r) + (xa1,))
    check = _check_of(verify_basis("A", 3), "normalizer-invariance")
    assert check.status == "fail"
    assert check.witness == "xa1 at P under pair-swap(1,2)"


def test_report_json_shape():
    report = verify_basis("D", 4)
    payload = json.loads(report.to_json())
    assert payload["type"] == "D" and payload["rank"] == 4
    assert {"name", "degree"} == set(payload["basis"][0])
    assert all(set(c) <= {"id", "status", "witness"} for c in payload["checks"])
    assert payload["dims"]["2"] == {"achieved": 3, "bound": 3}
    assert isinstance(payload["warnings"], list)


def test_restrict_accepts_frame_object():
    sys_ = build_root_system("B", 2)
    roots = standard_frames(sys_)[1][1]
    frame = make_frame(sys_, roots)
    w1 = _named("I2", 4)["w1"]
    assert restrict(w1, frame, sys_) == restrict(w1, roots, sys_)


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_d6_with_sign_factor(tmp_path):
    d6 = verify_basis("D", 6, str(tmp_path))
    prod = tensor_basis(d6, abelian_x_report(("a4",)))
    assert prod.passed()
    assert len(prod.basis) == 22
    expected = [
        ("1", 0), ("u1", 1), ("xa4", 1), ("u2", 2), ("v2", 2), ("u1xa4", 2),
        ("u3-e3", 3), ("v2u1", 3), ("e3", 3), ("u2xa4", 3), ("v2xa4", 3),
        ("v2u2", 4), ("v4", 4), ("(u3-e3)xa4", 4), ("v2u1xa4", 4),
        ("e3xa4", 4), ("v4u1", 5), ("v2u2xa4", 5), ("v4xa4", 5),
        ("v6", 6), ("v4u1xa4", 6), ("v6xa4", 7),
    ]
    assert [(b.name, b.degree) for b in prod.basis] == expected
    table = upstream_table("E", 7, str(tmp_path))
    assert [(n, d) for n, d, _ in table] == expected
    assert [v for _, _, v in table] == [row[0] for row in prod.restrictions]


def test_tensor_with_trivial_factor_is_unchanged():
    d5 = verify_basis("D", 5)
    prod = tensor_basis(d5, abelian_x_report(()))
    assert [b.name for b in prod.basis] == [b.name for b in d5.basis]
    assert prod.restrictions == d5.restrictions


def test_tensor_of_x_bases_concatenates():
    prod = tensor_basis(abelian_x_report(("p", "q")), abelian_x_report(("r",)))
    assert prod.passed()
    assert [b.name for b in prod.basis] == [
        "1", "xp", "xq", "xr", "xpxq", "xpxr", "xqxr", "xpxqxr",
    ]


def test_tensor_rejects_label_collisions():
    with pytest.raises(ValueError):
        tensor_basis(abelian_x_report(("p",)), abelian_x_report(("p",)))


def test_abelian_evaluator_rejects_a_non_x_recipe(monkeypatch):
    u1 = NamedInvariant("u1", 1, FormSW(1, "pairs", True))
    xp = NamedInvariant("xp", 1, SignClass("p"))
    for bad in (u1, NamedInvariant("xpu1", 2, Product((xp, u1)))):
        monkeypatch.setattr(basis, "_x_subset_basis", lambda labels: (xp, bad))
        with pytest.raises(UnsupportedEmbeddingError, match="u1"):
            abelian_x_report(("p",))


# ---------------------------------------------------------------------------
# fold certificates


def test_each_cache_dir_gets_its_coset_file(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    verify_basis("D", 4, str(first))
    verify_basis("D", 4, str(second))
    names = sorted(os.listdir(first))
    assert names and sorted(os.listdir(second)) == names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
