"""Named bases: restriction formulas, independence, bounds, reports."""
from __future__ import annotations

import json
import os

import pytest

from weylinv import basis
from weylinv.algebra import BnContext, parse_terms, substitute, CoordinateMap
from weylinv.basis import (
    BasisReport,
    Correction,
    FoldInvariant,
    NamedInvariant,
    PermutationSW,
    Product,
    ProjectionSW,
    ReflectionSW,
    abelian_x_report,
    constrained_dim,
    f4_hat,
    generators_for,
    lambda_sum,
    normalizer_families,
    restrict,
    tensor_basis,
    upper_bound_dim,
    upstream_table,
    verify_basis,
    verify_identity,
)
from weylinv.errors import UnsupportedEmbeddingError, UnsupportedSystemError
from weylinv.groups import make_frame, standard_frames
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
            inv = NamedInvariant(f"u{d}", d, ProjectionSW(d, "pairs"))
            expected = lambda_sum(L, n, d, lambda i: not i.C and not i.E)
            assert restrict(inv, roots, sys_) == expected, (n, L, d)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_signed_action_classes_match_formula(n):
    sys_ = build_root_system("B", n)
    for fname, roots in standard_frames(sys_):
        L = int(fname.split("_")[1])
        for d in range(1, n + 1):
            inv = NamedInvariant(f"v{d}", d, PermutationSW(d, "signed"))
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
                factors.append(NamedInvariant(f"v{f}", f, PermutationSW(f, "signed")))
            if a:
                factors.append(NamedInvariant(f"u{a}", a, ProjectionSW(a, "pairs")))
            inv = NamedInvariant("p", a + f, Product(tuple(factors)))
            for fname, roots in frames:
                L = int(fname.split("_")[1])
                expected = lambda_sum(
                    L, n, a + f, lambda i: 2 * len(i.C) + len(i.E) == f
                )
                assert restrict(inv, roots, sys_) == expected, (n, L, a, f)


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
    w = lambda d: NamedInvariant(f"w{d}", d, PermutationSW(d, "natural", modified=False))
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
    u2 = NamedInvariant("u2", 2, ProjectionSW(2, "pairs"))
    with pytest.raises(ValueError):
        NamedInvariant("u2", 3, ProjectionSW(2, "pairs"))
    with pytest.raises(ValueError):
        NamedInvariant("p", 5, Product((u2, u2)))
    with pytest.raises(ValueError):
        NamedInvariant("c", 2, Correction(((0, (u2,)), (1, (u2,)))))


def test_unsupported_pairs_raise():
    for t, r in [("B", 1), ("D", 3), ("E", 5), ("F", 5), ("G", 3), ("I2", 8), ("Z", 2)]:
        with pytest.raises(UnsupportedSystemError):
            generators_for(t, r)
    with pytest.raises(UnsupportedSystemError):
        verify_basis("I2", 12)


# ---------------------------------------------------------------------------
# dimension bounds


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_b_bounds_match_interval_count(n):
    for d in range(n + 2):
        expected = (
            len(range(max(0, 2 * d - n), d + 1)) if d <= n else 0
        )
        assert upper_bound_dim("B", n, d) == expected, (n, d)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_d_bounds_match_interval_count_with_parity_split(n):
    m = n // 2
    for d in range(n + 2):
        if d > n:
            expected = 0
        else:
            expected = len(range(max(0, d - m), d // 2 + 1))
            if d == m:
                expected += 1
        assert upper_bound_dim("D", n, d) == expected, (n, d)


def test_d5_bounds_have_no_parity_split():
    assert [upper_bound_dim("D", 5, d) for d in range(6)] == [1, 1, 2, 1, 1, 0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_a_bounds_are_flat(n):
    f = (n + 1) // 2
    for d in range(f + 2):
        assert upper_bound_dim("A", n, d) == (1 if d <= f else 0)


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
        assert constrained_dim("E", rank, d, str(tmp_path)) == b, d


def test_encoded_f4_bounds_match_constraint_computation():
    for d, b in enumerate([1, 2, 2, 2, 1, 0]):
        assert upper_bound_dim("F", 4, d) == b
        assert constrained_dim("F", 4, d) == b, d


# ---------------------------------------------------------------------------
# verification reports


ALL_PAIRS = [
    ("A", 3), ("A", 6), ("B", 2), ("B", 4), ("B", 5), ("B", 6),
    ("D", 4), ("D", 5), ("D", 6), ("D", 8), ("F", 4),
    ("E", 6), ("E", 7), ("E", 8), ("G", 2), ("I2", 4), ("I2", 5), ("I2", 6),
]


@pytest.mark.parametrize("type_label,rank", ALL_PAIRS)
def test_verify_basis_passes(type_label, rank, tmp_path):
    report = verify_basis(type_label, rank, str(tmp_path))
    failing = [c for c in report.checks if c.status != "pass"]
    assert report.passed(), failing
    assert all(a == b for _, a, b in report.dims), report.dims
    if (type_label, rank) in (("F", 4), ("E", 6), ("E", 7), ("E", 8)):
        # the report shares one constraint pass; the public entry point
        # recomputes it per degree
        for d, _, bound in report.dims:
            got = constrained_dim(type_label, rank, d, str(tmp_path))
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
    assert calls == frames
    verify_basis("E", 8)  # the system keeps its forms
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
    fname, roots = standard_frames(sys_)[1]
    fams = dict(normalizer_families(sys_, fname, roots))
    action = fams["pair-flip(1)"]
    labels = ("a1", "b1")
    bare = parse_terms(labels, "{a1}")
    moved = substitute(bare, CoordinateMap.from_permutation(labels, action))
    assert moved == parse_terms(labels, "{b1}")
    assert moved != bare


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
    u1 = NamedInvariant("u1", 1, ProjectionSW(1, "pairs"))
    xp = NamedInvariant("xp", 1, ProjectionSW(1, "sign:p"))
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
