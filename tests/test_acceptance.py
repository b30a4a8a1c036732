"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (or -s to see the lines).
Timing budgets are asserted where the criterion states one.
"""
from __future__ import annotations

import time

import pytest

from oracles import (
    compare_support,
    f4_hat,
    form_of_involutions,
    lambda_sum,
    parse_terms,
    pfister_gram_check,
    render_form,
    verify_identity,
)
from weylinv import cli, cosets
from weylinv.basis import (
    FormSW,
    NamedInvariant,
    Product,
    generators_for,
    restrict,
    upstream_table,
    verify_basis,
)
from weylinv.cosets import (
    build_coset_space,
    f_restriction,
    full_check,
    standard_u_gens,
)
from weylinv.groups import (
    omega_classes,
    root_label,
    standard_frames,
    weyl_order,
    group_order,
)
from weylinv.roots import build_root_system


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("acceptance-cache"))


@pytest.fixture(scope="module")
def cold_spaces():
    """Freshly built (uncached) E7/E8 coset spaces with wall times."""
    out = {}
    for rank in (7, 8):
        sys_ = build_root_system("E", rank)
        t0 = time.monotonic()
        space = build_coset_space(sys_, standard_u_gens(sys_), cache_dir=None)
        out[rank] = (sys_, space, time.monotonic() - t0)
    return out


def _passed(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_01_coset_counts(cold_spaces):
    _, e7, secs7 = cold_spaces[7]
    _, e8, secs8 = cold_spaces[8]
    assert e7.size == 2016
    assert e8.size == 17280
    assert secs7 < 60, f"E7 build took {secs7:.1f}s"
    assert secs8 < 300, f"E8 build took {secs8:.1f}s"
    _passed(1, f"2016 and 17280 cosets ({secs7:.2f}s / {secs8:.2f}s)")


def test_criterion_02_order_identities(cold_spaces):
    _, e7, _ = cold_spaces[7]
    _, e8, _ = cold_spaces[8]
    assert e7.u_order == 1440 and 2016 * 1440 == 2_903_040
    assert e8.u_order == 40320 and 17280 * 40320 == 696_729_600
    assert e7.size * e7.u_order == weyl_order(build_root_system("E", 7))
    assert e8.size * e8.u_order == weyl_order(build_root_system("E", 8))
    enumerated = []
    for label, rank in [("B", 2), ("B", 3), ("B", 4), ("B", 5), ("D", 4), ("F", 4)]:
        sys_ = build_root_system(label, rank)
        order = group_order(sys_)  # BFS at these ranks
        assert order == weyl_order(sys_), (label, rank)
        enumerated.append(order)
    assert enumerated[-1] == 1152
    _passed(2, "coset products equal |W|; BFS orders match the formulas")


def test_criterion_03_fold_certificates(cold_spaces, cache_dir):
    sys7, e7, _ = cold_spaces[7]
    sys8, e8, _ = cold_spaces[8]

    frame7 = standard_frames(sys7)[0][1]
    cert7 = full_check(sys7, e7, frame7)
    assert all(len(a) >= 3 for a in cert7.a_sets)
    assert cert7.min_fold == 3 and cert7.fold_count(3) == 28
    entries7 = {n: v for n, _, v in upstream_table("E", 7, cache_dir)}
    expected7 = entries7["v2u1"] + entries7["u3-e3"] + entries7["u2xa4"]
    assert compare_support(cert7, expected7)

    frame8 = standard_frames(sys8)[0][1]
    cert8 = full_check(sys8, e8, frame8)
    assert all(len(a) >= 4 for a in cert8.a_sets)
    assert cert8.min_fold == 4
    entries8 = {n: v for n, _, v in upstream_table("E", 8, cache_dir)}
    expected8 = entries8["v2u2"] + entries8["u4-e4"]
    assert compare_support(cert8, expected8)
    _passed(3, "E7: 28 fold-3 orbits match f3 support; E8 fold-4 matches f4")


@pytest.mark.parametrize("n", [4, 6, 8])
def test_criterion_04_d_orbit_pattern(n, cache_dir):
    m = n // 2
    sys_ = build_root_system("D", n)
    fname, roots = standard_frames(sys_)[0]
    labels = [root_label(sys_, r) for r in roots]
    space = build_coset_space(sys_, cache_dir=cache_dir)
    cert = full_check(sys_, space, roots)
    assert len(cert.a_sets) == 2 ** (m - 1)
    patterns = set()
    for a in cert.a_sets:
        chosen = [labels[p] for p in a]
        assert len(chosen) == m
        assert sorted(int(c[1:]) for c in chosen) == list(range(1, m + 1))
        patterns.add(tuple(sorted(chosen)))
    b_counts = {sum(1 for c in p if c.startswith("b")) for p in patterns}
    assert all(k % 2 == m % 2 for k in b_counts)
    assert len(patterns) == 2 ** (m - 1)
    em = f_restriction(cert, m)
    oracle = lambda_sum(
        m, n, m, lambda i: not i.C and not i.E and len(i.A) % 2 == 0
    )
    assert em == oracle
    _passed(4, f"D{n}: {2 ** (m - 1)} one-per-pair orbits; e_{m} matches")


def test_criterion_05_omega_counts():
    t0 = time.monotonic()
    counts = {}
    for n in range(2, 7):
        counts[("B", n)] = len(omega_classes(build_root_system("B", n)))
    counts[("F", 4)] = len(omega_classes(build_root_system("F", 4)))
    singles = (
        [("A", n) for n in range(1, 7)]
        + [("D", n) for n in range(4, 9)]
        + [("E", 6), ("E", 7), ("E", 8)]
    )
    for label, rank in singles:
        counts[(label, rank)] = len(omega_classes(build_root_system(label, rank)))
    elapsed = time.monotonic() - t0
    for n in range(2, 7):
        assert counts[("B", n)] == n // 2 + 1, n
    assert counts[("F", 4)] == 3
    for key in singles:
        assert counts[key] == 1, key
    assert elapsed < 600, f"omega sweep took {elapsed:.1f}s"
    _passed(5, f"all class counts as listed ({elapsed:.1f}s)")


E6_TABLE = {
    "wt1": ["u1"], "wt2": ["u2", "v2"], "wt3": ["v2u1"], "wt4": ["v4"],
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


def test_criterion_06_restriction_suite(cache_dir):
    t0 = time.monotonic()

    # pair-projection and signed-action formulas, every frame of B_2..B_6
    for n in range(2, 7):
        sys_ = build_root_system("B", n)
        for fname, roots in standard_frames(sys_):
            L = int(fname.split("_")[1])
            for d in range(1, n + 1):
                u = NamedInvariant(f"u{d}", d, FormSW(d, "pairs", True))
                v = NamedInvariant(f"v{d}", d, FormSW(d, "signed", True))
                assert restrict(u, roots, sys_) == lambda_sum(
                    L, n, d, lambda i: not i.C and not i.E
                )
                assert restrict(v, roots, sys_) == lambda_sum(
                    L, n, d, lambda i: not i.A and not i.B
                )

    # product formula: the signed weight selects the classes
    for n in range(2, 7):
        sys_ = build_root_system("B", n)
        frames = standard_frames(sys_)
        for a in range(0, n + 1):
            for f in range(1 if a == 0 else 0, n + 1 - a):
                if a + f == 0 or a + f > n:
                    continue
                factors = []
                if f:
                    factors.append(
                        NamedInvariant(f"v{f}", f, FormSW(f, "signed", True))
                    )
                if a:
                    factors.append(
                        NamedInvariant(f"u{a}", a, FormSW(a, "pairs", True))
                    )
                p = NamedInvariant("p", a + f, Product(tuple(factors)))
                for fname, roots in frames:
                    L = int(fname.split("_")[1])
                    assert restrict(p, roots, sys_) == lambda_sum(
                        L, n, a + f, lambda i: 2 * len(i.C) + len(i.E) == f
                    )

    # the six displayed rank-2 equalities
    sys2 = build_root_system("B", 2)
    fr2 = dict(standard_frames(sys2))
    g2 = {g.name: g for g in generators_for("I2", 4)}
    for name, fname, text, labels in [
        ("w1", "P_0", "{e1} + {e2}", ("e1", "e2")),
        ("w1", "P_1", "{a1} + {b1}", ("a1", "b1")),
        ("v1", "P_0", "{e1} + {e2}", ("e1", "e2")),
        ("v1", "P_1", "0", ("a1", "b1")),
        ("w2", "P_0", "{e1}{e2}", ("e1", "e2")),
        ("w2", "P_1", "{a1}{b1} + {2}{a1} + {2}{b1}", ("a1", "b1")),
    ]:
        assert restrict(g2[name], fr2[fname], sys2) == parse_terms(labels, text)

    # the three worked embedding forms
    swap, negswap = ((0, 1), (1, 0)), ((0, -1), (-1, 0))
    assert render_form(form_of_involutions([swap, negswap], ("a", "b"))) == "<2a, 2b>"
    assert render_form(form_of_involutions([swap], ("a",))) == "<2a, 2>"
    assert render_form(form_of_involutions([swap, swap], ("a", "b"))) == "<2ab, 2>"

    # exceptional tables, line by line
    for rank, table in [(6, E6_TABLE), (7, E7_TABLE), (8, E8_TABLE)]:
        sys_ = build_root_system("E", rank)
        roots = standard_frames(sys_)[0][1]
        entries = {n: v for n, _, v in upstream_table("E", rank, cache_dir)}
        gens = {g.name: g for g in generators_for("E", rank)}
        for name, combo in table.items():
            value = restrict(gens[name], roots, sys_, cache_dir)
            expected = entries[combo[0]]
            for nm in combo[1:]:
                expected = expected + entries[nm]
            assert value == expected, (rank, name)

    # F4 hat corrections flatten to the full index sums
    sysf = build_root_system("F", 4)
    for d in (2, 3, 4):
        expected = {
            fname: lambda_sum(int(fname.split("_")[1]), 4, d)
            for fname, _ in standard_frames(sysf)
        }
        assert verify_identity(f4_hat(d), expected, sysf).status == "pass"

    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"restriction suite took {elapsed:.1f}s"
    _passed(6, f"all restriction formulas hold exactly ({elapsed:.1f}s)")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_07_pfister_gram(n):
    assert pfister_gram_check(n)
    if n == 3:
        _passed(7, "Pfister Gram orthogonality and norms for n <= 3")


def test_criterion_08_basis_verification(cache_dir):
    expected_counts = {
        ("B", 4): 9, ("D", 8): 16, ("F", 4): 8, ("E", 6): 5,
        ("E", 7): 10, ("E", 8): 10, ("G", 2): 4, ("I2", 4): 4,
    }
    for (label, rank), count in expected_counts.items():
        report = verify_basis(label, rank, cache_dir)
        assert len(report.basis) == count, (label, rank)
        by_id = {c.check_id: c.status for c in report.checks}
        assert by_id["independence"] == "pass", (label, rank)
        assert by_id["cardinality"] == "pass", (label, rank)
        assert by_id["normalizer-invariance"] == "pass", (label, rank)
        assert report.passed(), (label, rank)
    _passed(8, "independence, cardinality, and invariance for all eight systems")


def test_criterion_09_dimension_equalities(cache_dir):
    for n in range(2, 7):
        report = verify_basis("B", n, cache_dir)
        assert all(a == b for _, a, b in report.dims), ("B", n, report.dims)
    for n in (4, 6):
        report = verify_basis("D", n, cache_dir)
        assert all(a == b for _, a, b in report.dims), ("D", n, report.dims)
    encoded = {
        ("F", 4): [1, 2, 2, 2, 1],
        ("E", 6): [1, 1, 1, 1, 1],
        ("E", 7): [1, 1, 1, 2, 2, 1, 1, 1],
        ("E", 8): [1, 1, 1, 1, 2, 1, 1, 1, 1],
    }
    for (label, rank), bounds in encoded.items():
        report = verify_basis(label, rank, cache_dir)
        assert [b for _, _, b in report.dims] == bounds, (label, rank)
        assert all(a == b for _, a, b in report.dims), (label, rank)
    _passed(9, "achieved dimensions equal the constraint bounds everywhere")


def test_criterion_10_determinism(tmp_path, capsys, cold_spaces, monkeypatch):
    fresh = tmp_path / "cache"
    args = ["verify", "--all", "--json", "--cache-dir", str(fresh)]
    calls = []
    for name in ("_load_space", "_coset_orbit"):
        def counted(*a, _real=getattr(cosets, name), _name=name):
            calls.append(_name)
            return _real(*a)

        monkeypatch.setattr(cosets, name, counted)
    assert cli.main(list(args)) == 0
    first = capsys.readouterr().out
    files = len(list(fresh.iterdir()))
    assert files and calls == ["_coset_orbit"] * files
    # the systems own every memo: dropping them makes the second run
    # read the cache it wrote
    build_root_system.cache_clear()
    calls.clear()
    assert cli.main(list(args)) == 0
    second = capsys.readouterr().out
    assert first == second
    assert calls == ["_load_space"] * files

    sys8, cold, _ = cold_spaces[8]
    cached = build_coset_space(sys8, standard_u_gens(sys8), str(fresh))
    assert cached.size == cold.size
    assert cached == cold
    assert cached.u_order == cold.u_order
    (_, frame), = standard_frames(sys8)
    assert cached.certificate == full_check(sys8, cold, frame)
    _passed(10, "verify --all --json is byte-stable; cached E8 equals cold E8")
