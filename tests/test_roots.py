"""Root system construction and reflection arithmetic."""
from __future__ import annotations

import json
from fractions import Fraction

import pytest

from weylinv.errors import (
    IsotropicRootError,
    RankMismatchError,
    UnsupportedSystemError,
)
from weylinv.roots import (
    RootSystem,
    RootVector,
    build_root_system,
    cartan_integer,
    inner_product,
    reflect,
    roots_to_json,
)


def v(*doubled: int) -> RootVector:
    return RootVector(tuple(doubled))


# Expected root counts.  A_n: n(n+1); B_n: 2n^2; D_n: 2n(n-1); the
# exceptional counts are the family sizes added up (F4: 24+8+16,
# E8: 112+128, E7: 126, E6: 72).
COUNTS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 5): 30,
    ("B", 2): 8,
    ("B", 3): 18,
    ("B", 6): 72,
    ("D", 4): 24,
    ("D", 6): 60,
    ("D", 8): 112,
    ("F", 4): 48,
    ("E", 6): 72,
    ("E", 7): 126,
    ("E", 8): 240,
}


@pytest.mark.parametrize("label,rank", sorted(COUNTS))
def test_root_counts(label, rank):
    sys_ = build_root_system(label, rank)
    assert len(sys_.roots) == COUNTS[(label, rank)]


def test_f4_family_sizes():
    sys_ = build_root_system("F", 4)
    norms = [r.norm() for r in sys_.roots]
    # 24 of norm 2 (+-e_i +- e_j), 8 + 16 of norm 1 (+-e_i and half-sums)
    assert norms.count(Fraction(2)) == 24
    assert norms.count(Fraction(1)) == 24


def test_e8_family_sizes():
    sys_ = build_root_system("E", 8)
    integer = [r for r in sys_.roots if all(d % 2 == 0 for d in r.doubled)]
    half = [r for r in sys_.roots if all(d % 2 == 1 for d in r.doubled)]
    assert len(integer) == 112
    assert len(half) == 128
    assert all(r.norm() == 2 for r in sys_.roots)


def test_simple_system_sizes():
    for label, rank in COUNTS:
        sys_ = build_root_system(label, rank)
        assert len(sys_.simple_indices) == rank


def test_inner_product_examples():
    e1 = v(2, 0)
    e2 = v(0, 2)
    assert inner_product(e1, e1) == 1
    assert inner_product(v(2, 2), v(2, -2)) == 0
    half_sum = RootVector((1,) * 8)
    e1_8 = RootVector((2,) + (0,) * 7)
    assert inner_product(half_sum, e1_8) == Fraction(1, 2)
    with pytest.raises(RankMismatchError):
        inner_product(e1, e1_8)
    assert inner_product(e1, e2) == 0


def test_reflect_examples():
    a1 = v(2, -2)  # e1 - e2
    e1 = v(2, 0)
    assert reflect(a1, e1) == v(0, 2)
    assert reflect(a1, a1) == -a1
    b1 = v(2, 2)  # e1 + e2
    assert reflect(b1, e1) == v(0, -2)


def test_zero_vector_rejected():
    # the only isotropic vector in a definite space is 0, and RootVector
    # refuses it outright, which is what keeps reflect() total in practice
    with pytest.raises(ValueError):
        RootVector((0, 0))


def test_cartan_integers_sample():
    sys_ = build_root_system("B", 3)
    for a in sys_.roots:
        for b in sys_.roots:
            assert isinstance(cartan_integer(a, b), int)


def test_negation_and_lines():
    sys_ = build_root_system("D", 4)
    assert len(sys_.lines) == len(sys_.roots) // 2
    for i in range(len(sys_.roots)):
        assert sys_.negation[sys_.negation[i]] == i
        canon = sys_.roots[sys_.canonical_rep[i]]
        first_nonzero = next(d for d in canon.doubled if d)
        assert first_nonzero > 0


def test_lex_order_deterministic():
    sys_ = build_root_system("B", 2)
    doubles = [r.doubled for r in sys_.roots]
    assert doubles == sorted(doubles)


def test_c_alias():
    sys_ = build_root_system("C", 3)
    assert sys_.type_label == "B"
    assert any("aliased" in note for note in sys_.notes)
    assert len(sys_.roots) == 18


def test_unsupported_pairs():
    for label, rank in [("A", 0), ("B", 1), ("D", 3), ("E", 5), ("H", 3), ("G", 2)]:
        with pytest.raises(UnsupportedSystemError):
            build_root_system(label, rank)


def test_e7_contains_expected_half_roots():
    sys_ = build_root_system("E", 7)
    g1 = RootVector((1, -1, -1, -1, -1, -1, -1, 1))
    g2 = RootVector((-1, 1, 1, 1, -1, -1, -1, 1))
    assert g1.doubled in sys_.index
    assert g2.doubled in sys_.index


def test_json_export_roundtrip():
    sys_ = build_root_system("B", 2)
    payload = json.loads(roots_to_json(sys_))
    assert payload["count"] == 8
    assert payload["type"] == "B"
    assert sorted(map(tuple, payload["doubled_roots"])) == [
        r.doubled for r in sys_.roots
    ]
    # canonical output is stable
    assert roots_to_json(sys_) == roots_to_json(build_root_system("B", 2))


@pytest.mark.parametrize(
    "label,rank", [("A", 3), ("B", 3), ("D", 4), ("F", 4), ("E", 6)]
)
def test_gram_matches_dot_products(label, rank):
    sys_ = build_root_system(label, rank)
    for i, v in enumerate(sys_.roots):
        assert sys_.gram_row(i) == tuple(
            sum(a * b for a, b in zip(v.doubled, w.doubled)) for w in sys_.roots
        )


def test_memo_builds_once_per_key():
    alpha = v(2, -2)
    sys_ = RootSystem("A", 1, [alpha, -alpha], [alpha])
    builds = []

    def build(value):
        builds.append(value)
        return value

    assert sys_.memo(("test", 1), lambda: build("one")) == "one"
    assert sys_.memo(("test", 1), lambda: build("other")) == "one"
    assert sys_.memo(("test", 2), lambda: build("two")) == "two"
    assert builds == ["one", "two"]


def test_validate_rejects_unclosed_root_set():
    sys_ = build_root_system("D", 4)
    simple = [sys_.roots[i] for i in sys_.simple_indices]
    # drop one non-simple root together with its negative, so that the
    # negation pairing still holds and only closure can fail
    dropped = v(2, 2, 0, 0)
    assert dropped.doubled in sys_.index and dropped not in simple
    kept = [r for r in sys_.roots if r not in (dropped, -dropped)]
    with pytest.raises(ValueError, match="not closed"):
        RootSystem("D", 4, kept, simple)


def test_validate_rejects_root_outside_weyl_orbit():
    # A1's simple root together with an orthogonal +-beta: every pairing
    # is integral and the set is closed under the simple reflection (which
    # fixes beta), but beta is not in W.Delta, so s_beta is unchecked
    alpha, beta = v(2, -2), v(2, 2)
    with pytest.raises(ValueError, match="not reached from the simple roots"):
        RootSystem("A", 1, [alpha, -alpha, beta, -beta], [alpha])


def test_validate_rejects_non_integral_pairing():
    # <e1, a^v> = 2 (e1, a) / (a, a) = 2/3 for a = e1 + e2 + e3
    a, e1 = v(2, 2, 2), v(2, 0, 0)
    with pytest.raises(ValueError, match="non-integral"):
        RootSystem("A", 1, [a, -a, e1, -e1], [a])
