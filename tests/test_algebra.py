"""The F2 symbol algebra: products, relabeling, frame shapes, independence."""
from __future__ import annotations

import random
import re
from functools import reduce
from operator import xor

import pytest

from oracles import (
    CoordinateMap,
    XIndex,
    _f2_kernel_basis,
    _moved,
    is_zero,
    kinv_json,
    lambda_indices,
    orbit_sums,
    parse_terms,
    substitute,
    var,
    x_basis,
)
from weylinv.algebra import (
    BnContext,
    Monomial,
    coordinate_mask,
    kinv,
    one,
    relabel,
    stacked_independence,
    two,
    x_monomial,
    zero,
)
from weylinv.algebra import _f2_eliminate
from weylinv.errors import ContextMismatchError

L2 = ("a1", "b1", "a2", "b2")


def test_squares_vanish():
    t = var(L2, "a1")
    assert is_zero(t * t)
    s = two(L2)
    assert is_zero(s * s)


def test_two_power_four_is_zero():
    # {2}^2 = 0 already; in particular a {2}^4 correction term is invisible
    s = two(L2)
    p = one(L2)
    for _ in range(4):
        p = p * s
    assert is_zero(p)


def test_product_expansion_with_s():
    s, t1, t2 = two(L2), var(L2, "a1"), var(L2, "b1")
    lhs = (one(L2) + s + t1) * (one(L2) + s + t2)
    rhs = one(L2) + t1 + t2 + t1 * t2 + s * (t1 + t2)
    assert lhs == rhs


def test_disjoint_x_product_ors_masks():
    ctx = BnContext(2, 4)
    xa = x_basis(XIndex(frozenset({1}), frozenset(), frozenset(), frozenset()), ctx)
    xce = x_basis(XIndex(frozenset(), frozenset(), frozenset({2}), frozenset()), ctx)
    prod = xa * xce
    (m,) = prod.terms
    assert coordinate_mask(m) == (1 << 0) | (1 << 2) | (1 << 3)
    assert not m & 1  # no {2}


def _random_element(rng, labels):
    terms = []
    for _ in range(rng.randrange(0, 6)):
        terms.append(Monomial(rng.randrange(0, 1 << len(labels)), rng.random() < 0.3))
    return kinv(labels, terms)


def test_ring_axioms_seeded():
    rng = random.Random(20240814)
    for _ in range(60):
        a = _random_element(rng, L2)
        b = _random_element(rng, L2)
        c = _random_element(rng, L2)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + a == zero(L2)


def test_context_mismatch():
    with pytest.raises(ContextMismatchError):
        var(L2, "a1") * var(("a1", "b1"), "a1")


def test_substitute_identity_and_linearity():
    t1t2 = x_monomial(L2, ["a1", "b1"])
    assert substitute(t1t2, CoordinateMap.identity(L2)) == t1t2
    # a1 -> a2 + b2, others fixed
    rows = [Monomial(0b0100 | 0b1000), Monomial(0b0010), Monomial(0b0100), Monomial(0b1000)]
    cmap = CoordinateMap(L2, L2, tuple(rows))
    img = substitute(t1t2, cmap)
    assert img == x_monomial(L2, ["a2", "b1"]) + x_monomial(L2, ["b2", "b1"])


def test_substitute_relabel_swap():
    # the E6 normalizer generator swaps positions of a1 and b2
    img = relabel(x_monomial(L2, ["a1", "b1"]), (3, 1, 2, 0))
    assert img == x_monomial(L2, ["b2", "b1"])


def test_relabel_matches_single_bit_coordinate_maps_seeded():
    # a permutation of L2, or an injection of L2 into a six-label context
    wide = L2 + ("e5", "e6")
    rng = random.Random(1729)
    for trial in range(80):
        x = _random_element(rng, L2)
        if trial % 8 == 0:
            x = x + two(L2)  # the bare {2} term as well
        target = wide if trial % 2 else L2
        images = tuple(rng.sample(range(len(target)), len(L2)))
        rows = tuple(Monomial(1 << p) for p in images)
        expected = CoordinateMap(L2, target, rows).apply(x)
        labels = target if target != L2 else None
        assert relabel(x, images, labels) == expected, (trial, images)


@pytest.mark.parametrize(
    "images,labels,error",
    [
        ((0, 0, 2, 3), None, ValueError),  # repeated image
        ((0, 1, 2, 4), None, ValueError),  # past the last position
        ((0, 1, 2, -1), None, ValueError),  # before the first
        ((0, 1, 2, 3, 4), L2 + ("e5",), ContextMismatchError),  # one too many
        ((0, 1, 2), None, ContextMismatchError),  # one too few
    ],
)
def test_relabel_guards(images, labels, error):
    if error is ContextMismatchError:
        message = f"{len(images)} images for the context {L2}"
    else:
        message = f"images {images} are not distinct positions of {L2}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        relabel(x_monomial(L2, ["a1"]), images, labels)


def test_relabel_matches_the_bit_loop_oracle_seeded():
    # every width 1-20 crosses the move table's 8-coordinate chunks; a
    # permutation of the context, or an injection into up to 4 more labels
    rng = random.Random(4093)
    for k in range(1, 21):
        labels = tuple(f"t{i}" for i in range(k))
        for trial in range(12):
            width = k + trial % 5
            target = tuple(f"t{i}" for i in range(width))
            images = tuple(rng.sample(range(width), k))
            terms = {rng.getrandbits(k + 1) for _ in range(rng.randint(0, 24))}
            x = kinv(labels, terms)
            expected = frozenset(_moved(m, images) for m in x.terms)
            got = relabel(x, images, target if width > k else None)
            assert (got.labels, got.terms) == (target, expected), (k, images)


@pytest.mark.parametrize("L,n", [(3, 4), (-1, 4), (1, 1), (0, -1)])
def test_bn_context_rejects_out_of_range_frames(L, n):
    with pytest.raises(ValueError, match=rf"\({L}, {n}\)"):
        BnContext(L, n)


def test_bn_context_accepts_every_frame_in_range():
    for n in range(0, 9):
        for L in range(n // 2 + 1):
            assert len(BnContext(L, n).labels) == n


def test_shape_counts_match_index_sets():
    # every monomial of every (L, n) context with n <= 7, against the
    # XIndex that names it
    for n in range(0, 8):
        for L in range(n // 2 + 1):
            ctx = BnContext(L, n)
            for d in range(n + 1):
                for idx in lambda_indices(L, n, d):
                    (m,) = x_basis(idx, ctx).terms
                    counts = tuple(len(s) for s in (idx.A, idx.B, idx.C, idx.E))
                    assert ctx.shape(coordinate_mask(m)) == counts, (L, n, idx)


def test_substitute_handles_s_offsets():
    # a1 -> a1 + {2}: t_{a1} t_{b1} picks up a {2} t_{b1} cross term
    rows = [Monomial(0b0001, True), Monomial(0b0010), Monomial(0b0100), Monomial(0b1000)]
    cmap = CoordinateMap(L2, L2, tuple(rows))
    img = substitute(x_monomial(L2, ["a1", "b1"]), cmap)
    expected = x_monomial(L2, ["a1", "b1"]) + two(L2) * x_monomial(L2, ["b1"])
    assert img == expected


def _then(f, g):
    """The composite source --f--> mid --g--> target: a row's bit j picks
    g's image of generator j ({2} is generator 0, its own image)."""
    images = (1,) + g.rows
    rows = tuple(
        reduce(xor, (images[j] for j in range(row.bit_length()) if row >> j & 1), 0)
        for row in f.rows
    )
    return CoordinateMap(f.source_labels, g.target_labels, rows)


def test_substitute_functorial_seeded():
    rng = random.Random(7)
    labels3 = ("a1", "b1", "e3")
    for _ in range(40):
        f = CoordinateMap(
            L2,
            labels3,
            tuple(Monomial(rng.randrange(0, 8), rng.random() < 0.3) for _ in range(4)),
        )
        g = CoordinateMap(
            labels3,
            L2,
            tuple(Monomial(rng.randrange(0, 16), rng.random() < 0.3) for _ in range(3)),
        )
        x = _random_element(rng, L2)
        assert substitute(substitute(x, f), g) == substitute(x, _then(f, g))


def test_x_basis_examples():
    ctx = BnContext(1, 3)
    empty = XIndex(frozenset(), frozenset(), frozenset(), frozenset())
    assert x_basis(empty, ctx) == one(ctx.labels)
    xa = x_basis(XIndex(frozenset({1}), frozenset(), frozenset(), frozenset()), ctx)
    assert xa.render() == "{a1}"
    xce = x_basis(
        XIndex(frozenset(), frozenset(), frozenset({1}), frozenset({3})), ctx
    )
    assert xce.render() == "{a1}{b1}{e3}"


def test_x_index_validation():
    ctx = BnContext(1, 3)
    with pytest.raises(ValueError):
        x_basis(XIndex(frozenset({1}), frozenset({1}), frozenset(), frozenset()), ctx)
    with pytest.raises(ValueError):
        x_basis(XIndex(frozenset({2}), frozenset(), frozenset(), frozenset()), ctx)
    with pytest.raises(ValueError):
        x_basis(XIndex(frozenset(), frozenset(), frozenset(), frozenset({2})), ctx)


def test_lambda_indices_counts():
    # L=1, n=3, d=2: {A={1},E={3}}, {B={1},E={3}}, {C={1}}
    assert len(lambda_indices(1, 3, 2)) == 3
    # degree 0 is the empty index only
    assert len(lambda_indices(2, 5, 0)) == 1
    # brute-force cross-check for a larger case
    found = lambda_indices(2, 6, 3)
    assert len(found) == len(set(found))
    for idx in found:
        assert idx.degree == 3
        idx.validate(2, 6)


def test_independence_examples():
    t1, t2 = var(L2, "a1"), var(L2, "b1")
    t3 = var(L2, "a2")
    res = stacked_independence([(one(L2),), (t1,), (t1 * t2,)])
    assert res.independent and res.rank == 3
    res = stacked_independence([(t1 + t2,), (t2 + t3,), (t1 + t3,)])
    assert not res.independent
    assert res.dependency == (0, 1, 2)
    # the rank counts every input, not only those before the first dependency
    res = stacked_independence([(t1 + t2,), (t2 + t3,), (t1 + t3,), (t1,)])
    assert not res.independent and res.rank == 3
    assert res.dependency == (0, 1, 2)


def test_independence_mod_s_reduction():
    # s*t1 is a unit multiple of s: it vanishes mod s, so the verdict is
    # dependent with the singleton certificate; over the full coefficient
    # ring the dependency is s * t1 + 1 * (s t1) = 0
    t1 = var(L2, "a1")
    st1 = two(L2) * t1
    res = stacked_independence([(t1,), (st1,)])
    assert not res.independent
    assert res.dependency == (1,)


def _span_size(vectors):
    """Size of the F2 span, by XOR-ing every subset."""
    return len(
        {
            reduce(xor, (v for i, v in enumerate(vectors) if (sub >> i) & 1), 0)
            for sub in range(1 << len(vectors))
        }
    )


def test_elimination_matches_brute_force_seeded():
    rng = random.Random(20181)
    for _ in range(200):
        width = rng.randint(1, 8)
        vectors = [rng.randrange(1 << width) for _ in range(rng.randint(0, 10))]
        rows, dependency = _f2_eliminate(vectors)
        rank = len(rows)
        assert 1 << rank == _span_size(vectors)
        pivots = [r & -r for r, _ in rows]
        assert pivots == sorted(pivots) and len(set(pivots)) == rank
        for r, comb in rows:
            assert r == reduce(
                xor, (v for i, v in enumerate(vectors) if (comb >> i) & 1), 0
            )
        if dependency is None:
            assert rank == len(vectors)
        else:
            assert reduce(xor, (vectors[i] for i in dependency), 0) == 0
            # first: the inputs before its last index are independent
            last = dependency[-1]
            assert _span_size(vectors[:last]) == 1 << last
        kernel = _f2_kernel_basis(vectors, width)
        assert len(kernel) == width - rank
        assert len(_f2_eliminate(kernel)[0]) == len(kernel)
        for x in kernel:
            for v in vectors:
                assert (x & v).bit_count() % 2 == 0


def test_stacked_independence():
    t1 = var(L2, "a1")
    other = ("e1", "e2")
    u1 = var(other, "e1")
    # rows agree in column 0 but differ in column 1
    res = stacked_independence([(t1, zero(other)), (t1, u1)])
    assert res.independent and res.rank == 2
    res = stacked_independence([(t1, u1), (t1, u1)])
    assert not res.independent
    assert res.dependency == (0, 1)


def test_orbit_sums_trivial_and_swap():
    mono = [Monomial(0b0001, False), Monomial(0b0010, False)]
    sums = orbit_sums(mono, [tuple(range(4))], L2)
    assert len(sums) == 2
    swap = (1, 0, 2, 3)
    sums = orbit_sums(mono, [swap], L2)
    assert len(sums) == 1
    assert sums[0] == var(L2, "a1") + var(L2, "b1")


def test_orbit_sums_closure_checked():
    with pytest.raises(ValueError):
        orbit_sums([Monomial(0b0001, False)], [(1, 0, 2, 3)], L2)


def test_degree_part_and_render():
    s, t1, t2 = two(L2), var(L2, "a1"), var(L2, "b1")
    el = one(L2) + t1 * t2 + s * t1
    assert el.degree_part(2) == t1 * t2 + s * t1
    assert el.degree_part(0) == one(L2)
    assert el.render() == "1 + {a1}{b1} + {2}{a1}"


def test_parse_terms_roundtrip():
    el = parse_terms(L2, "1 + {a1}{b1} + {2}{a1}")
    assert el.render() == "1 + {a1}{b1} + {2}{a1}"
    assert is_zero(parse_terms(L2, "0"))


def test_json_form():
    el = two(L2) * var(L2, "a1") + var(L2, "b2")
    assert kinv_json(el) == [
        {"vars": ["b2"], "two": False},
        {"vars": ["a1"], "two": True},
    ]


def test_monomial_degree():
    assert Monomial(0b101, True).bit_count() == 3
    assert Monomial(0, False).bit_count() == 0


# ---------------------------------------------------------------------------
# the (var_mask, two_flag) pair encoding, kept as the reference for the
# one-int monomials: {2} handled apart from the coordinates throughout


def _pair_mul(x, y):
    acc = set()
    for v1, f1 in x:
        for v2, f2 in y:
            if v1 & v2:
                continue  # t_i^2 = 0
            if f1 and f2:
                continue  # s^2 = 0
            acc ^= {(v1 | v2, f1 or f2)}
    return acc


def _pair_apply(rows, x):
    """rows[i] = (target_mask, s_flag): t_i -> sum of the masked targets (+ {2})."""
    acc = set()
    for var_mask, two_flag in x:
        expanded = {(0, two_flag)}
        v = var_mask
        while v:
            i = (v & -v).bit_length() - 1
            v &= v - 1
            row_mask, row_flag = rows[i]
            nxt = set()
            for cur_mask, cur_flag in expanded:
                t = row_mask
                while t:
                    j = (t & -t).bit_length() - 1
                    t &= t - 1
                    if not (cur_mask >> j) & 1:
                        nxt ^= {(cur_mask | (1 << j), cur_flag)}
                if row_flag and not cur_flag:
                    nxt ^= {(cur_mask, True)}
            expanded = nxt
        acc ^= expanded
    return acc


def _pair_then(rows_f, rows_g):
    out = []
    for mask, flag in rows_f:
        out_mask, out_flag = 0, flag
        for j in range(mask.bit_length()):
            if (mask >> j) & 1:
                out_mask ^= rows_g[j][0]
                out_flag ^= rows_g[j][1]
        out.append((out_mask, out_flag))
    return out


def _pair_sorted(x):
    return sorted(x, key=lambda m: (m[0].bit_count() + m[1], m[1], m[0]))


def _pair_render(labels, x):
    if not x:
        return "0"
    parts = []
    for mask, flag in _pair_sorted(x):
        if (mask, flag) == (0, False):
            parts.append("1")
            continue
        text = "{2}" if flag else ""
        for i, name in enumerate(labels):
            if (mask >> i) & 1:
                text += "{" + name + "}"
        parts.append(text)
    return " + ".join(parts)


def _pair_json(labels, x):
    return [
        {"vars": [n for i, n in enumerate(labels) if (mask >> i) & 1], "two": flag}
        for mask, flag in _pair_sorted(x)
    ]


def _random_pairs(rng, k, count):
    return [(rng.randrange(0, 1 << k), rng.random() < 0.3) for _ in range(count)]


def _as_pairs(terms):
    return {(coordinate_mask(m), bool(m & 1)) for m in terms}


def test_int_monomials_match_pair_reference_seeded():
    labels3 = ("a1", "b1", "e3")
    for seed in range(60):
        rng = random.Random(seed)
        px, py = (set() for _ in range(2))
        for p in (px, py):
            for m in _random_pairs(rng, 4, rng.randrange(0, 7)):
                p ^= {m}
        x = kinv(L2, [Monomial(*m) for m in px])
        y = kinv(L2, [Monomial(*m) for m in py])
        assert _as_pairs(x.terms) == px, seed
        assert _as_pairs((x * y).terms) == _pair_mul(px, py), seed
        # rows with {2} offsets, on maps L2 -> labels3 -> L2
        rows_f = _random_pairs(rng, 3, 4)
        rows_g = _random_pairs(rng, 4, 3)
        f = CoordinateMap(L2, labels3, tuple(Monomial(*r) for r in rows_f))
        g = CoordinateMap(labels3, L2, tuple(Monomial(*r) for r in rows_g))
        pfx = _pair_apply(rows_f, px)
        assert _as_pairs(f.apply(x).terms) == pfx, seed
        assert _then(f, g).rows == tuple(
            Monomial(*r) for r in _pair_then(rows_f, rows_g)
        ), seed
        cases = ((x * y, _pair_mul(px, py), L2), (f.apply(x), pfx, labels3))
        for el, pairs, labels in cases:
            assert [
                (coordinate_mask(m), bool(m & 1)) for m in el.sorted_terms()
            ] == _pair_sorted(pairs), seed
            assert el.render() == _pair_render(labels, pairs), seed
            assert kinv_json(el) == _pair_json(labels, pairs), seed
