"""Root system construction and reflection arithmetic."""
from __future__ import annotations

import random

import pytest

from weylinv import roots as roots_module
from weylinv.errors import UnsupportedSystemError
from weylinv.roots import RootSystem, _bfs_orbits, build_root_system

from oracles import dot


def v(*doubled: int) -> tuple[int, ...]:
    return doubled


def neg(r: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-d for d in r)


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
    norms = [sum(x * x for x in r) for r in sys_.roots]  # 4 x the real norm
    # 24 of norm 2 (+-e_i +- e_j), 8 + 16 of norm 1 (+-e_i and half-sums)
    assert norms.count(8) == 24
    assert norms.count(4) == 24


def test_e8_family_sizes():
    sys_ = build_root_system("E", 8)
    integer = [r for r in sys_.roots if all(d % 2 == 0 for d in r)]
    half = [r for r in sys_.roots if all(d % 2 == 1 for d in r)]
    assert len(integer) == 112
    assert len(half) == 128
    assert all(sum(x * x for x in r) == 8 for r in sys_.roots)  # norm 2


def test_simple_system_sizes():
    for label, rank in COUNTS:
        sys_ = build_root_system(label, rank)
        assert len(sys_.simple_indices) == rank


def test_reflect_examples():
    sys_ = build_root_system("B", 2)
    i = sys_.index

    def s(a, w):
        return sys_.roots[sys_.reflection_images(i[a])[i[w]]]

    a1, e1, b1 = v(2, -2), v(2, 0), v(2, 2)  # e1 - e2, e1, e1 + e2
    assert s(a1, e1) == v(0, 2)
    assert s(a1, a1) == neg(a1)
    assert s(b1, e1) == v(0, -2)


def test_cartan_integers_sample():
    # 2(a, b)/(a, a) is an integer for every pair of roots
    sys_ = build_root_system("B", 3)
    for a in range(len(sys_.roots)):
        aa = dot(sys_, a, a)
        assert all(2 * dot(sys_, a, b) % aa == 0 for b in range(len(sys_.roots)))


def test_negation_and_lines():
    sys_ = build_root_system("D", 4)
    assert len(sys_.lines) == len(sys_.roots) // 2
    for i in range(len(sys_.roots)):
        assert sys_.negation[sys_.negation[i]] == i
        canon = sys_.roots[sys_.canonical_rep[i]]
        first_nonzero = next(d for d in canon if d)
        assert first_nonzero > 0


def test_lex_order_deterministic():
    sys_ = build_root_system("B", 2)
    assert list(sys_.roots) == sorted(sys_.roots)


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
    assert v(1, -1, -1, -1, -1, -1, -1, 1) in sys_.index
    assert v(-1, 1, 1, 1, -1, -1, -1, 1) in sys_.index


def test_memo_builds_once_per_key():
    alpha = v(2, -2)
    sys_ = RootSystem("A", 1, [alpha, neg(alpha)], [alpha])
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
    assert dropped in sys_.index and dropped not in simple
    kept = [r for r in sys_.roots if r not in (dropped, neg(dropped))]
    with pytest.raises(ValueError, match="not closed"):
        RootSystem("D", 4, kept, simple)


def test_validate_rejects_root_outside_weyl_orbit():
    # A1's simple root together with an orthogonal +-beta: every pairing
    # is integral and the set is closed under the simple reflection (which
    # fixes beta), but beta is not in W.Delta, so s_beta is unchecked
    alpha, beta = v(2, -2), v(2, 2)
    with pytest.raises(ValueError, match="not reached from the simple roots"):
        RootSystem("A", 1, [alpha, neg(alpha), beta, neg(beta)], [alpha])


def test_validate_rejects_non_integral_pairing():
    # <e1, a^v> = 2 (e1, a) / (a, a) = 2/3 for a = e1 + e2 + e3
    a, e1 = v(2, 2, 2), v(2, 0, 0)
    with pytest.raises(ValueError, match="non-integral"):
        RootSystem("A", 1, [a, neg(a), e1, neg(e1)], [a])


def test_validate_sizes_packed_keys_past_every_image(monkeypatch):
    """An image that is no root finds no packed key even where it would
    wrap onto a root's key in a base sized by the roots alone.  Here
    s_a(+-w) = +-(5, 1, 1) is missing; in base 2^3 (roots' entries <= 3)
    its key 5 + 8 + 64 equals that of the root (-3, 2, 1), so only the
    pairing bound (c = 4 at (-3, 2, 1)) keeps the closure check exact."""
    a, w, b, c = v(-1, 1, 1), v(3, 3, 3), v(-3, 2, 1), v(1, -2, -3)
    assert 5 + 8 * 1 + 64 * 1 == -3 + 8 * 2 + 64 * 1
    roots = [a, w, b, c] + [neg(r) for r in (a, w, b, c)]
    with pytest.raises(ValueError, match=r"not closed: s_\(-1, 1, 1\)\(\(-3, -3, -3\)\)"):
        RootSystem("A", 1, roots, [a])
    # sized by the roots alone, the wrapped keys pass the closure check
    real = roots_module._packed_index
    monkeypatch.setattr(
        roots_module, "_packed_index", lambda cols, bound, n: real(cols, 3, n)
    )
    with pytest.raises(ValueError, match="not reached from the simple roots"):
        RootSystem("A", 1, roots, [a])


def test_reflection_tables_share_one_packed_index(monkeypatch):
    """("packed",) is the index _validate builds, the system's one:
    every reflection table, simple or not, reads it."""
    calls = []
    real = roots_module._packed_index

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(roots_module, "_packed_index", counted)
    sys_ = RootSystem("D", 4, *roots_module._roots_d(4))
    assert calls == [2 + 2 * 2]  # _validate's own: top 2, the largest |c| 2
    assert ("packed",) in sys_._memo
    for r in range(len(sys_.roots)):
        sys_.reflection_images(r)
    assert calls == [6]
    assert sorted(key[0] for key in sys_._memo) == ["packed"] + ["reflection"] * 24


def test_zero_vector_is_refused():
    """The zero vector is its own negative, so negation is no perfect
    matching."""
    alpha = v(2, -2)
    with pytest.raises(ValueError, match="^negation is not a perfect matching$"):
        RootSystem("A", 1, [alpha, neg(alpha), v(0, 0)], [alpha])


def test_root_set_without_a_negative_names_it():
    with pytest.raises(ValueError, match=r"not a perfect matching: \(-2, 2\) is missing"):
        RootSystem("A", 1, [v(2, -2), v(2, 2), v(-2, -2)], [v(2, -2)])


def test_simple_root_outside_the_roots_names_it():
    alpha = v(2, -2)
    with pytest.raises(ValueError, match=r"simple root \(2, 2\) is not among the roots"):
        RootSystem("A", 1, [alpha, neg(alpha)], [v(2, 2)])


def _components(n, gens):
    """The components of range(n) under gens, by union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for x in range(n):
            parent[find(x)] = find(g[x])
    groups = {}
    for x in range(n):
        groups.setdefault(find(x), set()).add(x)
    return {frozenset(c) for c in groups.values()}


@pytest.mark.parametrize("seed", range(40))
def test_bfs_orbits_against_union_find(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 64)
    gens = []
    for _ in range(rng.randint(0, 4)):  # random involutions
        g = list(range(n))
        pts = rng.sample(range(n), 2 * rng.randint(0, n // 2))
        for a, b in zip(pts[::2], pts[1::2]):
            g[a], g[b] = b, a
        gens.append(g)
    points = rng.sample(range(n), n) + rng.choices(range(n), k=3)  # repeats

    def step(x):
        return [g[x] for g in gens]

    orbits = _bfs_orbits(points, step)
    assert {frozenset(o) for o in orbits} == _components(n, gens)
    assert sum(map(len, orbits)) == n  # no point twice
    first = {p: points.index(p) for p in set(points)}
    for o in orbits:
        assert o[0] == min(o, key=first.get)
        # breadth-first: every later member is an image of an earlier one
        assert all(any(o[k] in step(o[j]) for j in range(k)) for k in range(1, len(o)))
    leads = [first[o[0]] for o in orbits]
    assert leads == sorted(leads)
