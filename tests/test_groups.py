"""Permutation-group layer: orders, frames, Omega classes, dihedral groups."""
from __future__ import annotations

import tracemalloc
from itertools import combinations

import pytest

from weylinv import cosets, groups
from weylinv.errors import CapExceededError, NormalizerError
from weylinv.groups import (
    _compose,
    _conjugate,
    _reflection_group_order,
    build_dihedral,
    dihedral_omega,
    g2_split_check,
    group_order,
    normalizer_action,
    omega_classes,
    order_method,
    root_label,
    standard_frames,
    weyl_order,
)
from weylinv.roots import SUPPORTED, RootSystem, _roots_d, build_root_system

from oracles import (
    _maximal_cliques,
    clique_seeded_orbits,
    dot,
    enumerate_subgroup,
    frame_class,
    make_frame,
    maximal_orthogonal_frames,
    reflect,
    validate_root_permutation,
)


def _root_idx(sys_, doubled):
    return sys_.index[tuple(doubled)]


def _product(*perms):
    """Left-to-right product of image tuples: _product(p, q) applies p
    first, then q.  Written out point by point, apart from _compose."""
    result = list(range(len(perms[0])))
    for p in perms:
        result = [p[i] for i in result]
    return tuple(result)


def test_reflection_perm_is_involution():
    sys_ = build_root_system("B", 3)
    for i in sys_.simple_indices:
        p = sys_.reflection_images(i)
        identity = tuple(range(len(p)))
        assert _compose(p, p) == identity
        assert p != identity


def test_validate_rejects_broken_images():
    sys_ = build_root_system("A", 2)
    n = len(sys_.roots)
    with pytest.raises(ValueError):
        validate_root_permutation(sys_, [0] * n)
    # swap two roots that have different inner products with the rest
    images = list(range(n))
    images[0], images[1] = images[1], images[0]
    with pytest.raises(ValueError):
        validate_root_permutation(sys_, images)


def _all_pairs_isometry(sys_, images):
    gram = [[sum(a * b for a, b in zip(v, w)) for w in sys_.roots]
            for v in sys_.roots]
    n = len(sys_.roots)
    return all(
        gram[i][j] == gram[images[i]][images[j]] for i in range(n) for j in range(n)
    )


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3)])
def test_validate_rejects_sign_equivariant_swaps(label, rank):
    """Swapping two non-opposite lines (with their negatives) is a
    sign-equivariant bijection; it must be rejected exactly when an
    all-pairs Gram comparison says it is not an isometry."""
    sys_ = build_root_system(label, rank)
    neg = sys_.negation
    rejected = 0
    for i, j in combinations(sys_.lines, 2):
        for jj in (j, neg[j]):
            images = list(range(len(sys_.roots)))
            images[i], images[jj] = jj, i
            images[neg[i]], images[neg[jj]] = neg[jj], neg[i]
            if _all_pairs_isometry(sys_, images):
                validate_root_permutation(sys_, images)
            else:
                rejected += 1
                with pytest.raises(ValueError, match="inner product"):
                    validate_root_permutation(sys_, images)
    assert rejected > 0


def test_validate_accepts_reflections_and_products():
    sys_ = build_root_system("F", 4)
    for r in sys_.lines:
        images = sys_.reflection_images(r)
        validate_root_permutation(sys_, images)
        assert _all_pairs_isometry(sys_, images)
    s0, s1 = (sys_.reflection_images(i) for i in sys_.simple_indices[:2])
    validate_root_permutation(sys_, _product(s0, s1, s0))


SUPPORTED_SYSTEMS = [(t, n) for t, lo, hi in SUPPORTED for n in range(lo, hi + 1)]


@pytest.mark.parametrize("label,rank", SUPPORTED_SYSTEMS)
def test_every_reflection_table_is_an_involutive_isometry(label, rank):
    sys_ = build_root_system(label, rank)
    for r in sys_.lines:
        images = sys_.reflection_images(r)
        validate_root_permutation(sys_, images)
        assert all(images[images[i]] == i for i in range(len(images)))
    # the simple tables RootSystem._validate stored and the packed-key
    # tables of every line against reflections in Fraction arithmetic
    for r in sorted(set(sys_.lines) | set(sys_.simple_indices)):
        a = sys_.roots[r]
        fresh = tuple(sys_.index[reflect(a, w)] for w in sys_.roots)
        assert sys_.reflection_images(r) == fresh


def test_compose_against_after():
    sys_ = build_root_system("B", 2)
    s0 = sys_.reflection_images(sys_.simple_indices[0])
    s1 = sys_.reflection_images(sys_.simple_indices[1])
    # _compose(q, p) applies p first, then q: s1 after s0
    assert _compose(s1, s0) == tuple(s1[s0[k]] for k in range(len(s0)))
    assert _product(s0, s1) == _compose(s1, s0)
    # one or no points take the branch without itemgetter
    assert _compose(s1, s0[:1]) == (s1[s0[0]],)
    assert _compose(s1, ()) == ()


ENUMERATED_ORDERS = [
    ("A", 1, 2),
    ("A", 2, 6),
    ("A", 3, 24),
    ("B", 2, 8),
    ("B", 3, 48),
    ("B", 4, 384),
    ("A", 4, 120),
    ("A", 5, 720),
    ("A", 6, 5040),
    ("B", 5, 3840),
    ("B", 6, 46080),
    ("C", 2, 8),
    ("C", 3, 48),
    ("C", 4, 384),
    ("C", 5, 3840),
    ("C", 6, 46080),
    ("D", 4, 192),
    ("D", 5, 1920),
    ("D", 6, 23040),
    ("F", 4, 1152),
    ("E", 6, 51840),
]


@pytest.mark.parametrize("label,rank,expected", ENUMERATED_ORDERS)
def test_enumerated_orders(label, rank, expected):
    """Four derivations of |W| agree: two element-by-element listings
    (the full-image enumeration and the orbit of the simple-root tuple),
    the formula table and the root-orbit chain over all of Phi, which is
    what group_order's "bfs" method computes."""
    sys_ = build_root_system(label, rank)
    gens = [sys_.reflection_images(i) for i in sys_.simple_indices]
    group = enumerate_subgroup(gens)
    assert group.order == expected
    assert weyl_order(sys_) == expected
    orbit = enumerate_subgroup(gens, points=sys_.simple_indices)
    assert orbit.order == expected
    assert all(len(e) == rank for e in orbit.elements)
    assert _reflection_group_order(sys_, range(len(sys_.roots))) == expected
    assert order_method(sys_) == "bfs"
    assert group_order(sys_) == expected


@pytest.mark.parametrize("rank", [7, 8])
def test_coset_product_orders_match_root_orbit_chain(rank):
    sys_ = build_root_system("E", rank)
    assert order_method(sys_) == "coset-product"
    chain = _reflection_group_order(sys_, range(len(sys_.roots)))
    assert group_order(sys_) == chain == weyl_order(sys_)


FORMULA_SYSTEMS = [
    (t, n)
    for t, lo, hi in SUPPORTED
    for n in range(lo, hi + 1)
    if order_method(build_root_system(t, n)) == "formula"
]


@pytest.mark.parametrize("label,rank", FORMULA_SYSTEMS)
def test_formula_orders_match_root_orbit_chain(label, rank):
    """The formula table, which no element enumeration reaches at these
    ranks, against the root-orbit chain over all of Phi."""
    sys_ = build_root_system(label, rank)
    chain = _reflection_group_order(sys_, range(len(sys_.roots)))
    assert group_order(sys_) == chain


def test_every_bfs_order_is_enumerated():
    """test_enumerated_orders checks group_order's root-orbit chain
    against the element lists at every system it counts."""
    bfs = [
        (t, n)
        for t, lo, hi in SUPPORTED
        for n in range(lo, hi + 1)
        if order_method(build_root_system(t, n)) == "bfs"
    ]
    assert sorted(bfs) == sorted((t, n) for t, n, _ in ENUMERATED_ORDERS)


@pytest.mark.parametrize(
    "label,rank,expected",
    ENUMERATED_ORDERS,
    ids=[f"{t}-{n}" for t, n, _ in ENUMERATED_ORDERS],
)
def test_group_order_cap_boundary(label, rank, expected):
    """The root-orbit chain lists no element of W, so the element cap is
    no boundary for it: a cap of 1 still admits |W|."""
    sys_ = build_root_system(label, rank)
    assert group_order(sys_, element_cap=1) == expected


def test_group_order_cap_boundary_e7():
    """E7's order walks its 2016 cosets: a cap of 2016 admits them, one
    less refuses the walk before it starts."""
    sys_ = build_root_system("E", 7)
    assert group_order(sys_, element_cap=2016) == 2903040
    with pytest.raises(
        CapExceededError, match="2016 cosets, more than the element cap 2015$"
    ):
        group_order(sys_, element_cap=2015)


def test_bfs_orders_read_no_formula(monkeypatch):
    """The "bfs" order is a derivation of its own: with the formula
    table made to raise, group_order still gives every enumerated
    order."""

    def refuse(sys_):
        raise AssertionError("the formula table was read")

    monkeypatch.setattr(groups, "weyl_order", refuse)
    monkeypatch.setattr(cosets, "weyl_order", refuse)
    for label, rank, expected in ENUMERATED_ORDERS:
        assert group_order(build_root_system(label, rank)) == expected


def test_group_order_holds_two_layers():
    """group_order(E6) lists no element of W: the root-orbit chain holds
    at most the 72 roots, and its traced peak is about 7 KiB, against
    2.1 MiB when it held two BFS layers of W.  The ceiling leaves room
    for the object sizes of Python 3.10 to 3.13."""
    sys_ = build_root_system("E", 6)
    tracemalloc.start()
    try:
        assert group_order(sys_) == 51840
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, peak


def test_group_order_dispatch_small():
    assert group_order(build_root_system("B", 5)) == 3840
    assert group_order(build_root_system("E", 6)) == 51840


@pytest.mark.parametrize(
    "label,rank,method",
    [("A", 6, "bfs"), ("A", 7, "formula"), ("B", 8, "formula"),
     ("D", 7, "formula"), ("F", 4, "bfs"), ("E", 7, "coset-product")],
)
def test_order_method(label, rank, method):
    sys_ = build_root_system(label, rank)
    assert order_method(sys_) == method
    if method == "formula":
        assert group_order(sys_) == weyl_order(sys_)


def test_orbit_of_points_that_do_not_determine_the_element():
    """points enumerates an orbit, which is |W| only when the images of
    points determine the element: one B2 root has 4 images, not 8."""
    sys_ = build_root_system("B", 2)
    gens = [sys_.reflection_images(i) for i in sys_.simple_indices]
    for r in sys_.simple_indices:
        orbit = enumerate_subgroup(gens, points=[r])
        assert orbit.order == 4
        assert orbit.elements[0] == bytes([r])
    with pytest.raises(ValueError, match="below the degree"):
        enumerate_subgroup(gens, points=[len(sys_.roots)])


def test_enumeration_cap():
    sys_ = build_root_system("B", 4)
    gens = [sys_.reflection_images(i) for i in sys_.simple_indices]
    with pytest.raises(CapExceededError):
        enumerate_subgroup(gens, element_cap=100)


def test_enumeration_cap_boundary():
    sys_ = build_root_system("B", 3)
    gens = [sys_.reflection_images(i) for i in sys_.simple_indices]
    # a cap equal to the order admits every element; one less does not
    assert enumerate_subgroup(gens, element_cap=48).order == 48
    with pytest.raises(CapExceededError):
        enumerate_subgroup(gens, element_cap=47)


def test_enumeration_degree_limit():
    big = tuple(range(1, 257)) + (0,)
    with pytest.raises(ValueError, match="degree 257"):
        enumerate_subgroup([big])
    # degree 256 is the largest a bytes image can hold
    cycle = tuple(range(1, 256)) + (0,)
    assert enumerate_subgroup([cycle]).order == 256


def test_enumeration_elements_in_discovery_order():
    sys_ = build_root_system("B", 2)
    s0, s1 = (sys_.reflection_images(i) for i in sys_.simple_indices)
    group = enumerate_subgroup([s0, s1])
    assert all(type(e) is bytes for e in group.elements)
    expected = [
        (),
        (s0,), (s1,),
        (s0, s1), (s1, s0),
        (s0, s1, s0), (s1, s0, s1),
        (s0, s1, s0, s1),
    ]
    identity = tuple(range(len(sys_.roots)))
    images = [_product(*w) if w else identity for w in expected]
    assert [tuple(e) for e in group.elements] == images


def test_single_reflection_subgroup():
    sys_ = build_root_system("B", 2)
    s = sys_.reflection_images(sys_.simple_indices[0])
    assert enumerate_subgroup([s]).order == 2


def test_b2_frames():
    sys_ = build_root_system("B", 2)
    frames = maximal_orthogonal_frames(sys_)
    # {e1, e2} and {e1 - e2, e1 + e2}
    assert len(frames) == 2
    sizes = sorted(len(f) for f in frames)
    assert sizes == [2, 2]
    e1 = _root_idx(sys_, (2, 0))
    e2 = _root_idx(sys_, (0, 2))
    assert tuple(sorted((e1, e2))) in frames


def test_frames_all_have_full_rank_size():
    # every maximal frame in these systems has exactly rank members
    for label, rank in [("B", 3), ("D", 4), ("F", 4)]:
        sys_ = build_root_system(label, rank)
        for f in maximal_orthogonal_frames(sys_):
            assert len(f) == rank


def _brute_force_frames(sys_):
    """Maximal pairwise-orthogonal line sets, from every pairwise-orthogonal
    set: those of size k are the sets of size k - 1 extended by a later
    line orthogonal to all their members."""
    lines = sys_.lines

    def orth(a, b):
        return sum(x * y for x, y in zip(sys_.roots[a], sys_.roots[b])) == 0

    found = []
    level = [()]  # positions in lines, ascending
    while level:
        level = [
            s + (j,)
            for s in level
            for j in range(s[-1] + 1 if s else 0, len(lines))
            if all(orth(lines[i], lines[j]) for i in s)
        ]
        found += [tuple(lines[i] for i in s) for s in level]
    return {
        s for s in found
        if not any(
            line not in s and all(orth(line, m) for m in s) for line in lines
        )
    }


@pytest.mark.parametrize(
    "label,rank", [("A", 5), ("B", 3), ("D", 4), ("F", 4), ("E", 6)]
)
def test_frames_match_brute_force(label, rank):
    sys_ = build_root_system(label, rank)
    frames = maximal_orthogonal_frames(sys_)
    assert len(set(frames)) == len(frames)
    assert set(frames) == _brute_force_frames(sys_)


FRAME_SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)


def _orthogonality_adj(sys_):
    vecs = [sys_.roots[line] for line in sys_.lines]
    return [
        sum(
            1 << b
            for b, w in enumerate(vecs)
            if b != a and sum(x * y for x, y in zip(v, w)) == 0
        )
        for a, v in enumerate(vecs)
    ]


def _pivot_free_bron_kerbosch(adj):
    """Maximal cliques as bitmasks, by Bron-Kerbosch without a pivot."""
    cliques = []

    def bk(r, p, x):
        if not p and not x:
            cliques.append(r)
        while p:
            v = (p & -p).bit_length() - 1
            bk(r | 1 << v, p & adj[v], x & adj[v])
            p ^= 1 << v
            x |= 1 << v

    bk(0, (1 << len(adj)) - 1, 0)
    return cliques


@pytest.mark.parametrize("label,rank", FRAME_SYSTEMS)
def test_frames_match_pivot_free_bron_kerbosch(label, rank):
    sys_ = build_root_system(label, rank)
    lines = sys_.lines
    expected = sorted(
        tuple(sorted(lines[v] for v in range(len(lines)) if mask >> v & 1))
        for mask in _pivot_free_bron_kerbosch(_orthogonality_adj(sys_))
    )
    assert maximal_orthogonal_frames(sys_) == expected


def test_e_frame_counts():
    assert len(maximal_orthogonal_frames(build_root_system("E", 7))) == 135
    assert len(maximal_orthogonal_frames(build_root_system("E", 8))) == 2025


class _CountingAdj(list):
    """Neighbour masks that count how often the search reads one."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_pivot_scan_stops_at_a_full_p_vertex():
    """In the star K_{1,m} the centre has |P| - 1 neighbours at the top
    call, so the pivot scan reads only its mask there: 2m + 2 reads in
    all, against 3m + 2 for a scan of every vertex."""
    m = 10
    adj = _CountingAdj([(1 << (m + 1)) - 2] + [1] * m)
    cliques = _maximal_cliques(adj)
    assert sorted(cliques) == [1 | 1 << i for i in range(1, m + 1)]
    assert adj.reads <= 2 * m + 2


def test_frame_cap_stops_the_search():
    sys_ = build_root_system("E", 8)
    assert len(maximal_orthogonal_frames(sys_, cap=2025)) == 2025
    with pytest.raises(CapExceededError):
        maximal_orthogonal_frames(sys_, cap=2024)
    full = _CountingAdj(_orthogonality_adj(sys_))
    assert len(_maximal_cliques(full)) == 2025
    capped = _CountingAdj(full)
    with pytest.raises(CapExceededError) as err:
        _maximal_cliques(capped, cap=2)
    assert err.value.cap == 2
    # three cliques found, a small fraction of the full search read
    assert capped.reads * 100 < full.reads


def test_omega_frame_cap_boundary_e8():
    sys_ = build_root_system("E", 8)
    (_, size), = omega_classes(sys_, max_frames=2025)
    assert size == 2025
    with pytest.raises(CapExceededError, match="^E8 has more than 2024 ") as err:
        omega_classes(sys_, max_frames=2024)
    assert err.value.cap == 2024


def test_a_type_frame_size():
    sys_ = build_root_system("A", 4)
    sizes = {len(f) for f in maximal_orthogonal_frames(sys_)}
    assert sizes == {2}  # floor(5/2)


def _all_lines_failure(sys_, roots):
    """The ValueError text make_frame gave when its maximality check
    read every line's row of inner products, or None for a maximal
    frame."""
    canon = sorted({sys_.canonical_rep[i] for i in roots})
    for a in range(len(canon)):
        for b in range(a + 1, len(canon)):
            if dot(sys_, canon[a], canon[b]) != 0:
                return f"roots {canon[a]} and {canon[b]} are not orthogonal"
    members = set(canon)
    for line in sys_.lines:
        if line in members:
            continue
        if all(dot(sys_, line, m) == 0 for m in canon):
            return f"frame not maximal: root {line} is orthogonal to all members"
    return None


@pytest.mark.parametrize("label,rank", SUPPORTED_SYSTEMS)
def test_make_frame_errors_match_the_all_lines_check(label, rank):
    """Each standard frame with one member dropped is not maximal, and
    make_frame names the root the all-lines check names; a member's
    non-orthogonal neighbour added raises on the same pair."""
    sys_ = build_root_system(label, rank)
    for _, roots in standard_frames(sys_):
        assert _all_lines_failure(sys_, roots) is None
        assert make_frame(sys_, roots) == tuple(sorted(roots))
        for k in range(len(roots)):
            rest = roots[:k] + roots[k + 1:]
            want = _all_lines_failure(sys_, rest)
            assert want is not None and want.startswith("frame not maximal")
            with pytest.raises(ValueError) as err:
                make_frame(sys_, rest)
            assert str(err.value) == want
            assert make_frame(sys_, rest, require_maximal=False) == tuple(
                sorted(rest)
            )
        bad = next(
            (r for r in sys_.lines if dot(sys_, roots[0], r) != 0 and r != roots[0]),
            None,
        )
        if bad is None:  # A1 has one line
            assert len(sys_.lines) == 1
            continue
        want = _all_lines_failure(sys_, roots + (bad,))
        assert want is not None and want.endswith("are not orthogonal")
        for maximal in (True, False):
            with pytest.raises(ValueError) as err:
                make_frame(sys_, roots + (bad,), require_maximal=maximal)
            assert str(err.value) == want


def test_make_frame_validates():
    sys_ = build_root_system("B", 2)
    e1 = _root_idx(sys_, (2, 0))
    a1 = _root_idx(sys_, (2, -2))
    with pytest.raises(ValueError):
        make_frame(sys_, [e1, a1])  # not orthogonal
    with pytest.raises(ValueError):
        make_frame(sys_, [e1], require_maximal=True)  # e2 extends it
    assert make_frame(sys_, [e1], require_maximal=False) == (
        sys_.canonical_rep[e1],
    )


OMEGA_COUNTS = [
    ("A", 2, 1),
    ("A", 5, 1),
    ("B", 2, 2),
    ("B", 3, 2),
    ("B", 4, 3),
    ("B", 5, 3),
    ("B", 6, 4),
    ("D", 4, 1),
    ("D", 6, 1),
    ("F", 4, 3),
    ("E", 6, 1),
]


@pytest.mark.parametrize("label,rank,expected", OMEGA_COUNTS)
def test_omega_class_counts(label, rank, expected):
    sys_ = build_root_system(label, rank)
    omega = omega_classes(sys_)
    assert len(omega) == expected
    assert sum(size for _, size in omega) == len(maximal_orthogonal_frames(sys_))


@pytest.mark.parametrize("label,rank", SUPPORTED_SYSTEMS)
def test_omega_orbits_match_the_clique_search(label, rank):
    """omega_classes seeds its orbit search with the standard frames.
    Seeded with every maximal frame instead, the search reaches no
    other frame, and gives the same representatives, sizes and order."""
    sys_ = build_root_system(label, rank)
    frames = maximal_orthogonal_frames(sys_)
    orbits = clique_seeded_orbits(sys_, frames)
    assert {f for orbit in orbits for f in orbit} == set(frames)
    assert sum(map(len, orbits)) == len(frames)
    assert [orbit[0] for orbit in orbits] == [min(orbit) for orbit in orbits]
    assert omega_classes(sys_) == [(orbit[0], len(orbit)) for orbit in orbits]


@pytest.mark.parametrize("label,rank", [("B", 8), ("C", 5), ("F", 4)])
def test_omega_does_not_follow_the_seed_order(label, rank, monkeypatch):
    """Orbits come in order of their least member, whatever order
    standard_frames lists the seeds in."""
    sys_ = build_root_system(label, rank)
    want = omega_classes(sys_)
    reversed_frames = standard_frames(sys_)[::-1]
    monkeypatch.setattr(groups, "standard_frames", lambda _: reversed_frames)
    assert omega_classes(sys_) == want


def test_omega_standard_frames_hit_distinct_classes():
    for label, rank in SUPPORTED_SYSTEMS:
        sys_ = build_root_system(label, rank)
        omega = omega_classes(sys_)
        seen = set()
        for _, roots in standard_frames(sys_):
            seen.add(frame_class(sys_, omega, make_frame(sys_, roots)))
        assert seen == set(range(len(omega)))


def test_omega_keys_frames_by_line_position():
    """A frame is keyed by its lines' positions, so a system past 256
    roots walks while it has at most 256 lines.  D12 (264 roots, 132
    lines, past every supported rank) has one class: the 11!! perfect
    matchings of its 12 coordinates into pairs {e_i - e_j, e_i + e_j}."""
    d12 = RootSystem("D", 12, *_roots_d(12))
    (rep, size), = omega_classes(d12)
    assert size == 10_395 == 11 * 9 * 7 * 5 * 3
    assert rep == make_frame(d12, rep) and len(rep) == 12
    d17 = RootSystem("D", 17, *_roots_d(17))  # 544 roots, 272 lines
    with pytest.raises(ValueError, match="^D17 has 272 lines"):
        omega_classes(d17)


def test_omega_frame_cap_stops_the_walk(monkeypatch):
    """The frame walk counts the frames it expands and stops at frame
    max_frames + 1, long before A8's 945 maximal frames are listed;
    with the cap at 945 it expands each frame once."""
    calls = []

    def counted_orbits(points, step):
        def counted(key):
            calls.append(key)
            return step(key)

        return real(points, counted)

    real = groups._bfs_orbits
    monkeypatch.setattr(groups, "_bfs_orbits", counted_orbits)
    sys_ = build_root_system("A", 8)
    with pytest.raises(CapExceededError, match="^A8 has more than 10 ") as err:
        omega_classes(sys_, max_frames=10)
    assert err.value.cap == 10
    assert len(calls) <= 11
    calls.clear()
    (_, size), = omega_classes(sys_, max_frames=945)
    assert size == 945 == len(calls)


def test_orbit_stabilizer_identity_b3():
    sys_ = build_root_system("B", 3)
    omega = omega_classes(sys_)
    gens = [sys_.reflection_images(i) for i in sys_.simple_indices]
    group = enumerate_subgroup(gens)
    canonical = sys_.canonical_rep
    for rep, orbit_size in omega:
        target = set(rep)
        stab = 0
        for images in group.elements:
            if {canonical[images[r]] for r in rep} == target:
                stab += 1
        assert stab * orbit_size == group.order


def test_standard_frame_labels():
    sys_ = build_root_system("B", 4)
    names = [name for name, _ in standard_frames(sys_)]
    assert names == ["P_0", "P_1", "P_2"]
    _, x1 = standard_frames(sys_)[1]
    assert [root_label(sys_, r) for r in x1] == ["a1", "b1", "e3", "e4"]


def test_standard_frames_e_types():
    e6 = build_root_system("E", 6)
    (_, frame6), = standard_frames(e6)
    assert [root_label(e6, r) for r in frame6] == ["a1", "b1", "a2", "b2"]
    e7 = build_root_system("E", 7)
    (_, frame7), = standard_frames(e7)
    assert [root_label(e7, r) for r in frame7] == [
        "a1", "b1", "a2", "b2", "a3", "b3", "a4",
    ]
    e8 = build_root_system("E", 8)
    (_, frame8), = standard_frames(e8)
    assert [root_label(e8, r) for r in frame8] == [
        "a1", "b1", "a2", "b2", "a3", "b3", "a4", "b4",
    ]


def test_e6_torsor_generator_action():
    """The product of the two half-vector reflections swaps a1 and b2."""
    sys_ = build_root_system("E", 6)
    r1 = _root_idx(sys_, (1, -1, -1, -1, -1, -1, -1, 1))
    r2 = _root_idx(sys_, (-1, 1, 1, 1, -1, -1, -1, 1))
    g = _compose(sys_.reflection_images(r2), sys_.reflection_images(r1))
    (_, frame), = standard_frames(sys_)
    action = normalizer_action(sys_, g, frame)
    # positions: a1 b1 a2 b2 -> swap 0 and 3
    assert action == (3, 1, 2, 0)


def test_e7_torsor_generator_action():
    sys_ = build_root_system("E", 7)
    r1 = _root_idx(sys_, (1, -1, -1, -1, -1, -1, -1, 1))
    r2 = _root_idx(sys_, (-1, 1, 1, 1, -1, -1, -1, 1))
    g = _compose(sys_.reflection_images(r2), sys_.reflection_images(r1))
    (_, frame), = standard_frames(sys_)
    action = normalizer_action(sys_, g, frame)
    # a1 <-> b2 and b3 <-> a4; b1, a2, a3 fixed
    assert action == (3, 1, 2, 0, 4, 6, 5)


def test_f4_extra_normalizer_element():
    """s_{(e1+e2+e3+e4)/2} swaps b1 and b2 on the P_2 frame."""
    sys_ = build_root_system("F", 4)
    r = _root_idx(sys_, (1, 1, 1, 1))
    g = sys_.reflection_images(r)
    frame = standard_frames(sys_)[2][1]
    action = normalizer_action(sys_, g, frame)
    assert action == (0, 3, 2, 1)


def test_normalizer_rejects_outsider():
    sys_ = build_root_system("B", 3)
    e1 = _root_idx(sys_, (2, 0, 0))
    frame = standard_frames(sys_)[1][1]  # (a1, b1, e3)
    # s_{e1} sends a1 to the b1 line: still a frame normalizer
    assert normalizer_action(sys_, sys_.reflection_images(e1), frame) == (
        1, 0, 2,
    )
    # s_{e2-e3} sends a1 = e1-e2 to e1-e3, which is not a frame line
    outsider = sys_.reflection_images(_root_idx(sys_, (0, 2, -2)))
    with pytest.raises(NormalizerError):
        normalizer_action(sys_, outsider, frame)


def test_pair_swap_normalizer_element_b4():
    """s_{e1-e3} s_{e2-e4} exchanges the two coordinate pairs of P_2."""
    sys_ = build_root_system("B", 4)
    g = _product(
        sys_.reflection_images(_root_idx(sys_, (2, 0, -2, 0))),
        sys_.reflection_images(_root_idx(sys_, (0, 2, 0, -2))),
    )
    frame = standard_frames(sys_)[2][1]  # a1 b1 a2 b2
    assert normalizer_action(sys_, g, frame) == (2, 3, 0, 1)


def test_single_flip_normalizer_element_b3():
    """s_{e2} negates e2, swapping a1 and b1 in X_1 = (a1, b1, e3)."""
    sys_ = build_root_system("B", 3)
    g = sys_.reflection_images(_root_idx(sys_, (0, 2, 0)))
    frame = standard_frames(sys_)[1][1]
    assert normalizer_action(sys_, g, frame) == (1, 0, 2)


def test_double_flip_normalizer_element_d4():
    """s_{e1-e3} s_{e1+e3} negates coordinates 1 and 3: a1 <-> b1, a2 <-> b2."""
    sys_ = build_root_system("D", 4)
    g = _product(
        sys_.reflection_images(_root_idx(sys_, (2, 0, -2, 0))),
        sys_.reflection_images(_root_idx(sys_, (2, 0, 2, 0))),
    )
    (_, frame), = standard_frames(sys_)
    assert normalizer_action(sys_, g, frame) == (1, 0, 3, 2)


# ---------------------------------------------------------------------------
# dihedral


def test_dihedral_basics():
    g = build_dihedral(5)
    one = tuple(range(5))
    assert len(g) == 10 == len(set(g))
    assert g[0] == one
    # rotations first, then the reflections, each an involution
    for r in g[5:]:
        assert _compose(r, r) == one
    assert _compose(g[1], g[4]) == one  # rotation by 1 undoes rotation by 4
    # closed under composition, and conjugation is g r g^-1
    assert {_compose(p, q) for p in g for q in g} == set(g)
    for p in g:
        (inv,) = [q for q in g if _compose(p, q) == one]
        for r in g:
            assert _conjugate(p, r) == _compose(p, _compose(r, inv))


def test_dihedral_omega_odd():
    g = build_dihedral(5)
    classes = dihedral_omega(g)
    assert len(classes) == 1
    assert sorted(len(f) for f in classes[0]) == [1] * 5


def test_dihedral_omega_singly_even():
    g = build_dihedral(6)
    classes = dihedral_omega(g)
    assert len(classes) == 1
    assert len(classes[0]) == 3
    assert all(len(f) == 2 for f in classes[0])


def test_dihedral_omega_doubly_even():
    g = build_dihedral(4)
    classes = dihedral_omega(g)
    assert len(classes) == 2
    assert all(len(f) == 2 for cls in classes for f in cls)
    g8 = build_dihedral(8)
    assert len(dihedral_omega(g8)) == 2


def test_g2_split():
    g = build_dihedral(6)
    checks = g2_split_check(g)
    assert checks == {
        "unique_normal_order3": True,
        "splits_as_p_semidirect_u": True,
        "one_omega_class": True,
    }


def test_b2_matches_dihedral_of_order_8():
    sys_ = build_root_system("B", 2)
    gens = [sys_.reflection_images(i) for i in sys_.simple_indices]
    group = enumerate_subgroup(gens)
    dih = build_dihedral(4)
    assert group.order == len(dih)
    # same number of reflections: one per root line
    assert len(sys_.lines) == len(dih) // 2
