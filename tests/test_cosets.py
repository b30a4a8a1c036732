"""Coset spaces, fold certificates, and their disk cache."""
from __future__ import annotations

import json
import os
import sys
import tracemalloc
from math import gcd
from operator import mul

import pytest

from weylinv import cosets
from weylinv.algebra import one, x_monomial, zero
from weylinv.cosets import (
    CACHE_FORMAT_VERSION,
    CosetSpace,
    FoldCertificate,
    _label_bfs,
    _coset_orbit,
    _label_width,
    _labels,
    build_coset_space,
    cache_path,
    clear_cache,
    f_restriction,
    full_check,
    standard_u_gens,
)
from weylinv.errors import (
    CacheFormatError,
    CapExceededError,
    CertificateError,
    CosetValidationError,
)
from weylinv.groups import _reflection_group_order, standard_frames, weyl_order
from weylinv.roots import _bfs_orbits, build_root_system

from oracles import (
    cauchy_schwarz_label_width,
    compare_support,
    coset_action_tables,
    coset_start,
    coset_vectors,
    dense_orbit,
    enumerate_subgroup,
    frame_tables,
    is_zero,
    maximal_orthogonal_frames,
    p_orbits,
    read_cache,
    record_label_bfs,
    reflect,
    reflect_key,
    reflector,
    table_certificate,
    unreduced_invariant_vector,
    var,
    write_cache,
)
from test_forms import _exponent_walk

D4_LABELS = ("a1", "b1", "a2", "b2")


@pytest.fixture(scope="module")
def d4_space():
    sys_ = build_root_system("D", 4)
    return sys_, build_coset_space(sys_)


def test_d4_coset_count(d4_space):
    sys_, space = d4_space
    assert space.size == 8  # 2^(n-1)
    assert space.u_order == 24
    assert len(set(coset_vectors(sys_))) == space.size  # one key per coset


@pytest.mark.parametrize("n,expected", [(5, 16), (6, 32)])
def test_dn_coset_counts(n, expected):
    sys_ = build_root_system("D", n)
    space = build_coset_space(sys_)
    assert space.size == expected


def test_nonstandard_subgroup_b2():
    # U = <s_{e1}> works through the generic-vector key: 4 x 2 = |W|
    sys_ = build_root_system("B", 2)
    e1 = sys_.index[(2, 0)]
    space = build_coset_space(sys_, [e1])
    assert space.size == 4
    assert space.u_order == 2


def test_validation_failure_full_rank_subgroup():
    # U = <s_{e1}, s_{e2}> has no nonzero invariant vector (its span
    # meets extra roots), so no key can separate the 2 cosets
    sys_ = build_root_system("B", 2)
    e1 = sys_.index[(2, 0)]
    e2 = sys_.index[(0, 2)]
    with pytest.raises(CosetValidationError):
        build_coset_space(sys_, [e1, e2])


def test_standard_u_gens_unknown():
    with pytest.raises(ValueError):
        standard_u_gens(build_root_system("B", 3))


def _reflected_tables(sys_, vectors, roots):
    """Tables built by reflecting every coset key (the oracle)."""
    index = {key: i for i, key in enumerate(vectors)}
    return [
        tuple(index[reflect_key(key, *reflector(sys_, r))] for key in vectors)
        for r in roots
    ]


@pytest.mark.parametrize("label,rank", [("D", 4), ("D", 6), ("E", 7)])
def test_action_tables_match_rederived(label, rank):
    """The table route's tables, read off the recording BFS's edges,
    equal tables re-derived by reflecting each coset's key, and there
    are as many cosets as the build counts."""
    sys_ = build_root_system(label, rank)
    tables = coset_action_tables(sys_)
    assert tables == _reflected_tables(sys_, coset_vectors(sys_), sys_.simple_indices)
    assert len(tables[0]) == build_coset_space(sys_).size


@pytest.mark.parametrize("label,rank", [("D", 4), ("D", 6), ("E", 7)])
def test_frame_tables_match_reflection(label, rank):
    """Tables composed from the simple-reflection tables equal tables
    built by reflecting each coset's key, for every root (both signs of
    every line), not only frame members."""
    sys_ = build_root_system(label, rank)
    roots = range(len(sys_.roots))
    assert frame_tables(sys_, coset_action_tables(sys_), roots) == _reflected_tables(
        sys_, coset_vectors(sys_), roots
    )


def test_full_check_reflects_no_keys(monkeypatch):
    """full_check returns the stored certificate for the frame it was
    made for: the packed-label kernel (the only code that reflects coset
    keys) is never entered."""
    sys_ = build_root_system("E", 7)
    space = build_coset_space(sys_)
    (_, frame), = standard_frames(sys_)
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for name in ("_label_bfs", "_labels"):
        monkeypatch.setattr(cosets, name, counting(name, getattr(cosets, name)))
    assert full_check(sys_, space, frame) is space.certificate
    assert calls == []


def test_sparse_reflect_key_matches_dense(d4_space):
    """The reflection oracle against the dense formula for every D4 root
    x key, and every edge of the packed-label kernel against it."""
    sys_, _ = d4_space
    vectors = coset_vectors(sys_)
    passed_through = 0
    for r in range(len(sys_.roots)):
        d_r = sys_.roots[r]
        rr4 = sum(a * a for a in d_r)
        for key in vectors:
            q = 2 * sum(a * b for a, b in zip(d_r, key)) // rr4
            dense = tuple(k - q * a for k, a in zip(key, d_r))
            image = reflect_key(key, *reflector(sys_, r))
            assert image == dense
            if q == 0:
                assert image is key
                passed_through += 1
    assert passed_through > 0
    with pytest.raises(CosetValidationError):
        reflect_key((1, 0, 0, 0), *reflector(sys_, sys_.simple_indices[0]))
    _, edges = record_label_bfs(sys_, vectors[0])
    rank = len(sys_.simple_indices)
    self_loops = 0
    for k, key in enumerate(vectors):
        for i, r in enumerate(sys_.simple_indices):
            image = reflect_key(key, *reflector(sys_, r))
            assert vectors[edges[k * rank + i]] == image
            # a q == 0 edge is a self-loop, and only those are
            assert (edges[k * rank + i] == k) == (image is key)
            self_loops += image is key
    assert self_loops > 0


def test_non_lattice_start_vector_rejected():
    sys_ = build_root_system("D", 4)
    with pytest.raises(CosetValidationError, match="weight lattice"):
        _label_bfs(sys_, (1, 0, 0, 0))


@pytest.mark.parametrize(
    "system", [("D", 4), ("D", 5), ("D", 6), ("D", 7), ("D", 8), ("E", 7), ("E", 8)]
)
def test_count_only_coset_bfs_matches_the_full_one(system):
    """The walk with no frame counts the cosets that the walk with the
    standard frame's fields and the recording BFS find."""
    sys_ = build_root_system(*system)
    gens = standard_u_gens(sys_)
    (_, frame), = standard_frames(sys_)
    size, a_sets, u_order = _coset_orbit(sys_, gens, frame)
    assert sum(1 << len(a) for a in a_sets) == size
    assert _coset_orbit(sys_, gens) == (size, None, u_order)
    assert record_label_bfs(sys_, coset_start(sys_))[0] == size
    width = len(sys_.roots[0])
    with pytest.raises(CosetValidationError, match="weight lattice"):
        _label_bfs(sys_, (1,) + (0,) * (width - 1), frame)


@pytest.mark.parametrize("label,rank", [("D", 4), ("D", 6), ("E", 7)])
def test_label_bfs_matches_dense(label, rank):
    sys_ = build_root_system(label, rank)
    space = build_coset_space(sys_)
    vectors = coset_vectors(sys_)
    # the dense orbit of any of its vectors is the same set
    assert sorted(dense_orbit(sys_, vectors[-1])) == sorted(vectors)
    assert len(vectors) == space.size == _label_bfs(sys_, vectors[-1])[0]


@pytest.mark.parametrize("rank", [4, 6])
def test_walk_is_the_same_from_every_start(rank):
    """The walk first raises its start to the orbit's one dominant
    point, so every coset key of D4 and D6, each taken as the start,
    gives the same size and active sets, with the standard frame's
    fields and without; those active sets are the table route's."""
    sys_ = build_root_system("D", rank)
    (_, frame), = standard_frames(sys_)
    vectors = coset_vectors(sys_)
    simple = [sys_.roots[i] for i in sys_.simple_indices]
    # every key but one has a negative label, so the raise runs from it
    assert sum(min(_labels(simple, v)) >= 0 for v in vectors) == 1
    cert = table_certificate(sys_, coset_action_tables(sys_), frame)
    for v in vectors:
        assert _label_bfs(sys_, v, frame) == (len(vectors), cert)
        assert _label_bfs(sys_, v) == (len(vectors), None)


@pytest.mark.parametrize("label", ["F", "B"])
def test_walk_with_non_simply_laced_rows(label):
    """At F4 and B4 the Cartan rows are not symmetric.  With U the
    reflection in the short root e_1 (--u-root 2,0,0,0), the walk counts
    the cosets the recording BFS finds, and its active sets for each
    standard frame are the table route's."""
    sys_ = build_root_system(label, 4)
    u_gens = (sys_.index[(2, 0, 0, 0)],)
    start = coset_start(sys_, u_gens)
    size = record_label_bfs(sys_, start)[0]
    assert size == weyl_order(sys_) // 2
    assert _label_bfs(sys_, start) == (size, None)
    tables = coset_action_tables(sys_, u_gens)
    for _, frame in standard_frames(sys_):
        assert _label_bfs(sys_, start, frame) == (
            size, table_certificate(sys_, tables, frame)
        )


def test_e8_build_keeps_no_keys():
    """An uncached build of the E8 space walks its 17,280 cosets as a
    tree and holds none of their keys: its tracemalloc peak was 0.10 MiB
    with Python 3.11, against 1.27 MiB for a BFS that kept every key in
    a list and a set.  The ceiling leaves room for the int, list and
    dict sizes of Python 3.10 to 3.13."""
    sys_ = build_root_system("E", 8)
    tracemalloc.start()
    try:
        space = build_coset_space(sys_)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.size == 17280 and space.certificate is not None
    assert peak < 2**19, peak


def test_e8_labels_inside_field_bound():
    """Every packed label of the E8 space lies strictly inside its field:
    |c_j| < 2^(w-1), with w from the exact bound over the roots."""
    sys_ = build_root_system("E", 8)
    vectors = coset_vectors(sys_)
    assert len(vectors) == build_coset_space(sys_).size
    simple = [sys_.roots[i] for i in sys_.simple_indices]
    width = _label_width(sys_, vectors[0])
    off = 1 << (width - 1)
    biggest = max(abs(c) for key in vectors for c in _labels(simple, key))
    assert 0 < biggest < off
    # the labels over the orbit are 2(v, b)/(b, b) for v = vectors[0] and
    # b running over every root, so the width read at any key is the same
    v = vectors[0]
    assert biggest == max(
        abs(2 * sum(map(mul, b, v)) // sum(map(mul, b, b))) for b in sys_.roots
    )


def _sigma_u(sys_, u_gens):
    images = [sys_.reflection_images(g) for g in u_gens]
    orbits = _bfs_orbits(u_gens, lambda r: [img[r] for img in images])
    return sorted(r for orbit in orbits for r in orbit)


def _enumerated_u_order(sys_, u_gens):
    """|U| by enumerating U on its own roots (faithful restriction)."""
    domain = _sigma_u(sys_, u_gens)
    local = {r: i for i, r in enumerate(domain)}
    gens = [
        tuple(local[sys_.reflection_images(g)[r]] for r in domain)
        for g in u_gens
    ]
    return enumerate_subgroup(gens, element_cap=10**6).order


def _custom_u(label, rank):
    sys_ = build_root_system(label, rank)
    if label == "D":  # <s_{e1-e2}, s_{e3-e4}>: 48 cosets
        return sys_, (sys_.index[(2, -2, 0, 0)], sys_.index[(0, 0, 2, -2)])
    return sys_, sys_.simple_indices[1:]  # E6 without its first node: 27 cosets


@pytest.mark.parametrize(
    "label,rank,custom",
    [("D", 4, False), ("D", 6, False), ("D", 8, False), ("E", 7, False),
     ("E", 8, False), ("D", 4, True), ("E", 6, True)],
)
def test_u_order_chain_matches_enumeration(label, rank, custom):
    if custom:
        sys_, u_gens = _custom_u(label, rank)
    else:
        sys_ = build_root_system(label, rank)
        u_gens = standard_u_gens(sys_)
    order = _enumerated_u_order(sys_, u_gens)
    assert _reflection_group_order(sys_, _sigma_u(sys_, u_gens)) == order
    space = build_coset_space(sys_, u_gens)
    assert space.u_order == order
    assert space.size * order == weyl_order(sys_)


def _brute_force_cosets(sys_, u_gens):
    """U\\W from an enumerated W: |U|, the simple reflections' tables and
    the table of any root's reflection, the cosets numbered by a BFS from
    U under right multiplication by the simple reflections in order.

    Elements are image tuples on the roots, as bytes; p.translate(t)
    with t = q padded to 256 bytes is the product q p (p first).  Each
    coset Uw is found whole as {uw : u in U}, and the reflection s_r
    sends it to Uws_r."""

    def pad(p):
        return p.ljust(256, b"\0")

    refl = [bytes(sys_.reflection_images(r)) for r in range(len(sys_.roots))]
    w_all = enumerate_subgroup([refl[i] for i in sys_.simple_indices]).elements
    u_all = [pad(u) for u in enumerate_subgroup([refl[g] for g in u_gens]).elements]
    index = {w: k for k, w in enumerate(w_all)}
    coset_of = [-1] * len(w_all)
    members = []  # one element of each coset
    for k, w in enumerate(w_all):
        if coset_of[k] < 0:
            for u in u_all:
                coset_of[index[w.translate(u)]] = len(members)
            members.append(w)
    assert -1 not in coset_of and len(members) * len(u_all) == len(w_all)

    def image(w, r):  # the coset of w s_r
        return coset_of[index[refl[r].translate(pad(w))]]

    bfs = {coset_of[0]: 0}  # w_all[0] is the identity
    order = [coset_of[0]]
    for c in order:
        for i in sys_.simple_indices:
            d = image(members[c], i)
            if d not in bfs:
                bfs[d] = len(order)
                order.append(d)

    def table(r):
        return tuple(bfs[image(members[c], r)] for c in order)

    return len(u_all), [table(i) for i in sys_.simple_indices], table


@pytest.mark.parametrize(
    "label,rank,custom", [("D", 4, False), ("D", 6, False), ("D", 4, True), ("E", 6, True)]
)
def test_coset_space_matches_brute_force(label, rank, custom):
    """The space's size and |U|, and the table route's action tables,
    are those of U\\W split off an enumerated W, and so is every
    maximal frame's action; full_check's active sets are those of the
    frame's orbits on the enumerated cosets, each orbit of 2^|A| cosets."""
    if custom:
        sys_, u_gens = _custom_u(label, rank)
    else:
        sys_ = build_root_system(label, rank)
        u_gens = standard_u_gens(sys_)
    space = build_coset_space(sys_, u_gens)
    u_order, tables, table = _brute_force_cosets(sys_, u_gens)
    assert (space.size, space.u_order) == (len(tables[0]), u_order)
    assert coset_action_tables(sys_, u_gens) == tables
    frames = maximal_orthogonal_frames(sys_)
    assert frames
    for frame in frames:
        brute = [table(r) for r in frame]
        assert frame_tables(sys_, tables, frame) == brute
        assert full_check(sys_, space, frame).a_sets == _orbit_a_sets(brute, space.size)


def _orbit_a_sets(tables, size):
    """The sorted active sets of the orbits of the tables on range(size),
    each read at the orbit's least point, after checking that every
    orbit has 2^|A| points."""
    out = []
    for orbit in _bfs_orbits(range(size), lambda p: [t[p] for t in tables]):
        a = tuple(i for i, t in enumerate(tables) if t[orbit[0]] != orbit[0])
        assert len(orbit) == 1 << len(a)
        out.append(a)
    return tuple(sorted(out))


def _one_root_u(label, rank, node):
    """U generated by the reflection in one simple root, as --u-root
    gives it."""
    sys_ = build_root_system(label, rank)
    return sys_, (sys_.simple_indices[node],)


def _table_route_cases():
    """The standard frames of D4 to E8 with their standard U, and with a
    one-root U every standard frame and every prefix of one of B4, B5,
    C4, F4 (a long and a short root), D6, A5 and E6: 81 frames."""
    cases = []
    for label, rank in [("D", 4), ("D", 6), ("D", 8), ("E", 7), ("E", 8)]:
        sys_ = build_root_system(label, rank)
        cases.append((f"{label}{rank}", sys_, standard_u_gens(sys_), standard_frames(sys_)))
    for label, rank, node in [
        ("B", 4, 0), ("B", 5, 0), ("C", 4, 0), ("F", 4, 0), ("F", 4, -1),
        ("D", 6, 0), ("A", 5, 0), ("E", 6, 0),
    ]:
        sys_, u_gens = _one_root_u(label, rank, node)
        prefixes = [
            (f"{name}[:{k}]", frame[:k])
            for name, frame in standard_frames(sys_)
            for k in range(1, len(frame) + 1)
        ]
        cases.append((f"{label}{rank}-u{node}", sys_, u_gens, prefixes))
    assert sum(len(frames) for _, _, _, frames in cases) == 81
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("sys_,u_gens,frames", _table_route_cases())
def test_certificate_matches_the_table_route(sys_, u_gens, frames):
    """The active sets read off the frame pairings equal those the
    permutation route's kernel finds on the composed frame tables."""
    space = build_coset_space(sys_, u_gens)
    tables = coset_action_tables(sys_, u_gens)
    assert len(tables[0]) == space.size
    for _, frame in frames:
        assert full_check(sys_, space, frame).a_sets == table_certificate(
            sys_, tables, frame
        )


_START_SYSTEMS = [
    ("D", 4, False), ("D", 5, False), ("D", 6, False), ("D", 7, False),
    ("D", 8, False), ("E", 7, False), ("E", 8, False), ("D", 4, True),
    ("E", 6, True),
]


def _u_and_starts(label, rank, custom):
    """The system, U's generators, the primitive start the package takes
    and the oracle's unreduced one."""
    if custom:
        sys_, u_gens = _custom_u(label, rank)
    else:
        sys_ = build_root_system(label, rank)
        u_gens = standard_u_gens(sys_)
    images = [sys_.reflection_images(g) for g in u_gens]
    lines = {sys_.line_of[r] for r in _sigma_u(sys_, u_gens)}
    start = cosets._invariant_vector(sys_, images, lines)
    unreduced = unreduced_invariant_vector(sys_, images, lines)
    return sys_, u_gens, start, unreduced


def _unreduced_route(monkeypatch, sys_):
    """Make the package start its BFS from the unreduced vector with the
    Cauchy-Schwarz field width, as it did before the start was reduced."""
    simple = [sys_.roots[i] for i in sys_.simple_indices]
    monkeypatch.setattr(cosets, "_invariant_vector", unreduced_invariant_vector)
    monkeypatch.setattr(
        cosets, "_label_width", lambda _, vec: cauchy_schwarz_label_width(simple, vec)
    )


@pytest.mark.parametrize("label,rank,custom", _START_SYSTEMS)
def test_primitive_start_matches_the_unreduced_oracle(
    monkeypatch, label, rank, custom
):
    """The primitive start gives the oracle's space at 1/g of its scale:
    the same size, |U|, certificate and (by the table route) action
    tables."""
    sys_, u_gens, start, unreduced = _u_and_starts(label, rank, custom)
    simple = [sys_.roots[i] for i in sys_.simple_indices]
    assert gcd(*start, *_labels(simple, start)) == 1
    g = gcd(*unreduced, *_labels(simple, unreduced))
    assert tuple(g * x for x in start) == unreduced
    space = build_coset_space(sys_, u_gens)
    tables = coset_action_tables(sys_, u_gens)
    with monkeypatch.context() as m:
        _unreduced_route(m, sys_)
        old = build_coset_space(sys_, u_gens)
        old_tables = coset_action_tables(sys_, u_gens)
    assert (space.size, space.u_order) == (old.size, old.u_order)
    assert tables == old_tables
    assert space.certificate == old.certificate is not None
    vectors = dense_orbit(sys_, start)
    assert vectors == coset_vectors(sys_, u_gens)
    assert [tuple(g * x for x in key) for key in vectors] == dense_orbit(
        sys_, unreduced
    )
    # the exact bound is the largest |label| on the orbit, and fits in
    # the width the kernel takes for it
    bound = max(
        abs(2 * sum(map(mul, b, start)) // sum(map(mul, b, b)))
        for b in sys_.roots
    )
    biggest = max(abs(c) for key in vectors for c in _labels(simple, key))
    assert bound == biggest
    assert _label_width(sys_, start) == biggest.bit_length() + 1
    assert _label_width(sys_, start) <= cauchy_schwarz_label_width(simple, start)


@pytest.mark.parametrize("system", [("D", 4), ("D", 8), ("E", 7), ("E", 8)])
def test_unreduced_route_writes_the_same_file(tmp_path, monkeypatch, system):
    """A build from the unreduced start writes the primitive start's
    cache file byte for byte: the file holds only counts and a_sets,
    neither of which depends on the start's scale."""
    sys_, u_gens, _, _ = _u_and_starts(*system, False)
    fresh = build_coset_space(sys_, cache_dir=str(tmp_path))
    path = cache_path(sys_, u_gens, str(tmp_path))
    with monkeypatch.context() as m:
        _unreduced_route(m, sys_)
        build_coset_space(sys_, cache_dir=str(tmp_path / "old"))
    old_path = cache_path(sys_, u_gens, str(tmp_path / "old"))
    assert open(old_path, "rb").read() == open(path, "rb").read()
    loaded = build_coset_space(sys_, cache_dir=str(tmp_path / "old"))
    assert loaded == fresh
    assert loaded.certificate is not None


def test_build_refuses_a_space_past_the_element_cap(monkeypatch):
    """|W| / |U| is compared with the cap before the coset BFS starts."""
    sys_ = build_root_system("D", 4)
    one = (sys_.simple_indices[0],)  # |U| = 2, so 192 / 2 = 96 cosets
    with monkeypatch.context() as m:
        m.setattr(cosets, "_label_bfs", lambda *a: pytest.fail("the BFS ran"))
        with pytest.raises(CapExceededError, match="has 96 cosets") as info:
            build_coset_space(sys_, one, element_cap=95)
    assert info.value.cap == 95
    assert build_coset_space(sys_, one, element_cap=96).size == 96


def test_closure_matches_mutual_reflection():
    """Sigma_U as an orbit equals the closure of the generators' roots
    under reflecting them in each other."""
    for label, rank in (("D", 6), ("E", 7)):
        sys_ = build_root_system(label, rank)
        gens = standard_u_gens(sys_)
        closed = {sys_.roots[g] for g in gens}
        while True:
            more = {reflect(r, s) for r in closed for s in closed} - closed
            if not more:
                break
            closed |= more
        assert sorted(sys_.index[r] for r in closed) == _sigma_u(sys_, gens)


def _frames(sys_):
    """The standard frames and three further maximal frames."""
    frames = [f for _, f in standard_frames(sys_)]
    found = maximal_orthogonal_frames(sys_)
    return frames + [found[0], found[len(found) // 2], found[-1]]


@pytest.mark.parametrize("label,rank", [("D", 4), ("D", 6), ("E", 7)])
def test_full_check_matches_permutation_forms(label, rank):
    """The certificate's active sets equal the exponent-walk oracle's on
    the table route's frame tables: it walks the group instead of
    reading frame pairings.  Every orbit the walk finds is certified, and its deltas are
    the t_i of its active set, so the active set is all a certificate
    needs."""
    sys_ = build_root_system(label, rank)
    space = build_coset_space(sys_)
    tables = coset_action_tables(sys_)
    for frame in _frames(sys_):
        cert = full_check(sys_, space, frame)
        walk = _exponent_walk(frame_tables(sys_, tables, frame), space.size)
        assert cert.a_sets == tuple(sorted(a_set for _, a_set, _, _ in walk))
        for _, a_set, fold, deltas in walk:
            assert fold == len(a_set)
            assert deltas == tuple(1 << i for i in a_set)


def test_full_check_orbits_match_p_orbits():
    sys_ = build_root_system("D", 6)
    space = build_coset_space(sys_)
    (_, frame), = standard_frames(sys_)
    cert = full_check(sys_, space, frame)
    tables = frame_tables(sys_, coset_action_tables(sys_), frame)
    orbits = p_orbits(sys_, frame)
    assert sorted(len(o) for o in orbits) == sorted(1 << len(a) for a in cert.a_sets)
    assert tuple(sorted(
        tuple(i for i, t in enumerate(tables) if t[o[0]] != o[0]) for o in orbits
    )) == cert.a_sets


def test_d4_orbits(d4_space):
    sys_, space = d4_space
    (_, frame), = standard_frames(sys_)
    orbits = p_orbits(sys_, frame)
    assert sorted(len(o) for o in orbits) == [4, 4]
    # empty frame: everything is a singleton
    singletons = p_orbits(sys_, ())
    assert len(singletons) == space.size


def test_d4_certificate(d4_space):
    sys_, space = d4_space
    (_, frame), = standard_frames(sys_)
    cert = full_check(sys_, space, frame)
    assert cert.labels == D4_LABELS
    assert len(cert.a_sets) == 2
    assert all(len(a) == 2 for a in cert.a_sets)
    assert cert.min_fold == 2
    # Each orbit activates one of a_i/b_i per coordinate pair, with an
    # even number of a-choices: {a1, a2} and {b1, b2}.
    assert cert.a_sets == ((0, 2), (1, 3))


def test_d4_e2_restriction(d4_space):
    sys_, space = d4_space
    (_, frame), = standard_frames(sys_)
    cert = full_check(sys_, space, frame)
    expected = x_monomial(D4_LABELS, ["a1", "a2"]) + x_monomial(
        D4_LABELS, ["b1", "b2"]
    )
    assert f_restriction(cert, 2) == expected
    assert compare_support(cert, expected)
    wrong = x_monomial(D4_LABELS, ["a1", "b1"]) + x_monomial(
        D4_LABELS, ["b1", "b2"]
    )
    assert not compare_support(cert, wrong)


def test_d6_certificate_pattern():
    sys_ = build_root_system("D", 6)
    space = build_coset_space(sys_)
    assert space.size == 32
    (_, frame), = standard_frames(sys_)
    cert = full_check(sys_, space, frame)
    assert len(cert.a_sets) == 4  # 2^(m-1) with m = 3
    assert all(len(a) == 3 for a in cert.a_sets)
    # pattern: one generator per pair, even number of a-slots
    labels = cert.labels
    a_choice_sets = []
    for a in cert.a_sets:
        names = [labels[p] for p in a]
        pairs = {n[1] for n in names}
        assert pairs == {"1", "2", "3"}
        a_choice_sets.append(frozenset(n for n in names if n[0] == "a"))
    assert sorted(len(s) for s in a_choice_sets) == [0, 2, 2, 2]
    # res e_3 = sum over even-|A| patterns
    expected = zero(labels)
    for a_part in [(), (1, 2), (1, 3), (2, 3)]:
        names = [f"a{i}" if i in a_part else f"b{i}" for i in (1, 2, 3)]
        expected = expected + x_monomial(labels, names)
    assert f_restriction(cert, 3) == expected
    assert compare_support(cert, expected)


def test_f_restriction_degree_zero():
    cert = FoldCertificate(frame_roots=(), labels=(), a_sets=())
    assert compare_support(cert, zero(()))
    # 8 fold-0 orbits have even parity
    cert8 = FoldCertificate(frame_roots=(), labels=(), a_sets=((),) * 8)
    assert is_zero(f_restriction(cert8, 0))


def test_f_restriction_zero_counts_orbits():
    three_points = FoldCertificate((), ("a",), ((),) * 3)
    assert f_restriction(three_points, 0) == one(("a",))  # 3 is odd


def test_f_restriction_examples():
    ab = ("a", "b")
    single = FoldCertificate((), ab, ((0, 1),))
    assert f_restriction(single, 2) == var(ab, "a") * var(ab, "b")
    # higher folds contribute nothing
    mixed = FoldCertificate((), ab, ((0,), (0, 1)))
    assert f_restriction(mixed, 1) == var(ab, "a")
    with pytest.raises(CertificateError, match="fold 1 < 2: not in I"):
        f_restriction(mixed, 2)


def test_f_restriction_additive_over_concatenation():
    ab = ("a", "b")
    c1, c2 = FoldCertificate((), ab, ((0,),)), FoldCertificate((), ab, ((1,),))
    both = FoldCertificate((), ab, c1.a_sets + c2.a_sets)
    assert f_restriction(both, 1) == f_restriction(c1, 1) + f_restriction(c2, 1)


def test_fold_failure_reported():
    """Only a frame of distinct orthogonal roots is certified: a repeated
    root, or one and its negative, and roots that are not orthogonal
    raise CertificateError naming the pair before any walk."""
    sys_ = build_root_system("D", 4)
    space = build_coset_space(sys_)
    (_, frame), = standard_frames(sys_)
    a1 = frame[0]
    for twin in (a1, sys_.negation[a1]):
        with pytest.raises(CertificateError, match="a1 and a1 lie on one line"):
            full_check(sys_, space, (a1, twin, frame[1]))
    # roots that are not orthogonal: their reflections do not commute
    pair = (sys_.index[(2, -2, 0, 0)], sys_.index[(0, 2, -2, 0)])
    with pytest.raises(CertificateError, match="do not commute"):
        full_check(sys_, space, pair)
    # the table route fails on the same frames
    tables = coset_action_tables(sys_)
    with pytest.raises(CertificateError, match="not simply transitive"):
        table_certificate(sys_, tables, (a1, a1, frame[1]))
    with pytest.raises(CertificateError, match="do not commute"):
        table_certificate(sys_, tables, pair)


def test_e7_coset_space():
    sys_ = build_root_system("E", 7)
    space = build_coset_space(sys_)
    assert space.size == 2016
    assert space.u_order == 1440
    assert space.size * space.u_order == 2903040
    (_, frame), = standard_frames(sys_)
    cert = full_check(sys_, space, frame)
    hist = {}
    for a in cert.a_sets:
        hist[len(a)] = hist.get(len(a), 0) + 1
    assert hist == {3: 28, 4: 28, 6: 21}


def test_e8_coset_space():
    sys_ = build_root_system("E", 8)
    space = build_coset_space(sys_)
    assert space.size == 17280
    assert space.u_order == 40320
    assert space.size * space.u_order == 696729600
    (_, frame), = standard_frames(sys_)
    cert = full_check(sys_, space, frame)
    hist = {}
    for a in cert.a_sets:
        hist[len(a)] = hist.get(len(a), 0) + 1
    assert hist == {4: 56, 5: 224, 7: 56, 8: 8}


def test_d8_certificate_fold_pattern():
    sys_ = build_root_system("D", 8)
    space = build_coset_space(sys_)
    assert space.size == 128
    (_, frame), = standard_frames(sys_)
    cert = full_check(sys_, space, frame)
    assert len(cert.a_sets) == 8
    assert all(len(a) == 4 for a in cert.a_sets)


# ---------------------------------------------------------------------------
# cache


def test_cache_roundtrip(tmp_path, d4_space):
    sys_, fresh = d4_space
    cache = str(tmp_path)
    built = build_coset_space(sys_, cache_dir=cache)
    assert built == fresh
    assert built.certificate is not None  # canonical frame certified at build
    path = cache_path(sys_, standard_u_gens(sys_), cache)
    first_bytes = open(path, "rb").read()
    loaded = build_coset_space(sys_, cache_dir=cache)
    assert loaded == built
    # cold rebuild produces identical bytes
    assert clear_cache(cache) == [path.split("/")[-1]]
    build_coset_space(sys_, cache_dir=cache)
    assert open(path, "rb").read() == first_bytes


def test_cache_format_version_rejected(tmp_path, d4_space):
    sys_, _ = d4_space
    cache = str(tmp_path)
    build_coset_space(sys_, cache_dir=cache)
    path = cache_path(sys_, standard_u_gens(sys_), cache)
    doc = read_cache(path)
    doc["format_version"] = 99
    write_cache(path, doc)
    with pytest.raises(CacheFormatError):
        build_coset_space(sys_, cache_dir=cache)
    doc["format_version"] = CACHE_FORMAT_VERSION
    del doc["u_order"]
    write_cache(path, doc)
    with pytest.raises(CacheFormatError, match="u_order") as bad:
        build_coset_space(sys_, cache_dir=cache)
    assert path in str(bad.value)


def test_respaced_cache_header_loads(tmp_path, d4_space):
    """A header re-dumped with default separators and reversed key order
    still loads."""
    sys_, _ = d4_space
    cache = str(tmp_path)
    built = build_coset_space(sys_, cache_dir=cache)
    path = cache_path(sys_, standard_u_gens(sys_), cache)
    doc = read_cache(path)
    write_cache(path, dict(reversed(doc.items())), sort_keys=False, separators=None)
    assert open(path, "rb").readline().startswith(b'{"u_order": 24, "u_gens": ')
    loaded = build_coset_space(sys_, cache_dir=cache)
    assert isinstance(loaded, CosetSpace) and loaded == built


def test_cache_oracle_round_trips_the_bytes(tmp_path):
    """The test-side reader and writer give back the file's own bytes,
    and the file is one line of compact JSON with sorted keys."""
    sys_ = build_root_system("D", 6)
    space = build_coset_space(sys_, cache_dir=str(tmp_path))
    path = cache_path(sys_, standard_u_gens(sys_), str(tmp_path))
    written = open(path, "rb").read()
    doc = read_cache(path)
    assert doc["certificate"] == [list(a) for a in space.certificate.a_sets]
    write_cache(path, doc)
    assert open(path, "rb").read() == written
    header, rest = written.split(b"\n", 1)
    assert rest == b""
    assert header == json.dumps(
        json.loads(header), sort_keys=True, separators=(",", ":")
    ).encode()


@pytest.mark.parametrize("system", [("D", 4), ("D", 6), ("D", 8), ("E", 7), ("E", 8)])
def test_loaded_space_equals_fresh_build(tmp_path, system):
    """A space read back from its cache file equals one built without a
    cache, its canonical frame's certificate included."""
    sys_ = build_root_system(*system)
    fresh = build_coset_space(sys_)
    (_, frame), = standard_frames(sys_)
    fresh = fresh._replace(certificate=full_check(sys_, fresh, frame))
    build_coset_space(sys_, cache_dir=str(tmp_path))
    path = cache_path(sys_, standard_u_gens(sys_), str(tmp_path))
    loaded = cosets._load_space(sys_, standard_u_gens(sys_), path)
    assert loaded == fresh
    assert loaded.certificate is not None


@pytest.mark.parametrize("rank", [7, 8])
def test_tables_hold_one_int_per_coset(tmp_path, rank):
    """A warm load reads one header line and keeps no action tables, so
    the loaded space holds less than one int object per coset.  Its
    tracemalloc peak and kept memory stay under fixed ceilings, measured
    with Python 3.11 at 12 KiB peak and 4 KiB kept for E7, 67 KiB and
    31 KiB for E8; a format 4 E8 load, which read the action tables,
    peaked at 3.09 MiB and kept 1.61 MiB."""
    peak_cap, kept_cap = {7: (64 << 10, 32 << 10), 8: (256 << 10, 128 << 10)}[rank]
    sys_ = build_root_system("E", rank)
    built = build_coset_space(sys_, cache_dir=str(tmp_path))
    tracemalloc.start()
    try:
        loaded = build_coset_space(sys_, cache_dir=str(tmp_path))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == built and loaded is not built
    assert kept < loaded.size * sys.getsizeof(loaded.size), kept
    assert peak < peak_cap, peak
    assert kept < kept_cap, kept


def test_space_past_int32_is_cached(tmp_path):
    """One A1 as U in F4 puts coordinates past 2^31 in the coset keys,
    which no cache file stores: the space is cached like any other, and
    a warm load gives the fresh space."""
    sys_ = build_root_system("F", 4)
    vectors = coset_vectors(sys_, (0,))
    assert max(abs(x) for k in vectors for x in k) >= 1 << 31
    fresh = build_coset_space(sys_, (0,))
    assert fresh.size == len(vectors)
    cold = build_coset_space(sys_, (0,), cache_dir=str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == [
        os.path.basename(cache_path(sys_, (0,), str(tmp_path)))
    ]
    warm = build_coset_space(sys_, (0,), cache_dir=str(tmp_path))
    assert warm == cold == fresh
    assert warm.certificate is cold.certificate is None  # F4 has three frames


def test_cached_certificate_reused(tmp_path):
    sys_ = build_root_system("D", 4)
    space = build_coset_space(sys_, cache_dir=str(tmp_path))
    (_, frame), = standard_frames(sys_)
    cert = full_check(sys_, space, frame)
    assert cert is space.certificate
