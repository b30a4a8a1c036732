"""Forms layer: twisted diagonal forms, SW classes, Pfister decompositions."""
from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from weylinv.algebra import one, two
from weylinv.basis import _frame_form
from weylinv.errors import UnsupportedEmbeddingError
from weylinv.forms import (
    DiagonalForm,
    form_of_linear_action,
    total_sw,
    twist_by_two,
)
from weylinv.forms import _orthogonalize, _square_free_two_part
from weylinv.groups import root_label, standard_frames
from weylinv.roots import SUPPORTED, build_root_system

from oracles import (
    _commuting_involution_failure,
    _f2_kernel_basis,
    _orbit_pfister,
    form_of_involutions,
    form_of_permutation_action,
    is_zero,
    maximal_orthogonal_frames,
    modified_sw,
    permutation_frame_form,
    pfister_gram_check,
    reflection_matrix,
    render_form,
    var,
)

SWAP = ((0, 1), (1, 0))
NEG_SWAP = ((0, -1), (-1, 0))
AB = ("a", "b")


def test_swap_negswap_embedding():
    form = form_of_involutions([SWAP, NEG_SWAP], AB)
    assert form.entries == ((1, 0b01), (1, 0b10))
    assert render_form(form) == "<2a, 2b>"


def test_single_swap_embedding():
    form = form_of_involutions([SWAP], ("a",))
    assert form.entries == ((1, 0b1), (1, 0b0))
    assert render_form(form) == "<2a, 2>"


def test_doubled_swap_embedding():
    form = form_of_involutions([SWAP, SWAP], AB)
    assert form.entries == ((1, 0b11), (1, 0b00))
    assert render_form(form) == "<2ab, 2>"


def test_norm_with_odd_part_rejected():
    # reflection at (1,1,1): the fixed eigenvector has squared norm 3
    third = [
        [1 - 2 * 1 * 1 / 3 if i == j else -2 / 3 for j in range(3)]
        for i in range(3)
    ]
    from fractions import Fraction

    refl = [
        [
            (1 if i == j else 0) - Fraction(2, 3)
            for j in range(3)
        ]
        for i in range(3)
    ]
    with pytest.raises(UnsupportedEmbeddingError):
        form_of_involutions([refl], ("a",))


def test_involution_validation():
    shift = ((0, 1), (-1, 0))  # rotation, not an involution
    with pytest.raises(ValueError):
        form_of_involutions([shift], ("a",))
    diag = ((1, 0), (0, -1))
    with pytest.raises(ValueError):
        form_of_involutions([SWAP, diag], AB)  # these do not commute
    from fractions import Fraction

    skew = ((1, 0), (Fraction(1, 2), -1))  # an involution, not orthogonal
    with pytest.raises(ValueError, match="not orthogonal"):
        form_of_involutions([skew], ("a",))
    # reflections at two F4 short roots at angle 60 degrees: entries +-1/2
    sys_ = build_root_system("F", 4)
    near = [
        reflection_matrix(sys_, sys_.index[r])
        for r in ((1, 1, 1, 1), (1, 1, 1, -1))
    ]
    with pytest.raises(ValueError, match="do not commute"):
        form_of_involutions(near, AB)


def test_linear_action_f4_frames():
    sys_ = build_root_system("F", 4)
    frames = dict(standard_frames(sys_))
    f0 = form_of_linear_action(sys_, frames["P_0"])
    assert render_form(f0) == "<e1, e2, e3, e4>"
    f1 = form_of_linear_action(sys_, frames["P_1"])
    assert render_form(f1) == "<2a1, 2b1, e3, e4>"
    f2 = form_of_linear_action(sys_, frames["P_2"])
    assert render_form(f2) == "<2a1, 2b1, 2a2, 2b2>"
    # four orthogonal short roots: reflection matrices with entries +-1/2
    short = [
        sys_.index[r]
        for r in ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))
    ]
    assert render_form(form_of_linear_action(sys_, short, "abcd")) == "<a, b, c, d>"


def test_linear_action_e6_frame():
    sys_ = build_root_system("E", 6)
    (_, frame), = standard_frames(sys_)
    form = form_of_linear_action(sys_, frame)
    assert render_form(form) == "<2a1, 2b1, 2a2, 2b2, 1, 1, 1, 1>"


def test_total_sw_examples():
    labels = AB
    form = DiagonalForm(labels, ((1, 0b01), (1, 0b10)))  # <2a, 2b>
    ta, tb, s = var(labels, "a"), var(labels, "b"), two(labels)
    expected = one(labels) + (ta + tb) + (ta * tb + s * (ta + tb))
    assert total_sw(form) == expected
    assert total_sw(form).degree_part(1) == ta + tb
    assert total_sw(form).degree_part(2) == ta * tb + s * (ta + tb)

    trivial = DiagonalForm(labels, ((0, 0),) * 5)
    assert total_sw(trivial) == one(labels)

    # <<-a, -b>> expanded: <1, a, b, ab>
    pfister = DiagonalForm(labels, ((0, 0), (0, 1), (0, 2), (0, 3)))
    assert total_sw(pfister) == one(labels) + ta * tb


def test_modified_sw_even_and_odd():
    labels = ("a1", "a2")
    form = DiagonalForm(labels, ((1, 0b01), (1, 0b10)))
    t1, t2 = var(labels, "a1"), var(labels, "a2")
    assert modified_sw(form, 0) == one(labels)
    assert modified_sw(form, 1) == t1 + t2
    assert modified_sw(form, 2) == t1 * t2
    # odd ambient: same entries plus a unit slot
    form_odd = DiagonalForm(labels, ((1, 0b01), (1, 0b10), (0, 0)))
    assert modified_sw(form_odd, 1) == t1 + t2
    assert modified_sw(form_odd, 2) == t1 * t2
    assert is_zero(modified_sw(form_odd, 3))


def test_modified_sw_parity_override():
    # the override selects the recursion branch without touching entries
    labels = ("a1",)
    form = DiagonalForm(labels, ((1, 0b1),))
    t, s = var(labels, "a1"), two(labels)
    assert modified_sw(form, 1) == t + s  # odd inferred from 1 entry
    assert modified_sw(form, 1, ambient_parity=0) == t


def test_permutation_action_simply_transitive():
    gens = [(1, 0, 3, 2), (2, 3, 0, 1)]
    form = form_of_permutation_action(gens, AB)
    # one orbit of 2^2 points: <4, 4a, 4b, 4ab>
    assert form.entries == ((2, 0b00), (2, 0b01), (2, 0b10), (2, 0b11))
    assert form.labels == AB and form.dim == 4


def test_permutation_action_trivial():
    form = form_of_permutation_action([(0, 1, 2)], ("a",))
    assert form.entries == ((0, 0),) * 3  # three fixed points


def test_permutation_action_sign_flip_slot():
    # s_{e_1} inside W(B_2) -> S_4: the transposition (1,3) on {1,2,3,4}
    gens = [(2, 1, 0, 3)]
    form = form_of_permutation_action(gens, ("e1",))
    # the pair {1, 3} gives <2, 2e1>, the fixed points 2 and 4 give <1> each
    assert form.entries == ((1, 0), (1, 1), (0, 0), (0, 0))


def test_permutation_action_kernel_delta():
    # both generators act by the same transposition: kernel {00, 11},
    # so the single delta is the product coordinate ab
    gens = [(1, 0), (1, 0)]
    form = form_of_permutation_action(gens, AB)
    assert form.entries == ((1, 0b00), (1, 0b11))


def test_permutation_action_validation():
    with pytest.raises(ValueError):
        form_of_permutation_action([(1, 2, 0)], ("a",))  # 3-cycle
    with pytest.raises(ValueError):
        form_of_permutation_action([(1, 0, 2), (0, 2, 1)], AB)  # not commuting


def _exponent_walk(gens, size):
    """Reference for oracles._orbit_pfister: from each orbit's least point,
    walk all 2^k exponent vectors of the generated group and read the
    orbit and the kernel off the images (orbits x 2^k x k steps)."""
    k = len(gens)
    seen = set()
    out = []
    for base in range(size):
        if base in seen:
            continue
        images = {0: base}
        frontier = [0]
        while frontier:
            vec = frontier.pop()
            for i, g in enumerate(gens):
                nvec = vec ^ (1 << i)
                if nvec not in images:
                    images[nvec] = g[images[vec]]
                    frontier.append(nvec)
        members = tuple(sorted(set(images.values())))
        seen.update(members)
        fold = len(members).bit_length() - 1
        assert 1 << fold == len(members)
        kernel = [v for v, pt in images.items() if pt == base]
        assert len(kernel) << fold == 1 << k  # the quotient acts regularly
        deltas = tuple(_f2_kernel_basis(kernel, k))
        assert len(deltas) == fold
        assert all((d & v).bit_count() % 2 == 0 for d in deltas for v in kernel)
        a_set = tuple(i for i, g in enumerate(gens) if g[base] != base)
        out.append((members, a_set, fold, deltas))
    return out


def _random_commuting_involutions(rng):
    """Generators of translations on blocks F2^d, d < 4, with points
    shuffled, plus repeated generators and products of two."""
    dims = [rng.randrange(4) for _ in range(rng.randrange(1, 5))]
    offsets = [sum(1 << d for d in dims[:b]) for b in range(len(dims))]
    size = sum(1 << d for d in dims)
    relabel = list(range(size))
    rng.shuffle(relabel)

    def translation():
        t = [0] * size
        for off, d in zip(offsets, dims):
            shift = rng.randrange(1 << d)
            for x in range(1 << d):
                t[relabel[off + x]] = relabel[off + (x ^ shift)]
        return tuple(t)

    gens = [translation() for _ in range(rng.randrange(1, 5))]
    gens += [rng.choice(gens) for _ in range(rng.randrange(3))]
    for _ in range(rng.randrange(3)):
        a, b = rng.choice(gens), rng.choice(gens)
        gens.append(tuple(a[p] for p in b))
    rng.shuffle(gens)
    return gens, size


def test_orbit_pfister_matches_exponent_walk():
    not_regular = 0
    for seed in range(80):
        gens, size = _random_commuting_involutions(random.Random(seed))
        assert _commuting_involution_failure(gens, size) is None
        got = [
            (a_set, fold, tuple(_f2_kernel_basis(kernel, len(gens))))
            for a_set, fold, kernel in _orbit_pfister(gens, size)
        ]
        walk = _exponent_walk(gens, size)
        assert got == [(a_set, fold, deltas) for _, a_set, fold, deltas in walk], seed
        not_regular += sum(fold != len(a_set) for a_set, fold, _ in got)
        # each orbit's entries are <2^fold> times the span of its deltas
        labels = tuple(f"c{i}" for i in range(len(gens)))
        entries = form_of_permutation_action(gens, labels).entries
        assert sorted(entries) == sorted(
            (fold, mask) for _, _, fold, deltas in walk for mask in _span(deltas)
        ), seed
    # some orbits are not simply transitive under their active generators
    assert not_regular > 0


def _span(vectors):
    """The F2 span of bitmask vectors, as a set of masks."""
    span = {0}
    for v in vectors:
        span |= {x ^ v for x in span}
    return span


def test_commuting_involution_failure_names_the_first():
    swap, cycle = (1, 0, 2), (1, 2, 0)
    assert _commuting_involution_failure([swap, (0, 1, 2)], 3) is None
    assert _commuting_involution_failure([swap, cycle], 3) == (1,)
    assert _commuting_involution_failure([swap, (0, 3, 1)], 3) == (1,)
    assert _commuting_involution_failure([swap, (1, 0)], 3) == (1,)
    assert _commuting_involution_failure([swap, (0, 2, 1), cycle], 3) == (0, 1)
    assert _commuting_involution_failure([()], 0) is None


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_pfister_gram_check(n):
    assert pfister_gram_check(n)


def test_pfister_gram_cap():
    with pytest.raises(ValueError):
        pfister_gram_check(5)


def test_sw_product_shadow():
    # w_r * w_s on a generic diagonal form: Lucas binomial pattern
    for n in range(1, 6):
        labels = tuple(f"g{i}" for i in range(n))
        form = DiagonalForm(labels, tuple((0, 1 << i) for i in range(n)))
        sw = total_sw(form)
        for r in range(1, n + 1):
            for s_ in range(1, n + 1):
                prod = sw.degree_part(r) * sw.degree_part(s_)
                if comb(r + s_, r) % 2:
                    assert prod == sw.degree_part(r + s_), (n, r, s_)
                else:
                    assert is_zero(prod), (n, r, s_)


def test_linear_vs_permutation_agreement_b2():
    """Degree-1 i2 agreement: res w_1 = res v_1 on the coordinate frame."""
    sys_ = build_root_system("B", 2)
    frames = dict(standard_frames(sys_))
    linear = form_of_linear_action(sys_, frames["P_0"])
    labels = ("e1", "e2")
    assert total_sw(linear).degree_part(1) == var(labels, "e1") + var(labels, "e2")
    # S_4 images of s_{e1}, s_{e2}
    vform = form_of_permutation_action([(2, 1, 0, 3), (0, 3, 2, 1)], labels)
    assert modified_sw(vform, 1) == var(labels, "e1") + var(labels, "e2")
    assert modified_sw(vform, 2) == var(labels, "e1") * var(labels, "e2")


def test_twist_involutive_on_classes():
    labels = AB
    form = DiagonalForm(labels, ((1, 0b01), (0, 0b10)))
    tw = twist_by_two(twist_by_two(form))
    assert total_sw(tw) == total_sw(form)


def test_render_scales():
    form = DiagonalForm(AB, ((3, 0b01), (0, 0)))
    assert render_form(form) == "<2^3a, 1>"


# ---------------------------------------------------------------------------
# the rational oracle for the integer forms engine


def _rref(rows):
    basis, pivots = [], []
    width = len(rows[0]) if rows else 0
    for row in rows:
        for piv, b in zip(pivots, basis):
            if row[piv]:
                f = row[piv] / b[piv]
                row = [x - f * y for x, y in zip(row, b)]
        lead = next((i for i in range(width) if row[i]), None)
        if lead is None:
            continue
        basis.append(row)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order]


def _gram_schmidt(basis):
    ortho = []
    for v in basis:
        w = list(v)
        for u in ortho:
            uu = sum(x * x for x in u)
            uv = sum(x * y for x, y in zip(u, w))
            if uv:
                w = [x - (uv / uu) * y for x, y in zip(w, u)]
        if any(w):
            ortho.append(w)
    return ortho


def fraction_form_of_involutions(matrices, labels):
    """The character-space splitting and Gram-Schmidt of
    form_of_involutions, in Fraction arithmetic, without its checks."""
    mats = [[[Fraction(x) for x in row] for row in m] for m in matrices]
    dim = len(mats[0])
    ident = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    spaces = [(0, ident)]
    for gi, m in enumerate(mats):
        nxt = []
        for chi, basis in spaces:
            mvs = [[sum(r[j] * v[j] for j in range(dim)) for r in m] for v in basis]
            plus = _rref([[x + y for x, y in zip(v, mv)] for v, mv in zip(basis, mvs)])
            minus = _rref([[x - y for x, y in zip(v, mv)] for v, mv in zip(basis, mvs)])
            if plus:
                nxt.append((chi, plus))
            if minus:
                nxt.append((chi | (1 << gi), minus))
        spaces = nxt
    entries = []
    for chi, basis in spaces:
        for u in _gram_schmidt(basis):
            a = _square_free_two_part(sum(x * x for x in u))
            if a is None:
                raise UnsupportedEmbeddingError("odd square-free norm")
            entries.append((a, chi))
    entries.sort(key=lambda e: (e[1] == 0, e[1], e[0]))
    return DiagonalForm(tuple(labels), tuple(entries))


# every maximal frame at these; elsewhere the standard frames, and at E7
# three more and every frame with one member dropped
_ALL_FRAMES = {("B", 4), ("B", 5), ("D", 4), ("D", 6), ("F", 4), ("E", 6)}


def _oracle_frames(label, rank):
    sys_ = build_root_system(label, rank)
    if (label, rank) in _ALL_FRAMES:
        return sys_, maximal_orthogonal_frames(sys_)
    frames = [f for _, f in standard_frames(sys_)]
    if (label, rank) == ("E", 7):
        found = maximal_orthogonal_frames(sys_)
        frames += [found[0], found[len(found) // 2], found[-1]]
        # with a member dropped, the order of the Gram-Schmidt on the
        # complement decides some entries (<1, 1> and <2, 2> are isometric)
        frames += [f[:i] + f[i + 1:] for f in frames for i in range(len(f))]
    return sys_, frames


SYSTEMS = [
    (t, r) for t, lo, hi in SUPPORTED if t != "C" for r in range(lo, hi + 1)
]


@pytest.mark.parametrize("label,rank", SYSTEMS)
def test_linear_forms_match_fraction_oracle(label, rank):
    """On every frame both routes give the same form, or both raise
    UnsupportedEmbeddingError: E6 has one class of 135 maximal frames,
    and 120 of them have no 2-power diagonalization."""
    sys_, frames = _oracle_frames(label, rank)
    if (label, rank) == ("E", 6):
        # the oracle takes about 20 ms a frame here: every frame where the
        # route returns, and the first 10 where it raises
        returns = []
        for frame in frames:
            try:
                form_of_linear_action(sys_, frame)
            except UnsupportedEmbeddingError:
                continue
            returns.append(frame)
        assert (len(frames), len(returns)) == (135, 15)
        frames = returns + [f for f in frames if f not in returns][:10]
    raised = 0
    for frame in frames:
        labels = [root_label(sys_, r) for r in frame]
        matrices = [reflection_matrix(sys_, r) for r in frame]
        try:
            oracle = fraction_form_of_involutions(matrices, labels)
        except UnsupportedEmbeddingError:
            raised += 1
            with pytest.raises(UnsupportedEmbeddingError):
                form_of_linear_action(sys_, frame)
            continue
        assert form_of_linear_action(sys_, frame) == oracle, frame
    assert raised == (10 if (label, rank) == ("E", 6) else 0)


def _sw_classes(build, sys_, action, frame, labels):
    """The form's dimension, total class and <2>-twisted total class, or
    the type of the error building it raised."""
    try:
        form = build(sys_, action, frame, labels)
    except ValueError as err:
        return type(err)
    return form.dim, total_sw(form), total_sw(twist_by_two(form))


def test_point_forms_match_the_permutation_route():
    """Each point action, taken as the reflection representation it is,
    gives the permutation route's dimension, total class and
    <2>-twisted total class, or raises the same error type: at every
    standard frame of the 31 supported systems and at up to 40 sampled
    maximal frames of each.  The natural action of A_n on the n + 1
    axes of R^(n+1) is the "linear" one there."""
    rng = random.Random(7)
    outcomes = set()
    for label, lo, hi in SUPPORTED:
        for rank in range(lo, hi + 1):
            sys_ = build_root_system(label, rank)
            found = maximal_orthogonal_frames(sys_)
            frames = [frame for _, frame in standard_frames(sys_)]
            frames += rng.sample(found, min(40, len(found)))
            for frame in frames:
                labels = tuple(root_label(sys_, r) for r in frame)
                for action in ("natural", "pairs", "triality", "signed"):
                    if action == "natural" and label != "A":
                        continue
                    ours = "linear" if action == "natural" else action
                    got = _sw_classes(_frame_form, sys_, ours, frame, labels)
                    want = _sw_classes(
                        permutation_frame_form, sys_, action, frame, labels
                    )
                    assert got == want, (label, rank, frame, action)
                    outcomes.add(got if isinstance(got, type) else action)
    assert outcomes == {"natural", "pairs", "triality", "signed", UnsupportedEmbeddingError}
    for gone in ("spinor", "natural"):
        with pytest.raises(ValueError, match="unknown point action"):
            _frame_form(sys_, gone, frame, labels)


def test_linear_action_repeated_and_non_commuting_roots():
    """A root and its negative are one line, so one entry carries both
    bits; two roots neither parallel nor orthogonal do not commute."""
    sys_ = build_root_system("B", 4)
    frame = dict(standard_frames(sys_))["P_0"]
    r = frame[0]
    neg = sys_.index[tuple(-x for x in sys_.roots[r])]
    form = form_of_linear_action(sys_, (r, neg), "ab")
    assert render_form(form) == "<ab, 1, 1, 1>"
    assert form == form_of_involutions(
        [reflection_matrix(sys_, i) for i in (r, neg)], "ab"
    )
    again = form_of_linear_action(sys_, frame + (r,))
    assert [chi for _, chi in again.entries].count(0b10001) == 1
    assert again.dim == len(frame)
    f4 = build_root_system("F", 4)
    near = [f4.index[v] for v in ((1, 1, 1, 1), (1, 1, 1, -1))]
    with pytest.raises(ValueError, match="do not commute"):
        form_of_linear_action(f4, near, AB)


@pytest.mark.parametrize("label,rank", [("B", 4), ("E", 8)])
def test_empty_frame_fixes_the_ambient_space(label, rank):
    """With no frame roots the trivial group acts on all of R^N, so the
    form has one (0, 0) entry per ambient coordinate, through the
    package route and through the matrix oracle given the dimension."""
    sys_ = build_root_system(label, rank)
    form = form_of_linear_action(sys_, ())
    assert form == DiagonalForm(labels=(), entries=((0, 0),) * len(sys_.roots[0]))
    assert form.dim == {"B": 4, "E": 8}[label]
    assert form == form_of_involutions([], (), form.dim)
    with pytest.raises(ValueError, match="dimension must be given"):
        form_of_involutions([], ())


def _parallel(v, w):
    """v and w are nonzero multiples of each other."""
    p = next((i for i, x in enumerate(v) if x), None)
    return (
        p is not None and w[p] != 0
        and all(x * w[p] == y * v[p] for x, y in zip(v, w))
    )


def test_integer_elimination_matches_fraction_oracle():
    """Every vector of the fraction-free Gram-Schmidt is a nonzero
    multiple of the rational oracle's, and a vector in the span of the
    ones before it is dropped by both.  Root-system frames reach the
    update only in the complement of their lines, so random rows,
    dependent ones among them, exercise it here."""
    rng = random.Random(5)
    for _ in range(200):
        width = rng.randint(2, 6)
        rows = [[rng.randint(-3, 3) for _ in range(width)]
                for _ in range(rng.randint(1, width + 1))]
        rows = [row for row in rows if any(row)]
        got = _orthogonalize(rows)
        want = _gram_schmidt([[Fraction(x) for x in row] for row in rows])
        assert len(got) == len(want)
        assert all(map(_parallel, got, want)), rows


def test_explicit_matrices_match_fraction_oracle():
    sys_ = build_root_system("F", 4)
    short = [
        reflection_matrix(sys_, sys_.index[r])
        for r in ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))
    ]
    cases = [([SWAP, NEG_SWAP], AB), ([SWAP], ("a",)), ([SWAP, SWAP], AB),
             (short, "abcd")]
    for mats, labels in cases:
        assert form_of_involutions(mats, labels) == fraction_form_of_involutions(
            mats, labels
        )
    third = [[(1 if i == j else 0) - Fraction(2, 3) for j in range(3)] for i in range(3)]
    for engine in (form_of_involutions, fraction_form_of_involutions):
        with pytest.raises(UnsupportedEmbeddingError):
            engine([third], ("a",))
