"""Reference routes kept from earlier versions of the package, for tests.

Each is the generic or roundabout form of something `weylinv` now does
directly, and the tests check the direct form against it:

  * CoordinateMap / substitute - an F2-linear map on degree-one symbols,
    rows of any weight with optional {2} offsets; weylinv.algebra.relabel
    is its single-bit-row case.
  * XIndex / x_basis / lambda_indices / lambda_sum - the B_n restriction
    basis indexed by set tuples (A, B, C, E); weylinv.basis.lambda_sum
    enumerates masks and reads their counts through BnContext.shape.
  * orbit_sums / orbit_sum_bound - the A/D dimension bound as the
    number of orbit sums of the recorded normalizer families on the
    degree-d frame monomials; weylinv.basis.upper_bound_dim counts
    the orbit signatures in closed form.
  * b_nodes / b_linked_bound / b_orbit_nodes - the B_n bound as the
    number of classes of (L, k, ell) orbit nodes linked across frames,
    the nodes listed directly and read off orbit sums at every frame;
    weylinv.basis.upper_bound_dim gives min(d, n - d) + 1.
  * normalizer_action_full - the action of the frame's whole
    stabiliser in W on its positions, from Schreier generators of a
    search over the frame's W-orbit; weylinv.basis.normalizer_families
    records a few elements by hand.
  * read_cache / write_cache - a coset cache file's header line as a
    JSON document; weylinv.cosets reads and writes it on its own.
  * reflector / reflect_key / dense_orbit / coset_vectors - each
    coset's doubled-coordinate key, reflected densely and numbered in BFS
    order from the package's start vector; weylinv.cosets walks packed
    Dynkin labels and keeps no keys.
  * record_label_bfs / coset_action_tables / frame_tables /
    table_certificate - the table route to a fold certificate: the coset
    BFS recording its edges as one action table per simple reflection,
    each frame reflection's table composed from them, and the active
    sets found by _orbit_pfister, the permutation route's kernel, after
    its commuting-involution check; weylinv.cosets reads the active sets
    off the frame pairings of the coset keys.
  * form_of_permutation_action / _orbit_pfister /
    _commuting_involution_failure / _f2_kernel_basis / _POINT_PERMS /
    permutation_frame_form - the permutation route: a point action's
    frame form orbit by orbit, each orbit a scaled Pfister form read off
    the points' permutation tables; weylinv.basis._frame_form takes each
    point action for the reflection representation it is and hands its
    vectors to weylinv.forms._form_of_lines.
  * reflect - a root's reflection in another computed from the real
    inner product in Fraction; weylinv.roots builds reflection tables
    from integer dot products of doubled coordinates.
  * reflection_matrix / form_of_involutions - a reflection as its
    Fraction matrix, and the diagonal form of commuting reflections
    given as rational matrices, each root read off its matrix;
    weylinv.forms reads the frame's lines off the roots directly.
  * GeneratedGroup / enumerate_subgroup - a subgroup listed element by
    element from permutation generators, each element the bytes of its
    images; weylinv.groups.group_order multiplies the orbit sizes of a
    chain of root orbits and lists no element.
  * make_frame - a frame canonicalized from any root indices, with its
    orthogonality and maximality checked one dot product per pair;
    weylinv.groups.omega_classes keys the standard frames by their
    line positions directly, and the tests check those frames once.
  * unreduced_invariant_vector / cauchy_schwarz_label_width - the coset
    BFS's start as the accepted root-lattice vector itself, and a label
    field wide enough by Cauchy-Schwarz; weylinv.cosets divides the
    start down to a primitive vector and takes the exact largest label.

Others check a claim of the paper, or a table the package builds, by a
route no command takes:

  * parse_terms - an invariant from its rendered text, for fixtures;
    the inverse of KInvariant.render.
  * dot - the dot product of two roots' doubled coordinates, which
    every oracle that needs a pair's inner product reads.
  * validate_root_permutation - a sign-equivariant isometry test from
    the inner products of the simple roots, an independent check of the
    tables that weylinv.roots.RootSystem._validate proves.
  * maximal_orthogonal_frames / _maximal_cliques / clique_seeded_orbits
    - every maximal frame, as a maximal clique of the orthogonality
    graph on root lines (Bron-Kerbosch with Tomita's pivot), and the
    W-orbits searched from that whole listing; weylinv.groups.omega_classes
    searches the orbits of the standard frames only.
  * frame_class - a frame's Omega class, by searching the frame's
    W-orbit for a representative; weylinv.groups.omega_classes
    partitions all maximal frames at once.
  * modified_sw / pfister_gram_check - the modified Stiefel-Whitney
    class of one degree, and the Gram identities of the 2^n-point
    Pfister embedding checked symbolically for n <= 4.
  * p_orbits / compare_support - the frame orbits on the cosets by a
    plain orbit search over the frame tables, and the E7/E8 fold
    supports, each multiplied out from an active set's symbols, compared
    with the expected monomials; weylinv.cosets.f_restriction reads each
    symbol as one monomial.
  * f4_hat / verify_identity - the hat-corrected F4 classes wh_d, and
    the equality of two invariants at every standard frame.

The last few are readers and builders that only tests call, kept out of
the package: is_zero, var (one coordinate's degree-one symbol),
kinv_json (an invariant's terms as plain data) and render_form (a
diagonal form as text).
"""
from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import inf, isqrt, lcm
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from weylinv.algebra import (
    BnContext,
    KInvariant,
    Monomial,
    _f2_eliminate,
    _moved,
    coordinate_mask,
    one,
    two,
    x_monomial,
    zero,
)
from weylinv.basis import (
    CheckResult,
    Correction,
    NamedInvariant,
    _check,
    _restrict,
    _root_coords,
    generators_for,
    normalizer_families,
)
from weylinv import cosets
from weylinv.errors import (
    CapExceededError,
    CertificateError,
    ContextMismatchError,
    CosetValidationError,
    UnsupportedEmbeddingError,
)
from weylinv.forms import (
    DiagonalForm,
    _form_of_lines,
    _modified_from_twisted,
    total_sw,
    twist_by_two,
)
from weylinv.groups import DEFAULT_ELEMENT_CAP, _compose, root_label, standard_frames
from weylinv._records import record_eq, record_ne
from weylinv.roots import RootSystem, _bfs_orbits, build_root_system

_ONE = 0


# ---------------------------------------------------------------------------
# test-side readers and builders


def is_zero(inv: KInvariant) -> bool:
    return not inv.terms


def var(labels: Sequence[str], name: str) -> KInvariant:
    """The degree-1 symbol of one coordinate, looked up by label."""
    return x_monomial(labels, [name])


def kinv_json(inv: KInvariant) -> list[dict]:
    """The terms in sorted_terms order, each as its coordinate names and
    its {2} flag."""
    return [{"vars": inv._names(m), "two": bool(m & 1)} for m in inv.sorted_terms()]


def render_form(form: DiagonalForm) -> str:
    """<2^a * coordinates, ...>, an entry with neither written 1."""
    parts = []
    for a, mask in form.entries:
        prefix = "" if a == 0 else "2" if a == 1 else f"2^{a}"
        names = "".join(name for i, name in enumerate(form.labels) if (mask >> i) & 1)
        parts.append(prefix + names or "1")
    return "<" + ", ".join(parts) + ">"


# ---------------------------------------------------------------------------
# generic substitution


@dataclass(frozen=True)
class CoordinateMap:
    """F2-linear map on degree-1 symbols, with optional {2} offsets.

    rows[i] is the image of the source coordinate t_i: a sum of degree-one
    generators of the target, written in the monomial layout (bit j + 1
    adds t_j, bit 0 adds {2}).  {2} maps to itself, so the image of
    generator bit b of a source monomial is ((1,) + rows)[b].
    """

    source_labels: tuple[str, ...]
    target_labels: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.source_labels):
            raise ValueError("one row per source coordinate required")
        limit = 2 << len(self.target_labels)
        for row in self.rows:
            if not 0 <= row < limit:
                raise ValueError("row references a coordinate outside the target")

    @staticmethod
    def identity(labels: Sequence[str]) -> "CoordinateMap":
        labels = tuple(labels)
        return CoordinateMap(
            labels, labels, tuple(Monomial(1 << i) for i in range(len(labels)))
        )

    @staticmethod
    def from_permutation(
        labels: Sequence[str], position_images: Sequence[int]
    ) -> "CoordinateMap":
        """Relabeling map t_p -> t_{position_images[p]} (same label set)."""
        labels = tuple(labels)
        return CoordinateMap(
            labels,
            labels,
            tuple(Monomial(1 << position_images[p]) for p in range(len(labels))),
        )

    def apply(self, inv: KInvariant) -> KInvariant:
        if inv.labels != self.source_labels:
            raise ContextMismatchError(
                f"invariant context {inv.labels} does not match map source"
            )
        images = (1,) + self.rows
        acc: set[int] = set()
        for m in inv.terms:
            expanded = {_ONE}
            v = m
            while v:
                i = (v & -v).bit_length() - 1
                v &= v - 1
                image = images[i]
                nxt: set[int] = set()
                for cur in expanded:
                    t = image
                    while t:
                        g = t & -t
                        t ^= g
                        if not cur & g:
                            nxt ^= {cur | g}
                expanded = nxt
            acc ^= expanded
        return KInvariant(self.target_labels, frozenset(acc))


def substitute(inv: KInvariant, cmap: CoordinateMap) -> KInvariant:
    return cmap.apply(inv)


def parse_terms(labels: Sequence[str], text: str) -> KInvariant:
    """Inverse of render for test fixtures: "{2}{a1}{b2} + {e3}" etc."""
    labels = tuple(labels)
    result = zero(labels)
    for part in text.split("+"):
        part = part.strip()
        if part == "0":
            continue
        if part == "1":
            result = result + one(labels)
            continue
        names = [p for p in part.replace("}", "").split("{") if p]
        term = x_monomial(labels, [p for p in names if p != "2"])
        result = result + (two(labels) * term if "2" in names else term)
    return result


# ---------------------------------------------------------------------------
# the B_n index bookkeeping by set tuples


@dataclass(frozen=True)
class XIndex:
    """Index tuple (A, B, C, E) of the reindexed restriction basis.

    A, B, C are pairwise disjoint subsets of the pair slots [1; L]; E is
    a subset of the tail slots [2L+1; n].  The monomial it names has
    degree |A| + |B| + 2|C| + |E|.
    """

    A: frozenset[int]
    B: frozenset[int]
    C: frozenset[int]
    E: frozenset[int]

    @property
    def degree(self) -> int:
        return len(self.A) + len(self.B) + 2 * len(self.C) + len(self.E)

    def validate(self, L: int, n: int) -> None:
        if (self.A & self.B) or (self.A & self.C) or (self.B & self.C):
            raise ValueError("A, B, C must be pairwise disjoint")
        pairs = set(range(1, L + 1))
        if not (self.A <= pairs and self.B <= pairs and self.C <= pairs):
            raise ValueError(f"pair indices must lie in [1; {L}]")
        tail = set(range(2 * L + 1, n + 1))
        if not self.E <= tail:
            raise ValueError(f"tail indices must lie in [{2 * L + 1}; {n}]")


def _a_pos(i: int) -> int:
    return 2 * (i - 1)


def _b_pos(i: int) -> int:
    return 2 * (i - 1) + 1


def _e_pos(j: int) -> int:
    return j - 1


def x_basis(idx: XIndex, ctx: BnContext) -> KInvariant:
    """The monomial x_{A,B,C,E} in the context's coordinates."""
    idx.validate(ctx.L, ctx.n)
    mask = 0
    for a in idx.A:
        mask |= 1 << _a_pos(a)
    for b in idx.B:
        mask |= 1 << _b_pos(b)
    for c in idx.C:
        mask |= (1 << _a_pos(c)) | (1 << _b_pos(c))
    for e in idx.E:
        mask |= 1 << _e_pos(e)
    return KInvariant(ctx.labels, frozenset((Monomial(mask),)))


@lru_cache(maxsize=None)
def lambda_indices(L: int, n: int, d: int) -> tuple[XIndex, ...]:
    """All of Lambda^d_L, deterministically ordered (memoized for tests
    that filter one index set many ways)."""
    pairs = list(range(1, L + 1))
    tail = list(range(2 * L + 1, n + 1))
    out = []
    # assign each pair slot one of: unused, A, B, C
    for assignment in _assignments(pairs):
        A, B, C = assignment
        base = len(A) + len(B) + 2 * len(C)
        if base > d:
            continue
        for E in combinations(tail, d - base):
            out.append(
                XIndex(frozenset(A), frozenset(B), frozenset(C), frozenset(E))
            )
    out.sort(key=lambda i: (sorted(i.A), sorted(i.B), sorted(i.C), sorted(i.E)))
    return tuple(out)


def _assignments(pairs: list[int]):
    if not pairs:
        yield ([], [], [])
        return
    head, rest = pairs[0], pairs[1:]
    for A, B, C in _assignments(rest):
        yield (A, B, C)
        yield ([head] + A, B, C)
        yield (A, [head] + B, C)
        yield (A, B, [head] + C)


def lambda_sum(L: int, n: int, d: int, predicate=None) -> KInvariant:
    """Sum of x_{A,B,C,E} over the degree-d index tuples the predicate
    accepts; the predicate reads the sets of an XIndex."""
    ctx = BnContext(L, n)
    acc = zero(ctx.labels)
    for idx in lambda_indices(L, n, d):
        if predicate is None or predicate(idx):
            acc = acc + x_basis(idx, ctx)
    return acc


# ---------------------------------------------------------------------------
# dimension bounds by orbit sums


def orbit_sums(
    monomials: Iterable[int],
    position_perms: Sequence[Sequence[int]],
    labels: Sequence[str],
) -> list[KInvariant]:
    """One invariant per orbit of the coordinate action on a monomial set.

    The permutations must map the given monomial set to itself (checked);
    the orbit sums then span the subspace of invariant combinations
    supported on that set.
    """
    labels = tuple(labels)
    pool = set(monomials)
    for m in pool:
        for perm in position_perms:
            if _moved(m, perm) not in pool:
                raise ValueError(
                    "the permutations do not preserve the monomial set"
                )
    # by degree, then coordinates, then {2}: orbit leaders in a fixed order
    orbits = _bfs_orbits(
        sorted(pool, key=lambda m: (m.bit_count(), m)),
        lambda m: [_moved(m, perm) for perm in position_perms],
    )
    return [KInvariant(labels, frozenset(orbit)) for orbit in orbits]


def _subset_monomials(k: int, d: int) -> list[int]:
    return [
        Monomial(sum(1 << p for p in subset))
        for subset in combinations(range(k), d)
    ]


def orbit_count(labels: Sequence[str], perms: Sequence[Sequence[int]], d: int) -> int:
    """The number of orbit sums of the degree-d monomials in labels."""
    if d == 0:
        return 1
    if d > len(labels):
        return 0
    return len(orbit_sums(_subset_monomials(len(labels), d), perms, labels))


def orbit_sum_bound(type_label: str, rank: int, degree: int) -> int:
    """The A/D bound as the orbit sums of the recorded normalizer
    families on the degree-d monomials at the standard frame."""
    if degree == 0:
        return 1
    sys_ = build_root_system(type_label, rank)
    _, roots = standard_frames(sys_)[0]
    perms = [p for _, p in normalizer_families(sys_, roots)]
    labels = tuple(root_label(sys_, r) for r in roots)
    return orbit_count(labels, perms, degree)


def b_nodes(n: int, d: int) -> list[tuple[int, int, int]]:
    """One node (L, k, ell) per normalizer orbit of the degree-d monomials
    at frame X_L of B_n: k full pairs, ell tail entries and d - 2k - ell
    lone entries among the other L - k pairs.  The pair swaps, pair flips
    and tail swaps move any monomial of a signature to any other."""
    return [
        (L, k, ell)
        for L in range(n // 2 + 1)
        for k in range(L + 1)
        for ell in range(n - 2 * L + 1)
        if 0 <= d - 2 * k - ell <= L - k
    ]


def b_linked_bound(n: int, d: int) -> int:
    """The B_n bound as the number of classes of b_nodes under the
    cross-frame links."""
    nodes = b_nodes(n, d)
    present = set(nodes)
    by_sig: dict = {}
    for node in nodes:
        by_sig.setdefault(node[1:], []).append(node)

    def linked(node):
        # the same signature restricts identically from every frame that
        # carries it: the shared subgroup comparison pins the multiplier;
        # the two-slot product subgroup trades a tail doubleton against a
        # full pair one frame up, merging (k, ell) with (k+1, ell-2);
        # linked both ways, as the orbit search follows links forward
        L, k, ell = node
        up, down = (L + 1, k + 1, ell - 2), (L - 1, k - 1, ell + 2)
        return by_sig[(k, ell)] + [x for x in (up, down) if x in present]

    return len(_bfs_orbits(nodes, linked))


def _monomial_signature(mask: int, ctx: BnContext) -> tuple[int, int]:
    k = sum(
        1
        for i in range(1, ctx.L + 1)
        if (mask >> _a_pos(i)) & 1 and (mask >> _b_pos(i)) & 1
    )
    ell = sum(1 for j in range(2 * ctx.L + 1, ctx.n + 1) if (mask >> _e_pos(j)) & 1)
    return k, ell


def b_orbit_nodes(n: int, d: int) -> list[tuple[int, int, int]]:
    """(L, k, ell) of each normalizer orbit sum of degree-d monomials at
    every standard frame X_L of B_n, read off its least monomial.

    Raises AssertionError when two orbits at one frame share a signature:
    the direct node list counts each signature once, so it is right only
    when the signature names the orbit.
    """
    sys_ = build_root_system("B", n)
    monomials = _subset_monomials(n, d)
    nodes = []
    for frame_name, roots in standard_frames(sys_):
        ctx = BnContext(int(frame_name.split("_")[1]), n)
        perms = [p for _, p in normalizer_families(sys_, roots)]
        for s in orbit_sums(monomials, perms, ctx.labels):
            mask = coordinate_mask(min(s.terms))
            node = (ctx.L,) + _monomial_signature(mask, ctx)
            if node in nodes:
                raise AssertionError("duplicate orbit signature; family bug")
            nodes.append(node)
    return nodes


def normalizer_action_full(sys_, frame) -> list[tuple[int, ...]]:
    """Generators of the action of N_W(P) on the positions of frame, in
    the convention of normalizer_action (position p goes to the position
    holding the line of g(root_p)).

    A search over the frame's W-orbit, each frame a set of lines, under
    the simple reflections: w_F carries frame to F, stored as the roots
    w_F(root_p), and each edge F -> s(F) = F' gives the Schreier
    generator w_F'^-1 s w_F, which fixes the frame.  By Schreier's lemma
    they generate the stabiliser of the frame's line set in W.
    """
    roots = tuple(frame)
    line_of = sys_.line_of
    simple = [sys_.reflection_images(s) for s in sys_.simple_indices]
    start = frozenset(line_of[r] for r in roots)
    images = {start: roots}
    queue = [start]
    gens = set()
    for lines in queue:
        w = images[lines]
        for table in simple:
            moved = tuple(table[r] for r in w)
            target = frozenset(line_of[r] for r in moved)
            if target not in images:
                images[target] = moved
                queue.append(target)
                continue
            position = {line_of[r]: p for p, r in enumerate(images[target])}
            gens.add(tuple(position[line_of[r]] for r in moved))
    return sorted(gens)


# ---------------------------------------------------------------------------
# coset cache files


def read_cache(path) -> dict:
    """The cache file at path, its header line, as one document; the
    file must hold nothing after that line."""
    with open(path, "rb") as fh:
        doc = json.loads(fh.readline())
        assert fh.read() == b"", "bytes past the header line"
    return doc


def write_cache(path, doc: dict, **dumps) -> None:
    """Write a document shaped like read_cache's in the cache layout.

    dumps go to json.dumps for the header line; by default it is compact
    with sorted keys, as the package writes it.
    """
    dumps = {"sort_keys": True, "separators": (",", ":"), **dumps}
    with open(path, "wb") as fh:
        fh.write(json.dumps(doc, **dumps).encode() + b"\n")


# ---------------------------------------------------------------------------
# subgroup enumeration


class GeneratedGroup(NamedTuple):
    """A subgroup given by generators, enumerated by enumerate_subgroup.

    elements[k] is the k-th element found, as the bytes of its image
    sequence (elements[k][r] is the image of point r), identity first;
    with points, the bytes of the images of those points only.  The
    repr leaves the elements out.
    """

    elements: tuple[bytes, ...]
    order: int

    __eq__, __ne__, __hash__ = record_eq, record_ne, tuple.__hash__

    def __repr__(self) -> str:
        return f"GeneratedGroup(order={self.order!r})"


def enumerate_subgroup(
    gens: Sequence[Sequence[int]],
    element_cap: int = DEFAULT_ELEMENT_CAP,
    points: Optional[Sequence[int]] = None,
) -> GeneratedGroup:
    """Breadth-first closure of the generated subgroup.

    Each generator becomes a 256-byte bytes.translate table and each
    element the bytes of its images, so a product is one translate
    call; the degree is therefore at most 256.  Deterministic: elements
    appear in discovery order (identity first, frontier processed FIFO,
    generators applied in the given order).  Raises CapExceededError
    beyond element_cap.

    With points given, an element is recorded by the images of points
    only (elements[k][i] is the image of points[i]): the BFS enumerates
    the orbit of that tuple, of the group's order exactly when those
    images determine the element.
    """
    if not gens:
        raise ValueError("need at least one generator")
    if element_cap <= 0:
        raise ValueError("element_cap must be positive")
    degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValueError("generator degrees differ")
    if degree > 256:
        raise ValueError(f"degree {degree} exceeds 256, the bytes-image limit")
    tables = [bytes(g).ljust(256, b"\0") for g in gens]
    if points is not None and not all(0 <= i < degree for i in points):
        raise ValueError(f"points must be indices below the degree {degree}")
    identity = bytes(range(degree) if points is None else points)
    seen = {identity}
    ordered = [identity]
    # ordered is also the FIFO queue: the loop reaches appended elements
    for p in ordered:
        for t in tables:
            # q = p followed by the generator: q[r] = t[p[r]]
            q = p.translate(t)
            if q not in seen:
                if len(seen) >= element_cap:
                    raise CapExceededError(
                        f"subgroup exceeds element cap {element_cap}",
                        element_cap,
                    )
                seen.add(q)
                ordered.append(q)
    return GeneratedGroup(elements=tuple(ordered), order=len(ordered))


# ---------------------------------------------------------------------------
# roots


def reflect(v, w):
    """s_v(w) = w - (2(v, w)/(v, v)) v for roots given as doubled
    coordinate tuples.  (v, w) is the real inner product, the dot
    product of the doubled tuples over 4, evaluated in Fraction; raises
    ValueError when the image leaves the doubled-integer lattice."""
    vv = Fraction(sum(map(mul, v, v)), 4)
    coeff = 2 * Fraction(sum(map(mul, v, w)), 4) / vv
    image = [b - coeff * a for a, b in zip(v, w)]
    if any(x.denominator != 1 for x in image):
        raise ValueError("reflection left the doubled-integer lattice")
    return tuple(int(x) for x in image)


def dot(sys_, i: int, j: int) -> int:
    """The dot product of the doubled coordinates of roots i and j, an
    integer equal to 4 (roots[i], roots[j])."""
    return sum(map(mul, sys_.roots[i], sys_.roots[j]))


# ---------------------------------------------------------------------------
# groups


def validate_root_permutation(sys_, images: Sequence[int]) -> None:
    """Raise ValueError unless images defines a sign-equivariant isometry.

    Inner products are checked only between the simple roots b and all
    roots j: dot(b, j) == dot(pi b, pi j).  That suffices.  Taking j
    simple shows that the images pi b have the simple roots' Gram
    matrix, which is nondegenerate, so they form a basis of the roots'
    span and b -> pi b extends to a linear isometry T of it.  Each pi j
    is then fixed by its inner products with that basis, which equal
    those of T j, so pi j = T j: pi is the restriction of the isometry T
    and preserves every pairwise inner product.  The cost is
    O(rank x roots) instead of O(roots^2).
    """
    n = len(sys_.roots)
    if len(images) != n or sorted(images) != list(range(n)):
        raise ValueError("images is not a bijection of root indices")
    neg = sys_.negation
    for i in range(n):
        if images[neg[i]] != neg[images[i]]:
            raise ValueError(f"not sign-equivariant at root {i}")
    for b in sys_.simple_indices:
        for j in range(n):
            if dot(sys_, b, j) != dot(sys_, images[b], images[j]):
                raise ValueError(
                    f"inner product not preserved on roots ({b}, {j})"
                )


def make_frame(
    sys_: RootSystem, roots: Iterable[int], require_maximal: bool = True
) -> tuple[int, ...]:
    """Canonicalize and validate a frame given by arbitrary root indices:
    the sorted sign-canonical representatives of its lines.

    Both checks read one dot product per pair: a line extends the frame
    exactly when it is orthogonal to every member.
    """
    canon = sorted({sys_.canonical_rep[i] for i in roots})
    for a in range(len(canon)):
        for b in range(a + 1, len(canon)):
            if dot(sys_, canon[a], canon[b]) != 0:
                raise ValueError(
                    f"roots {canon[a]} and {canon[b]} are not orthogonal"
                )
    if require_maximal:
        members = set(canon)
        for line in sys_.lines:
            if line not in members and all(dot(sys_, m, line) == 0 for m in canon):
                raise ValueError(
                    f"frame not maximal: root {line} is orthogonal to all members"
                )
    return tuple(canon)


def frame_class(sys_, omega, frame) -> int:
    """The index of the omega_classes pair whose representative lies in
    frame's W-orbit: a search over the orbit, frames as make_frame
    tuples, under the simple reflections, until it meets a
    representative."""
    reps = {rep: i for i, (rep, _) in enumerate(omega)}
    canonical = sys_.canonical_rep
    simple = [sys_.reflection_images(s) for s in sys_.simple_indices]
    queue = [tuple(frame)]
    seen = set(queue)
    for key in queue:
        if key in reps:
            return reps[key]
        for table in simple:
            image = tuple(sorted(canonical[table[r]] for r in key))
            if image not in seen:
                seen.add(image)
                queue.append(image)
    raise ValueError("no representative lies in the frame's orbit")


def maximal_orthogonal_frames(
    sys_, cap: Optional[int] = None
) -> list[tuple[int, ...]]:
    """All maximal cliques of the orthogonality graph on root lines.

    Output sorted by the root-index tuple, so the listing is
    deterministic.  With cap set, raises CapExceededError as soon as
    the search finds a (cap + 1)-th frame.
    """
    lines = sys_.lines
    nlines = len(lines)
    adj = []
    for a in range(nlines):
        mask = 0
        for b in range(nlines):
            if b != a and dot(sys_, lines[a], lines[b]) == 0:
                mask |= 1 << b
        adj.append(mask)
    frames = []
    for mask in _maximal_cliques(adj, cap):
        members = []
        while mask:
            low = mask & -mask
            members.append(lines[low.bit_length() - 1])
            mask ^= low
        frames.append(tuple(members))
    frames.sort()
    return frames


def _maximal_cliques(adj: Sequence[int], cap: Optional[int] = None) -> list[int]:
    """Maximal cliques of the graph with neighbour bitmasks adj, as
    bitmasks, by Bron-Kerbosch with Tomita's pivot.

    The pivot is a vertex of P | X with the most neighbours in P; no
    vertex of P has more than |P| - 1 (adj has no loops), so the scan
    stops at the first that has.  A vertex of X with all of P as
    neighbours extends every clique below, so none of them is maximal
    and the call returns at once.  Raises CapExceededError on finding
    a (cap + 1)-th clique.
    """
    cliques: list[int] = []
    limit = inf if cap is None else cap

    def bk(r: int, p: int, x: int) -> None:
        if not p:
            if not x:
                cliques.append(r)
                if len(cliques) > limit:
                    raise CapExceededError(f"more than {cap} maximal cliques", cap)
            return
        need = p.bit_count() - 1
        best, pivot = -1, 0
        scan = p | x
        while scan:
            low = scan & -scan
            scan ^= low
            nb = adj[low.bit_length() - 1]
            count = (p & nb).bit_count()
            if count > best:
                best, pivot = count, nb
                if count >= need:
                    if count > need:
                        return
                    break
        candidates = p & ~pivot
        while candidates:
            low = candidates & -candidates
            nb = adj[low.bit_length() - 1]
            bk(r | low, p & nb, x & nb)
            candidates ^= low
            p ^= low
            x |= low

    bk(0, (1 << len(adj)) - 1, 0)
    return cliques


def clique_seeded_orbits(sys_, frames) -> list[list[tuple[int, ...]]]:
    """The orbits of frames (make_frame tuples) under the simple
    reflections, led by the first of frames each contains and in that
    order.  Seeded with the sorted maximal_orthogonal_frames listing,
    each orbit is led by its least member."""
    canonical = sys_.canonical_rep
    simple = [sys_.reflection_images(s) for s in sys_.simple_indices]
    return _bfs_orbits(
        frames,
        lambda key: [tuple(sorted(canonical[t[r]] for r in key)) for t in simple],
    )


# ---------------------------------------------------------------------------
# forms


def reflection_matrix(sys_, root_idx: int) -> list[list[Fraction]]:
    """Exact ambient matrix of the reflection at a root."""
    d = sys_.roots[root_idx]
    dd = sum(x * x for x in d)
    n = len(d)
    return [
        [
            Fraction(int(i == j)) - Fraction(2 * d[i] * d[j], dd)
            for j in range(n)
        ]
        for i in range(n)
    ]


def form_of_involutions(
    matrices: Sequence[Sequence[Sequence]],
    labels: Sequence[str],
    dim: Optional[int] = None,
) -> DiagonalForm:
    """Diagonal form of the torsor twist for commuting reflections given
    as rational matrices on the standard inner-product space of
    dimension dim, read off the matrices when None (an empty list needs
    it given).  Each matrix M must be an orthogonal involution; its root
    is read off a nonzero column of I - M, scaled to integers, and M
    must be the reflection at it.  weylinv.forms._form_of_lines then
    takes the roots."""
    if dim is None:
        if not matrices:
            raise ValueError("no generators, so the dimension must be given")
        dim = len(matrices[0])
    roots = []
    for m in matrices:
        m = [[Fraction(x) for x in row] for row in m]
        if len(m) != dim or any(len(row) != dim for row in m):
            raise ValueError(f"generator is not a {dim} x {dim} matrix")
        ident = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
        if _mat_mul(m, m) != ident:
            raise ValueError("generator is not an involution")
        if _mat_mul([list(col) for col in zip(*m)], m) != ident:
            raise ValueError("generator is not orthogonal")
        cols = [[ident[i][j] - m[i][j] for i in range(dim)] for j in range(dim)]
        col = next((c for c in cols if any(c)), None)  # a column of I - M
        if col is None:
            raise ValueError("generator is the identity, not a reflection")
        den = lcm(*(x.denominator for x in col))
        root = [int(x * den) for x in col]
        dd = sum(x * x for x in root)
        if m != [[ident[i][j] - Fraction(2 * root[i] * root[j], dd)
                  for j in range(dim)] for i in range(dim)]:
            raise ValueError("generator is not a reflection")
        roots.append(root)
    return _form_of_lines(roots, labels, dim)


def _mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


# ---------------------------------------------------------------------------
# permutation route


def _f2_kernel_basis(vectors: list[int], width: int) -> list[int]:
    """Deterministic basis of {x : x . v = 0 for all v} in F2^width."""
    # row-reduce the constraint matrix, then solve back from each free variable
    rows = [r for r, _ in _f2_eliminate(vectors)[0]]
    pivots = [(r & -r).bit_length() - 1 for r in rows]
    free = [i for i in range(width) if i not in pivots]
    basis = []
    for f in free:
        x = 1 << f
        # solve pivot coordinates; rows are in ascending pivot order, and
        # each row may involve free vars and later pivots, so sweep from
        # the highest pivot down
        for r, p in sorted(zip(rows, pivots), key=lambda t: -t[1]):
            if (r & x).bit_count() % 2:
                x ^= 1 << p
        basis.append(x)
    return sorted(basis)


def _commuting_involution_failure(
    tables: Sequence[Sequence[int]], size: int
) -> Optional[tuple[int, ...]]:
    """None when the tables are commuting involutive permutations of
    range(size); otherwise the first failure, (i,) when table i is not an
    involutive permutation and (j, i), j < i, when tables j and i do not
    commute."""
    identity = tuple(range(size))
    for i, t in enumerate(tables):
        in_range = len(t) == size and (not t or min(t) >= 0 and max(t) < size)
        if not in_range or _compose(t, t) != identity:
            return (i,)
        for j in range(i):
            if _compose(t, tables[j]) != _compose(tables[j], t):
                return (j, i)
    return None


def _orbit_pfister(
    tables: Sequence[Sequence[int]], size: int
) -> list[tuple[tuple[int, ...], int, list[int]]]:
    """Orbits of commuting involutive permutations with their Pfister data.

    The tables must pass _commuting_involution_failure.  For each orbit,
    in order of its least point (the base), returns (a_set, fold,
    kernel): the active set, the increasing positions of the generators
    moving the base, the orbit's 2^fold = |orbit|, and k - fold vectors
    spanning the kernel of F2^k on the orbit.  When fold = |a_set| the
    orbit is certified and is its active set: the kernel's annihilator
    is spanned by 1 << i for i in a_set, so only form_of_permutation_action
    solves for it.

    The orbit is found by doubling from the base, labelling each point
    with an exponent vector that carries the base to it.  Once generators
    0..i-1 are done, the labelled points are the base's orbit under them.
    If g_i(base) is unlabelled, g_i moves that whole set off itself (were
    g_i(p) labelled, so would g_i(base) be), and its images, labelled
    with bit i added, double it.  Otherwise label(g_i(base)) + e_i fixes
    the base and is new, having bit i; the orbit did not grow, so the
    stabiliser of the base gained one dimension, and these vectors span
    it.  An abelian transitive action has one stabiliser, the kernel.
    This search labels points with group elements, so it is not
    roots._bfs_orbits.
    """
    label = [-1] * size
    out = []
    for base in range(size):
        if label[base] >= 0:
            continue
        label[base] = 0
        points, a_set, kernel = [base], [], []
        for i, t in enumerate(tables):
            img = t[base]
            if img != base:
                a_set.append(i)
            if label[img] >= 0:
                kernel.append(label[img] | 1 << i)
                continue
            images = [t[p] for p in points]
            for p, q in zip(points, images):
                label[q] = label[p] | 1 << i
            points += images
        fold = len(points).bit_length() - 1
        out.append((tuple(a_set), fold, kernel))
    return out


def form_of_permutation_action(
    gens: Sequence[Sequence[int]], labels: Sequence[str]
) -> DiagonalForm:
    """Diagonal form of a permutation embedding, orbit by orbit.

    gens[i] is the point-image tuple of the i-th frame generator.  Every
    orbit of the generated abelian 2-group has 2^f points on which the
    quotient by the kernel acts simply transitively, so it is the scaled
    Pfister form <2^f> <<-d_1, ..., -d_f>>, the d_j the kernel's
    annihilator basis (see _orbit_pfister).  Its entries are the
    products of the d_j over all subsets (signs vanish since {-1} = 0,
    and square classes multiply by XOR of coordinate masks), each scaled
    by 2^f.  A certified orbit (fold = |a_set|, as on the cosets) is its
    active set: its d_j are the t_i for i in a_set.
    """
    if len(gens) != len(labels):
        raise ValueError("one label per generator required")
    size = len(gens[0]) if gens else 0
    bad = _commuting_involution_failure(gens, size)
    if bad is not None and len(bad) == 1:
        raise ValueError(
            f"generator {bad[0]} is not an involutive permutation of range({size})"
        )
    if bad is not None:
        raise ValueError(f"generators {bad[0]} and {bad[1]} do not commute")
    entries = []
    for _, fold, kernel in _orbit_pfister(gens, size):
        deltas = _f2_kernel_basis(kernel, len(gens))
        for s in range(1 << fold):
            mask = 0
            for j, d in enumerate(deltas):
                if (s >> j) & 1:
                    mask ^= d
            entries.append((fold, mask))
    return DiagonalForm(tuple(labels), tuple(entries))


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


#: point-action builders by FormSW.action
_POINT_PERMS = {
    "signed": _signed_point_perm,
    "natural": _natural_point_perm,
    "pairs": _pair_point_perm,
    "triality": _triality_point_perm,
}


def permutation_frame_form(sys_, action, roots, labels) -> DiagonalForm:
    """The diagonal form of the frame's reflections on the points of a
    _POINT_PERMS action, orbit by orbit: the reference that
    weylinv.basis._frame_form's point actions are checked against."""
    build = _POINT_PERMS.get(action)
    if build is None:
        raise ValueError(f"unknown point action {action!r}")
    npts = len(sys_.roots[0])
    gens = [build(sys_, idx, npts) for idx in roots]
    return form_of_permutation_action(gens, labels)


def modified_sw(form: DiagonalForm, d: int, ambient_parity: int | None = None):
    """The d-th modified Stiefel-Whitney class of the form, multiplied out
    for one degree.  The parity defaults to the entry count; a form that
    sits in a larger ambient space than its entries passes the true
    parity.  weylinv.forms reads every degree off one total class."""
    parity = (form.dim if ambient_parity is None else ambient_parity) % 2
    return _modified_from_twisted(total_sw(twist_by_two(form)), d, parity)


def pfister_gram_check(n: int) -> bool:
    """Brute-force the 2^n-point embedding's Gram identities symbolically.

    Vectors v_p have entries (-1)^{|b(p) & b(l)|} prod_{i in b(p)} sqrt(e_i);
    the check confirms pairwise orthogonality and |v_p|^2 = 2^n prod e_i.
    Exponential in n, so capped at 4.
    """
    if not 0 <= n <= 4:
        raise ValueError("symbolic check is limited to n <= 4")
    size = 1 << n

    def bilinear(p: int, q: int) -> dict[tuple[int, ...], int]:
        out: dict[tuple[int, ...], int] = {}
        for ell in range(size):
            sign = (-1) ** (((p & ell).bit_count() + (q & ell).bit_count()) % 2)
            exps = tuple(
                ((p >> i) & 1) + ((q >> i) & 1) for i in range(n)
            )
            out[exps] = out.get(exps, 0) + sign
        return {k: v for k, v in out.items() if v}

    for p in range(size):
        for q in range(size):
            val = bilinear(p, q)
            if p != q:
                if val:
                    return False
            else:
                expected = {tuple(2 * ((p >> i) & 1) for i in range(n)): size}
                if val != expected:
                    return False
    return True


# ---------------------------------------------------------------------------
# coset keys


def reflector(sys_, root):
    """(nonzero (coordinate, value) pairs of the doubled root, squared
    length x 4): the reflection oracle's view of a root."""
    d = sys_.roots[root]
    return tuple((i, a) for i, a in enumerate(d) if a), sum(a * a for a in d)


def reflect_key(key, support, rr4):
    """s_r(key) in doubled coordinates, over the root's support only, for
    (support, rr4) = reflector(sys_, r); key itself when r is orthogonal
    to it."""
    q, rem = divmod(2 * sum(key[i] * a for i, a in support), rr4)
    if rem:
        raise CosetValidationError("coset key left the root lattice")
    if not q:
        return key
    out = list(key)
    for i, a in support:
        out[i] -= q * a
    return tuple(out)


def dense_orbit(sys_, start):
    """The W-orbit of start in BFS discovery order: each vector, in turn,
    reflected in the simple roots in order, each new image appended."""
    reflectors = [reflector(sys_, r) for r in sys_.simple_indices]
    keys = [start]
    seen = {start}
    for key in keys:
        for support, rr4 in reflectors:
            image = reflect_key(key, support, rr4)
            if image not in seen:
                seen.add(image)
                keys.append(image)
    return keys


def coset_start(sys_, u_gens=None):
    """The package's coset BFS start, cosets._invariant_vector, for U
    (the standard subgroup by default)."""
    if u_gens is None:
        u_gens = cosets.standard_u_gens(sys_)
    orbits, sigma_u = cosets._u_orbits(sys_, u_gens)
    return cosets._invariant_vector(sys_, orbits, {sys_.line_of[r] for r in sigma_u})


def coset_vectors(sys_, u_gens=None):
    """The coset keys of U\\W (U the standard subgroup by default) from
    the package's start vector: vector k is the key of coset k of
    coset_action_tables."""
    return dense_orbit(sys_, coset_start(sys_, u_gens))


# ---------------------------------------------------------------------------
# the table route to fold certificates


def record_label_bfs(sys_, start) -> tuple[int, array]:
    """The packed-label coset BFS of cosets._label_bfs, without frame
    fields, recording its edges: returns the orbit's size and edges,
    where edges[k * rank + i] is the id, in discovery order, of s_i
    applied to vector k."""
    simple = [sys_.roots[i] for i in sys_.simple_indices]
    labels = cosets._labels(simple, start)
    width = cosets._label_width(sys_, start)
    off, mask = 1 << (width - 1), (1 << width) - 1
    steps = [
        (width * i, sum(c << (width * j) for j, c in enumerate(cosets._labels(simple, a))))
        for i, a in enumerate(simple)
    ]
    first = sum((c + off) << (width * j) for j, c in enumerate(labels))
    keys = [first]
    ids = {first: 0}
    edges = array("i")
    for k, key in enumerate(keys):  # FIFO: the loop reaches appended keys
        for shift, row in steps:
            q = ((key >> shift) & mask) - off
            if not q:
                edges.append(k)
                continue
            img = key - q * row
            j = ids.get(img)
            if j is None:
                j = ids[img] = len(keys)
                keys.append(img)
            edges.append(j)
    return len(keys), edges


def coset_action_tables(sys_, u_gens=None) -> list[tuple[int, ...]]:
    """U\\W's action tables, the cosets numbered in the coset BFS's
    discovery order (coset 0 is U itself): table i sends coset k to
    the coset of s_i applied to k's key, that is Ug to Ugs_i.  Table i
    is the BFS edges' column i."""
    _, edges = record_label_bfs(sys_, coset_start(sys_, u_gens))
    ngen = len(sys_.simple_indices)
    return [tuple(edges[g::ngen]) for g in range(ngen)]


def frame_tables(sys_, tables, frame_roots: Sequence[int]) -> list[tuple[int, ...]]:
    """Coset action tables of the reflections in the frame roots.

    They are composed from the simple-reflection tables t_i: if
    x = s_i(y) then s_x = s_i s_y s_i, so T_x[k] = t_i[T_y[t_i[k]]].  A
    BFS over the roots from the simple roots records one such parent
    (i, y) per root; each frame root's table is its chain conjugated
    outwards from a simple reflection's table.
    """
    simple = sys_.simple_indices
    images = [sys_.reflection_images(a) for a in simple]
    parent: dict[int, tuple[int, int]] = {}
    start: dict[int, int] = {}
    for i, a in enumerate(simple):
        start[a] = start[sys_.negation[a]] = i
    frontier = list(start)
    while frontier:
        nxt = []
        for y in frontier:
            for i, img in enumerate(images):
                x = img[y]
                if x not in start and x not in parent:
                    parent[x] = (i, y)
                    nxt.append(x)
        frontier = nxt
    out = []
    for x in frame_roots:
        chain = []
        while x not in start:
            i, x = parent[x]
            chain.append(i)
        table = tables[start[x]]
        for i in reversed(chain):
            table = _compose(tables[i], _compose(table, tables[i]))
        out.append(table)
    return out


def table_certificate(sys_, tables, frame_roots: Sequence[int]):
    """The frame's sorted active sets on the cosets, from action tables.

    The frame tables must be commuting involutive permutations, so they
    generate an elementary abelian 2-group, and _orbit_pfister gives
    each orbit's active set and fold; the certificate condition is
    fold = |active set|.  Raises CertificateError naming the first
    failure.
    """
    labels = [root_label(sys_, r) for r in frame_roots]
    ftables = frame_tables(sys_, tables, frame_roots)
    size = len(tables[0])
    bad = _commuting_involution_failure(ftables, size)
    if bad is not None and len(bad) == 1:
        raise CertificateError(
            f"the reflection in {labels[bad[0]]} is not an involution on the cosets"
        )
    if bad is not None:
        raise CertificateError(
            f"the reflections in {labels[bad[0]]} and {labels[bad[1]]} do not "
            "commute on the cosets"
        )
    a_sets = []
    for oi, (a_set, fold, _) in enumerate(_orbit_pfister(ftables, size)):
        if fold != len(a_set):
            raise CertificateError(
                f"orbit {oi} (size {1 << fold}) is not simply transitive "
                f"under its {len(a_set)} active generators"
            )
        a_sets.append(a_set)
    return tuple(sorted(a_sets))


def p_orbits(sys_, frame_roots: Sequence[int], u_gens=None) -> list[tuple[int, ...]]:
    """Orbit partition of the coset numbers of coset_action_tables under
    the frame generators."""
    action = coset_action_tables(sys_, u_gens)
    tables = frame_tables(sys_, action, frame_roots)
    orbits = _bfs_orbits(range(len(action[0])), lambda p: [t[p] for t in tables])
    return [tuple(sorted(orbit)) for orbit in orbits]


def compare_support(cert, expected: KInvariant) -> bool:
    """Do the fold-m orbit products biject onto the expected monomials?

    m is the minimal fold and also the uniform degree of `expected`.
    Each fold-m orbit contributes the product of the degree-one symbols
    of its active set, multiplied out in the algebra; the comparison
    demands that these products are single monomials hitting each
    expected term exactly once.
    """
    if not cert.a_sets:
        return is_zero(expected)
    m = cert.min_fold
    products = []
    for a in cert.a_sets:
        if len(a) == m:
            term = one(cert.labels)
            for i in a:
                term = term * var(cert.labels, cert.labels[i])
            products.append(frozenset(term.terms))
    if expected.labels != cert.labels:
        raise ValueError("expected invariant uses a different context")
    targets = {frozenset((t,)) for t in expected.terms}
    if len(products) != len(expected.terms):
        return False
    return sorted(products, key=sorted) == sorted(targets, key=sorted)


# ---------------------------------------------------------------------------
# coset BFS start and label width


def unreduced_invariant_vector(sys_, orbits, domain_lines):
    """A root-lattice vector whose stabiliser in W is exactly U: the first
    weighted sum of the root sums of U's orbits (cosets._u_orbits) whose
    orthogonal roots are Sigma_U, taken as it is, without dividing out a
    common factor."""
    sums = [tuple(map(sum, zip(*(sys_.roots[r] for r in o)))) for o in orbits]
    for t in range(1, 65):
        vec = [0] * len(sums[0])
        weight = 1
        for s in sums:
            for i, d in enumerate(s):
                vec[i] += weight * d
            weight *= t
        if not any(vec):
            continue
        perp = {
            pos
            for pos in range(len(sys_.lines))
            if sum(
                a * b for a, b in zip(sys_.roots[sys_.lines[pos]], vec)
            )
            == 0
        }
        if perp == domain_lines:
            return tuple(vec)
    raise CosetValidationError("no generic invariant vector found")


def cauchy_schwarz_label_width(simple, vec) -> int:
    """Bits per packed label from c_j^2 <= 4(v, v)/(a_j, a_j), a bound
    that holds on the whole W-orbit because (v, v) is W-invariant."""
    vv = sum(map(mul, vec, vec))
    bound = max(isqrt(4 * vv // sum(map(mul, a, a))) for a in simple)
    return bound.bit_length() + 1


# ---------------------------------------------------------------------------
# identities between invariants


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


def verify_identity(
    lhs,
    rhs,
    sys_,
    cache_dir: str | None = None,
    check_id: str | None = None,
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
