"""Exact feasibility oracle for the vertex test.

A point p(S) is a vertex of the zonotope iff there is a vector c with
c.g >= 1 for every generator g in S and c.g <= -1 for every generator
outside S.  Negating the outside generators turns this into: find c with
c.a_i >= 1 for every row a_i, which (after rescaling) holds iff the rows
can be strictly separated from the origin, i.e. iff the origin is NOT in
the convex hull of the rows.

The decision is made exactly with a phase-one simplex on the small system

    sum_i lambda_i * a_i = 0,  sum_i lambda_i = 1,  lambda >= 0

using fraction-free integer pivoting (all tableau entries stay integers)
and Bland's least-index rule, so verdicts are deterministic and free of
rounding.  When the minimum is positive, the dual solution yields a
certificate c, scaled to the smallest integer vector on its ray, which is
always re-verified before being returned.  Cone columns b (with 0 in the
convexity row) may be added to the balance equations; they ask in
addition for c.b >= 0.  ``vertex_feasible`` decides every subset by its
sorted image, rejects a sorted image that is not shift-closed with no LP,
and uses cone columns to look only for nondecreasing c on the rest, which
needs far fewer rows.

Every row check runs on all 2^d - 1 rows at once, with no row loop.  For
a lane width of k bytes, lane h - 1 of a big integer stands for
generator h, and d cached column constants give the lanes of c.h for
every h as one sum sum_i c_i * col_i (``_lanes``).  Adding 2^(8k - 1) - t
to every lane sets its top bit exactly when c.h >= t, so masking the top
bits and comparing with the top bits of the members of S (``_top_bits``)
is one integer compare.  k is chosen so that no lane overflows, and every
comparison is exact.  The all-rows check ``_separates`` is two such
compares.  The simplex tableau is packed the same way, one integer per
row (``_phase_one``).

Most vertices never reach this module's oracle.  While the engine walks
a parent vertex P with certificate c_P, every child S = P + {g} that no
earlier parent has certified gets a push (``push_source`` once per
parent, then ``push``): the least-denominator point of the line
c_P + tau * g that puts every row on its side, checked on all rows, so a
push can only confirm a vertex.  Parents are tried in walk order, and the
first push that succeeds certifies the child.  ``vertex_feasible`` decides
the rest: a point push is the same search (``_search``) on the line
p(S) + tau * (1, ..., 1) through the point of S itself, its first-order
Chow parameters, and only a subset whose point push fails goes to the
simplex: 47 of the 182 oracle calls of a d = 6 run, whose walk pushes
certify 1,329 children.  Every certificate, pushed or from the simplex, is
an integer vector, so the next push starts from it as it is.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import compress
from operator import gt, mul

from . import comb, core

_MAX_PIVOTS = 100_000


class FeasibilityResult(
    core.Record,
    namedtuple("FeasibilityResult", "feasible certificate by_simplex", defaults=(None, True)),
):
    """The verdict, and when feasible an integer vector c with c.g >= 1 on S
    and <= -1 outside; ``by_simplex`` is False when no simplex ran."""

    __slots__ = ()


def feasibility(rows) -> FeasibilityResult:
    """Decide whether some c satisfies c.a >= 1 for every integer row a.

    Exact; returns an integer certificate, verified on every row, when
    feasible.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        raise ValueError("empty constraint system")
    d = len(rows[0])
    if any(len(r) != d for r in rows):
        raise ValueError("rows of mixed dimension")
    c = _phase_one(rows, d)
    if c is None:
        return FeasibilityResult(False)
    if any(sum(n * x for n, x in zip(c, r)) < 1 for r in rows):
        raise AssertionError("internal error: certificate failed exact re-verification")
    return FeasibilityResult(True, c)


def vertex_feasible(S: int, d: int) -> FeasibilityResult:
    """Vertex test for a subset mask over the full White Whale generator set.

    One path for every S.  A coordinate permutation maps vertices to
    vertices, so an S whose point p is not nondecreasing gets the verdict
    of its sorted image, and the image's certificate, its coordinates put
    back, is re-verified on S.  A sorted S that is not shift-closed is no
    vertex (``comb.shift_closed``).  A shift-closed S, if a vertex, has a
    nondecreasing certificate, so only the rows that can bind for such c
    are kept (``_binding``).  ``_point_push`` searches the line p + tau *
    (1, ..., 1) from the lower end those rows give; a certificate it
    returns has passed the all-rows check, so a push only spares the
    simplex on a vertex.  When it fails, the simplex runs on those rows
    plus the d - 1 cone columns e_{i+1} - e_i, which force c to be
    nondecreasing, and its certificate is re-verified on all 2^d - 1 rows.
    The engine sends only its sorted, shift-closed children that no parent
    push (``push``) certified.
    """
    core.check_dimension(d)
    p = core.point_of(S, d)
    if any(map(gt, p, p[1:])):
        perm = comb.sorting_permutation(p)
        r = vertex_feasible(comb.permute_subset(S, perm, d), d)
        if r.feasible:
            r = r._replace(certificate=tuple(r.certificate[perm.index(i)] for i in range(d)))
            if not _separates(r.certificate, 1, S, d):
                raise AssertionError("internal error: certificate failed exact re-verification")
        return r
    if not comb.shift_closed(S, d):
        return FeasibilityResult(False, by_simplex=False)
    rows = _binding(S, d)
    pushed = _point_push(S, p, d, rows)
    if pushed is not None:
        return FeasibilityResult(True, pushed, by_simplex=False)
    c = _phase_one(_rows(S, rows, d), d, _cone_columns(d))
    if c is None:
        return FeasibilityResult(False)
    if not _separates(c, 1, S, d):
        raise AssertionError("internal error: certificate failed exact re-verification")
    return FeasibilityResult(True, c)


def vertex_feasible_vectors(mask: int, vectors) -> FeasibilityResult:
    """Vertex test for a subset mask over an arbitrary integer generator list."""
    if not vectors:
        raise ValueError("empty generator list")
    rows = []
    for j, v in enumerate(vectors):
        if (mask >> j) & 1:
            rows.append(tuple(v))
        else:
            rows.append(tuple(-x for x in v))
    return feasibility(rows)


@lru_cache(maxsize=None)
def _generator_rows(d: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(+g, -g) as coordinate tuples for every generator id g; entry 0 unused."""
    return tuple((v, tuple(-x for x in v)) for v in core.generator_vectors(d))


@lru_cache(maxsize=None)
def _cone_columns(d: int) -> tuple[tuple[int, ...], ...]:
    """e_{i+1} - e_i for i = 0..d-2: c.b >= 0 on them makes c nondecreasing."""
    return tuple(
        tuple(-1 if j == i else 1 if j == i + 1 else 0 for j in range(d)) for i in range(d - 1)
    )


def signed_rows(S: int, d: int) -> list[tuple[int, ...]]:
    """The constraint rows of the vertex test: +g for g in S, -g outside."""
    return _rows(S, core.full_mask(d), d)


def _rows(S: int, gens: int, d: int) -> list[tuple[int, ...]]:
    """The rows of the generators in the mask gens, in id order: +g in S, -g outside."""
    table = _generator_rows(d)
    return [table[g][0 if (S >> (g - 1)) & 1 else 1] for g in core.generators_of(gens)]


def _binding(S: int, d: int) -> int:
    """The mask of the rows of a shift-closed S that can bind for a nondecreasing c.

    Let h' be h with a 1 moved to the next coordinate, so c.h <= c.h'.  A
    member h' with h in S gets c.h' >= c.h >= 1 from h's row, and a
    non-member h with h' outside S gets c.h <= c.h' <= -1 from the row of
    h'.  What is left are the shift-minimal members and the shift-maximal
    non-members.
    """
    full = core.full_mask(d)
    out = full & ~S
    implied = 0
    for A, s in comb.shift_table(d):
        implied |= ((S & A) >> s) | (out & A & (out << s))
    return full & ~implied


def verify_certificate(c, S: int, d: int) -> bool:
    """Exact check that c.g >= 1 for g in S and c.g <= -1 for g outside S.

    c may be rational (anything ``Fraction`` takes); it is checked as
    nums / den with den the least common denominator."""
    from fractions import Fraction  # imported here: the oracle itself runs on integers

    c = [Fraction(x) for x in c]
    if len(c) != d:
        raise ValueError(f"certificate has {len(c)} coordinates, expected {d}")
    den = math.lcm(*(x.denominator for x in c))
    return _separates([x.numerator * (den // x.denominator) for x in c], den, S, d)


def _separates(nums, den, S: int, d: int) -> bool:
    """c = nums / den (den > 0) has c.g >= 1 on S and c.g <= -1 outside S,
    over all 2^d - 1 generators, in integers.

    That holds exactly when S is both the set of rows with nums.g >= den
    and the set with nums.g >= 1 - den, i.e. nums.g > -den: two masked
    compares of the lanes of nums (``_lanes``), each lane shifted by
    2^(8k - 1) - t, against the top bits of S."""
    k = _lane_width(sum(map(abs, nums)) + den)
    cols, ones, top = _lanes(d, k)
    x = sum(map(mul, nums, cols)) + top
    want = _top_bits(S, d, k)
    return (x - den * ones) & top == want and (x + (den - 1) * ones) & top == want


class PushSource(namedtuple("PushSource", "certificate parent k lanes want")):
    """What every push from one integer vector c shares (see ``push_source``):
    c, a mask P, the lane width k in bytes, the lanes holding c.h in lane
    h - 1 for every generator h, and the top bit of the lane of each member
    of P."""

    __slots__ = ()


def push_source(c, P: int, d: int) -> PushSource:
    """The push source of the integer vector c and the mask P.

    c is a certificate of the parent vertex P for ``push``, or the point of
    P itself for ``_point_push``.  The lanes are k bytes wide with
    (d + 1)^2 C + d + 1 < 2^(8k - 1), C = sum|c_i|, which covers the search
    (``_search``) along every generator g from every lower-end row h with
    g.h = |h|: g = h in a push, g = (1, ..., 1) in a point push.  Every lane
    the search tests is x = b c.y + a g.y, or q c.y + p g.y - t with t 0 or
    1, for a row y, where a = -c.h, b = g.h = |h|, m = |g| >= g.y,
    1 <= q <= b + m and p = floor(q a / b) + 1.  So |c.y|, |a| <= C,
    |p| <= q C / b + 1, and |x| <= q C + (q C / b + 1) m + 1
    <= (b + m)^2 C / b + m + 1 (the first form is at most (b + m) C).
    (b + m)^2 / b is convex in b, so on 1 <= b <= m it is largest at b = 1
    or at b = m, and m <= d: it is at most (d + 1)^2 for the point push and
    4 m <= (d + 1)^2 for a push.  The lanes of c and the top bits of the
    members of P are computed once for all the pushes from c.
    """
    k = _lane_width((d + 1) ** 2 * sum(map(abs, c)) + d + 1)
    return PushSource(c, P, k, sum(map(mul, c, _lanes(d, k)[0])), _top_bits(P, d, k))


def push(src: PushSource, g: int, d: int) -> tuple[int, ...] | None:
    """An integer certificate of S = P + {g} on the line c_P + tau * g, or None.

    src = ``push_source(c_P, P, d)``, and g is not in P: the search
    (``_search``) along g from row g.  If c_P certifies P, every other
    member h of S lies in P, so c_P.h >= 1, and any tau > 0 keeps its row
    positive; the non-members meeting g bound tau from above, and the
    mediant of the two ends has a denominator of at most 2 |g|.
    """
    return _search(src, g, g, d)


def _search(src: PushSource, g: int, h: int, d: int) -> tuple[int, ...] | None:
    """An integer certificate of S = P + {h} on the line c + tau * g, or None.

    src = ``push_source(c, P, d)``, g is the direction (a generator id) and
    h the member row that bounds tau from below.  Row y asks for c.y + tau
    * g.y > 0 if y is in S and < 0 if not, and g.y >= 0, so only the rows
    with g.y > 0 move with tau.  Row h is at 0 at tau = lo = a / b, a =
    -c.h, b = g.h.  When row h is the binding lower end (no other member
    needs tau above lo), the interval (lo, hi) is non-empty exactly when
    every row has its sign at tau = lo, row h at 0 counted as positive:
    one masked compare of the lanes of b * c + a * g with the top bits of
    S, (x + 2^(8k - 1)) & top == want_P | topbit(h), with no row scan.  If
    it matches, tau = p / q runs through q = 1, 2, ... with p = floor(q *
    lo) + 1, the least p / q above lo, and the first q * c + p * g with
    every row on its side is the least-denominator rational in the
    interval, with the least numerator when q = 1.  The mediant of lo and
    the binding hi = -c.y / g.y lies in the interval, with denominator
    b + g.y <= b + |g|, so the search ends by q = b + |g| (at q = 1 if no
    non-member meets g).  That vector gets the margin check (every row at
    least 1 away from 0) and is divided by its gcd.  Every test is exact on
    all 2^d - 1 rows, so whatever c is, a returned vector certifies S.
    """
    nums, _, k, lanes_c, want = src
    cols, ones, top = _lanes(d, k)
    vectors = core.generator_vectors(d)
    v = vectors[g]
    a, b = -sum(compress(nums, vectors[h])), (g & h).bit_count()
    lanes_g = sum(compress(cols, v))
    want |= 1 << (8 * k * h - 1)
    if (b * lanes_c + a * lanes_g + top) & top != want:
        return None
    for q in range(1, b + g.bit_count() + 1):
        p = q * a // b + 1
        x = q * lanes_c + p * lanes_g + top
        if x & top == want:
            if (x - ones) & top != want:
                return None
            c = [q * n + p * s for n, s in zip(nums, v)]
            e = math.gcd(*c)
            return tuple(x // e for x in c)
    return None


def _point_push(S: int, p, d: int, rows: int) -> tuple[int, ...] | None:
    """An integer certificate of S on the line p + tau * (1, ..., 1), or None.

    p = p(S), which the caller has at hand; the line is searched
    (``_search``) from ``push_source(p, S, d)`` along the all-ones
    generator.  Row h asks for p.h + tau * |h| > 0 if h is in S and < 0 if
    not, so every member bounds tau from below by -p.h / |h|, and the
    search starts from the member in the mask ``rows`` with the least
    p.h / |h|.  All rows hold it, and so do the binding rows (``_binding``)
    of a shift-closed S: p is nondecreasing, and moving a 1 of h to an
    earlier coordinate cannot raise p.h while |h| stays, so the least
    p.h / |h| over members lies on a shift-minimal member.  The key
    p.h * (L / |h|), L = lcm(1, ..., d), orders the members by p.h / |h| in
    integers.  No parent certificate is needed.  The empty S has no member
    and gets (-1, ..., -1).
    """
    if not S:
        return (-1,) * d
    vectors = core.generator_vectors(d)
    L = math.lcm(*range(1, d + 1))
    h = min(
        core.generators_of(rows & S),
        key=lambda h: sum(compress(p, vectors[h])) * (L // h.bit_count()),
    )
    return _search(push_source(p, S, d), core.generator_count(d), h, d)


def _lane_width(bound: int) -> int:
    """The least lane width k, in bytes, with bound < 2^(8k - 1)."""
    return bound.bit_length() // 8 + 1


@lru_cache(maxsize=None)
def _lanes(d: int, k: int) -> tuple[tuple[int, ...], int, int]:
    """The column constants, the all-ones constant and the top-bit mask, in
    lanes of k bytes.

    Lane h - 1 (bits 8k(h - 1) up to 8kh) stands for generator h.  Column
    i holds coordinate i of each generator in its lane, so for an integer
    vector c, sum(map(mul, c, cols)) holds every dot product c.h at once,
    as the signed integer sum_h c.h * 2^(8k(h - 1)); ``ones`` holds 1 in
    every lane, and ``top`` = 2^(8k - 1) * ones its top bit.  A lane x_h
    with |x_h - t| < 2^(8k - 1) stays in [0, 2^(8k)) once 2^(8k - 1) - t
    is added to it, with its top bit set exactly when x_h >= t, and then
    no lane borrows from or carries into the next.
    """
    one, zero = (1).to_bytes(k, "little"), bytes(k)
    gens = range(1, 1 << d)
    cols = tuple(
        int.from_bytes(b"".join(one if (h >> i) & 1 else zero for h in gens), "little")
        for i in reversed(range(d))
    )
    ones = int.from_bytes(one * len(gens), "little")
    return cols, ones, ones << (8 * k - 1)


# b"0" -> 0, b"1" -> 0x80: a byte with only its top bit set for a member
_TOP_BYTE = bytes.maketrans(b"01", b"\x00\x80")


def _top_bits(S: int, d: int, k: int) -> int:
    """The top bit of lane h - 1 (k bytes per lane) for every generator h in S.

    The binary digits of S run from generator n = 2^d - 1 down to 1, and
    so, read big-endian, do the top bytes of the lanes, every k-th byte
    from the first."""
    n = (1 << d) - 1
    lanes = bytearray(k * n)
    lanes[::k] = f"{S:0{n}b}".encode().translate(_TOP_BYTE)
    return int.from_bytes(lanes, "big")


def _phase_one(rows, d, cone=()):
    """Fraction-free phase-one simplex deciding 0 in conv(rows) + cone(cone).

    Cone columns enter the balance equations like rows but carry 0 in the
    convexity row.  Returns None when the origin is a convex combination of
    the rows plus a nonnegative combination of the cone columns (system
    infeasible), else an integer c with c.a >= 1 on the rows and c.b >= 0
    on the cone columns.

    Each tableau row is one integer of W-bit lanes, column j in lane j:
    the row sum_j t_j 2^(W j) with signed t_j.  Every entry of a
    fraction-free Gauss-Jordan tableau is a minor of the first tableau
    (Edmonds 1967), and Hadamard's inequality bounds every minor by the
    product of the row norms, each at least 1, so W is one bit more than
    that product needs and no lane overflows.  A pivot on (r, s) replaces
    every other row R_i by (R_i * piv - f * R_r) // den, f = t_is: each
    lane of R_i * piv - f * R_r is divisible by den, so the division is
    exact lane by lane, and the quotient is again a row of lanes in range.
    The lanes are read after adding 2^(W - 1) to each, which keeps every
    lane nonnegative: Bland's entering column is the lowest set bit of the
    mask of the positive lanes of the objective row, and the ratio test
    reads the lanes of the entering and right-hand-side columns of each
    row.  The pivots, the basis and the certificate are those of the same
    simplex on lists of entries.
    """
    cols = list(rows) + list(cone)
    n = len(cols)
    n_rows = d + 1          # d balance equations plus the convexity row
    n_cols = n + n_rows + 1  # lambdas, artificials, right-hand side
    rhs = n_cols - 1
    art0 = n

    tab = []
    for i in range(d):
        row = [col[i] for col in cols] + [0] * (n_rows + 1)
        row[art0 + i] = 1
        tab.append(row)
    conv = [1] * len(rows) + [0] * (len(cone) + n_rows + 1)
    conv[art0 + d] = 1
    conv[rhs] = 1
    tab.append(conv)
    # Reduced costs of min(sum of artificials) with the artificial basis.
    obj = [sum(r) + 1 for r in rows] + [sum(b) for b in cone] + [0] * n_rows + [1]
    tab.append(obj)

    # every row has a nonzero entry, so each ceil(norm) is at least 1
    bound = math.prod(math.isqrt(sum(map(mul, row, row)) - 1) + 1 for row in tab)
    W = bound.bit_length() + 1
    half, lane = 1 << (W - 1), (1 << W) - 1
    units = [1 << s for s in range(0, W * n_cols, W)]
    tab = [sum(map(mul, row, units)) for row in tab]
    ones = ((1 << (W * n_cols)) - 1) // lane
    bias = half * ones                      # 2^(W - 1) in every lane
    positive = bias - (half << (W * rhs))   # top bits of every lane but the rhs
    at_least_one = bias - ones
    rhs_shift = W * rhs

    basis = list(range(art0, art0 + n_rows))
    den = 1
    obj_i = n_rows

    for _ in range(_MAX_PIVOTS):
        hits = (tab[obj_i] + at_least_one) & positive
        if not hits:
            break
        s = (hits & -hits).bit_length() // W - 1
        shift = W * s
        col = [(((row + bias) >> shift) & lane) - half for row in tab]
        # Ratio test, ties broken by least basic-variable index (Bland).
        r = -1
        r_rhs = r_piv = 0
        for i in range(n_rows):
            piv = col[i]
            if piv <= 0:
                continue
            rhs_i = ((tab[i] + bias) >> rhs_shift) - half
            if r < 0:
                better = True
            else:
                lhs = rhs_i * r_piv
                rhs_ = r_rhs * piv
                better = lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[r])
            if better:
                r, r_rhs, r_piv = i, rhs_i, piv
        if r < 0:
            raise AssertionError("internal error: phase-one objective unbounded")
        piv = r_piv
        pivot_row = tab[r]
        for i, f in enumerate(col):
            if i == r:
                continue
            if f:
                tab[i] = (tab[i] * piv - f * pivot_row) // den
            elif piv != den:
                tab[i] = tab[i] * piv // den
        den = piv
        basis[r] = s
    else:
        raise AssertionError("internal error: pivot limit exceeded")

    obj = tab[obj_i] + bias
    w = (obj >> rhs_shift) - half
    if w == 0:
        return None
    # Dual values live under the artificial columns: nums / w separates
    # (w > 0), and so does its multiple by the integer w / gcd(w, nums).
    nums = [-(((obj >> (W * (art0 + i))) & lane) - half + den) for i in range(d)]
    g = math.gcd(w, *nums)
    return tuple(n // g for n in nums)
