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
addition for c.b >= 0.
``vertex_feasible`` uses them to look only for nondecreasing c on
canonical subsets, which needs far fewer rows.

Every row check runs on all 2^d - 1 rows at once, with no row loop.  For
a lane width of k bytes, lane h - 1 of a big integer stands for
generator h, and d cached column constants give the lanes of c.h for
every h as one sum sum_i c_i * col_i (``_lanes``).  Adding 2^(8k - 1) - t
to every lane sets its top bit exactly when c.h >= t, and the top bytes
become a string of b"0" and b"1" compared with the string of S
(``_signs``, ``_members``).  k is chosen from sum|c_i| + |t|, so no lane
overflows and every comparison is exact.  The all-rows check
``_separates`` is two such comparisons.

Before the simplex, ``vertex_feasible`` tries a push: given the
certificate c_P of a parent vertex P and the generator g with
S = P + {g}, it searches the line c_P + tau * g for a certificate of S.
Row g bounds tau from below by lo, the non-members meeting g bound it
from above; one sign string at tau = lo says whether the interval is
empty, and the least-denominator tau = p / q in it, which the search
reaches by q = 2 |g|, gives an integer c, checked on
all rows like a simplex certificate, so a push can only confirm a
vertex.  When every parent push fails, or there is no parent certificate
(a layer read from a file), a point push searches the line
p(S) - lam * (1, ..., 1) through the point of S itself, its first-order
Chow parameters: one subset-sum pass bounds lam, the simplest rational
gives an integer c, and c gets the all-rows check.  Only a subset whose
pushes all fail goes to the simplex: 47 of the 1,511 calls of a d = 6
run.  Every certificate, pushed or from the simplex, is an integer
vector, so the next push starts from it as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import mul

from . import comb, core

_MAX_PIVOTS = 100_000


@dataclass(frozen=True)
class FeasibilityResult:
    """The verdict, and when feasible an integer vector c with c.g >= 1 on S
    and <= -1 outside."""

    feasible: bool
    certificate: tuple[int, ...] | None = None
    by_simplex: bool = True  # False when a pushed parent certificate answered


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


def vertex_feasible(S: int, d: int, parents=()) -> FeasibilityResult:
    """Vertex test for a subset mask over the full White Whale generator set.

    ``parents`` holds (certificate, g) pairs of vertices P with
    P + {g} = S, tried in order by ``_push``; then ``_point_push`` tries the
    line through the point of S.  Any c a push returns has passed the
    all-rows check, so it proves S a vertex: a push never decides a
    non-vertex, it only spares the simplex on a vertex.

    The simplex runs when no push succeeds.  A shift-closed S (see
    ``comb.shift_closed``) has a nondecreasing point, and if it is a vertex
    then some certificate is nondecreasing.  So the oracle adds the d - 1
    cone columns e_{i+1} - e_i, which force c to be nondecreasing, and
    keeps only the rows that can bind for such c: the shift-minimal members
    and the shift-maximal non-members (every other row is implied).  Any
    other S runs on all of ``signed_rows(S, d)``.  The certificate is
    re-verified on all 2^d - 1 rows in exact integer arithmetic.
    """
    core.check_dimension(d)
    for c, g in parents:
        pushed = _push(c, g, S, d)
        if pushed is not None:
            return FeasibilityResult(True, pushed, by_simplex=False)
    pushed = _point_push(S, d)
    if pushed is not None:
        return FeasibilityResult(True, pushed, by_simplex=False)
    if comb.shift_closed(S, d):
        c = _phase_one(_binding_rows(S, d), d, _cone_columns(d))
    else:
        c = _phase_one(signed_rows(S, d), d)
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
    table = _generator_rows(d)
    return [table[g][0 if (S >> (g - 1)) & 1 else 1] for g in range(1, 1 << d)]


def _binding_rows(S: int, d: int) -> list[tuple[int, ...]]:
    """The rows of a shift-closed S that can bind for a nondecreasing c, in id order.

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
    table = _generator_rows(d)
    return [table[g][0 if (S >> (g - 1)) & 1 else 1] for g in core.generators_of(full & ~implied)]


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
    and the set with nums.g >= 1 - den, i.e. nums.g > -den: two sign
    strings of the lanes of nums (``_lanes``)."""
    k = _lane_width(sum(map(abs, nums)) + den)
    x = sum(map(mul, nums, _lanes(d, k)[0]))
    want = _members(S, d)
    return _signs(x, den, k, d) == want and _signs(x, 1 - den, k, d) == want


def _push(nums, g: int, S: int, d: int) -> tuple[int, ...] | None:
    """An integer certificate of S on the line c_P + tau * g, or None.

    c_P = nums, an integer vector, certifies a vertex P and S = P + {g}.
    Row h asks for c_P.h + tau * g.h > 0 if h is in S and < 0 if not, and
    g.h >= 0, so only the rows with g.h > 0 move with tau.  Row g bounds
    tau from below: tau > lo = a / b with a = -c_P.g >= 1 and b = |g|.
    Every other member h of S lies in P, so c_P.h >= 1, and any tau > 0
    keeps its row positive.  The non-members meeting g bound tau from
    above, by hi.  So the interval (lo, hi) is non-empty exactly when every
    row has its sign at tau = lo, row g at 0 counted as positive: one sign
    string of the lanes of b * c_P + a * g against the string of S, with
    no row scan.  If it matches, tau = p / q runs through q = 1, 2, ...
    with p = floor(q * lo) + 1, the least p / q above lo, and the first
    q * c_P + p * g with every row on its side is the least-denominator
    rational in the interval, the one ``_simplest_between`` would give.
    The mediant of lo and the binding hi = -c_P.h / g.h lies in the
    interval, with denominator b + g.h <= 2 b, so the search ends by
    q = 2 b (at q = 1 if no non-member meets g).  That vector gets the
    margin check (every row at least 1 away from 0, which with a valid c_P
    always holds) and is divided by its gcd.  Every test is exact on all
    2^d - 1 rows, so whatever c_P is, a returned vector certifies S.

    Lanes are k bytes wide with b (4 sum|c_P| + 1) + 1 < 2^(8k - 1).  That
    bounds |row - t| for every vector tested here, since t is 0 or 1,
    |a| <= sum|c_P|, g.h <= b, q <= 2 b and |p| <= 2 |a| + 1.
    """
    v = core.generator_vectors(d)[g]
    a, b = -sum(map(mul, nums, v)), g.bit_count()
    k = _lane_width(b * (4 * sum(map(abs, nums)) + 1) + 1)
    cols = _lanes(d, k)[0]
    lanes_c, lanes_g = sum(map(mul, nums, cols)), sum(compress(cols, v))
    want = _members(S, d)
    if _signs(b * lanes_c + a * lanes_g, 0, k, d) != want:
        return None
    for q in range(1, 2 * b + 1):
        p = q * a // b + 1
        lanes = q * lanes_c + p * lanes_g
        if _signs(lanes, 0, k, d) == want:
            if _signs(lanes, 1, k, d) != want:
                return None
            c = [q * n + p * s for n, s in zip(nums, v)]
            e = math.gcd(*c)
            return tuple(x // e for x in c)
    return None


def _point_push(S: int, d: int) -> tuple[int, ...] | None:
    """An integer certificate of S on the line p - lam * (1, ..., 1), or None.

    p = p(S) is the point of S.  Row h asks for p.h - lam * |h| > 0 if h
    is in S and < 0 if not, so every member bounds lam from above and every
    non-member from below; p >= 0 makes every lower end at least 0, which
    is where the interval starts, and the scan stops at the first row that
    empties it.  Then the simplest rational lam = r / q in the interval
    (``_simplest_between``) gives the integer c = (q * p - r * (1, ..., 1))
    / gcd, returned if it passes the all-rows check ``_separates``.  No
    parent certificate is needed.
    """
    p = core.point_of(S, d)
    dot = core.subset_sums(p)
    # lam in (lo_n / lo_d, hi_n / hi_d), denominators positive; hi_d = 0
    # means no member bounds it from above
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 0
    for h, b in _sizes(d):
        if (S >> (h - 1)) & 1:
            if dot[h] * hi_d >= hi_n * b:
                continue
            hi_n, hi_d = dot[h], b
        elif dot[h] * lo_d > lo_n * b:
            lo_n, lo_d = dot[h], b
        else:
            continue
        if lo_n * hi_d >= hi_n * lo_d:
            return None
    r, q = _simplest_between(lo_n, lo_d, hi_n, hi_d)
    c = [q * x - r for x in p]
    e = math.gcd(*c)
    c = tuple(x // e for x in c)
    return c if _separates(c, 1, S, d) else None


def _simplest_between(a: int, b: int, c: int, e: int) -> tuple[int, int]:
    """(p, q) with p / q in the open interval (a / b, c / e) and q least.

    Needs b > 0, e >= 0 (e = 0: no upper end) and a / b < c / e; the
    result is the simplest rational there when 0 <= a / b, and lies inside
    in any case.  Each step takes the integer part n of the lower end:
    n + 1 is the next term if it lies below the upper end, else every x in
    the interval is n + 1 / y with y in (e / (c - n e), b / (a - n b)).
    p / q is the last convergent of the continued fraction of these terms,
    so it is in lowest terms.
    """
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        n = a // b
        if not e or (n + 1) * e < c:
            return (n + 1) * p1 + p0, (n + 1) * q1 + q0
        p0, q0, p1, q1 = p1, q1, n * p1 + p0, n * q1 + q0
        a, b, c, e = e, c - n * e, b, a - n * b


@lru_cache(maxsize=None)
def _sizes(d: int) -> tuple[tuple[int, int], ...]:
    """(h, |h|) for every generator id h, in id order."""
    return tuple((h, h.bit_count()) for h in range(1, 1 << d))


def _lane_width(bound: int) -> int:
    """The least lane width k, in bytes, with bound < 2^(8k - 1)."""
    return bound.bit_length() // 8 + 1


@lru_cache(maxsize=None)
def _lanes(d: int, k: int) -> tuple[tuple[int, ...], int]:
    """The column constants and the all-ones constant, in lanes of k bytes.

    Lane h - 1 (bits 8k(h - 1) up to 8kh) stands for generator h.  Column
    i holds coordinate i of each generator in its lane, so for an integer
    vector c, sum(map(mul, c, cols)) holds every dot product c.h at once,
    as the signed integer sum_h c.h * 2^(8k(h - 1)); ``ones`` holds 1 in
    every lane.
    """
    one, zero = (1).to_bytes(k, "little"), bytes(k)
    gens = range(1, 1 << d)
    cols = tuple(
        int.from_bytes(b"".join(one if (h >> i) & 1 else zero for h in gens), "little")
        for i in reversed(range(d))
    )
    return cols, int.from_bytes(one * len(gens), "little")


# byte -> b"1" if its top bit is set, else b"0"
_TOP_BIT = b"0" * 128 + b"1" * 128


def _signs(x: int, t: int, k: int, d: int) -> bytes:
    """The string whose byte h - 1 is b"1" if lane h - 1 of x, the lane of
    generator h, holds at least t, else b"0".

    Adding 2^(8k - 1) - t to every lane puts each lane in [0, 2^(8k)) when
    |x_h - t| < 2^(8k - 1), with its top bit set exactly when x_h >= t;
    then no lane borrows from or carries into the next, and the top byte
    of each lane is every k-th byte of the sum.
    """
    ones = _lanes(d, k)[1]
    top = (x + ((1 << (8 * k - 1)) - t) * ones).to_bytes(k * ((1 << d) - 1), "little")
    return top[k - 1 :: k].translate(_TOP_BIT)


def _members(S: int, d: int) -> bytes:
    """The string whose byte h - 1 is b"1" if generator h is in S, else b"0"."""
    return f"{S:0{(1 << d) - 1}b}"[::-1].encode()


def _phase_one(rows, d, cone=()):
    """Fraction-free phase-one simplex deciding 0 in conv(rows) + cone(cone).

    Cone columns enter the balance equations like rows but carry 0 in the
    convexity row.  Returns None when the origin is a convex combination of
    the rows plus a nonnegative combination of the cone columns (system
    infeasible), else an integer c with c.a >= 1 on the rows and c.b >= 0
    on the cone columns.
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

    basis = list(range(art0, art0 + n_rows))
    den = 1
    obj_i = n_rows

    for _ in range(_MAX_PIVOTS):
        obj = tab[obj_i]
        s = -1
        for j in range(n_cols - 1):
            if obj[j] > 0:
                s = j
                break
        if s < 0:
            break
        # Ratio test, ties broken by least basic-variable index (Bland).
        r = -1
        r_rhs = r_piv = 0
        for i in range(n_rows):
            piv = tab[i][s]
            if piv <= 0:
                continue
            if r < 0:
                better = True
            else:
                lhs = tab[i][rhs] * r_piv
                rhs_ = r_rhs * piv
                better = lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[r])
            if better:
                r, r_rhs, r_piv = i, tab[i][rhs], piv
        if r < 0:
            raise AssertionError("internal error: phase-one objective unbounded")
        piv = tab[r][s]
        pivot_row = tab[r]
        for i in range(n_rows + 1):
            if i == r:
                continue
            row = tab[i]
            f = row[s]
            if f:
                tab[i] = [(a * piv - f * b) // den for a, b in zip(row, pivot_row)]
            elif piv != den:
                tab[i] = [(a * piv) // den for a in row]
        den = piv
        basis[r] = s
    else:
        raise AssertionError("internal error: pivot limit exceeded")

    obj = tab[obj_i]
    w = obj[rhs]
    if w == 0:
        return None
    # Dual values live under the artificial columns: nums / w separates
    # (w > 0), and so does its multiple by the integer w / gcd(w, nums).
    nums = [-(obj[art0 + i] + den) for i in range(d)]
    g = math.gcd(w, *nums)
    return tuple(n // g for n in nums)
