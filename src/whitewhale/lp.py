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
rounding.  When the minimum is positive, the dual solution yields an
exact rational certificate c, which is always re-verified before being
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import core

_MAX_PIVOTS = 100_000


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    certificate: tuple[Fraction, ...] | None = None


def feasibility(rows) -> FeasibilityResult:
    """Decide whether some c satisfies c.a >= 1 for every integer row a.

    Exact; returns a verified rational certificate when feasible.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        raise ValueError("empty constraint system")
    d = len(rows[0])
    if any(len(r) != d for r in rows):
        raise ValueError("rows of mixed dimension")
    cert = _phase_one(rows, d)
    if cert is None:
        return FeasibilityResult(False, None)
    nums, den = cert
    _check_rows(nums, den, rows)
    return FeasibilityResult(True, tuple(Fraction(n, den) for n in nums))


def vertex_feasible(S: int, d: int) -> FeasibilityResult:
    """Vertex test for a subset mask over the full White Whale generator set."""
    core.check_dimension(d)
    return feasibility(signed_rows(S, d))


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


def signed_rows(S: int, d: int) -> list[tuple[int, ...]]:
    """The constraint rows of the vertex test: +g for g in S, -g outside."""
    rows = []
    for g in range(1, (1 << d)):
        v = [(g >> (d - 1 - i)) & 1 for i in range(d)]
        if (S >> (g - 1)) & 1:
            rows.append(tuple(v))
        else:
            rows.append(tuple(-x for x in v))
    return rows


def verify_certificate(c, S: int, d: int) -> bool:
    """Exact check that c.g >= 1 for g in S and c.g <= -1 for g outside S."""
    c = [Fraction(x) for x in c]
    if len(c) != d:
        raise ValueError(f"certificate has {len(c)} coordinates, expected {d}")
    for g in range(1, (1 << d)):
        dot = sum(c[i] for i in range(d) if (g >> (d - 1 - i)) & 1)
        if (S >> (g - 1)) & 1:
            if dot < 1:
                return False
        elif dot > -1:
            return False
    return True


def _check_rows(nums, den, rows) -> None:
    for r in rows:
        if sum(n * x for n, x in zip(nums, r)) < den:
            raise AssertionError("internal error: certificate failed exact re-verification")


def _phase_one(rows, d):
    """Fraction-free phase-one simplex deciding 0 in conv(rows).

    Returns None when the origin is a convex combination of the rows
    (system infeasible), else (numerators, denominator) of a separating c.
    """
    n = len(rows)
    n_rows = d + 1          # d balance equations plus the convexity row
    n_cols = n + n_rows + 1  # lambdas, artificials, right-hand side
    rhs = n_cols - 1
    art0 = n

    tab = []
    for i in range(d):
        row = [rows[j][i] for j in range(n)] + [0] * (n_rows + 1)
        row[art0 + i] = 1
        tab.append(row)
    conv = [1] * n + [0] * (n_rows + 1)
    conv[art0 + d] = 1
    conv[rhs] = 1
    tab.append(conv)
    # Reduced costs of min(sum of artificials) with the artificial basis.
    obj = [sum(rows[j]) + 1 for j in range(n)] + [0] * n_rows + [1]
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
    # Dual values live under the artificial columns; c = -pi / w separates.
    nums = [-(obj[art0 + i] + den) for i in range(d)]
    return nums, w
