import math
import random
from fractions import Fraction

import pytest

from whitewhale import comb, core, engine, lp


def test_vertex_feasible_examples():
    # U3^2: {1,3,5}, point (1,1,3)
    assert lp.vertex_feasible(core.mask_of([1, 3, 5]), 3).feasible
    assert not lp.vertex_feasible(core.mask_of([1, 2]), 3).feasible
    # W3^2: {1,2,3}
    assert lp.vertex_feasible(core.mask_of([1, 2, 3]), 3).feasible
    assert lp.vertex_feasible(core.full_mask(3), 3).feasible
    assert lp.vertex_feasible(0, 3).feasible


def test_verify_certificate_examples():
    assert lp.verify_certificate((-2, -2, 3), core.mask_of([1, 3, 5]), 3)
    # generator 3 = (0,1,1) is outside S but c.(0,1,1) = 1 > -1
    assert not lp.verify_certificate((0, 0, 1), core.mask_of([1]), 3)
    for d in (2, 3, 4, 5):
        assert lp.verify_certificate((-1,) * d, 0, d)


def test_verify_certificate_strict_margins():
    # c touching a non-member with dot product 0 is not a valid certificate,
    # even though the subset itself is a vertex
    w = core.mask_of([1, 2, 3])
    assert lp.vertex_feasible(w, 3).feasible
    assert not lp.verify_certificate((0, 1, 1), w, 3)


def test_verify_certificate_rejects_wrong_length():
    with pytest.raises(ValueError):
        lp.verify_certificate((1, 1), 0, 3)


def _sample_masks(rng, count):
    # random masks are rarely vertices, so mix in known vertex subsets
    known = [
        core.mask_of([1, 3, 5, 9]),
        core.mask_of([1, 2, 3, 7]),
        core.mask_of([1, 2, 3, 5, 7]),
        core.mask_of([1, 3, 5, 7, 9, 11, 13]),
    ]
    return known + [rng.getrandbits(15) for _ in range(count)]


def test_certificates_are_integers_and_verify():
    # the simplex certificates, on the reduced and on the all-rows system,
    # are integer vectors
    rng = random.Random(3)
    feas = 0
    for S in _sample_masks(rng, 200):
        result = lp.vertex_feasible(S, 4)
        if result.feasible:
            feas += 1
            assert all(type(c) is int for c in result.certificate)
            assert lp.verify_certificate(result.certificate, S, 4)
        else:
            assert result.certificate is None
    assert feas >= 4


def test_antipodal_symmetry():
    rng = random.Random(5)
    for S in _sample_masks(rng, 100):
        r = lp.vertex_feasible(S, 4)
        anti = core.antipode(S, 4)
        assert r.feasible == lp.vertex_feasible(anti, 4).feasible
        if r.feasible:
            negated = tuple(-c for c in r.certificate)
            assert lp.verify_certificate(negated, anti, 4)


def test_permutation_equivariance():
    rng = random.Random(11)
    for S in _sample_masks(rng, 60):
        perm = list(range(4))
        rng.shuffle(perm)
        permuted = comb.permute_subset(S, tuple(perm), 4)
        assert (
            lp.vertex_feasible(S, 4).feasible
            == lp.vertex_feasible(permuted, 4).feasible
        )


def test_reduced_oracle_matches_full_rows_exhaustive_d4(brute_force_d4):
    # shift-closed subsets get the binding rows plus the cone columns, the
    # rest all rows; either way the verdict is the plain all-rows verdict of
    # lp.feasibility(signed_rows(S, 4)), which the brute force holds
    reduced = 0
    for S in range(1 << 15):
        r = lp.vertex_feasible(S, 4)
        assert r.feasible == (S in brute_force_d4), S
        if r.feasible:
            assert lp.verify_certificate(r.certificate, S, 4)
        reduced += comb.shift_closed(S, 4)
    assert reduced == 400


def test_brute_force_count_d3():
    count = sum(lp.vertex_feasible(S, 3).feasible for S in range(1 << 7))
    assert count == 32


def test_feasibility_rejects_bad_input():
    with pytest.raises(ValueError):
        lp.feasibility([])
    with pytest.raises(ValueError):
        lp.feasibility([(1, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        lp.vertex_feasible_vectors(0, [])


def test_feasibility_general_rows():
    # strictly separable rows
    r = lp.feasibility([(1, 0), (1, 1)])
    assert r.feasible
    assert all(type(c) is int for c in r.certificate)
    assert all(
        sum(c * x for c, x in zip(r.certificate, row)) >= 1
        for row in [(1, 0), (1, 1)]
    )
    # the simplex finds c = (1/3, 1/5); it comes back as the smallest
    # integer vector on that ray
    assert lp.feasibility([(3, 0), (0, 5)]).certificate == (5, 3)
    # origin is the midpoint of the rows: infeasible
    assert not lp.feasibility([(1, 2), (-1, -2)]).feasible
    # one row: c = (1, 0) separates
    assert lp.feasibility([(1, -1)]).feasible


def _push_interval_all_rows(nums, g, S, d):
    """The tau interval (lo, hi) of the line nums + tau * g, from every row
    meeting g, members and non-members alike; None when it is empty or
    unbounded."""
    dot = core.subset_sums(nums)
    lo, hi = None, None
    for h, b in lp._meeting(g, d):
        bound = Fraction(-dot[h], b)
        if (S >> (h - 1)) & 1:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    if hi is None or lo >= hi:
        return None
    return lo, hi


def test_push_only_certifies_vertices_exhaustive_d4(brute_force_d4):
    # from the plain all-rows certificate of every vertex P, push toward
    # P + {g} for every g outside P: a certificate comes back exactly when
    # the interval over all rows meeting g (members included) is non-empty
    # and bounded, only for a vertex, and it separates on all rows; it lies
    # on the line at the simplest tau of that interval
    d = 4
    pushed = 0
    for P in brute_force_d4:
        cert = lp.feasibility(lp.signed_rows(P, d)).certificate
        for g in core.generators_of(core.full_mask(d) & ~P):
            S = P | (1 << (g - 1))
            c = lp._push(cert, g, S, d)
            interval = _push_interval_all_rows(cert, g, S, d)
            assert (c is not None) == (interval is not None), (P, g)
            if c is not None:
                assert S in brute_force_d4, (P, g)
                assert lp.verify_certificate(c, S, d)
                lo, hi = interval
                p, q = lp._simplest_between(
                    lo.numerator, lo.denominator, hi.numerator, hi.denominator
                )
                line = [q * n + p * v for n, v in zip(cert, core.generator_vectors(d)[g])]
                assert c == tuple(x // math.gcd(*line) for x in line), (P, g)
                pushed += 1
    assert pushed > len(brute_force_d4)


def test_simplest_between_exhaustive():
    # every open interval between fractions p / q, 0 <= p <= 20, 1 <= q <= 6:
    # the result lies strictly inside, in lowest terms, and no fraction of a
    # smaller denominator does
    ends = sorted({Fraction(p, q) for p in range(21) for q in range(1, 7)})
    for lo in ends:
        for hi in ends:
            if lo >= hi:
                continue
            p, q = lp._simplest_between(lo.numerator, lo.denominator, hi.numerator, hi.denominator)
            assert lo < Fraction(p, q) < hi and math.gcd(p, q) == 1, (lo, hi)
            for r in range(1, q):
                # the least fraction of denominator r above lo
                assert Fraction(math.floor(lo * r) + 1, r) >= hi, (lo, hi, r)


def test_pushed_verdicts_match_plain_lp_d5(monkeypatch):
    # every oracle call of a d=5 run against lp.feasibility on all rows;
    # all but 1 call are answered by a push from a parent certificate or
    # from the child's own point, not by the simplex
    calls = []
    oracle = lp.vertex_feasible

    def recording(S, d, parents=()):
        r = oracle(S, d, parents)
        calls.append((S, r))
        return r

    monkeypatch.setattr(lp, "vertex_feasible", recording)
    engine.run(engine.RunConfig(d=5))
    assert len(calls) == 111
    for S, r in calls:
        assert r.feasible == lp.feasibility(lp.signed_rows(S, 5)).feasible, S
        if r.feasible:
            assert lp.verify_certificate(r.certificate, S, 5)
            # pushed and simplex certificates alike are integers
            assert all(type(x) is int for x in r.certificate), S
    assert sum(r.by_simplex for _, r in calls) == 1


def test_pushed_certificate_is_integer_and_pushes_again():
    d = 3
    P = core.mask_of([1, 3])
    S = P | (1 << (5 - 1))  # U3^2: {1,3,5}, point (1,1,3)
    r = lp.vertex_feasible(S, d, [(lp.vertex_feasible(P, d).certificate, 5)])
    assert r.feasible and not r.by_simplex
    assert all(type(x) is int for x in r.certificate)
    assert lp.verify_certificate(r.certificate, S, d)
    # an integer certificate is pushed from again: {1,3,5,7}, point (2,2,4)
    T = S | (1 << (7 - 1))
    again = lp.vertex_feasible(T, d, [(r.certificate, 7)])
    assert again.feasible and not again.by_simplex
    assert all(type(x) is int for x in again.certificate)
    assert lp.verify_certificate(again.certificate, T, d)


def test_vertex_feasible_tries_every_parent_then_the_simplex():
    # a d=5 vertex whose point push fails (at d <= 4 none does), point
    # (1,5,5,8,9); the push from parent P = S - {6} along 6 succeeds
    d = 5
    S = core.mask_of([1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 15, 19])
    P = S & ~(1 << (6 - 1))
    assert lp._point_push(S, d) is None
    c = lp.vertex_feasible(P, d).certificate
    ones = (1,) * d  # certifies the whole generator set, not P
    r = lp.vertex_feasible(S, d, [(ones, 6), (c, 6)])
    assert r.feasible and not r.by_simplex
    assert lp.verify_certificate(r.certificate, S, d)
    r = lp.vertex_feasible(S, d, [(ones, 6)])
    assert r.feasible and r.by_simplex
    assert lp.verify_certificate(r.certificate, S, d)
    # a push never decides a non-vertex: {1, 2} is none
    d = 3
    r = lp.vertex_feasible(core.mask_of([1, 2]), d, [(lp.vertex_feasible(1, d).certificate, 2)])
    assert not r.feasible and r.by_simplex


def _point_interval_is_open(S, d):
    """Whether some lam puts every row on its side of the line
    p(S) - lam * (1, ..., 1): lam < p.g / |g| for g in S, lam > p.h / |h|
    for h outside S."""
    p = core.point_of(S, d)
    lo, hi = [], []
    for h, v in enumerate(core.generator_vectors(d)[1:], 1):
        bound = Fraction(sum(x * y for x, y in zip(p, v)), sum(v))
        (hi if (S >> (h - 1)) & 1 else lo).append(bound)
    return not lo or not hi or max(lo) < min(hi)


def test_point_push_only_certifies_vertices_exhaustive(generated):
    # every subset at d <= 4, and every shift-closed child that expand_layer
    # builds at d = 5: a certificate comes back exactly when the lam interval
    # over all rows is open, only for a vertex of the all-rows oracle, and it
    # separates on all rows
    def check(S, d):
        c = lp._point_push(S, d)
        assert (c is not None) == _point_interval_is_open(S, d), (d, S)
        if c is None:
            return 0
        assert lp.feasibility(lp.signed_rows(S, d)).feasible, (d, S)
        assert lp.verify_certificate(c, S, d), (d, S)
        return 1

    # at d <= 4 the point of every vertex certifies it
    for d, vertices in ((2, 6), (3, 32), (4, 370)):
        assert sum(check(S, d) for S in range(1 << core.generator_count(d))) == vertices
    d = 5
    layers, _ = generated(d)
    children = {
        e.subset | (1 << (g - 1))
        for layer in layers[:-1]
        for e in layer.entries
        for g in core.generators_of(comb.shift_extensions(e.subset, d))
        if comb.may_extend(e.subset, g, d)
    }
    assert len(children) == 111
    # all 111 children are vertices; the point push misses 7 of them
    assert sum(check(S, d) for S in children) == 104
