import math
import random
from fractions import Fraction
from operator import mul

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


def _meeting(g, d):
    """(h, g.h) for every generator id h with g.h > 0, in id order."""
    return [(h, (g & h).bit_count()) for h in range(1, 1 << d) if g & h]


def _push_interval_all_rows(nums, g, S, d):
    """The tau interval (lo, hi) of the line nums + tau * g, from every row
    meeting g, members and non-members alike; hi is None when no row bounds
    it from above, and the result is None when it is empty."""
    dot = core.subset_sums(nums)
    lo, hi = None, None
    for h, b in _meeting(g, d):
        bound = Fraction(-dot[h], b)
        if (S >> (h - 1)) & 1:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    if hi is not None and lo >= hi:
        return None
    return lo, hi


def test_push_only_certifies_vertices_exhaustive_d4(brute_force_d4):
    # from the plain all-rows certificate of every vertex P, push toward
    # P + {g} for every g outside P: a certificate comes back exactly when
    # the interval over all rows meeting g (members included) is non-empty,
    # only for a vertex, and it separates on all rows; it lies on the line
    # at the simplest tau of that interval (the least integer above lo when
    # no non-member meets g, as for P + {g} the whole generator set)
    d = 4
    pushed = unbounded = 0
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
                hi_n, hi_d = (1, 0) if hi is None else (hi.numerator, hi.denominator)
                p, q = lp._simplest_between(lo.numerator, lo.denominator, hi_n, hi_d)
                line = [q * n + p * v for n, v in zip(cert, core.generator_vectors(d)[g])]
                assert c == tuple(x // math.gcd(*line) for x in line), (P, g)
                pushed += 1
                unbounded += hi is None
    assert pushed > len(brute_force_d4)
    assert unbounded > 0


def _separates_by_rows(nums, den, S, d):
    """The all-rows check of c = nums / den, one row at a time."""
    for h, v in enumerate(core.generator_vectors(d)[1:], 1):
        dot = sum(map(mul, nums, v))
        if (dot < den) if (S >> (h - 1)) & 1 else (dot > -den):
            return False
    return True


def _push_by_scan(nums, g, S, d):
    """The push as a scan of the rows meeting g: row g bounds tau from
    below, the non-members from above, and the simplest rational in the
    interval gives the integer vector, divided by its gcd and checked on all
    rows; None when the interval is empty or unbounded."""
    dot = core.subset_sums(nums)
    lo_n, lo_d, hi_n, hi_d = -dot[g], g.bit_count(), 1, 0
    for h, b in _meeting(g, d):
        if not (S >> (h - 1)) & 1 and -dot[h] * hi_d < hi_n * b:
            hi_n, hi_d = -dot[h], b
            if lo_n * hi_d >= hi_n * lo_d:
                return None
    if not hi_d:
        return None
    p, q = lp._simplest_between(lo_n, lo_d, hi_n, hi_d)
    c = [q * n + p * v for n, v in zip(nums, core.generator_vectors(d)[g])]
    c = tuple(x // math.gcd(*c) for x in c)
    return c if _separates_by_rows(c, 1, S, d) else None


def test_separates_matches_row_loop_every_subset_d4(brute_force_d4):
    # every subset at d <= 4 against two vectors: its all-rows certificate
    # when it is a vertex, and the balance of its point, 2 p(S) - |S|, which
    # certifies many vertices and fails on the rest; at three margins den
    checks = passed = 0
    for d in (2, 3, 4):
        for S in range(1 << core.generator_count(d)):
            vectors = [tuple(2 * x - S.bit_count() for x in core.point_of(S, d))]
            if d < 4 or S in brute_force_d4:
                r = lp.vertex_feasible(S, d)
                if r.feasible:
                    vectors.append(r.certificate)
            for c in vectors:
                for den in (1, 2, 5):
                    ok = lp._separates(c, den, S, d)
                    assert ok == _separates_by_rows(c, den, S, d), (d, S, c, den)
                    checks += 1
                    passed += ok
    # the 6 + 32 + 370 vertex certificates pass at den = 1
    assert checks > 3 * (1 << 15) and passed > 6 + 32 + 370


def test_lanes_exact_at_every_width_boundary():
    # certificates with sum|c_i| + den at, just below and just above
    # 2^(8k - 1), the largest lane magnitude for k bytes: one that puts
    # every coordinate on the same side reaches -(sum|c_i| + den) and
    # sum|c_i| + den - 1 on the all-ones row, the ends of the lane range.
    # Sign strings and the all-rows check match the row loop for every S
    # at d <= 3, and at d = 4 for the subset c separates and each subset
    # one row away from it
    for k in (1, 2, 3):
        for bound in ((1 << (8 * k - 1)) + off for off in (-1, 0, 1)):
            for d in (2, 3, 4):
                m = core.generator_count(d)
                for den in (1, 3):
                    share = [(bound - den) // d + (i < (bound - den) % d) for i in range(d)]
                    for c in (share, [-x for x in share], [share[0]] + [-x for x in share[1:]]):
                        assert sum(map(abs, c)) + den == bound
                        vecs = core.generator_vectors(d)[1:]
                        for t in (den, 1 - den, 0, 1):
                            width = lp._lane_width(sum(map(abs, c)) + abs(t))
                            x = sum(map(mul, c, lp._lanes(d, width)[0]))
                            want = bytes(b"01"[sum(map(mul, c, v)) >= t] for v in vecs)
                            assert lp._signs(x, t, width, d) == want, (k, bound, d, c, t)
                        own = sum(1 << h for h, v in enumerate(vecs) if sum(map(mul, c, v)) >= den)
                        subsets = (
                            range(1 << m) if d < 4 else [own] + [own ^ (1 << h) for h in range(m)]
                        )
                        for S in subsets:
                            assert lp._separates(c, den, S, d) == _separates_by_rows(c, den, S, d)
                        assert lp._separates(c, den, own, d) == (
                            min(abs(sum(map(mul, c, v))) for v in vecs) >= den
                        )


def test_verify_certificate_large_denominators():
    # rational certificates c / M and c * (1 +- 1 / M) with M large, and
    # coordinates over distinct large primes: the lcm denominator runs to
    # hundreds of bits, and the verdict is the one exact Fractions give
    d = 4
    rng = random.Random(7)
    primes = [1_000_000_007, 998_244_353, 2_147_483_647, (1 << 61) - 1]
    checked = 0
    for S in _sample_masks(rng, 40):
        r = lp.vertex_feasible(S, d)
        if not r.feasible:
            continue
        c = r.certificate
        tight = min(abs(sum(map(mul, c, v))) for v in core.generator_vectors(d)[1:])
        M = (1 << 127) - 1
        variants = [
            [Fraction(x, M) for x in c],
            [x * Fraction(M - 1, M) for x in c],
            [x * Fraction(M + 1, M) for x in c],
            [x + Fraction(rng.randint(-1, 1), p) for x, p in zip(c, primes)],
            [Fraction(x * tight, tight) + Fraction(1, p * p) for x, p in zip(c, primes)],
        ]
        for v in variants:
            want = all(
                (s >= 1) if (S >> (h - 1)) & 1 else (s <= -1)
                for h, g in enumerate(core.generator_vectors(d)[1:], 1)
                for s in [sum(a * b for a, b in zip(v, g))]
            )
            assert lp.verify_certificate(v, S, d) == want, (S, v)
            checked += 1
        # the margin is exactly 1 on some row, so shrinking c loses it
        if tight == 1:
            assert not lp.verify_certificate(variants[1], S, d)
        assert lp.verify_certificate(variants[2], S, d)
    assert checked >= 20


def _oracle_calls(monkeypatch, d):
    """(S, parents) of every oracle call of a fresh run at d."""
    calls = []
    oracle = lp.vertex_feasible

    def recording(S, d, parents=()):
        calls.append((S, list(parents)))
        return oracle(S, d, parents)

    monkeypatch.setattr(lp, "vertex_feasible", recording)
    engine.run(engine.RunConfig(d=d))
    monkeypatch.setattr(lp, "vertex_feasible", oracle)
    return calls


@pytest.mark.parametrize("d, calls, pairs, certified", [(5, 111, 197, 143), (6, 1511, 3786, 2311)])
def test_push_matches_row_scan_on_engine_pairs(monkeypatch, d, calls, pairs, certified):
    # every (parent certificate, g) pair a run passes to the oracle, not only
    # those tried before the first success: the lane search returns exactly
    # what the scan of the rows meeting g and the simplest rational return
    recorded = _oracle_calls(monkeypatch, d)
    assert len(recorded) == calls
    tried = pushed = 0
    for S, parents in recorded:
        for c, g in parents:
            got = lp._push(c, g, S, d)
            assert got == _push_by_scan(c, g, S, d), (S, c, g)
            tried += 1
            pushed += got is not None
    assert (tried, pushed) == (pairs, certified)


def test_push_from_a_wrong_certificate_is_sound():
    # c_P that does not certify P: a perturbed certificate of P, or a small
    # vector with rows at 0 whose S takes the rows at 0 as members; whatever
    # _push returns certifies S, and some pushes do return
    rng = random.Random(13)
    cases = []
    for d in (4, 5):
        for S in _sample_masks(rng, 150):
            S &= core.full_mask(d)
            for g in core.generators_of(S):
                P = S & ~(1 << (g - 1))
                base = lp.vertex_feasible(P, d).certificate or (0,) * d
                for scale in (1, 2, 5, 20):
                    cases.append((tuple(x + rng.randint(-scale, scale) for x in base), g, S, d))
        for _ in range(2000):
            c = tuple(rng.randint(-2, 2) for _ in range(d))
            dot = core.subset_sums(c)
            g = rng.randrange(1, 1 << d)
            S = sum(1 << (h - 1) for h in range(1, 1 << d) if dot[h] >= 0 or h == g)
            cases.append((c, g, S, d))
    returned = 0
    for c, g, S, d in cases:
        if lp.verify_certificate(c, S & ~(1 << (g - 1)), d):
            continue
        got = lp._push(c, g, S, d)
        if got is not None:
            assert lp.verify_certificate(got, S, d), (d, S, c, g)
            assert _separates_by_rows(got, 1, S, d)
            returned += 1
    assert returned > 0


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
