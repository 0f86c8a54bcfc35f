import math
import random
from fractions import Fraction
from itertools import chain
from operator import mul

import pytest

from whitewhale import analytics, comb, core, engine, lp


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


def _sorted_image(S, d):
    """S with its coordinates permuted so that its point is nondecreasing."""
    return comb.permute_subset(S, comb.sorting_permutation(core.point_of(S, d)), d)


def _simplex_non_vertices(d, vertices):
    """How many non-vertices at d have a shift-closed sorted image: the
    subsets on which vertex_feasible runs the simplex, when the point push
    certifies every vertex (as at d <= 4)."""
    return sum(
        comb.shift_closed(_sorted_image(S, d), d)
        for S in range(1 << core.generator_count(d))
        if S not in vertices
    )


def test_reduced_oracle_matches_full_rows_exhaustive_d4(monkeypatch, brute_force_d4):
    # every subset gets the plain all-rows verdict of
    # lp.feasibility(signed_rows(S, 4)), which the brute force holds, and a
    # certificate that verifies on S.  The simplex runs once per non-vertex
    # whose sorted image is shift-closed, on the binding rows of that image
    # plus the cone columns; each run is also run on the list tableau
    # (_check_against_lists)
    def exhaustive():
        for S in range(1 << 15):
            r = lp.vertex_feasible(S, 4)
            assert r.feasible == (S in brute_force_d4), S
            if r.feasible:
                assert lp.verify_certificate(r.certificate, S, 4)

    calls = _phase_one_calls(monkeypatch, exhaustive)
    assert all(args[2] == lp._cone_columns(4) for args, _ in calls)
    assert _check_against_lists(calls) == _simplex_non_vertices(4, brute_force_d4) == 3934


def test_brute_force_count_d3(monkeypatch):
    calls = _phase_one_calls(
        monkeypatch,
        lambda: [lp.vertex_feasible(S, d).feasible for d in (2, 3) for S in range(1 << ((1 << d) - 1))],
    )
    assert sum(lp.vertex_feasible(S, 3).feasible for S in range(1 << 7)) == 32
    want = [_simplex_non_vertices(d, analytics.white_whale_brute_force(d)) for d in (2, 3)]
    assert _check_against_lists(calls) == sum(want) == 2 + 60


def test_plain_simplex_matches_list_tableau_exhaustive(monkeypatch):
    # lp.feasibility, the plain all-rows path that the brute force and
    # generate_generic take, runs the simplex with no cone columns: every
    # call it makes for every subset at d <= 4 against the list tableau
    calls = _phase_one_calls(
        monkeypatch,
        lambda: [
            lp.feasibility(lp.signed_rows(S, d))
            for d in (2, 3, 4)
            for S in range(1 << core.generator_count(d))
        ],
    )
    assert all(len(args) == 2 for args, _ in calls)
    assert _check_against_lists(calls) == 8 + 128 + (1 << 15)


def test_every_subset_takes_the_verdict_of_its_sorted_image(monkeypatch, brute_force_d4):
    # every subset at d <= 4 gets the plain all-rows verdict of its sorted
    # image and a certificate that verifies on S itself; a sorted subset
    # that is not shift-closed is rejected with no simplex run
    runs = []
    real = lp._phase_one
    monkeypatch.setattr(lp, "_phase_one", lambda *args: runs.append(args) or real(*args))
    vertex_sets = {d: analytics.white_whale_brute_force(d) for d in (2, 3)} | {4: brute_force_d4}
    unsorted = rejected = 0
    for d, vertices in vertex_sets.items():
        for S in range(1 << core.generator_count(d)):
            T, before = _sorted_image(S, d), len(runs)
            r = lp.vertex_feasible(S, d)
            assert r.feasible == (T in vertices), (d, S)
            if r.feasible:
                assert lp.verify_certificate(r.certificate, S, d), (d, S)
            unsorted += T != S
            if T == S and not comb.shift_closed(S, d):
                assert not r.feasible and not r.by_simplex, (d, S)
                assert len(runs) == before, (d, S)
                rejected += 1
    assert (unsorted, rejected) == (2 + 76 + 27724, 0 + 20 + 4644)


def test_degree_queries_match_plain_lp_d5(monkeypatch, generated):
    # every S - {g} and S + {g} that degree_below and degree_above ask the
    # oracle about on the d=5 layers, against lp.feasibility on all rows:
    # 655 queries, 439 of them unsorted, each of which is recorded with the
    # call on its sorted image that it makes
    d = 5
    layers, _ = generated(d)
    calls = _lp_calls(
        monkeypatch,
        lambda: [
            (analytics.degree_below(e.subset, d), analytics.degree_above(e.subset, d))
            for layer in layers
            for e in layer.entries
        ],
        "vertex_feasible",
    )["vertex_feasible"]
    for (S, _), r in calls:
        assert r.feasible == lp.feasibility(lp.signed_rows(S, d)).feasible, S
        if r.feasible:
            assert lp.verify_certificate(r.certificate, S, d), S
    unsorted = sum(_sorted_image(S, d) != S for (S, _), _ in calls)
    assert (len(calls), unsorted) == (655 + 439, 439)


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


def _line_interval(c, v, S, d):
    """The open tau interval (lo, hi) that puts every row on its side of the
    line c + tau * v, in Fractions: a member y with v.y > 0 bounds tau from
    below by -c.y / v.y, a non-member from above, and a row with v.y = 0
    must be on its side already.  lo or hi is None when no row bounds that
    end, and the result is None when the interval is empty."""
    lo, hi = [], []
    for y, w in enumerate(core.generator_vectors(d)[1:], 1):
        dot, slope, member = sum(map(mul, c, w)), sum(map(mul, v, w)), (S >> (y - 1)) & 1
        if slope:
            (lo if member else hi).append(Fraction(-dot, slope))
        elif (dot <= 0) if member else (dot >= 0):
            return None
    lo, hi = max(lo, default=None), min(hi, default=None)
    if None not in (lo, hi) and lo >= hi:
        return None
    return lo, hi


def _least_step(c, v, lo, hi, S, d):
    """The exact reference of the step search on the line c + tau * v: for
    the least q with some p / q in (lo, hi) (hi None: no upper end), the
    least such p, floor(q * lo) + 1.  c + (p / q) * v is checked row by row
    in Fractions; returns q * c + p * v divided by its gcd, or None when
    some row is not on its side."""
    q = 1
    while hi is not None and Fraction(math.floor(q * lo) + 1, q) >= hi:
        q += 1
    p = math.floor(q * lo) + 1
    tau = Fraction(p, q)
    for y, w in enumerate(core.generator_vectors(d)[1:], 1):
        row = sum(map(mul, c, w)) + tau * sum(map(mul, v, w))
        if (row <= 0) if (S >> (y - 1)) & 1 else (row >= 0):
            return None
    line = [q * x + p * y for x, y in zip(c, v)]
    return tuple(x // math.gcd(*line) for x in line)


def _point_push_reference(S, d):
    """The point push by the reference: the least step on the line
    p(S) + tau * (1, ..., 1) over all rows; (-1, ..., -1) for the empty S."""
    if not S:
        return (-1,) * d
    p, ones = core.point_of(S, d), (1,) * d
    interval = _line_interval(p, ones, S, d)
    return interval and _least_step(p, ones, *interval, S, d)


def test_push_only_certifies_vertices_exhaustive_d4(brute_force_d4):
    # from the plain all-rows certificate of every vertex P, push toward
    # P + {g} for every g outside P: a certificate comes back exactly when
    # the interval over all rows (members included) is non-empty, only for
    # a vertex, and it separates on all rows; it is the reference's least
    # step in that interval (the least integer above lo when no non-member
    # meets g, as for P + {g} the whole generator set)
    d = 4
    pushed = unbounded = 0
    for P in brute_force_d4:
        cert = lp.feasibility(lp.signed_rows(P, d)).certificate
        src = lp.push_source(cert, P, d)
        for g in core.generators_of(core.full_mask(d) & ~P):
            S = P | (1 << (g - 1))
            c = lp.push(src, g, d)
            v = core.generator_vectors(d)[g]
            interval = _line_interval(cert, v, S, d)
            assert (c is not None) == (interval is not None), (P, g)
            if c is not None:
                assert S in brute_force_d4, (P, g)
                assert lp.verify_certificate(c, S, d)
                assert c == _least_step(cert, v, *interval, S, d), (P, g)
                pushed += 1
                unbounded += interval[1] is None
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
    below, the non-members from above, and the reference's least step in
    between (``_least_step``) gives the certificate; None when the interval
    is empty."""
    dot = core.subset_sums(nums)
    lo = Fraction(-dot[g], g.bit_count())
    upper = [Fraction(-dot[h], b) for h, b in _meeting(g, d) if not (S >> (h - 1)) & 1]
    hi = min(upper, default=None)
    if hi is not None and lo >= hi:
        return None
    return _least_step(nums, core.generator_vectors(d)[g], lo, hi, S, d)


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
    # The masked compare (x + 2^(8k - 1) - t) & top, the sign test of
    # _separates and push, gives the top bits of the rows at least t, and
    # the all-rows check matches the row loop for every S at d <= 3, and at
    # d = 4 for the subset c separates and each subset one row away from it
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
                            cols, ones, top = lp._lanes(d, width)
                            x = sum(map(mul, c, cols))
                            rows = [h for h, v in enumerate(vecs, 1) if sum(map(mul, c, v)) >= t]
                            want = sum(1 << (8 * width * h - 1) for h in rows)
                            assert lp._top_bits(core.mask_of(rows), d, width) == want
                            assert (x + top - t * ones) & top == want, (k, bound, d, c, t)
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


def _lp_calls(monkeypatch, run, *names):
    """{name: [(arguments, result), ...]} for every call of each lp.<name>
    that run() makes."""
    calls = {name: [] for name in names}
    reals = {name: getattr(lp, name) for name in names}
    for name, real in reals.items():

        def recording(*args, real=real, log=calls[name]):
            got = real(*args)
            log.append((args, got))
            return got

        monkeypatch.setattr(lp, name, recording)
    run()
    for name, real in reals.items():
        monkeypatch.setattr(lp, name, real)
    return calls


@pytest.mark.parametrize("d, tried, certified", [(5, 142, 97), (6, 2299, 1329)])
def test_walk_pushes_match_row_scan(monkeypatch, d, tried, certified):
    # every push the walk makes, the failing ones included: the masked
    # lane search returns exactly what the scan of the rows meeting g and
    # the reference's least step return
    calls = _lp_calls(monkeypatch, lambda: engine.run(engine.RunConfig(d=d)), "push")["push"]
    pushes = [(src, g, got) for (src, g, _), got in calls]
    for src, g, got in pushes:
        assert src.parent >> (g - 1) & 1 == 0
        S = src.parent | (1 << (g - 1))
        assert got == _push_by_scan(src.certificate, g, S, d), (S, src.certificate, g)
    assert (len(pushes), sum(got is not None for _, _, got in pushes)) == (tried, certified)


def test_lane_bound_holds_on_real_pushes(monkeypatch):
    # every push and point push of fresh d=5 and d=6 runs and of the d=7
    # head returns the same from a source one byte wider than the bound of
    # push_source asks for: a lane that overflowed at the bound's width k
    # would carry into its neighbour at k and not at k + 1
    def runs():
        for d in (5, 6):
            engine.run(engine.RunConfig(d=d))
        engine.run(engine.RunConfig(d=7, max_layer=20))

    calls = _lp_calls(monkeypatch, runs, "push", "_point_push")
    pushes, points = calls["push"], calls["_point_push"]
    assert (len(pushes), len(points)) == (142 + 2299 + 1426, 14 + 182 + 157)
    width = lp._lane_width
    monkeypatch.setattr(lp, "_lane_width", lambda bound: width(bound) + 1)
    for (src, g, d), got in pushes:
        wide = lp.push_source(src.certificate, src.parent, d)
        assert wide.k == src.k + 1
        assert lp.push(wide, g, d) == got, (src, g)
    for args, got in points:
        assert lp._point_push(*args) == got, args


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
        P = S & ~(1 << (g - 1))
        if lp.verify_certificate(c, P, d):
            continue
        got = lp.push(lp.push_source(c, P, d), g, d)
        if got is not None:
            assert lp.verify_certificate(got, S, d), (d, S, c, g)
            assert _separates_by_rows(got, 1, S, d)
            returned += 1
    assert returned > 0


def test_pushed_verdicts_match_plain_lp_d5(monkeypatch):
    # every entry of a d=5 run, pushed in the walk or decided by the oracle,
    # and every oracle verdict, against lp.feasibility on all rows; 97
    # children are certified by a walk push, and of the 14 oracle calls
    # all but 1 are answered by the point push, not by the simplex
    calls = []
    oracle = lp.vertex_feasible

    def recording(S, d):
        r = oracle(S, d)
        calls.append((S, r))
        return r

    monkeypatch.setattr(lp, "vertex_feasible", recording)
    layers = engine.run(engine.RunConfig(d=5))
    assert len(calls) == 14
    for S, r in calls:
        assert r.feasible == lp.feasibility(lp.signed_rows(S, 5)).feasible, S
    assert sum(r.by_simplex for _, r in calls) == 1
    entries = [e for layer in layers[1:] for e in layer.entries]
    assert len(entries) == 111
    for e in entries:
        assert lp.feasibility(lp.signed_rows(e.subset, 5)).feasible, e.subset
        assert lp.verify_certificate(e.certificate, e.subset, 5)
        # pushed and simplex certificates alike are integers
        assert all(type(x) is int for x in e.certificate), e.subset
    assert sum(layer.pushed for layer in layers) == 111 - sum(r.feasible for _, r in calls) == 97


def test_pushed_certificate_is_integer_and_pushes_again():
    d = 3
    P = core.mask_of([1, 3])
    S = P | (1 << (5 - 1))  # U3^2: {1,3,5}, point (1,1,3)
    c = lp.push(lp.push_source(lp.vertex_feasible(P, d).certificate, P, d), 5, d)
    assert all(type(x) is int for x in c)
    assert lp.verify_certificate(c, S, d)
    # an integer certificate is pushed from again: {1,3,5,7}, point (2,2,4)
    T = S | (1 << (7 - 1))
    again = lp.push(lp.push_source(c, S, d), 7, d)
    assert all(type(x) is int for x in again)
    assert lp.verify_certificate(again, T, d)


def test_vertex_feasible_tries_every_parent_then_the_simplex():
    # a d=5 vertex whose point push fails (at d <= 4 none does), point
    # (1,5,5,8,9): the push from parent P = S - {6} along 6 succeeds, the
    # push from a vector that does not certify P fails, and the oracle,
    # which takes no parent, decides S by the simplex
    d = 5
    S = core.mask_of([1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 15, 19])
    P = S & ~(1 << (6 - 1))
    assert lp._point_push(S, core.point_of(S, d), d, lp._binding(S, d)) is None
    c = lp.push(lp.push_source(lp.vertex_feasible(P, d).certificate, P, d), 6, d)
    assert lp.verify_certificate(c, S, d)
    ones = (1,) * d  # certifies the whole generator set, not P
    assert lp.push(lp.push_source(ones, P, d), 6, d) is None
    r = lp.vertex_feasible(S, d)
    assert r.feasible and r.by_simplex
    assert lp.verify_certificate(r.certificate, S, d)
    # a push never decides a non-vertex: {1, 2} is none
    d = 3
    assert lp.push(lp.push_source(lp.vertex_feasible(1, d).certificate, 1, d), 2, d) is None
    r = lp.vertex_feasible(core.mask_of([1, 2]), d)
    assert not r.feasible and r.by_simplex


def test_point_push_only_certifies_vertices_exhaustive(generated):
    # every subset at d <= 4, and every shift-closed child that expand_layer
    # builds at d = 5: a certificate comes back exactly when the tau interval
    # of p(S) + tau * (1, ..., 1) over all rows is open, only for a vertex of
    # the all-rows oracle, and it separates on all rows
    def check(S, d):
        p = core.point_of(S, d)
        c = lp._point_push(S, p, d, core.full_mask(d))
        interval = _line_interval(p, (1,) * d, S, d)
        assert (c is not None) == (interval is not None), (d, S)
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
        if comb.extensions(e.subset, 1 << (g - 1), d)
    }
    assert len(children) == 111
    # all 111 children are vertices; the point push misses 7 of them
    assert sum(check(S, d) for S in children) == 104


def _oracle_point_pushes(monkeypatch):
    """(S, p, d, rows) of every point push that the oracle calls of fresh
    d=5 and d=6 runs make: 14 and 182, each on the point and the binding
    rows of S."""
    calls = _lp_calls(
        monkeypatch, lambda: [engine.run(engine.RunConfig(d=d)) for d in (5, 6)], "_point_push"
    )["_point_push"]
    assert len(calls) == 14 + 182
    for (S, p, d, rows), _ in calls:
        assert (p, rows) == (core.point_of(S, d), lp._binding(S, d))
    return [args for args, _ in calls]


def test_point_push_binding_rows_give_the_all_rows_interval(monkeypatch):
    # for a shift-closed S, the binding rows hold the member with the least
    # p.h / |h|, so the point push on them returns the certificate of the
    # point push on all rows: at every shift-closed S at d <= 4, and at
    # every point push of fresh d=5 and d=6 runs
    closed = [
        (S, d) for d in (2, 3, 4) for S in range(1 << core.generator_count(d))
        if comb.shift_closed(S, d)
    ]
    assert len(closed) > 400
    for S, d in closed + [(S, d) for S, _, d, _ in _oracle_point_pushes(monkeypatch)]:
        p = core.point_of(S, d)
        got, want = (
            lp._point_push(S, p, d, rows) for rows in (lp._binding(S, d), core.full_mask(d))
        )
        assert got == want, (d, S)


def test_point_push_is_the_least_step_exhaustive(monkeypatch):
    # the point push against the exact reference on the line
    # p(S) + tau * (1, ..., 1): every subset at d <= 4 on all rows, and on
    # the binding rows where S is shift-closed, and every oracle call of
    # fresh d=5 and d=6 runs, 148 of whose 196 the point push certifies
    checked = 0
    for d in (2, 3, 4):
        full = core.full_mask(d)
        for S in range(1 << core.generator_count(d)):
            want, p = _point_push_reference(S, d), core.point_of(S, d)
            assert lp._point_push(S, p, d, full) == want, (d, S)
            if comb.shift_closed(S, d):
                assert lp._point_push(S, p, d, lp._binding(S, d)) == want, (d, S)
            checked += want is not None
    assert checked == 6 + 32 + 370
    calls = _oracle_point_pushes(monkeypatch)
    got = [lp._point_push(*args) for args in calls]
    assert got == [_point_push_reference(S, d) for S, _, d, _ in calls]
    assert sum(c is not None for c in got) == 13 + 135


def _phase_one_lists(rows, d, cone=()):
    """The phase-one simplex of lp._phase_one on a tableau of Python lists,
    one entry per column.  Returns (certificate or None, the Hadamard bound
    lp._phase_one builds its lane width from, the largest |entry| of any
    tableau it went through)."""
    cols = list(rows) + list(cone)
    n = len(cols)
    n_rows = d + 1
    n_cols = n + n_rows + 1
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
    tab.append([sum(r) + 1 for r in rows] + [sum(b) for b in cone] + [0] * n_rows + [1])
    bound = math.prod(math.isqrt(sum(x * x for x in row) - 1) + 1 for row in tab)
    largest = max(map(abs, chain.from_iterable(tab)))
    basis = list(range(art0, art0 + n_rows))
    den = 1
    obj_i = n_rows
    while True:
        obj = tab[obj_i]
        s = next((j for j in range(n_cols - 1) if obj[j] > 0), -1)
        if s < 0:
            break
        r = -1
        r_rhs = r_piv = 0
        for i in range(n_rows):
            piv = tab[i][s]
            if piv <= 0:
                continue
            if r < 0:
                better = True
            else:
                lhs, rhs_ = tab[i][rhs] * r_piv, r_rhs * piv
                better = lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[r])
            if better:
                r, r_rhs, r_piv = i, tab[i][rhs], piv
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
        largest = max(largest, *map(abs, chain.from_iterable(tab)))
    obj = tab[obj_i]
    w = obj[rhs]
    if w == 0:
        return None, bound, largest
    nums = [-(obj[art0 + i] + den) for i in range(d)]
    g = math.gcd(w, *nums)
    return tuple(n // g for n in nums), bound, largest


def _phase_one_calls(monkeypatch, run):
    """((rows, d[, cone]), result) of every lp._phase_one call made by run()."""
    return _lp_calls(monkeypatch, run, "_phase_one")["_phase_one"]


def _check_against_lists(calls):
    for args, got in calls:
        want, bound, largest = _phase_one_lists(*args)
        assert got == want, args
        assert largest <= bound, args
    return len(calls)


def test_packed_simplex_matches_list_tableau_on_engine_runs(monkeypatch, generated):
    # the lane-packed tableau against the list tableau, verdict and
    # certificate, on every simplex of fresh d=5 and d=6 runs and of d=6
    # resumed from layer 12, whose parents carry no certificate (the
    # exhaustive d <= 4 tests check theirs); no list tableau entry exceeds
    # the bound the lane width is built from
    fresh = _phase_one_calls(
        monkeypatch, lambda: [engine.run(engine.RunConfig(d=d)) for d in (5, 6)]
    )
    assert _check_against_lists(fresh) == 1 + 47
    layer = generated(6)[0][12]
    bare = engine.LayerRecord(6, 12, tuple(
        comb.CanonicalVertex(e.subset, e.point, e.orbit_size) for e in layer.entries
    ))
    resumed = _phase_one_calls(
        monkeypatch, lambda: list(engine.generate(engine.RunConfig(d=6), bare))
    )
    assert _check_against_lists(resumed) == 50


def test_packed_simplex_matches_list_tableau_on_general_rows():
    # random integer rows with entries up to 10^6 in absolute value, with
    # and without cone columns, feasible and not: the lanes grow to the
    # Hadamard bound of each tableau, and every verdict and certificate is
    # the list tableau's
    rng = random.Random(17)
    verdicts = set()
    for trial in range(300):
        d = rng.randint(2, 5)
        m = rng.randint(1, 12)
        top = rng.choice([1, 3, 100, 10**6])
        rows = [tuple(rng.randint(-top, top) or 1 for _ in range(d)) for _ in range(m)]
        if trial % 3 == 0:
            # shift the rows toward one side so that many systems are feasible
            rows = [tuple(x + top for x in r) for r in rows]
        cone = lp._cone_columns(d) if trial % 2 else ()
        got = lp._phase_one(rows, d, cone)
        want, bound, largest = _phase_one_lists(rows, d, cone)
        assert got == want, (rows, cone)
        assert largest <= bound
        verdicts.add(got is None)
        if got is not None:
            assert all(sum(map(mul, got, r)) >= 1 for r in rows)
            assert all(sum(map(mul, got, b)) >= 0 for b in cone)
    assert verdicts == {True, False}


@pytest.mark.parametrize("d", [5, 6])
def test_walk_certificates_match_pushes_in_parent_order(generated, d):
    # the reference gathers, per child point, the (certificate, g) of every
    # parent that reaches it, in parent order, pushes from them one by one
    # (by the row scan) and leaves the points that no push certified to the
    # oracle: every layer the walk builds, certificates included, is the
    # reference's
    layers, _ = generated(d)
    for parent, child in zip(layers, layers[1:]):
        gathered, ambiguous = {}, set()
        for e in parent.entries:
            for g in comb.extensions(e.subset, comb.shift_extensions(e.subset, d), d):
                p = core.point_increment(e.point, g, d)
                mask = e.subset | (1 << (g - 1))
                S, pairs = gathered.setdefault(p, (mask, []))
                if S != mask:
                    ambiguous.add(p)
                if e.certificate is not None:
                    pairs.append((e.certificate, g))
        want = []
        for p in sorted(set(gathered) - ambiguous):
            S, pairs = gathered[p]
            c = next(filter(None, (_push_by_scan(c, g, S, d) for c, g in pairs)), None)
            if c is None:
                c = lp.vertex_feasible(S, d).certificate
            if c is not None:
                want.append((S, p, c))
        assert [(e.subset, e.point, e.certificate) for e in child.entries] == want, child.k
