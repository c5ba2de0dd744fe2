import pytest

from sexticsolid.errors import BadPrime, NonSquare, ZeroInverse
from sexticsolid.exactalg import (PRIME_TEST_BOUND, SplitMix64, charpoly,
                                  ensure_field_prime, fp_inv, fp_sqrt,
                                  independent_pair, is_prime, matrix_rank,
                                  random_invertible, random_matrix,
                                  upoly, upoly_deriv, upoly_divmod,
                                  upoly_fp_roots, upoly_gcd,
                                  upoly_is_squarefree, upoly_monic,
                                  upoly_pow_mod, upoly_sub)

import oracles
from oracles import upoly_eval, upoly_interpolate, upoly_mul, upoly_scale


def test_splitmix64_matches_reference():
    for seed in (0, 1, 42, 2**64 - 1):
        rng = SplitMix64(seed)
        got = [rng.next_u64() for _ in range(8)]
        assert got == oracles.splitmix64_reference(seed, 8)


def test_splitmix64_below_is_uniform_range_and_deterministic():
    rng = SplitMix64(7)
    vals = [rng.below(32003) for _ in range(2000)]
    assert all(0 <= v < 32003 for v in vals)
    rng2 = SplitMix64(7)
    assert vals == [rng2.below(32003) for _ in range(2000)]


def test_splitmix64_below_is_rejection_sampling_on_the_reference_stream():
    # bounds just above 2^63 reject about half the draws, so the state must
    # advance over rejected draws exactly as next_u64 would
    bounds = [32003, 2 ** 63 + 1, 1, 2 ** 64 - 1, 3 * 2 ** 62, 2 ** 61 - 1] * 40
    rng = SplitMix64(11)
    got = [rng.below(n) for n in bounds] + [rng.next_u64()]
    stream = iter(oracles.splitmix64_reference(11, 4000))
    want = []
    for n in bounds:
        limit = ((1 << 64) // n) * n
        u = next(stream)
        while u >= limit:
            u = next(stream)
        want.append(u % n)
    want.append(next(stream))
    assert got == want


def test_is_prime():
    assert is_prime(32003)
    assert is_prime(7)
    assert not is_prime(1)
    assert not is_prime(32001)
    assert not is_prime(2**32 + 1)
    # the least strong pseudoprime to every prime base up to 37
    assert not is_prime(399165290221 * 798330580441)


def test_ensure_field_prime_stops_at_the_proven_bound():
    # the largest prime below 2^64 is a field; 2^64 + 13, the smallest prime
    # above it, is not, since SplitMix64.below cannot draw from it.
    # PRIME_TEST_BOUND is composite but passes every witness
    ensure_field_prime(2**61 - 1)
    ensure_field_prime(2**64 - 59)
    for p in (2**64 + 13, 2**89 - 1, PRIME_TEST_BOUND):
        with pytest.raises(BadPrime, match="64-bit draws"):
            ensure_field_prime(p)


def test_splitmix64_below_refuses_bounds_past_64_bits():
    assert SplitMix64(1).below(1 << 64) == SplitMix64(1).next_u64()
    with pytest.raises(ValueError):
        SplitMix64(1).below((1 << 64) + 13)


def test_fp_inv_examples():
    assert fp_inv(2, 7) == 4
    assert fp_inv(1, 32003) == 1
    got = fp_inv(3, 32003)
    assert got == oracles.inverse_by_xgcd(3, 32003) == 10668
    assert 3 * got % 32003 == 1


def test_fp_inv_zero_raises():
    with pytest.raises(ZeroInverse):
        fp_inv(0, 7)
    with pytest.raises(ZeroInverse):
        fp_inv(32003, 32003)


def test_fp_inv_involution():
    rng = SplitMix64(3)
    for _ in range(200):
        a = rng.below(32002) + 1
        assert fp_inv(fp_inv(a, 32003), 32003) == a


@pytest.mark.parametrize("p", [7, 32003, 2**61 - 1])
def test_fp_inv_matches_extended_euclid(p):
    rng = SplitMix64(p % 1000)
    for a in [1, p - 1] + [1 + rng.below(p - 1) for _ in range(300)]:
        assert fp_inv(a, p) == oracles.inverse_by_xgcd(a, p)
        assert fp_inv(a + p, p) == fp_inv(a - p, p) == fp_inv(a, p)


def test_upoly_gcd_examples():
    p = 7
    x2m1 = upoly((-1, 0, 1), p)
    xm1 = upoly((-1, 1), p)
    assert upoly_gcd(x2m1, xm1, p) == upoly((6, 1), p)  # x - 1, monic
    assert upoly_gcd(upoly((0, 0, 1), p), upoly((0, 2), p), p) == upoly((0, 1), p)
    f = upoly_mul(upoly((-1, 1), p), upoly((-2, 1), p), p)
    g = upoly_mul(upoly((-1, 1), p), upoly((-3, 1), p), p)
    assert upoly_gcd(f, g, p) == upoly((-1, 1), p)


def test_upoly_gcd_divides_both_inputs():
    p = 32003
    rng = SplitMix64(11)
    for _ in range(1000):
        f = upoly([rng.below(p) for _ in range(rng.below(6) + 1)], p)
        g = upoly([rng.below(p) for _ in range(rng.below(6) + 1)], p)
        if not f and not g:
            continue
        d = upoly_gcd(f, g, p)
        assert not f or upoly_divmod(f, d, p)[1] == ()
        assert not g or upoly_divmod(g, d, p)[1] == ()


@pytest.mark.parametrize("p", [7, 101, 32003])
def test_upoly_gcd_matches_tuple_euclid(p):
    rng = SplitMix64(p + 3)

    def draw(k):
        return upoly([rng.below(p) for _ in range(k)], p)

    pairs = [((), (3,)), ((3,), ()), ((), (0, 2, 5)), ((2,), (5,)), ((4,), (1, 2, 3)),
             ((0, 1), (0, 1)), ((1, 2, 3), (1, 2, 3)), ((1, 2, 3), (2, 4, 6))]
    for _ in range(150):
        common = draw(rng.below(4) + 1)
        f = upoly_mul(common, draw(rng.below(5) + 1), p)
        g = upoly_mul(common, draw(rng.below(5) + 1), p)
        pairs += [(f, g), (g, f), (f, f), (f, upoly_scale(f, 1 + rng.below(p - 1), p))]
    for f, g in pairs:
        f, g = upoly(f, p), upoly(g, p)
        if not f and not g:
            continue
        assert upoly_gcd(f, g, p) == oracles.gcd_by_tuple_euclid(f, g, p)
    with pytest.raises(ValueError):
        upoly_gcd((), (), p)


def test_upoly_divmod_reconstructs():
    p = 101
    rng = SplitMix64(5)
    for _ in range(300):
        f = upoly([rng.below(p) for _ in range(rng.below(8))], p)
        g = upoly([rng.below(p) for _ in range(rng.below(5) + 1)], p)
        if not g:
            continue
        q, r = upoly_divmod(f, g, p)
        assert upoly_sub(f, r, p) == upoly_mul(q, g, p)
        assert len(r) < len(g)


def test_upoly_is_squarefree():
    p = 7
    assert upoly_is_squarefree(upoly((-1, 0, 1), p), p)       # x^2 - 1
    assert not upoly_is_squarefree(upoly((0, 0, 1), p), p)    # x^2
    assert upoly_is_squarefree(upoly((0, -1, 0, 1), p), p)    # x^3 - x


def test_upoly_roots_examples():
    assert upoly_fp_roots(upoly((-1, 0, 1), 7), 7, 1) == {1, 6}
    assert upoly_fp_roots(upoly((1, 0, 1), 7), 7, 1) == set()


def test_upoly_roots_against_exhaustive_search():
    for p in (7, 101, 499, 997):
        rng = SplitMix64(p)
        for trial in range(8):
            f = upoly([rng.below(p) for _ in range(rng.below(7) + 2)], p)
            if not f:
                continue
            assert upoly_fp_roots(f, p, 1000 + trial) == oracles.brute_roots(f, p)


def test_upoly_roots_seeded_cubic_over_f101():
    p = 101
    rng = SplitMix64(2024)
    f = upoly([rng.below(p) for _ in range(3)] + [1], p)
    assert upoly_fp_roots(f, p, 9) == oracles.brute_roots(f, p)


def test_upoly_roots_with_multiplicities_and_large_p():
    p = 32003
    # (x - 5)^2 (x - 17): repeated roots are still reported once
    f = upoly_mul(upoly_mul(upoly((-5, 1), p), upoly((-5, 1), p), p),
                  upoly((-17, 1), p), p)
    assert upoly_fp_roots(f, p, 3) == {5, 17}


@pytest.mark.parametrize("p", [13, 101, 103, 1019])
def test_upoly_roots_of_two_distinct_linear_factors(p):
    # the gcd with x^p - x has degree 2 and is split in closed form; at
    # p = 13 and 101 (1 mod 4) Tonelli-Shanks enters its loop for some
    # discriminants, at p = 103 and 1019 (3 mod 4) it never does
    rng = SplitMix64(p)
    for trial in range(40):
        r1 = rng.below(p)
        r2 = (r1 + 1 + rng.below(p - 1)) % p
        lead = 1 + rng.below(p - 1)
        f = upoly_scale(upoly_mul(upoly((-r1, 1), p), upoly((-r2, 1), p), p), lead, p)
        assert upoly_fp_roots(f, p, trial) == oracles.brute_roots(f, p) == {r1, r2}
        # an irreducible quadratic factor leaves the gcd, and so the roots, alone
        g = upoly_mul(f, upoly((-_non_residue_by_search(p), 0, 1), p), p)
        assert upoly_fp_roots(g, p, trial) == {r1, r2}


@pytest.mark.parametrize("p", [101, 997])
def test_upoly_roots_of_three_to_six_distinct_linear_factors(p):
    # the gcd with x^p - x has degree 3 or more, so these go through the
    # seeded equal-degree splitting
    rng = SplitMix64(p + 7)
    for trial in range(60):
        k = 3 + trial % 4
        roots = set()
        while len(roots) < k:
            roots.add(rng.below(p))
        f = upoly((1 + rng.below(p - 1),), p)
        for r in sorted(roots):
            f = upoly_mul(f, upoly((-r, 1), p), p)
        assert upoly_fp_roots(f, p, trial) == oracles.brute_roots(f, p) == roots


def _non_residue_by_search(p):
    squares = {a * a % p for a in range(p)}
    return next(z for z in range(2, p) if z not in squares)


@pytest.mark.parametrize("p", [7, 11, 13, 17, 97, 101, 103])
def test_fp_sqrt_against_squares(p):
    for a in range(p):
        square = a * a % p
        s = fp_sqrt(square, p)
        assert s * s % p == square
        assert fp_sqrt(square - p, p) == s
    with pytest.raises(ValueError):
        fp_sqrt(_non_residue_by_search(p), p)


def test_upoly_pow_mod_packed_slots_at_a_61_bit_prime():
    # residues are packed with slots of (2 n p^2).bit_length() bits: a
    # 61-bit prime makes every slot about 128 bits wide
    p = 2**61 - 1
    rng = SplitMix64(61)
    for degree in range(1, 9):
        mod = upoly([rng.below(p) for _ in range(degree)] + [2 + rng.below(p - 2)], p)
        worst = tuple([p - 1] * degree) + (1,)
        for m in (mod, worst):
            base = upoly([rng.below(p) for _ in range(degree + 2)], p)
            for b in (base, (0, 1), tuple([p - 1] * degree)):
                for e in (1, 2, 3, 37, 64):
                    assert upoly_pow_mod(b, e, m, p) == \
                        oracles.pow_mod_by_repeated_products(b, e, m, p)


def test_upoly_pow_mod_at_the_packed_slot_bound():
    # at p = 2^61 - 1, moduli with every coefficient p - 1 (as given, and
    # monic) and the bases x and x + p - 1 fill the slots close to the bound
    # (n*max(s, 1) + n - 1 + d)*p^2 that the slot width is sized from
    p = 2**61 - 1
    for n in range(1, 7):
        for mod in (tuple([p - 1] * (n + 1)), tuple([p - 1] * n) + (1,)):
            for base in ((0, 1), (p - 1, 1)):
                for e in (1, 2, (p - 1) // 2, p):
                    assert upoly_pow_mod(base, e, mod, p) == \
                        oracles.pow_mod_by_binary_products(base, e, mod, p)
                for e in (1, 2, 3, 7):
                    assert upoly_pow_mod(base, e, mod, p) == \
                        oracles.pow_mod_by_repeated_products(base, e, mod, p)


def test_binary_powering_oracle_matches_repeated_products():
    p = 101
    rng = SplitMix64(404)
    for degree in range(1, 6):
        mod = upoly([rng.below(p) for _ in range(degree)] + [1 + rng.below(p - 1)], p)
        base = upoly([rng.below(p) for _ in range(degree + 2)], p)
        for e in range(0, 40):
            assert oracles.pow_mod_by_binary_products(base, e, mod, p) == \
                oracles.pow_mod_by_repeated_products(base, e, mod, p)


def test_upoly_pow_mod_and_eval():
    p = 13
    mod = upoly((1, 0, 1), p)  # x^2 + 1
    r = upoly_pow_mod(upoly((0, 1), p), 4, mod, p)  # x^4 = 1 mod x^2+1
    assert r == upoly((1,), p)
    assert upoly_eval(upoly((3, 0, 1), p), 5, p) == (25 + 3) % p


@pytest.mark.parametrize("p", [13, 101, 1009])
def test_upoly_pow_mod_matches_repeated_products(p):
    rng = SplitMix64(p)
    for degree in range(1, 8):
        for _ in range(2):
            # leading coefficient drawn from 2..p-1: never monic
            mod = upoly([rng.below(p) for _ in range(degree)] + [2 + rng.below(p - 2)], p)
            base = upoly([rng.below(p) for _ in range(degree + 2)], p)
            for e in (0, 1, 2, (p - 1) // 2, p):
                assert upoly_pow_mod(base, e, mod, p) == \
                    oracles.pow_mod_by_repeated_products(base, e, mod, p)
            assert upoly_pow_mod((0, 1), p, mod, p) == \
                oracles.pow_mod_by_repeated_products((0, 1), p, mod, p)


def test_upoly_interpolate_unordered_nodes():
    p = 32003
    rng = SplitMix64(21)
    nodes = [17, 3, 250, 9, p - 1, 100, 5]
    for _ in range(3):
        f = upoly([rng.below(p) for _ in range(7)], p)
        for xs in (nodes, nodes[::-1], [x + p for x in nodes], [x - p for x in nodes]):
            assert upoly_interpolate([(x, upoly_eval(f, x, p)) for x in xs], p) == f
    # fewer nodes than coefficients: the interpolant of degree < 3 agrees
    # with f at the nodes only
    f = upoly((4, 0, 0, 1), p)
    xs = [40, 2, 7]
    g = upoly_interpolate([(x, upoly_eval(f, x, p)) for x in xs], p)
    assert len(g) <= 3 and all(upoly_eval(g, x, p) == upoly_eval(f, x, p) for x in xs)
    with pytest.raises(ZeroInverse):
        upoly_interpolate([(3, 1), (3 + p, 2)], p)


def test_upoly_interpolate_round_trip():
    p = 32003
    rng = SplitMix64(8)
    f = upoly([rng.below(p) for _ in range(7)], p)
    pts = [(t, upoly_eval(f, t, p)) for t in range(7)]
    assert upoly_interpolate(pts, p) == f


def test_matrix_rank_examples():
    p = 32003
    assert matrix_rank([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]], p) == 3
    assert matrix_rank([[0] * 4 for _ in range(4)], p) == 0


def test_matrix_rank_against_minor_oracle_and_transpose():
    p = 101
    rng = SplitMix64(21)
    for _ in range(40):
        M = random_matrix(4, p, rng)
        r = matrix_rank(M, p)
        assert r == oracles.rank_by_minors(M, p)
        Mt = [list(col) for col in zip(*M)]
        assert r == matrix_rank(Mt, p)


@pytest.mark.parametrize("p", [7, 101, 32003])
def test_independent_pair_agrees_with_matrix_rank(p):
    # random, zero and proportional pairs, with coordinates drawn from
    # [-p, 2p) so that negative ones and ones >= p occur
    rng = SplitMix64(p)
    pairs = []
    for n in (2, 3, 4):
        for _ in range(60):
            u = [rng.below(3 * p) - p for _ in range(n)]
            v = [rng.below(3 * p) - p for _ in range(n)]
            c = rng.below(3 * p) - p
            pairs += [(u, v), (u, [c * x + p * rng.below(3) - p for x in u]),
                      (u, [0] * n), ([0] * n, v), ([p * x for x in u], v)]
            u[0] = p    # the first nonzero coordinate is not the first one
            pairs.append((u, v))
    pairs += [([0, 0, 1], [0, 0, -1]), ([0, 0, 1], [0, 1, 0]), ([3, 0, 0], [0, 0, 0])]
    for u, v in pairs:
        assert independent_pair(u, v, p) == (matrix_rank([list(u), list(v)], p) == 2)


def test_charpoly_examples():
    p = 32003
    assert charpoly([[1, 0], [0, 1]], p) == upoly((1, -2, 1), p)  # (t-1)^2
    p = 7
    companion = [[0, 0, -5], [1, 0, -2], [0, 1, 0]]
    assert charpoly(companion, p) == upoly((5, 2, 0, 1), p)


def test_charpoly_non_square_raises():
    with pytest.raises(NonSquare):
        charpoly([[1, 2, 3], [4, 5, 6]], 7)


@pytest.mark.parametrize("p", [7, 101, 2 ** 61 - 1])
def test_charpoly_against_cofactor_oracle(p):
    # half-sparse matrices leave Hessenberg columns without a pivot and
    # zeros on the subdiagonal, which end the recurrence's products early
    rng = SplitMix64(77)
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            M = random_matrix(n, p, rng)
            sparse = [[v if rng.below(2) else 0 for v in row] for row in random_matrix(n, p, rng)]
            for A in (M, sparse):
                assert charpoly(A, p) == oracles.charpoly_by_cofactors(A, p)


def test_charpoly_cayley_hamilton_up_to_size_6():
    p = 32003
    rng = SplitMix64(99)
    for n in range(1, 7):
        for _ in range(3):
            M = random_matrix(n, p, rng)
            cp = charpoly(M, p)
            Z = oracles.mat_eval_upoly(cp, M, p)
            assert all(v == 0 for row in Z for v in row)


def test_random_invertible_has_full_rank():
    p = 32003
    rng = SplitMix64(4)
    for _ in range(10):
        T = random_invertible(4, p, rng)
        assert matrix_rank(T, p) == 4
