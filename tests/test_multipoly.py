import pytest

from sexticsolid.errors import (ArityMismatch, IndexOutOfRange, SingularChange)
from sexticsolid.exactalg import SplitMix64, random_invertible, upoly_eval
from sexticsolid.multipoly import (MultiPoly, format_poly, grevlex_key,
                                   monomials_of_degree, mp_det, parse_poly,
                                   restrict_to_line)

import oracles

P = 32003


def rand_poly(rng, nvars=2, maxdeg=2, terms=3, p=P):
    pairs = []
    for _ in range(rng.below(terms) + 1):
        e = tuple(rng.below(maxdeg + 1) for _ in range(nvars))
        pairs.append((e, rng.below(p)))
    return MultiPoly.from_terms(nvars, p, pairs)


def V(i, n=2, p=P):
    return MultiPoly.variable(i, n, p)


def test_grevlex_ordering_of_terms():
    x, y = V(0), V(1)
    f = x * x + x * y + y * y + x + y + 1
    assert list(f.terms) == [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]


def test_addition_examples():
    x, y = V(0), V(1)
    assert (x + y) + (x - y) == 2 * x
    f = rand_poly(SplitMix64(1))
    zero = MultiPoly.zero(2, P)
    assert f * zero == zero


def test_product_matches_naive_oracle():
    rng = SplitMix64(5)
    for _ in range(300):
        f = rand_poly(rng, nvars=3, maxdeg=3, terms=5)
        g = rand_poly(rng, nvars=3, maxdeg=3, terms=5)
        assert f * g == oracles.naive_product(f, g)


def test_ring_axioms_on_seeded_triples():
    rng = SplitMix64(17)
    for _ in range(1000):
        f = rand_poly(rng)
        g = rand_poly(rng)
        h = rand_poly(rng)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def test_arity_mismatch_raises():
    f = V(0, n=2)
    g = MultiPoly.variable(0, 3, P)
    with pytest.raises(ArityMismatch):
        f + g
    with pytest.raises(ArityMismatch):
        f.eval([1, 2, 3])


def test_eval_examples_and_homomorphism():
    x, y = V(0, p=7), V(1, p=7)
    assert (x + y).eval([1, 2]) == 3
    rng = SplitMix64(23)
    for _ in range(200):
        f = rand_poly(rng)
        g = rand_poly(rng)
        pt = [rng.below(P), rng.below(P)]
        assert (f * g).eval(pt) == f.eval(pt) * g.eval(pt) % P
        assert (f + g).eval(pt) == (f.eval(pt) + g.eval(pt)) % P


@pytest.mark.parametrize("nvars", range(1, 8))
def test_eval_matches_term_by_term_pow_oracle(nvars):
    rng = SplitMix64(100 + nvars)
    polys = [MultiPoly.zero(nvars, P),
             MultiPoly.constant(7, nvars, P),
             MultiPoly.constant(-1, nvars, P)]
    polys += [rand_poly(rng, nvars=nvars, maxdeg=4, terms=12) for _ in range(6)]
    polys.append(MultiPoly.from_terms(nvars, P,
                                      [(e, rng.below(P)) for e in monomials_of_degree(nvars, 3)]))
    for f in polys:
        for _ in range(8):
            pt = [rng.below(3 * P) - P for _ in range(nvars)]  # negative and >= p too
            assert f.eval(pt) == oracles.eval_by_pow(f, pt)
        assert f.eval([0] * nvars) == oracles.eval_by_pow(f, [0] * nvars)
        assert f.eval([P] * nvars) == f.eval([0] * nvars)
        assert f.eval([-1] * nvars) == f.eval([P - 1] * nvars)


def test_eval_results_of_partial_and_linear_change_stay_their_own():
    # evaluate each polynomial before and after its derivatives and changes
    # are evaluated: a term list kept from one polynomial must never serve
    # another
    rng = SplitMix64(77)
    exps = monomials_of_degree(3, 4)
    f = MultiPoly.from_terms(3, P, [(e, rng.below(P)) for e in exps])
    pts = [[rng.below(P) for _ in range(3)] for _ in range(5)]
    T = random_invertible(3, P, rng)
    for _ in range(2):
        derived = [f, f.partial(0), f.partial(2), f.partial(0).partial(1),
                   f.linear_change(T), f.linear_change(T).partial(1), -f, f.scale(3)]
        for g in derived + derived[::-1]:
            for pt in pts:
                assert g.eval(pt) == oracles.eval_by_pow(g, pt)
    assert f.partial(0).eval(pts[0]) != f.eval(pts[0])


def test_homogeneous_scaling_identity():
    rng = SplitMix64(31)
    exps = [e for e in monomials_of_degree(3, 4)]
    f = MultiPoly.from_terms(3, P, [(e, rng.below(P)) for e in exps])
    d = f.homogeneous_degree()
    assert d == 4
    pt = [rng.below(P) for _ in range(3)]
    lam = rng.below(P - 1) + 1
    scaled = [v * lam % P for v in pt]
    assert f.eval(scaled) == f.eval(pt) * pow(lam, d, P) % P


def test_partial_examples():
    x, y = V(0), V(1)
    f = x * x * y
    assert f.partial(0) == 2 * x * y
    assert MultiPoly.constant(5, 2, P).partial(0).is_zero()
    with pytest.raises(IndexOutOfRange):
        f.partial(2)


def test_euler_relation_for_homogeneous_forms():
    rng = SplitMix64(41)
    exps = monomials_of_degree(4, 6)
    f = MultiPoly.from_terms(4, P, [(e, rng.below(P)) for e in exps])
    acc = MultiPoly.zero(4, P)
    for i in range(4):
        acc = acc + MultiPoly.variable(i, 4, P) * f.partial(i)
    assert acc == 6 * f


def test_is_homogeneous_examples():
    x, y = V(0), V(1)
    assert (x * x + x * y).homogeneous_degree() == 2
    assert (x * x + x).homogeneous_degree() is None
    assert MultiPoly.zero(2, P).homogeneous_degree() == 0


def test_linear_change_identity_permutation_and_inverse():
    x, y = V(0), V(1)
    f = x * x * y
    ident = [[1, 0], [0, 1]]
    assert f.linear_change(ident) == f
    swap = [[0, 1], [1, 0]]
    assert f.linear_change(swap) == y * y * x
    rng = SplitMix64(6)
    for _ in range(20):
        g = rand_poly(rng, nvars=3, maxdeg=3, terms=5)
        T = random_invertible(3, P, rng)
        Tinv = oracles.mat_inverse(T, P)
        assert g.linear_change(T).linear_change(Tinv) == g


def test_linear_change_preserves_degree_and_homogeneity():
    rng = SplitMix64(61)
    exps = monomials_of_degree(4, 6)
    f = MultiPoly.from_terms(4, P, [(e, rng.below(P)) for e in exps])
    T = random_invertible(4, P, rng)
    g = f.linear_change(T)
    assert g.homogeneous_degree() == 6


def test_linear_change_singular_raises():
    f = V(0) * V(1)
    with pytest.raises(SingularChange):
        f.linear_change([[1, 1], [1, 1]])


def test_specialize_and_embed():
    x, y, z = (MultiPoly.variable(i, 3, P) for i in range(3))
    f = x * y + z * z
    g = f.specialize(0, 5)
    assert g.nvars == 2
    assert g == 5 * MultiPoly.variable(0, 2, P) + \
        MultiPoly.variable(1, 2, P) ** 2
    h = g.embed(3, (1, 2))
    assert h == 5 * y.specialize(0, 1).embed(3, (1, 2)) + (z * z).specialize(0, 1).embed(3, (1, 2))


def test_mp_det_examples():
    zero = MultiPoly.zero(4, P)
    ys = [MultiPoly.variable(i, 4, P) for i in range(4)]
    diag = [[ys[0], zero, zero, zero],
            [zero, ys[1], zero, zero],
            [zero, zero, ys[2], zero],
            [zero, zero, zero, ys[3] ** 3]]
    assert mp_det(diag) == ys[0] * ys[1] * ys[2] * ys[3] ** 3
    f = rand_poly(SplitMix64(2), nvars=4)
    assert mp_det([[f]]) == f


def test_mp_det_transpose_and_permutation_oracle():
    rng = SplitMix64(14)
    for _ in range(5):
        grid = [[None] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                f = rand_poly(rng, nvars=4, maxdeg=2, terms=3)
                grid[i][j] = f
                grid[j][i] = f
        d = mp_det(grid)
        t = [[grid[j][i] for j in range(4)] for i in range(4)]
        assert d == mp_det(t)
        assert d == oracles.det_by_permutations(grid)


def test_mp_det_multilinearity_spot_check():
    rng = SplitMix64(15)
    rows = [[rand_poly(rng, nvars=2) for _ in range(3)] for _ in range(3)]
    u = [rand_poly(rng, nvars=2) for _ in range(3)]
    v = [rand_poly(rng, nvars=2) for _ in range(3)]
    summed = [[a + b for a, b in zip(u, v)], rows[1], rows[2]]
    assert mp_det(summed) == mp_det([u, rows[1], rows[2]]) + mp_det([v, rows[1], rows[2]])


def test_restrict_to_line_matches_direct_evaluation():
    rng = SplitMix64(9)
    exps = monomials_of_degree(4, 6)
    f = MultiPoly.from_terms(4, P, [(e, rng.below(P)) for e in exps])
    a = [rng.below(P) for _ in range(4)]
    b = [rng.below(P) for _ in range(4)]
    r = restrict_to_line(f, a, b)
    for t in (0, 1, 5, 1234):
        pt = [(a[k] + t * b[k]) % P for k in range(4)]
        assert upoly_eval(r, t, P) == f.eval(pt)


@pytest.mark.parametrize("p", [P, 2**61 - 1])
@pytest.mark.parametrize("nvars, degree", [(4, 6), (7, 3)])
def test_restrict_to_line_matches_interpolation_oracle(p, nvars, degree):
    # every slot of the Kronecker substitution stays below 2^S: the worst
    # case has every coefficient and every coordinate p - 1; coordinates
    # are also taken negative and at or above p
    exps = monomials_of_degree(nvars, degree)
    rng = SplitMix64(nvars * degree)
    dense = MultiPoly.from_terms(nvars, p, [(e, rng.below(p)) for e in exps])
    worst = MultiPoly.from_terms(nvars, p, [(e, p - 1) for e in exps])
    mixed = dense + MultiPoly.from_terms(
        nvars, p, [(e, rng.below(p)) for e in monomials_of_degree(nvars, 1)])
    lines = [([p - 1] * nvars, [p - 1] * nvars),
             ([-1] * nvars, [p - 1] * nvars),
             ([-rng.below(p) for _ in range(nvars)], [p + rng.below(p) for _ in range(nvars)]),
             ([rng.below(p) + k * p for k in range(nvars)], [-(p - 1)] * nvars),
             ([rng.below(p) for _ in range(nvars)], [rng.below(p) for _ in range(nvars)])]
    for f in (dense, worst, mixed):
        for a, b in lines:
            r = restrict_to_line(f, a, b)
            assert r == oracles.restrict_by_interpolation(f, a, b)
    r = restrict_to_line(worst, [p - 1] * nvars, [p - 1] * nvars)
    assert len(r) == degree + 1


def test_restrict_to_line_rejects_wrong_arity_and_maps_zero_to_zero():
    f = MultiPoly.variable(0, 3, P)
    with pytest.raises(ArityMismatch):
        restrict_to_line(f, [1, 2], [3, 4, 5])
    assert restrict_to_line(MultiPoly.zero(3, P), [1, 2, 3], [3, 4, 5]) == ()


def test_format_and_parse_round_trip():
    names = ("Y0", "Y1", "Y2", "Y3")
    rng = SplitMix64(3)
    for _ in range(100):
        f = rand_poly(rng, nvars=4, maxdeg=3, terms=6)
        text = format_poly(f, names)
        assert parse_poly(text, 4, P, names) == f
        assert format_poly(parse_poly(text, 4, P, names), names) == text
    assert format_poly(MultiPoly.zero(4, P), names) == "0"
    assert parse_poly("0", 4, P, names).is_zero()


def test_parse_poly_accepts_signs_and_rejects_junk():
    names = ("x", "y")
    f = parse_poly("x^2 - 2*y + 3", 2, 7, names)
    assert f == parse_poly("3 + 5*y + x^2", 2, 7, names)
    with pytest.raises(ValueError):
        parse_poly("x + q", 2, 7, names)
    with pytest.raises(ValueError):
        parse_poly("", 2, 7, names)


def test_format_example_shape():
    names = ("Y0", "Y1", "Y2", "Y3")
    f = parse_poly("3*Y0^2*Y3 + 31*Y1*Y2*Y3", 4, P, names)
    assert format_poly(f, names) == "3*Y0^2*Y3 + 31*Y1*Y2*Y3"


def test_monomials_of_degree_count_and_order():
    ms = monomials_of_degree(4, 2)
    assert len(ms) == 10
    assert ms[0] == (2, 0, 0, 0)
    assert ms[-1] == (0, 0, 0, 2)
    assert sorted(ms, key=grevlex_key) == list(ms)
