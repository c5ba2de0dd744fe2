import pytest

from sexticsolid.bundle import (CubicData, cubic_equation, diagonal_instance,
                                discriminant, exceptional_conic,
                                explicit_instance_text, fiber_gram,
                                format_instance, gram_matrix, parse_instance,
                                random_instance, smoothness_spotcheck,
                                smoothness_spotcheck_cubic)
from sexticsolid.errors import (ArityMismatch, BadPrime, DegenerateDiscriminant,
                                ZeroPoint)
from sexticsolid.exactalg import SplitMix64, matrix_rank
from sexticsolid.multipoly import (MultiPoly, format_poly,
                                   monomials_of_degree, parse_poly)

import oracles

P = 32003
NAMES4 = ("Y0", "Y1", "Y2", "Y3")


def test_random_instance_deterministic_and_in_range():
    a = random_instance(P, 1)
    b = random_instance(P, 1)
    assert a == b
    c = random_instance(7, 123)
    for f, _ in c._declared():
        assert all(0 <= v < 7 for v in f.terms.values())


def test_random_instance_bad_prime():
    with pytest.raises(BadPrime):
        random_instance(6, 1)
    with pytest.raises(BadPrime):
        random_instance(5, 1)   # p = 5 is excluded by the p > 6 contract
    with pytest.raises(BadPrime):
        random_instance(32001, 1)


def test_gram_matrix_diagonal_example_and_symmetry():
    d = diagonal_instance(P)
    m = gram_matrix(d)
    ys = [MultiPoly.variable(i, 4, P) for i in range(4)]
    for i in range(4):
        for j in range(4):
            expected = [ys[0], ys[1], ys[2], ys[3] ** 3][i] if i == j \
                else MultiPoly.zero(4, P)
            assert m.entries[i][j] == expected
    assert m.degree_pattern_ok()


def test_gram_degree_pattern_on_seeded_instances():
    for seed in range(1, 6):
        m = gram_matrix(random_instance(P, seed))
        assert m.degree_pattern_ok()
        for i in range(4):
            for j in range(4):
                assert m.entries[i][j] == m.entries[j][i]


def test_discriminant_diagonal_and_seeded_degree():
    d = diagonal_instance(P)
    surf = discriminant(d)
    ys = [MultiPoly.variable(i, 4, P) for i in range(4)]
    assert surf.delta == ys[0] * ys[1] * ys[2] * ys[3] ** 3
    for seed in range(1, 6):
        assert discriminant(random_instance(P, seed)).delta.homogeneous_degree() == 6


def test_discriminant_degenerate_error():
    d0 = diagonal_instance(P)
    zero = MultiPoly.zero(4, P)
    degenerate = CubicData(p=P, A=d0.A, B=d0.B, C=zero, seed=None)
    with pytest.raises(DegenerateDiscriminant):
        discriminant(degenerate)


def test_discriminant_equals_permutation_expansion_oracle():
    for seed in range(1, 6):
        d = random_instance(P, seed)
        m = gram_matrix(d)
        assert discriminant(d).delta == oracles.det_by_permutations(m.entries)


def test_cubic_equation_diagonal_and_plane_containment():
    d = diagonal_instance(P)
    f = cubic_equation(d)
    names = ("X0", "X1", "X2", "Y0", "Y1", "Y2", "Y3")
    expected = parse_poly("Y0*X0^2 + Y1*X1^2 + Y2*X2^2 + Y3^3", 7, P, names)
    assert f == expected
    for seed in range(1, 4):
        g = cubic_equation(random_instance(P, seed))
        assert g.homogeneous_degree() == 3
        # restriction to the center plane (all Y = 0) vanishes identically
        assert all(any(e[k] for k in range(3, 7)) for e in g.terms)


def test_fiber_gram_examples_and_determinant_compatibility():
    d = diagonal_instance(P)
    assert fiber_gram(d, (1, 1, 1, 1)) == [[1, 0, 0, 0], [0, 1, 0, 0],
                                           [0, 0, 1, 0], [0, 0, 0, 1]]
    assert matrix_rank(fiber_gram(d, (0, 1, 1, 1)), P) == 3
    with pytest.raises(ZeroPoint):
        fiber_gram(d, (0, 0, 0, 0))
    seeded = random_instance(P, 2)
    surf = discriminant(seeded)
    rng = SplitMix64(10)
    for _ in range(100):
        y = tuple(rng.below(P) for _ in range(4))
        if not any(y):
            continue
        G = fiber_gram(seeded, y)
        assert oracles.det_int(G, P) == surf.delta.eval(y)


@pytest.mark.parametrize("which", ["seed1", "seed2", "seed5", "diagonal"])
def test_fiber_gram_matches_entrywise_gram_matrix(which):
    d = diagonal_instance(P) if which == "diagonal" else random_instance(P, int(which[4:]))
    entries = gram_matrix(d).entries
    rng = SplitMix64(len(which))
    points = [(1, 0, 0, 0), (0, 0, 0, 1), (-1, P + 2, 3, -P)]
    points += [tuple(rng.below(3 * P) - P for _ in range(4)) for _ in range(40)]
    for y in points:
        if all(v % P == 0 for v in y):
            continue
        want = [[oracles.eval_by_pow(entries[i][j], y) for j in range(4)] for i in range(4)]
        assert fiber_gram(d, y) == want
        assert exceptional_conic(d, y) == [row[:3] for row in want[:3]]


def test_fiber_gram_rank_scale_invariance():
    d = random_instance(P, 3)
    rng = SplitMix64(11)
    for _ in range(30):
        y = tuple(rng.below(P) for _ in range(4))
        if not any(y):
            continue
        lam = rng.below(P - 1) + 1
        ry = tuple(v * lam % P for v in y)
        assert matrix_rank(fiber_gram(d, y), P) == matrix_rank(fiber_gram(d, ry), P)


def test_exceptional_conic_diagonal_example():
    d = diagonal_instance(P)
    for y in ((1, 1, 1, 0), (1, 1, 1, 7)):
        assert exceptional_conic(d, y) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_exceptional_conic_is_top_block_and_generically_rank3():
    d = random_instance(P, 4)
    rng = SplitMix64(12)
    found_rank3 = False
    for _ in range(30):
        y = tuple(rng.below(P) for _ in range(4))
        if not any(y):
            continue
        conic = exceptional_conic(d, y)
        G = fiber_gram(d, y)
        assert conic == [row[:3] for row in G[:3]]
        if matrix_rank(conic, P) == 3:
            found_rank3 = True
    assert found_rank3


def test_smoothness_fermat_cubic_has_no_singular_samples():
    # X0^3 + ... + Y3^3 in seven variables: the Jacobian is 3*(coordinate^2),
    # which cannot vanish at a projective point
    f = MultiPoly.from_terms(
        7, P,
        [(tuple(3 if j == i else 0 for j in range(7)), 1) for i in range(7)])
    report = smoothness_spotcheck_cubic(f, 50, seed=5)
    assert report.points_checked == 50
    assert report.failures == ()
    assert report.passed


def test_smoothness_detects_constructed_singular_cubes():
    # a perfect cube Y0^3: every point of its zero locus is singular
    f = MultiPoly.from_terms(7, P, [((0, 0, 0, 3, 0, 0, 0), 1)])
    report = smoothness_spotcheck_cubic(f, 20, seed=6)
    assert report.points_checked > 0
    assert len(report.failures) == report.points_checked
    assert not report.passed


def test_smoothness_seeded_instance_clean():
    d = random_instance(P, 1)
    report = smoothness_spotcheck(d, 100, seed=7)
    assert report.points_checked == 100
    assert report.passed


def test_instance_file_round_trips():
    seeded_text = "prime: 32003\nseed: 9\n"
    d = parse_instance(seeded_text)
    assert d.seed == 9
    assert format_instance(d) == seeded_text

    explicit = explicit_instance_text(d)
    d2 = parse_instance(explicit)
    assert d2.seed is None
    assert explicit_instance_text(d2) == explicit
    assert d2.A == d.A and d2.B == d.B and d2.C == d.C

    diag = diagonal_instance(P)
    assert parse_instance(format_instance(diag)) == diag


def test_instance_file_errors():
    with pytest.raises(ValueError):
        parse_instance("seed: 3\n")  # no prime
    with pytest.raises(ValueError):
        parse_instance("prime: 32003\nseed: 1\nC: Y3^3\n")  # seed plus forms
    with pytest.raises(ValueError):
        parse_instance("prime: 32003\nA00: Y0\n")  # incomplete forms
    with pytest.raises(BadPrime):
        parse_instance("prime: 10\nseed: 1\n")


def test_cubic_data_validation():
    zero = MultiPoly.zero(4, P)
    y0 = MultiPoly.variable(0, 4, P)
    good = diagonal_instance(P)
    with pytest.raises(ArityMismatch):
        CubicData(p=P, A=good.A, B=(y0, zero, zero), C=good.C, seed=None)  # B not quadratic
    asym = tuple(tuple(y0 if (i, j) == (0, 1) else good.A[i][j] for j in range(3))
                 for i in range(3))
    with pytest.raises(ArityMismatch):
        CubicData(p=P, A=asym, B=good.B, C=good.C, seed=None)


def test_documented_coefficient_order():
    # the first four draws of the seeded stream are the Y0..Y3 coefficients
    # of A00, in decreasing grevlex order
    seed = 77
    rng = SplitMix64(seed)
    expected_a00 = [rng.below(P) for _ in range(4)]
    d = random_instance(P, seed)
    a00 = d.A[0][0]
    got = [a00.terms.get(e, 0) for e in monomials_of_degree(4, 1)]
    assert got == expected_a00
