import pytest

from sexticsolid.bundle import (GRAM_FORMS, GRAM_INDEX, CubicData, cubic_equation,
                                discriminant, explicit_instance_text, fiber_gram,
                                gram_matrix, parse_instance,
                                points_on_lines, random_instance,
                                smoothness_spotcheck)
from sexticsolid.errors import (ArityMismatch, BadPrime, DegenerateDiscriminant,
                                ZeroPoint)
from sexticsolid.exactalg import SplitMix64, matrix_rank
from sexticsolid.multipoly import (MultiPoly, format_poly,
                                   monomials_of_degree, parse_poly)

import oracles
from oracles import diagonal_instance

P = 32003
NAMES4 = ("Y0", "Y1", "Y2", "Y3")


def test_random_instance_deterministic_and_in_range():
    a = random_instance(P, 1)
    b = random_instance(P, 1)
    assert a == b
    c = random_instance(7, 123)
    for f in c.entries:
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
            assert m[i][j] == expected


def test_gram_degree_pattern_on_seeded_instances():
    # symmetric, with homogeneous entries of degree 1 / 2 / 3 by block
    for seed in range(1, 6):
        m = gram_matrix(random_instance(P, seed))
        for i in range(4):
            for j in range(4):
                assert m[i][j] == m[j][i]
                assert m[i][j].homogeneous_degree() == 1 + (i == 3) + (j == 3)


def test_discriminant_diagonal_and_seeded_degree():
    d = diagonal_instance(P)
    delta = discriminant(d)
    ys = [MultiPoly.variable(i, 4, P) for i in range(4)]
    assert delta == ys[0] * ys[1] * ys[2] * ys[3] ** 3
    for seed in range(1, 6):
        assert discriminant(random_instance(P, seed)).homogeneous_degree() == 6


def test_discriminant_degenerate_error():
    d0 = diagonal_instance(P)
    zero = MultiPoly.zero(4, P)
    degenerate = CubicData(P, d0.entries[:9] + (zero,))  # C = 0
    with pytest.raises(DegenerateDiscriminant):
        discriminant(degenerate)


def test_discriminant_equals_permutation_expansion_oracle():
    for seed in range(1, 6):
        d = random_instance(P, seed)
        m = gram_matrix(d)
        assert discriminant(d) == oracles.det_by_permutations(m)


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


def _with_nonzero_b():
    text = ("prime: 32003\nA00: Y0\nA01: Y1 + 2*Y3\nA02: 0\nA11: Y2\nA12: Y0 - Y1\n"
            "A22: Y3\nB0: Y0*Y1 + 5*Y2^2\nB1: Y3^2\nB2: 3*Y0*Y2 - Y1*Y3\n"
            "C: Y0^3 + Y1*Y2*Y3 + 7*Y3^3\n")
    return parse_instance(text)


@pytest.mark.parametrize("which", ["seed1", "seed2", "seed3", "explicit"])
def test_cubic_fibers_have_the_gram_matrix(which):
    # F(x, s y) = s (x, s) M(y) (x, s)^T: the cubic's fiber quadric over y
    # has the Gram matrix that delta, the census and the fibers use
    d = _with_nonzero_b() if which == "explicit" else random_instance(P, int(which[4:]))
    assert any(not b.is_zero() for b in d.entries[6:9])  # B0 B1 B2
    f = cubic_equation(d)
    rng = SplitMix64(len(which))
    for _ in range(25):
        x = [rng.below(P) for _ in range(3)]
        y = [rng.below(P) for _ in range(4)]
        s = rng.below(P)
        v = x + [s]
        M = [[g.eval(y) for g in row] for row in gram_matrix(d)]
        q = sum(v[i] * M[i][j] * v[j] for i in range(4) for j in range(4))
        assert f.eval(x + [s * c for c in y]) == s * q % P


def test_fiber_gram_examples_and_determinant_compatibility():
    d = diagonal_instance(P)
    assert fiber_gram(d, (1, 1, 1, 1)) == [[1, 0, 0, 0], [0, 1, 0, 0],
                                           [0, 0, 1, 0], [0, 0, 0, 1]]
    assert matrix_rank(fiber_gram(d, (0, 1, 1, 1)), P) == 3
    with pytest.raises(ZeroPoint):
        fiber_gram(d, (0, 0, 0, 0))
    seeded = random_instance(P, 2)
    delta = discriminant(seeded)
    rng = SplitMix64(10)
    for _ in range(100):
        y = tuple(rng.below(P) for _ in range(4))
        if not any(y):
            continue
        G = fiber_gram(seeded, y)
        assert oracles.det_int(G, P) == delta.eval(y)


@pytest.mark.parametrize("which", ["seed1", "seed2", "seed5", "diagonal"])
def test_fiber_gram_matches_entrywise_gram_matrix(which):
    d = diagonal_instance(P) if which == "diagonal" else random_instance(P, int(which[4:]))
    entries = gram_matrix(d)
    rng = SplitMix64(len(which))
    points = [(1, 0, 0, 0), (0, 0, 0, 1), (-1, P + 2, 3, -P)]
    points += [tuple(rng.below(3 * P) - P for _ in range(4)) for _ in range(40)]
    for y in points:
        if all(v % P == 0 for v in y):
            continue
        want = [[oracles.eval_by_pow(entries[i][j], y) for j in range(4)] for i in range(4)]
        assert fiber_gram(d, y) == want


def test_fiber_gram_at_the_packed_slot_bound():
    # every coefficient p - 1 and every coordinate p - 1 at p = 2^61 - 1: the
    # cubic entry's slot reaches 20*(p-1)^2, next to the bound 20*p^2 that
    # the slot width is sized from
    p = 2**61 - 1

    def full(degree):
        return MultiPoly.from_terms(4, p, [(e, p - 1) for e in monomials_of_degree(4, degree)])

    d = CubicData(p, tuple(full(degree) for _, degree in GRAM_FORMS))
    entries = gram_matrix(d)
    rng = SplitMix64(61)
    for y in [(p - 1,) * 4, (1, p - 1, 1, p - 1)] + \
            [tuple(rng.below(p) for _ in range(4)) for _ in range(20)]:
        want = [[oracles.eval_by_pow(entries[i][j], y) for j in range(4)] for i in range(4)]
        assert fiber_gram(d, y) == want


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


def exceptional_conic(d, y):
    """A(y), the Gram matrix of the conic on the center plane: the top-left
    3x3 block of the fiber's Gram matrix."""
    return [row[:3] for row in fiber_gram(d, y)[:3]]


def test_exceptional_conic_diagonal_example():
    d = diagonal_instance(P)
    for y in ((1, 1, 1, 0), (1, 1, 1, 7)):
        assert exceptional_conic(d, y) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_exceptional_conic_is_top_block_and_generically_rank3():
    d = random_instance(P, 4)
    a = [row[:3] for row in gram_matrix(d)[:3]]
    rng = SplitMix64(12)
    found_rank3 = False
    for _ in range(30):
        y = tuple(rng.below(P) for _ in range(4))
        if not any(y):
            continue
        conic = exceptional_conic(d, y)
        assert conic == [[f.eval(y) for f in row] for row in a]
        if matrix_rank(conic, P) == 3:
            found_rank3 = True
    assert found_rank3


def test_smoothness_smooth_instance_has_no_singular_samples():
    # seed 1 passes the smoothness certificate: no sampled point is singular
    report = smoothness_spotcheck(random_instance(P, 1), 50, seed=5)
    assert report.points_checked == 50
    assert report.failures == ()
    assert report.passed


def test_smoothness_detects_constructed_singular_cubes():
    # C = Y0^3 and every other entry zero: the ambient cubic is the perfect
    # cube Y0^3, and every point of its zero locus is singular
    d = CubicData(P, tuple(MultiPoly.variable(0, 4, P) ** 3 if key == "C"
                           else MultiPoly.zero(4, P) for key, _ in GRAM_FORMS))
    assert cubic_equation(d) == MultiPoly.from_terms(7, P, [((0, 0, 0, 3, 0, 0, 0), 1)])
    report = smoothness_spotcheck(d, 20, seed=6)
    assert report.points_checked > 0
    assert len(report.failures) == report.points_checked
    assert not report.passed


def test_smoothness_zero_cubic_checks_nothing_and_fails():
    # every line lies inside the zero cubic: no point is found, and a check
    # of none of the requested points is not a pass
    d = CubicData(P, tuple(MultiPoly.zero(4, P) for _ in GRAM_FORMS))
    report = smoothness_spotcheck(d, 5, seed=8)
    assert (report.points_requested, report.points_checked, report.failures) == (5, 0, ())
    assert not report.passed


def test_points_on_lines_yields_distinct_normalized_zeros():
    f = MultiPoly.from_terms(
        4, P, [(tuple(3 if j == i else 0 for j in range(4)), 1) for i in range(4)])
    points = list(points_on_lines(f, SplitMix64(9), 40))
    assert len(points) > 10
    assert len(set(points)) == len(points)
    for pt in points:
        assert f.eval(pt) == 0
        assert next(x for x in pt if x) == 1


def test_points_on_lines_yields_nothing_inside_the_zero_polynomial():
    assert list(points_on_lines(MultiPoly.zero(4, P), SplitMix64(10), 40)) == []


def test_smoothness_seeded_instance_clean():
    d = random_instance(P, 1)
    report = smoothness_spotcheck(d, 100, seed=7)
    assert report.points_checked == 100
    assert report.passed


def test_instance_file_round_trips():
    d = parse_instance("prime: 32003\nseed: 9\n")
    assert d == random_instance(P, 9)

    explicit = explicit_instance_text(d)
    d2 = parse_instance(explicit)
    assert d2.seed is None
    assert explicit_instance_text(d2) == explicit
    assert d2.entries == d.entries

    diag = diagonal_instance(P)
    assert parse_instance(explicit_instance_text(diag)) == diag


def test_random_instance_records_its_seed_mod_2_64():
    # -5, 2^64 - 5 and a file's "seed: -5" draw one instance, and record one seed
    d = random_instance(P, -5)
    assert d.seed == 2**64 - 5
    assert d == random_instance(P, 2**64 - 5) == parse_instance("prime: 32003\nseed: -5\n")


@pytest.mark.parametrize("form", ["2 3*Y0", "Y 0", "1 0*Y1", "+", "3+", "Y0++Y1", "Y0 + ",
                                  "- ", "Y0 - -Y1"])
def test_instance_file_rejects_split_tokens_and_empty_terms(form):
    text = explicit_instance_text(diagonal_instance(P))
    assert "\nA01: 0\n" in text
    with pytest.raises(ValueError):
        parse_instance(text.replace("\nA01: 0\n", f"\nA01: {form}\n"))


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
    y0 = MultiPoly.variable(0, 4, P)
    good = diagonal_instance(P).entries
    with pytest.raises(ArityMismatch, match="B1"):
        CubicData(P, good[:7] + (y0,) + good[8:])  # B1 not quadratic
    with pytest.raises(ArityMismatch, match="A00"):
        CubicData(P, (MultiPoly.variable(0, 7, P),) + good[1:])  # not in Y0..Y3
    with pytest.raises(ArityMismatch, match="A00 A01 A02 A11 A12 A22 B0 B1 B2 C"):
        CubicData(P, good[:9])
    with pytest.raises(ArityMismatch, match="A00 A01 A02 A11 A12 A22 B0 B1 B2 C"):
        CubicData(P, good + (y0,))


def test_gram_layout_is_symmetric_and_degree_graded():
    # every one of the ten entries sits at (i, j) and (j, i), and nowhere
    # else; its degree is 1 + [i == 3] + [j == 3]
    places = {}
    for i, row in enumerate(GRAM_INDEX):
        for j, k in enumerate(row):
            assert GRAM_INDEX[j][i] == k
            assert GRAM_FORMS[k][1] == 1 + (i == 3) + (j == 3)
            places.setdefault(k, set()).add((min(i, j), max(i, j)))
    assert sorted(places) == list(range(len(GRAM_FORMS)))
    assert all(len(v) == 1 for v in places.values())
    assert [k for k, _ in GRAM_FORMS] == ["A00", "A01", "A02", "A11", "A12", "A22",
                                        "B0", "B1", "B2", "C"]


def test_documented_coefficient_order():
    # the first four draws of the seeded stream are the Y0..Y3 coefficients
    # of A00, in decreasing grevlex order
    seed = 77
    rng = SplitMix64(seed)
    expected_a00 = [rng.below(P) for _ in range(4)]
    d = random_instance(P, seed)
    a00 = d.entries[0]
    got = [a00.terms.get(e, 0) for e in monomials_of_degree(4, 1)]
    assert got == expected_a00
