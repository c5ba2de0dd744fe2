import pytest

from sexticsolid.bundle import gram_matrix, random_instance
from sexticsolid.cli import stage_seed
from sexticsolid.errors import (DegreeOverflow, NotHomogeneous,
                                NotZeroDimensional, ResourceBudgetExceeded)
from sexticsolid.exactalg import SplitMix64, charpoly, upoly, upoly_is_squarefree
from sexticsolid.groebner import (MAX_PACKED_DEGREE, GBasis, _packing,
                                  buchberger, in_radical, is_irrelevant,
                                  krull_dim, make_ideal, mult_matrix,
                                  normal_form, quotient_dim,
                                  reducedness_certificate, standard_monomials)
from sexticsolid.multipoly import MultiPoly, grevlex_key, mp_det
from sexticsolid.singular import _chart_rng, rank_stratum_ideal

import oracles

P = 32003


def V(i, n=2, p=P):
    return MultiPoly.variable(i, n, p)


def poly(pairs, n=2, p=P):
    return MultiPoly.from_terms(n, p, pairs)


def rand_poly(rng, nvars=2, maxdeg=2, terms=3, p=P):
    pairs = [(tuple(rng.below(maxdeg + 1) for _ in range(nvars)), rng.below(p))
             for _ in range(rng.below(terms) + 1)]
    return MultiPoly.from_terms(nvars, p, pairs)


def small_ideals(seed, count, nvars=2, zero_dim=True):
    """Seeded zero-dimensional ideals: pure powers plus random noise."""
    rng = SplitMix64(seed)
    out = []
    while len(out) < count:
        gens = []
        for i in range(nvars):
            a = rng.below(3) + 1
            lead = tuple(a if j == i else 0 for j in range(nvars))
            noise = rand_poly(rng, nvars, maxdeg=a - 1 if a > 1 else 0, terms=3)
            gens.append(poly([(lead, 1)], nvars) + noise)
        if zero_dim:
            gens.append(rand_poly(rng, nvars, maxdeg=2, terms=3))
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            out.append(gens)
    return out


def low_degree_noise(rng, nvars, below_total, p=P):
    """Random polynomial of total degree strictly below the given bound."""
    pairs = []
    for _ in range(rng.below(3) + 1):
        while True:
            e = tuple(rng.below(below_total) for _ in range(nvars))
            if sum(e) < below_total:
                break
        pairs.append((e, rng.below(p)))
    return MultiPoly.from_terms(nvars, p, pairs)


def tame_zero_dim_ideals(seed, count, nvars=2):
    """Pure-power leads with strictly lower-degree tails: the grevlex leads
    are the pure powers themselves, so the Macaulay oracle's stopping rule
    is sound on these."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        gens = []
        for i in range(nvars):
            a = rng.below(3) + 2
            lead = tuple(a if j == i else 0 for j in range(nvars))
            gens.append(poly([(lead, 1)], nvars) + low_degree_noise(rng, nvars, a))
        out.append(gens)
    return out


def mixed_degree_ideals(seed, count, nvars=3):
    """Seeded inhomogeneous ideals: each generator is a pure power of degree
    a in 1..4 plus random terms whose exponents are at most a."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        gens = []
        for i in range(nvars):
            a = rng.below(4) + 1
            lead = tuple(a if j == i else 0 for j in range(nvars))
            gens.append(poly([(lead, 1)], nvars) + rand_poly(rng, nvars, maxdeg=a, terms=4))
        out.append(gens)
    return out


@pytest.mark.parametrize("nvars", [3, 4, 5])
def test_packed_monomials_match_grevlex_tuples(nvars):
    # packed < is grevlex, packed + is the exponent sum, and the guard-bit
    # test is componentwise <=; grevlex is multiplicative with 1 smallest
    packing = _packing(nvars)
    guard = packing.guard
    rng = SplitMix64(70 + nvars)
    exps = [(0,) * nvars] + [tuple(rng.below(4) for _ in range(nvars)) for _ in range(60)]
    packed = [packing.pack(e) for e in exps]
    assert min(packed) == packed[0] == 0

    def plus(a, b):
        return tuple(x + y for x, y in zip(a, b))

    seen = set()
    for a, pa in zip(exps, packed):
        assert packing.unpack(pa) == a
        for b, pb in zip(exps, packed):
            assert (pa < pb) == (grevlex_key(a) > grevlex_key(b))
            assert (pa < pb) == (grevlex_key(plus(a, exps[1])) > grevlex_key(plus(b, exps[1])))
            assert (pa == pb) == (a == b)
            assert packing.unpack(pa + pb) == plus(a, b)
            divides = ((pb | guard) - pa) & guard == guard
            assert divides == all(x <= y for x, y in zip(a, b))
            seen.add(divides)
    assert seen == {True, False}


def test_degree_beyond_the_packed_field_raises():
    x, y = V(0), V(1)
    gb = buchberger([x - 1, y - 1])
    one = MultiPoly.constant(1, 2, P)
    assert normal_form(x ** MAX_PACKED_DEGREE, gb) == one
    with pytest.raises(DegreeOverflow):
        normal_form(x ** (MAX_PACKED_DEGREE + 1), gb)
    with pytest.raises(DegreeOverflow):
        buchberger([x ** (MAX_PACKED_DEGREE + 1) - 1, y - 1])
    # every input fits, but the S-pair's lcm x^h y^h does not
    h = MAX_PACKED_DEGREE // 2 + 1
    with pytest.raises(DegreeOverflow):
        buchberger([x ** h * y - 1, x * y ** h - 1])


def test_buchberger_trivial_examples():
    x, y = V(0), V(1)
    gb = buchberger([x, y])
    assert gb.basis == (y, x) or gb.basis == (x, y)
    gb2 = buchberger([x * x, x * y])
    assert set(gb2.basis) == {x * x, x * y}
    gb3 = buchberger([x - y * y, y - 1])
    assert set(gb3.basis) == {x - 1, y - 1}


def test_buchberger_is_reduced_and_monic():
    for gens in small_ideals(51, 10):
        gb = buchberger(gens)
        leads = gb.lead_exps()
        for i, g in enumerate(gb.basis):
            assert g.lead_coeff() == 1
            for j, le in enumerate(leads):
                if i == j:
                    continue
                # no lead divides another lead, and tails are fully reduced
                for e in g.terms:
                    assert not all(a <= b for a, b in zip(le, e))


def test_buchberger_unique_under_selection_shuffles():
    # the mixed-degree ideals are where sugar order and lcm order disagree
    for k, gens in enumerate(small_ideals(52, 5) + mixed_degree_ideals(63, 8)):
        reference = buchberger(gens)
        for shuffle_seed in range(5):
            assert buchberger(gens, selection_seed=1000 * k + shuffle_seed) == reference


def test_census_basis_within_sugar_step_count(seed1):
    # the census's affine Jacobian ideal: four dehomogenized quintics.  Sugar
    # selection reduces it in about 7 000 steps, selection by smallest lcm
    # alone needs about 47 000
    T, _ = _chart_rng(P, stage_seed(1, 0, "census"))
    moved = seed1.surface.delta.linear_change(T)
    affine = [moved.partial(i).specialize(0, 1) for i in range(4)]
    gb = buchberger([f for f in affine if not f.is_zero()], budget=15_000)
    assert quotient_dim(gb) == 31


def test_buchberger_budget_error():
    d = random_instance(P, 1)
    m = gram_matrix(d)
    minors = rank_stratum_ideal(m, 2)
    with pytest.raises(ResourceBudgetExceeded):
        buchberger(minors, budget=10)


def test_normal_form_examples():
    x, y = V(0), V(1)
    gb = buchberger([x * x - 1, y - x])
    for g in gb.basis:
        assert normal_form(g, gb).is_zero()
    one = MultiPoly.constant(1, 2, P)
    assert normal_form(one, gb) == one


def test_normal_form_against_brute_force_oracle():
    rng = SplitMix64(53)
    cases = 0
    for gens in small_ideals(54, 10):
        gb = buchberger(gens)
        for _ in range(15):
            f = rand_poly(rng, maxdeg=4, terms=6)
            nf = normal_form(f, gb)
            assert nf == oracles.brute_normal_form(f, gb.basis, rng)
            cases += 1
    assert cases == 150


def test_normal_form_is_multiplicative_modulo_ideal():
    rng = SplitMix64(55)
    for gens in small_ideals(56, 5):
        gb = buchberger(gens)
        for _ in range(10):
            f = rand_poly(rng)
            g = rand_poly(rng)
            lhs = normal_form(f * g, gb)
            rhs = normal_form(normal_form(f, gb) * normal_form(g, gb), gb)
            assert lhs == rhs


def test_quotient_dim_examples():
    x, y = V(0), V(1)
    assert quotient_dim(buchberger([x ** 2, y ** 3])) == 6
    assert quotient_dim(buchberger([x - 1, y - 1])) == 1
    sm = standard_monomials(buchberger([x ** 2, y ** 3]))
    assert set(sm) == {(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)}


def test_quotient_dim_raises_on_positive_dimension():
    x, y = V(0), V(1)
    gb = buchberger([x])
    with pytest.raises(NotZeroDimensional):
        quotient_dim(gb)


def test_quotient_dim_against_macaulay_oracle_spot():
    for gens in tame_zero_dim_ideals(57, 5):
        gb = buchberger(gens)
        assert krull_dim(gb) <= 0
        assert quotient_dim(gb) == oracles.macaulay_quotient_dim(gens)


def test_krull_dim_examples():
    x, y = V(0), V(1)
    assert krull_dim(buchberger([x])) == 1
    assert krull_dim(buchberger([x, y])) == 0
    one = MultiPoly.constant(1, 2, P)
    assert krull_dim(buchberger([one])) == -1


def test_in_radical_examples():
    x, y = V(0), V(1)
    assert in_radical(x, make_ideal([x * x]))
    assert not in_radical(y, make_ideal([x]))


def test_in_radical_determinant_in_minor_ideal():
    d = random_instance(P, 1)
    m = gram_matrix(d)
    delta = mp_det(m.entries)
    minors = rank_stratum_ideal(m, 2)
    gb = buchberger(minors)
    assert in_radical(delta, make_ideal(gb.basis))


def test_in_radical_agrees_with_power_membership():
    # in (x^a, y^b), a polynomial is in the radical iff its constant term
    # vanishes; when it is, some power <= 6 reduces to zero
    rng = SplitMix64(58)
    x, y = V(0), V(1)
    for _ in range(20):
        a, b = rng.below(3) + 1, rng.below(3) + 1
        ideal = make_ideal([x ** a, y ** b])
        gb = buchberger(ideal)
        f = rand_poly(rng, maxdeg=2, terms=4)
        expected = f.terms.get((0, 0), 0) == 0
        assert in_radical(f, ideal) == expected
        if expected:
            powers = [normal_form(f ** k, gb).is_zero() for k in range(1, 7)]
            assert any(powers)


def test_is_irrelevant_examples():
    n = 4
    ys = [MultiPoly.variable(i, n, P) for i in range(n)]
    assert is_irrelevant(make_ideal(ys))
    assert not is_irrelevant(make_ideal([ys[0]]))
    with pytest.raises(NotHomogeneous):
        is_irrelevant(make_ideal([ys[0] + 1]))


def test_is_irrelevant_for_rank1_minors_of_seeded_gram():
    d = random_instance(P, 1)
    minors = rank_stratum_ideal(gram_matrix(d), 1)
    assert is_irrelevant(minors)


def test_mult_matrix_examples():
    x = V(0, n=1)
    gb = buchberger([x * x - 1])
    assert mult_matrix(gb, x) == [[0, 1], [1, 0]]
    assert charpoly(mult_matrix(gb, x), P) == upoly((-1, 0, 1), P)
    gb2 = buchberger([x - 5])
    assert mult_matrix(gb2, x) == [[5]]
    assert charpoly(mult_matrix(gb2, x), P) == upoly((-5, 1), P)


def test_mult_matrix_charpoly_annihilates_operator():
    rng = SplitMix64(59)
    for gens in small_ideals(60, 5):
        gb = buchberger(gens)
        if krull_dim(gb) > 0 or quotient_dim(gb) == 0:
            continue
        ell = V(0) + 3 * V(1)
        cp = charpoly(mult_matrix(gb, ell), P)
        acc = MultiPoly.zero(2, P)
        power = MultiPoly.constant(1, 2, P)
        for c in cp:
            acc = acc + c * power
            power = power * ell
        assert normal_form(acc, gb).is_zero()


def test_reducedness_certificate_one_sided():
    x = V(0, n=1)
    rng = SplitMix64(61)
    gb_red = buchberger([x * x - 1])          # two distinct points
    assert reducedness_certificate(gb_red, rng) == "certified"
    gb_fat = buchberger([(x - 1) * (x - 1)])  # a double point: never certified
    assert reducedness_certificate(gb_fat, SplitMix64(62)) == "not_certified"


def test_gbasis_canonical_sorting_and_unit():
    x, y = V(0), V(1)
    one = MultiPoly.constant(1, 2, P)
    gb = buchberger([x + 1, x])
    assert gb.is_unit()
    assert gb.basis == (one,)
    assert quotient_dim(gb) == 0
    assert standard_monomials(gb) == []
