from dataclasses import replace

import pytest

from sexticsolid.bundle import (DiscriminantSurface, diagonal_instance,
                                discriminant, gram_matrix, random_instance)
from sexticsolid.errors import CensusNotGeneric
from sexticsolid.groebner import (buchberger, krull_dim, normal_form,
                                  quotient_dim, reducedness_certificate)
from sexticsolid.exactalg import SplitMix64
from sexticsolid.multipoly import MultiPoly
from sexticsolid.singular import (EXPECTED_NODE_COUNT, double_solid_census,
                                  double_solid_chart, jacobian_ideal,
                                  node_census, rank_stratum_ideal, strata_check)

import oracles

P = 32003


def test_jacobian_ideal_of_fermat_sextic():
    f = MultiPoly.from_terms(
        4, P,
        [(tuple(6 if j == i else 0 for j in range(4)), 1) for i in range(4)])
    jac = jacobian_ideal(DiscriminantSurface(f))
    assert len(jac.generators) == 4
    assert jac.homogeneous
    mono = [g.monic() for g in jac.generators]
    for i in range(4):
        e = tuple(5 if j == i else 0 for j in range(4))
        assert MultiPoly.from_terms(4, P, [(e, 1)]) in mono


def test_jacobian_ideal_seeded_is_four_quintics():
    surf = discriminant(random_instance(P, 1))
    jac = jacobian_ideal(surf)
    assert [g.homogeneous_degree() for g in jac.generators] == [5, 5, 5, 5]


def test_node_census_fermat_is_degenerate_with_empty_singular_locus():
    f = MultiPoly.from_terms(
        4, P,
        [(tuple(6 if j == i else 0 for j in range(4)), 1) for i in range(4)])
    rep = node_census(DiscriminantSurface(f), seed=3)
    assert rep.zero_dimensional
    assert rep.degree == 0
    assert not rep.points_at_infinity
    assert rep.verdict == "degenerate"


def test_node_census_diagonal_not_zero_dimensional():
    surf = discriminant(diagonal_instance(P))
    rep = node_census(surf, seed=4)
    assert not rep.zero_dimensional
    assert rep.degree == -1
    assert rep.reduced == "failed"
    assert rep.verdict == "degenerate"


def test_node_census_seed1_pinned_generic(seed1):
    rep = seed1.census
    assert rep.degree == EXPECTED_NODE_COUNT == 31
    assert rep.reduced == "certified"
    assert not rep.points_at_infinity
    assert rep.verdict == "generic_31_nodes"
    assert rep.chart_change_seed == 1


def test_node_census_verdict_invariant_under_chart_seed(seed1):
    for chart_seed in (101, 202):
        rep = node_census(seed1.surface, chart_seed)
        assert rep.degree == seed1.census.degree
        assert rep.verdict == seed1.census.verdict


def test_node_census_degree_matches_macaulay_oracle(seed1):
    # independent dimension count for the pinned instance: Macaulay matrices
    # on the dehomogenized Jacobian in the same chart the census used
    from sexticsolid.singular import _chart_rng
    T, _ = _chart_rng(P, seed1.census.chart_change_seed)
    moved = seed1.surface.delta.linear_change(T)
    affine = [moved.partial(i).specialize(0, 1) for i in range(4)]
    affine = [f for f in affine if not f.is_zero()]
    assert oracles.macaulay_quotient_dim(affine, max_degree=17, window=2) == 31


def test_rank_stratum_ideal_shapes():
    d = random_instance(P, 1)
    m = gram_matrix(d)
    top = rank_stratum_ideal(m, 3)
    assert len(top.generators) == 1
    assert top.generators[0] == discriminant(d).delta

    minors3 = rank_stratum_ideal(m, 2)
    assert len(minors3.generators) == 10
    degs = sorted(g.homogeneous_degree() for g in minors3.generators)
    assert degs == [3, 4, 4, 4, 5, 5, 5, 5, 5, 5]

    minors2 = rank_stratum_ideal(m, 1)
    assert len(minors2.generators) == 21

    with pytest.raises(ValueError):
        rank_stratum_ideal(m, 0)


def test_rank_stratum_ideal_diagonal_products():
    d = diagonal_instance(P)
    m = gram_matrix(d)
    minors3 = rank_stratum_ideal(m, 2)
    ys = [MultiPoly.variable(i, 4, P) for i in range(4)]
    expected = ys[0] * ys[1] * ys[2]
    assert any(g == expected for g in minors3.generators)


def test_rank_loci_are_nested():
    # each 3x3 minor is an exact combination of 2x2 minors (cofactor
    # expansion), so the rank <= 1 locus sits inside the rank <= 2 locus
    d = random_instance(P, 2)
    m = gram_matrix(d)
    gb_rank1 = buchberger(rank_stratum_ideal(m, 1))
    for g in rank_stratum_ideal(m, 2).generators:
        assert normal_form(g, gb_rank1).is_zero()


def test_strata_check_passes_on_pinned_instance(seed1):
    report = strata_check(seed1.d, seed1.surface, 1, census=seed1.census)
    assert report.rank2_equals_sigma
    assert report.rank1_empty
    assert report.delta_in_minor_ideal
    assert report.passed
    labels = [label for label, _ in report.details]
    assert sum(1 for s in labels if s.startswith("minor3_")) == 10
    assert sum(1 for s in labels if s.startswith("jacobian_")) == 4
    assert all(ok for _, ok in report.details)


def test_strata_check_refuses_degenerate_census():
    d = diagonal_instance(P)
    surf = discriminant(d)
    with pytest.raises(CensusNotGeneric):
        strata_check(d, surf, seed=5)


def test_double_solid_chart_shape(seed1):
    chart = double_solid_chart(seed1.surface, 1)
    g = chart.g
    assert g.nvars == 4
    assert g.terms.get((2, 0, 0, 0)) == 1          # w^2 with unit coefficient
    assert max(e[0] for e in g.terms) == 2
    assert all(e[0] in (0, 2) for e in g.terms)


def test_double_solid_census_matches_node_census(seed1):
    rep = double_solid_census(seed1.surface, 1, census=seed1.census)
    assert rep.degree == seed1.census.degree == 31
    assert rep.reduced == "certified"
    assert rep.verdict == "generic_31_nodes"


@pytest.mark.parametrize("seed", [1, 3])
def test_double_solid_basis_is_w_and_census_basis(seed, seed1):
    # the shortcut's basis {w} + census basis is the reduced basis of the
    # Tjurina generators themselves, and the census's counts carry over
    if seed == 1:
        surface, census = seed1.surface, seed1.census
    else:
        surface = discriminant(random_instance(P, seed))
        census = node_census(surface, seed)
    rep = double_solid_census(surface, seed, census=census)
    g = double_solid_chart(surface, seed).g
    assert rep.basis == buchberger([g] + [g.partial(i) for i in range(4)])
    assert rep.degree == census.degree == 31
    assert rep.reduced == census.reduced == "certified"


@pytest.mark.parametrize("change", [{"reduced": "not_certified"},
                                    {"points_at_infinity": True},
                                    {"basis": None}, {"moved_sextic": None},
                                    {"sextic": None}])
def test_downstream_checks_refuse_an_uncertified_census(seed1, change):
    # the verdict still reads generic: the guards look past it
    census = replace(seed1.census, **change)
    assert census.verdict == "generic_31_nodes"
    with pytest.raises(CensusNotGeneric):
        strata_check(seed1.d, seed1.surface, 1, census=census)
    with pytest.raises(CensusNotGeneric):
        double_solid_census(seed1.surface, 1, census=census)


def test_double_solid_census_refuses_a_census_of_another_surface(seed1):
    surface2 = discriminant(random_instance(P, 2))
    with pytest.raises(CensusNotGeneric, match="another sextic"):
        double_solid_census(surface2, 2, census=seed1.census)


def test_strata_check_refuses_a_census_of_another_surface(seed1):
    d2 = random_instance(P, 2)
    with pytest.raises(CensusNotGeneric, match="another sextic"):
        strata_check(d2, discriminant(d2), 2, census=seed1.census)


def test_strata_check_moves_each_distinct_gram_entry_once(seed1, monkeypatch):
    calls = []
    original = MultiPoly.linear_change

    def counted(self, T):
        calls.append(self)
        return original(self, T)

    monkeypatch.setattr(MultiPoly, "linear_change", counted)
    assert strata_check(seed1.d, seed1.surface, 1, census=seed1.census).passed
    assert len(calls) == 10


def test_double_solid_census_checks_the_sextic_against_the_basis(seed1):
    y1 = MultiPoly.variable(1, 4, P)
    moved = seed1.census.moved_sextic
    # not homogeneous of degree 6: the Euler identity fails
    with pytest.raises(CensusNotGeneric, match="Euler"):
        double_solid_census(seed1.surface, 1,
                            census=replace(seed1.census, moved_sextic=moved + y1 ** 5))
    # another sextic: its Tjurina ideal is not (w) + the census ideal
    with pytest.raises(CensusNotGeneric, match="Tjurina"):
        double_solid_census(seed1.surface, 1,
                            census=replace(seed1.census, moved_sextic=moved + y1 ** 6))


def test_double_solid_census_refuses_degenerate(seed1):
    surf = discriminant(diagonal_instance(P))
    with pytest.raises(CensusNotGeneric):
        double_solid_census(surf, seed=6)


def test_affine_tjurina_census_single_node_toy():
    # w^2 - (y1^2 + y2^2 + y3^2): one ordinary double point at the origin
    w, y1, y2, y3 = (MultiPoly.variable(i, 4, P) for i in range(4))
    g = w * w - (y1 * y1 + y2 * y2 + y3 * y3)
    gens = [g] + [g.partial(i) for i in range(4)]
    gb = buchberger(gens)
    assert krull_dim(gb) == 0
    assert quotient_dim(gb) == 1
    assert reducedness_certificate(gb, SplitMix64(8)) == "certified"


def test_affine_tjurina_census_degenerate_branch_toy():
    # w^2 - y1^2 * y2: non-isolated singular locus, so no finite census
    w, y1, y2, _ = (MultiPoly.variable(i, 4, P) for i in range(4))
    g = w * w - y1 * y1 * y2
    gens = [g] + [g.partial(i) for i in range(4)]
    gb = buchberger(gens)
    assert krull_dim(gb) > 0
