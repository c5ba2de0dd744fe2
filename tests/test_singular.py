import json
from functools import cache

import pytest

from sexticsolid import bundle, singular
from sexticsolid.bundle import (GRAM_FORMS, CubicData, cubic_equation, discriminant,
                                gram_matrix, random_instance)
from sexticsolid.cli import main, stage_seed
from sexticsolid.errors import CensusNotGeneric
from sexticsolid.groebner import (DEFAULT_BUDGET, buchberger, is_irrelevant, is_zero_dimensional,
                                  normal_form, quotient_dim, reducedness_certificate)
from sexticsolid.exactalg import SplitMix64, fp_inv
from sexticsolid.multipoly import LinearChange, MultiPoly, grevlex_key
from sexticsolid.singular import (EXPECTED_NODE_COUNT, center_plane_conics, double_solid_census, node_census,
                                  rank_stratum_ideal, smoothness_certificate, strata_check)

import oracles
from oracles import diagonal_instance

P = 32003


def test_jacobian_ideal_of_fermat_sextic():
    f = MultiPoly.from_terms(
        4, P,
        [(tuple(6 if j == i else 0 for j in range(4)), 1) for i in range(4)])
    jac = [f.partial(i) for i in range(4)]
    assert len(jac) == 4
    mono = [g.scale(fp_inv(g.packed[g.lead_key()], P)) for g in jac]
    for i in range(4):
        e = tuple(5 if j == i else 0 for j in range(4))
        assert MultiPoly.from_terms(4, P, [(e, 1)]) in mono


def test_jacobian_ideal_seeded_is_four_quintics():
    delta = discriminant(random_instance(P, 1))
    assert [delta.partial(i).homogeneous_degree() for i in range(4)] == [5, 5, 5, 5]


def test_node_census_fermat_is_degenerate_with_empty_singular_locus():
    # no Gram matrix has this determinant at hand, so the census core runs
    # on the bare sextic, in the chart it is written in
    f = MultiPoly.from_terms(
        4, P,
        [(tuple(6 if j == i else 0 for j in range(4)), 1) for i in range(4)])
    rep = singular._census(f, 3, SplitMix64(3), DEFAULT_BUDGET, None)
    assert rep.zero_dimensional
    assert rep.degree == 0
    assert not rep.points_at_infinity
    assert rep.verdict == "degenerate"


def test_node_census_diagonal_not_zero_dimensional():
    rep = node_census(diagonal_instance(P), seed=4)
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
        rep = node_census(seed1.d, chart_seed)
        assert rep.degree == seed1.census.degree
        assert rep.verdict == seed1.census.verdict


def test_node_census_degree_matches_macaulay_oracle(seed1):
    # independent dimension count for the pinned instance: Macaulay matrices
    # on the dehomogenized Jacobian in the same chart the census used
    moved = oracles.linear_change(seed1.delta, seed1.census.chart.matrix)
    affine = [moved.partial(i).specialize(0, 1) for i in range(4)]
    affine = [f for f in affine if not f.is_zero()]
    assert oracles.macaulay_quotient_dim(affine, max_degree=17, window=2) == 31


@cache
def verify_census(p, seed):
    """The node census of verify --prime p --seed seed (first attempt)."""
    return node_census(random_instance(p, seed), stage_seed(seed, 0, "census"))


@pytest.mark.parametrize("p, degree", [(19, 31), (7, 28)])
def test_node_census_sees_a_singular_point_at_infinity(p, degree):
    # seed 1's census chart puts a singular point of the sextic on y0 = 0:
    # the affine count misses it, and the verdict is degenerate
    rep = verify_census(p, 1)
    assert (rep.degree, rep.points_at_infinity) == (degree, True)
    assert rep.verdict == "degenerate"


@pytest.mark.parametrize("p", [7, 19, 32003])
def test_infinity_check_on_the_plane_matches_the_projective_oracle(p):
    # the partials restricted to y0 = 0 meet in P^2 iff the partials and y0
    # meet in P^3
    y0 = MultiPoly.variable(0, 4, p)
    for seed in range(1, 6):
        rep = verify_census(p, seed)
        parts = [rep.moved_sextic.partial(i) for i in range(4)]
        assert rep.points_at_infinity == (not is_irrelevant(parts + [y0])), seed


def entries(rows) -> list:
    """The distinct nonzero entries of a matrix of polynomials, row by row."""
    out = []
    for g in (g for row in rows for g in row):
        if not g.is_zero() and g not in out:
            out.append(g)
    return out


def test_rank_stratum_ideal_shapes():
    d = random_instance(P, 1)
    m = gram_matrix(d)
    adj = rank_stratum_ideal(m)
    assert all(adj[i][j] == adj[j][i] for i in range(4) for j in range(4))
    minors3 = entries(adj)
    assert len(minors3) == 10
    degs = sorted(g.homogeneous_degree() for g in minors3)
    assert degs == [3, 4, 4, 4, 5, 5, 5, 5, 5, 5]

    # the rank <= 3 and rank <= 1 ideals, by the tuple-determinant oracle
    assert [oracles.tuple_det(m)] == oracles.symmetric_minors(m, 4) == [discriminant(d)]
    assert len(oracles.symmetric_minors(m, 2)) == 21


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gram_minors_and_delta_match_the_tuple_determinant(seed):
    d = random_instance(P, seed)
    m = gram_matrix(d)
    assert discriminant(d) == oracles.tuple_det(m)
    adj = rank_stratum_ideal(m)
    for i in range(4):
        for j in range(4):
            minor = oracles.tuple_det([[m[r][c] for c in range(4) if c != i]
                                       for r in range(4) if r != j])
            assert adj[i][j] == (-minor if (i + j) % 2 else minor)
    # every 3x3 minor is an entry of adj M, up to sign
    signed = entries(adj)
    assert all(g in signed or -g in signed for g in oracles.symmetric_minors(m, 3))


@pytest.mark.parametrize("seed", [1, 2, 3, "diagonal"])
def test_gram_matrix_times_its_adjugate_is_delta(seed):
    d = diagonal_instance(P) if seed == "diagonal" else random_instance(P, seed)
    m = gram_matrix(d)
    adj = rank_stratum_ideal(m)
    delta = discriminant(d)
    zero = MultiPoly.zero(4, P)
    for i in range(4):
        for j in range(4):
            product = sum((m[i][k] * adj[k][j] for k in range(4)), zero)
            assert product == (delta if i == j else zero)


def test_rank_stratum_ideal_diagonal_products():
    d = diagonal_instance(P)
    m = gram_matrix(d)
    ys = [MultiPoly.variable(i, 4, P) for i in range(4)]
    expected = ys[0] * ys[1] * ys[2]
    assert any(g == expected for g in entries(rank_stratum_ideal(m)))


def test_rank_loci_are_nested():
    # each 3x3 minor is an exact combination of 2x2 minors (cofactor
    # expansion), so the rank <= 1 locus sits inside the rank <= 2 locus
    d = random_instance(P, 2)
    m = gram_matrix(d)
    gb_rank1 = buchberger(oracles.symmetric_minors(m, 2))
    for g in entries(rank_stratum_ideal(m)):
        assert normal_form(g, gb_rank1).is_zero()


def test_strata_check_passes_on_pinned_instance(seed1):
    report = strata_check(seed1.d, seed1.census)
    assert report.rank2_equals_sigma
    assert report.rank1_empty
    assert report.delta_in_minor_ideal
    assert report.passed
    labels = [label for label, _ in report.details]
    assert sum(1 for s in labels if s.startswith("minor3_")) == 10
    assert sum(1 for s in labels if s.startswith("jacobian_")) == 4
    assert all(ok for _, ok in report.details)


def test_strata_check_refuses_a_flipped_cofactor_sign(seed1, monkeypatch):
    # the flipped entries generate the same ideal, so every minor still lies
    # in the census ideal; Jacobi's and Laplace's identities catch the sign
    real = singular.rank_stratum_ideal

    def flipped(M):
        adj = [list(row) for row in real(M)]
        adj[0][1] = adj[1][0] = -adj[0][1]
        return tuple(map(tuple, adj))

    monkeypatch.setattr(singular, "rank_stratum_ideal", flipped)
    report = strata_check(seed1.d, seed1.census)
    assert not report.passed
    assert not report.rank2_equals_sigma and not report.delta_in_minor_ideal
    failed = [label for label, ok in report.details if not ok]
    assert failed and all(s.startswith("jacobian_") or s == "delta_exactly_in_minor_ideal"
                          for s in failed)


def test_strata_check_refuses_a_mutated_gram_entry(seed1):
    # the Gram matrix of another instance, against this census
    y0 = MultiPoly.variable(0, 4, P)
    d = seed1.d
    mutated = oracles.replace(d, entries=d.entries[:6] + (d.entries[6] + y0 * y0,)
                              + d.entries[7:])
    report = strata_check(mutated, seed1.census)
    assert not report.passed
    assert not report.rank2_equals_sigma and not report.delta_in_minor_ideal


def test_strata_check_refuses_degenerate_census():
    d = diagonal_instance(P)
    census = node_census(d, 5)
    assert census.verdict != "generic_31_nodes"
    with pytest.raises(CensusNotGeneric):
        strata_check(d, census)


def test_double_solid_chart_shape(seed1):
    # w^2 - delta_aff in the census chart, variables (w, y1, y2, y3)
    g = oracles.double_solid_equation(seed1.census.moved_sextic)
    assert g.nvars == 4
    assert g.terms.get((2, 0, 0, 0)) == 1          # w^2 with unit coefficient
    assert max(e[0] for e in g.terms) == 2
    assert all(e[0] in (0, 2) for e in g.terms)


def test_double_solid_census_matches_node_census(seed1):
    rep = double_solid_census(seed1.census)
    assert rep.degree == seed1.census.degree == 31
    assert rep.reduced == "certified"
    assert rep.verdict == "generic_31_nodes"


@pytest.mark.parametrize("seed", [1, 3])
def test_double_solid_basis_is_w_and_census_basis(seed, seed1):
    # {w} + the census basis, embedded in (w, y1, y2, y3), is the reduced
    # basis of the Tjurina generators themselves, so checking them in the
    # census ring is the whole check; the census's basis and counts carry over
    census = seed1.census if seed == 1 else node_census(random_instance(P, seed), seed)
    rep = double_solid_census(census)
    g = oracles.double_solid_equation(census.moved_sextic)
    embedded = [MultiPoly.variable(0, 4, P)] + [f.embed(4, (1, 2, 3))
                                                for f in census.basis.basis]
    assert buchberger([g] + [g.partial(i) for i in range(4)]).basis == tuple(
        sorted(embedded, key=lambda f: grevlex_key(f.lead_exp()), reverse=True))
    assert rep.basis is census.basis
    assert rep.degree == census.degree == 31
    assert rep.reduced == census.reduced == "certified"


@pytest.mark.parametrize("change", [{"reduced": "not_certified"},
                                    {"points_at_infinity": True},
                                    {"basis": None}, {"moved_sextic": None},
                                    {"chart": None}, {"partials": None},
                                    {"affine_partials": None}])
def test_downstream_checks_refuse_an_uncertified_census(seed1, change):
    # the verdict still reads generic: the guards look past it
    census = oracles.replace(seed1.census, **change)
    assert census.verdict == "generic_31_nodes"
    with pytest.raises(CensusNotGeneric):
        strata_check(seed1.d, census)
    with pytest.raises(CensusNotGeneric):
        double_solid_census(census)
    strata = strata_check(seed1.d, seed1.census)
    with pytest.raises(CensusNotGeneric):
        smoothness_certificate(seed1.d, census, strata)


def test_strata_check_refuses_a_census_of_another_surface(seed1):
    # fails closed: the Jacobi and Laplace identities do not hold against
    # seed 1's moved sextic
    report = strata_check(random_instance(P, 2), seed1.census)
    assert not report.passed
    assert not report.rank2_equals_sigma and not report.delta_in_minor_ideal


def test_strata_check_moves_each_distinct_gram_entry_once(seed1, monkeypatch):
    # through the census's own table: no second chart change is drawn
    calls, built = [], []
    original_call, original_init = LinearChange.__call__, LinearChange.__init__

    def counted(self, f):
        calls.append(self)
        return original_call(self, f)

    def constructed(self, *args):
        built.append(args)
        original_init(self, *args)

    monkeypatch.setattr(LinearChange, "__call__", counted)
    monkeypatch.setattr(LinearChange, "__init__", constructed)
    assert strata_check(seed1.d, seed1.census).passed
    assert len(calls) == 10 and all(c is seed1.census.chart for c in calls)
    assert built == []


@pytest.mark.parametrize("p", [7, 19, P, 2 ** 61 - 1])
def test_census_moves_the_instance_as_the_horner_oracle_moves_the_sextic(p):
    # det M(T y) = (det M)(T y): the discriminant of the instance moved
    # through the census's table is the unmoved discriminant moved by T, and
    # each entry's move through the table is the oracle's move of it
    for seed in (1, 2, 3):
        d = random_instance(p, seed)
        census = verify_census(p, seed)
        T = census.chart.matrix
        assert census.moved_sextic == oracles.linear_change(discriminant(d), T)
        for f in d.entries:
            assert census.chart(f) == oracles.linear_change(f, T)
        assert census.partials == tuple(census.moved_sextic.partial(i) for i in range(4))
        assert census.affine_partials == tuple(f.specialize(0, 1) for f in census.partials)


def test_double_solid_census_checks_the_sextic_against_the_basis(seed1):
    y1 = MultiPoly.variable(1, 4, P)
    moved = seed1.census.moved_sextic
    # not homogeneous of degree 6: the Euler identity fails
    with pytest.raises(CensusNotGeneric, match="Euler"):
        double_solid_census(oracles.replace(seed1.census, moved_sextic=moved + y1 ** 5))
    # another sextic with its own partials: its Tjurina ideal is not (w) +
    # the census ideal
    other = moved + y1 ** 6
    partials = tuple(other.partial(i) for i in range(4))
    with pytest.raises(CensusNotGeneric, match="Tjurina"):
        double_solid_census(oracles.replace(
            seed1.census, moved_sextic=other, partials=partials,
            affine_partials=tuple(f.specialize(0, 1) for f in partials)))
    # the sextic and the partials the census handed on disagree: Euler fails
    with pytest.raises(CensusNotGeneric, match="Euler"):
        double_solid_census(oracles.replace(seed1.census, moved_sextic=other))


def test_double_solid_census_refuses_degenerate(seed1):
    census = node_census(diagonal_instance(P), 6)
    assert census.verdict != "generic_31_nodes"
    with pytest.raises(CensusNotGeneric):
        double_solid_census(census)


def test_affine_tjurina_census_single_node_toy():
    # w^2 - (y1^2 + y2^2 + y3^2): one ordinary double point at the origin
    w, y1, y2, y3 = (MultiPoly.variable(i, 4, P) for i in range(4))
    g = w * w - (y1 * y1 + y2 * y2 + y3 * y3)
    gens = [g] + [g.partial(i) for i in range(4)]
    gb = buchberger(gens)
    assert is_zero_dimensional(gb)
    assert quotient_dim(gb) == 1
    assert reducedness_certificate(gb, SplitMix64(8)) == "certified"


def test_affine_tjurina_census_degenerate_branch_toy():
    # w^2 - y1^2 * y2: non-isolated singular locus, so no finite census
    w, y1, y2, _ = (MultiPoly.variable(i, 4, P) for i in range(4))
    g = w * w - y1 * y1 * y2
    gens = [g] + [g.partial(i) for i in range(4)]
    gb = buchberger(gens)
    assert not is_zero_dimensional(gb)


def _singular_at_e0(d):
    """d with the Y0^2 terms of B0..B2 and the Y0^3 and Y0^2 Y_k terms of C
    zeroed: its cubic is singular at (0, 0, 0; 1, 0, 0, 0)."""
    def keep(key, e):
        return not (key.startswith("B") and e[0] == 2 or key == "C" and e[0] >= 2)

    return CubicData(d.p, tuple(
        MultiPoly.from_terms(4, d.p, [(e, c) for e, c in f.terms.items() if keep(key, e)])
        for f, (key, _) in zip(d.entries, GRAM_FORMS)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_singular_cubic_is_not_certified_smooth(seed, tmp_path, capsys):
    d = _singular_at_e0(random_instance(P, seed))
    f = cubic_equation(d)
    point = (0, 0, 0, 1, 0, 0, 0)
    assert f.eval(point) == 0 and all(f.partial(i).eval(point) == 0 for i in range(7))
    # the spot-check samples 100 points and misses the singular one
    spot = bundle.smoothness_spotcheck(d, 100, seed)
    assert spot.passed and spot.points_checked == 100
    census = node_census(d, seed)
    assert (census.verdict, census.degree) == ("degenerate", 32)
    inst = tmp_path / "singular.txt"
    inst.write_text(bundle.explicit_instance_text(d))
    assert main(["verify", "--checks", "smoothness", "--instance", str(inst)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["smoothness"]["pass"] is False and report["verdict"] == "fail"


@pytest.mark.parametrize("seed", [1, 3])
def test_a00_zero_fails_condition_a(seed):
    # A00 = 0 puts (1, 0, 0; 0, 0, 0, 0) on the cubic's singular locus,
    # inside the center plane: the four conics meet there
    d = random_instance(P, seed)
    conics = center_plane_conics(cubic_equation(d))
    assert is_irrelevant(conics)
    zeroed = CubicData(P, (MultiPoly.zero(4, P),) + d.entries[1:])
    f = cubic_equation(zeroed)
    assert all(f.partial(i).eval((1, 0, 0, 0, 0, 0, 0)) == 0 for i in range(7))
    conics = center_plane_conics(f)
    assert all(g.eval((1, 0, 0)) == 0 for g in conics)
    assert not is_irrelevant(conics)


def test_center_plane_conics_are_the_y_partials_on_the_plane(seed1):
    f = cubic_equation(seed1.d)
    for k, conic in enumerate(center_plane_conics(f)):
        g = f.partial(3 + k)
        for i in (6, 5, 4, 3):
            g = g.specialize(i, 0)
        assert conic == g and conic.homogeneous_degree() == 2


def test_smoothness_certificate_passes_on_ten_seeds(census_suite):
    for e in census_suite:
        assert e.census.verdict == "generic_31_nodes", e.seed
        strata = strata_check(e.d, e.census)
        cert = smoothness_certificate(e.d, e.census, strata)
        assert (cert.cubic_is_gram_form, cert.plane_smooth, cert.strata_passed) == (True,) * 3
        assert cert.passed


def test_smoothness_certificate_refuses_a_mutated_cubic(seed1, monkeypatch):
    # a cubic that is not v^T M v breaks the identity the argument rests on
    strata = strata_check(seed1.d, seed1.census)
    real = singular.cubic_equation
    monkeypatch.setattr(singular, "cubic_equation",
                        lambda d: real(d) + MultiPoly.variable(0, 7, P) ** 3)
    cert = smoothness_certificate(seed1.d, seed1.census, strata)
    assert not cert.cubic_is_gram_form and not cert.passed


@pytest.mark.parametrize("seed", [1, 3])
def test_smoothness_certificate_agrees_with_the_jacobian_oracle(seed, seed1):
    d = random_instance(P, seed)
    census = seed1.census if seed == 1 else node_census(d, seed)
    cert = smoothness_certificate(d, census, strata_check(d, census))
    assert cert.passed
    assert oracles.hypersurface_is_smooth(cubic_equation(d)) is True
