"""Singularity census of the branch sextic and of the double solid above it.

For a general instance the branch sextic acquires exactly 31 ordinary double
points (nodes), its Gram matrix drops to rank 3 along the sextic and to rank
2 precisely at the nodes, and the double solid branched along it picks up
one threefold node above each surface node.  The census certifies all of
this for a concrete instance without ever extracting point coordinates: the
singular scheme is cut out by the Jacobian ideal, its degree is the
vector-space dimension of the quotient algebra in a generic affine chart,
and a squarefree characteristic polynomial of a random multiplication
operator certifies reducedness (degree 31 + reduced is equivalent to 31
nodes, since an isolated hypersurface singularity has local Tjurina
dimension 1 exactly when it is an ordinary double point).  The strata and
double-solid checks are exact normal forms over the census's basis.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

from .bundle import CubicData, DiscriminantSurface, GramMatrix, gram_matrix
from .errors import CensusNotGeneric
from .exactalg import SplitMix64, random_invertible
from .groebner import (DEFAULT_BUDGET, GBasis, Ideal, buchberger, is_irrelevant,
                       krull_dim, make_ideal, normal_form, quotient_dim,
                       reducedness_certificate)
from .multipoly import MultiPoly, grevlex_key, mp_det

EXPECTED_NODE_COUNT = 31

VERDICT_GENERIC = "generic_31_nodes"
VERDICT_DEGENERATE = "degenerate"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SingularCensusReport:
    zero_dimensional: bool
    degree: int           # -1 when the staircase is not finite
    reduced: str          # "certified" | "not_certified" | "failed"
    points_at_infinity: bool
    verdict: str
    chart_change_seed: int
    # affine basis counted and (node census) the sextic, unmoved and moved
    # into the chart; not compared
    basis: GBasis | None = field(default=None, compare=False, repr=False)
    moved_sextic: MultiPoly | None = field(default=None, compare=False, repr=False)
    sextic: MultiPoly | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class StrataReport:
    rank2_equals_sigma: bool
    rank1_empty: bool
    delta_in_minor_ideal: bool   # exact membership, not merely radical
    details: tuple               # ((label, bool), ...)

    @property
    def passed(self) -> bool:
        return self.rank2_equals_sigma and self.rank1_empty and self.delta_in_minor_ideal


@dataclass(frozen=True)
class DoubleSolidChart:
    """w^2 - delta(1, y1, y2, y3) in the census chart, variables (w, y1, y2, y3)."""

    g: MultiPoly


def jacobian_ideal(surface: DiscriminantSurface) -> Ideal:
    """Homogeneous ideal of the four partials of delta.

    delta itself is redundant: six times it is the Euler combination of the
    partials, and 6 is a unit because p > 6.
    """
    return make_ideal(surface.partials)


def _chart_rng(p: int, seed: int):
    rng = SplitMix64(seed)
    T = random_invertible(4, p, rng)
    return T, rng


def _verdict(zero_dimensional, degree, reduced, points_at_infinity) -> str:
    if zero_dimensional and degree == EXPECTED_NODE_COUNT and not points_at_infinity:
        if reduced == "certified":
            return VERDICT_GENERIC
        return VERDICT_INCONCLUSIVE
    return VERDICT_DEGENERATE


def node_census(surface: DiscriminantSurface, seed: int,
                budget=DEFAULT_BUDGET) -> SingularCensusReport:
    """Census of the singular scheme of the branch sextic.

    Pipeline: seeded random linear coordinate change; check the Jacobian
    ideal has no projective zeros on the plane at infinity of the chart;
    dehomogenize in that chart; Groebner basis; Krull dimension must be 0;
    degree = dimension of the quotient algebra; reducedness by the
    multiplication-operator certificate.  Structural failures produce
    verdict "degenerate" (with the honestly computed degree), never a wrong
    count reported as generic.  Carries its basis and moved sextic.
    """
    delta = surface.delta
    p = delta.p
    T, rng = _chart_rng(p, seed)
    moved = delta.linear_change(T)
    parts = [moved.partial(i) for i in range(4)]
    nonzero = [f for f in parts if not f.is_zero()]

    y0 = MultiPoly.variable(0, 4, p)
    points_at_infinity = not is_irrelevant(make_ideal(nonzero + [y0]), budget)

    affine = [f.specialize(0, 1) for f in parts]
    affine = [f for f in affine if not f.is_zero()]
    if not affine:
        return SingularCensusReport(False, -1, "failed", points_at_infinity,
                                    VERDICT_DEGENERATE, seed)
    gb = buchberger(affine, budget)
    if krull_dim(gb) > 0:
        return SingularCensusReport(False, -1, "failed", points_at_infinity,
                                    VERDICT_DEGENERATE, seed)
    degree = quotient_dim(gb)
    reduced = reducedness_certificate(gb, rng)
    return SingularCensusReport(True, degree, reduced, points_at_infinity,
                                _verdict(True, degree, reduced, points_at_infinity), seed,
                                basis=gb, moved_sextic=moved, sextic=delta)


def _certified_census(census, surface, seed, budget, stage) -> SingularCensusReport:
    """The census the downstream certificates stand on: generic, certified
    reduced (so its affine ideal is radical), nothing at infinity, and taken
    of this surface's sextic."""
    if census is None:
        census = node_census(surface, seed, budget)
    if (census.verdict != VERDICT_GENERIC or census.reduced != "certified"
            or census.points_at_infinity or None in (census.basis, census.moved_sextic)):
        raise CensusNotGeneric(f"{stage} needs a certified generic node census "
                               f"with its basis, got {census.verdict!r}")
    if census.sextic != surface.delta:
        raise CensusNotGeneric(f"{stage} got a node census of another sextic")
    return census


def _double_solid_equation(moved: MultiPoly) -> MultiPoly:
    """w^2 - moved(1, y1, y2, y3) in the variables (w, y1, y2, y3)."""
    w = MultiPoly.variable(0, 4, moved.p)
    return w * w - moved.specialize(0, 1).embed(4, (1, 2, 3))


def double_solid_chart(surface: DiscriminantSurface, seed: int) -> DoubleSolidChart:
    """Affine chart of the double solid, in the same coordinates the node
    census used for the same seed."""
    T, _ = _chart_rng(surface.delta.p, seed)
    return DoubleSolidChart(_double_solid_equation(surface.delta.linear_change(T)))


def double_solid_census(surface: DiscriminantSurface, seed: int,
                        budget=DEFAULT_BUDGET,
                        census: SingularCensusReport | None = None) -> SingularCensusReport:
    """Census of the singular scheme of the double solid w^2 = delta.

    Its Tjurina ideal I_DS (the equation g = w^2 - delta_aff and its
    partials) has one reduced point above each surface node, so the
    expected degree is again 31.  It runs in the chart of a certified
    generic node census (computed from ``seed`` when none is given), with no
    Groebner completion: Euler's formula 6 delta_aff = (d0 delta)_aff +
    sum y_i (d_i delta)_aff and d_{y_i} delta_aff = (d_i delta)_aff, checked
    as polynomial identities, put (w) + J_aff inside I_DS (2 and 6 are
    units), and each Tjurina generator reducing to zero modulo the reduced
    basis B = {w} + census basis gives the converse.  So the quotient is the
    census's, and so are degree, reducedness and verdict.
    """
    census = _certified_census(census, surface, seed, budget, "double-solid census")
    moved = census.moved_sextic
    delta_aff = moved.specialize(0, 1)
    parts_aff = [moved.partial(i).specialize(0, 1) for i in range(4)]
    euler = sum((MultiPoly.variable(i, 3, moved.p) * parts_aff[i + 1]
                 for i in range(3)), parts_aff[0])
    if (delta_aff.scale(6) != euler
            or any(delta_aff.partial(i) != parts_aff[i + 1] for i in range(3))):
        raise CensusNotGeneric("census sextic fails the Euler identity of a sextic")
    B = GBasis(sorted([MultiPoly.variable(0, 4, moved.p)]
                      + [f.embed(4, (1, 2, 3)) for f in census.basis.basis],
                      key=lambda f: grevlex_key(f.lead_exp()), reverse=True))
    g = _double_solid_equation(moved)
    if not all(normal_form(f, B).is_zero() for f in [g] + [g.partial(i) for i in range(4)]):
        raise CensusNotGeneric("double-solid Tjurina ideal is not (w) + census ideal")
    return replace(census, basis=B, moved_sextic=None, sextic=None)


def rank_stratum_ideal(M: GramMatrix, r: int) -> Ideal:
    """Ideal of the locus where the Gram matrix has rank <= r, generated by
    all (r+1) x (r+1) minors.  By symmetry, minor(I, J) = minor(J, I), so
    only I <= J is enumerated; exact duplicates are dropped."""
    if not 1 <= r <= 3:
        raise ValueError("rank stratum only meaningful for 1 <= r <= 3")
    k = r + 1
    minors = []
    for rows in combinations(range(4), k):
        for cols in combinations(range(4), k):
            if cols < rows:
                continue
            sub = [[M.entries[i][j] for j in cols] for i in rows]
            m = mp_det(sub)
            if not m.is_zero() and m not in minors:
                minors.append(m)
    return make_ideal(minors)


def strata_check(d: CubicData, surface: DiscriminantSurface, seed: int,
                 budget=DEFAULT_BUDGET,
                 census: SingularCensusReport | None = None) -> StrataReport:
    """Certify the rank stratification of the Gram matrix.

    The locus where the rank drops to 2 must coincide with the singular set
    of the branch sextic: every 3x3 minor lies in the radical of the
    Jacobian ideal and every Jacobian partial lies in the radical of the
    3x3-minor ideal.  The rank <= 1 locus must be projectively empty.  As a
    sharper extra, delta itself reduces to zero modulo the 3x3 minors
    (Laplace expansion makes the determinant an exact member).

    Both memberships are certified as exact ones, by normal forms.  Minors
    -> Jacobian runs in the chart of a certified generic node census
    (computed from ``seed`` when none is given): it has no singular point at
    infinity, so a minor vanishes on the singular locus iff its
    dehomogenization lies in the radical of J_aff, which is J_aff itself
    (certified reduced).  Jacobian -> minors: Jacobi's formula d_i det M =
    tr(adj M * d_i M) makes every partial a combination of the 3x3 minors.
    """
    census = _certified_census(census, surface, seed, budget, "strata check")
    M = gram_matrix(d)
    gb_minors = buchberger(rank_stratum_ideal(M, 2), budget)

    # the minors in the census chart; composing with the (invertible) change
    # of coordinates preserves every ideal-membership statement below; M is
    # symmetric, so only its ten entries with i <= j are moved
    T, _ = _chart_rng(surface.delta.p, census.chart_change_seed)
    upper = {(i, j): M.entries[i][j].linear_change(T) for i in range(4) for j in range(i, 4)}
    moved = GramMatrix(tuple(tuple(upper[min(i, j), max(i, j)] for j in range(4))
                             for i in range(4)))

    details = [(f"minor3_{k}_in_radical_of_jacobian",
                normal_form(m.specialize(0, 1), census.basis).is_zero())
               for k, m in enumerate(rank_stratum_ideal(moved, 2).generators)]
    details += [(f"jacobian_{k}_in_radical_of_minors3", normal_form(g, gb_minors).is_zero())
                for k, g in enumerate(jacobian_ideal(surface).generators)]
    rank2_equals_sigma = all(ok for _, ok in details)

    rank1_empty = is_irrelevant(rank_stratum_ideal(M, 1), budget)
    delta_exact = normal_form(surface.delta, gb_minors).is_zero()
    details.append(("rank1_locus_empty", rank1_empty))
    details.append(("delta_exactly_in_minor_ideal", delta_exact))
    return StrataReport(rank2_equals_sigma=rank2_equals_sigma,
                        rank1_empty=rank1_empty,
                        delta_in_minor_ideal=delta_exact,
                        details=tuple(details))
