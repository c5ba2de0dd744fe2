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
double-solid checks compute no Groebner basis: normal forms over the
census's basis and polynomial identities (Jacobi, Laplace, Euler) certify them.
Smoothness of the ambient cubic is a corollary of the census and the strata
check, plus one emptiness test of four plane conics (smoothness_certificate).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .bundle import GRAM_INDEX, CubicData, cubic_equation, discriminant, symmetric_matrix
from .errors import CensusNotGeneric
from .exactalg import SplitMix64, random_invertible
from .groebner import (DEFAULT_BUDGET, GBasis, buchberger, is_irrelevant,
                       is_zero_dimensional, normal_form, quotient_dim,
                       reducedness_certificate)
from .multipoly import LinearChange, MultiPoly, mp_det

EXPECTED_NODE_COUNT = 31

VERDICT_GENERIC = "generic_31_nodes"
VERDICT_DEGENERATE = "degenerate"
VERDICT_INCONCLUSIVE = "inconclusive"


#: The census basis's trace, replayed by ``buchberger`` ahead of its
#: completion: the (i, j, lead) of each of the 73 S-pairs whose normal form
#: was nonzero in the plain completion (183 pairs, 7,027 reduction steps) of
#: the affine Jacobian ideal of the seed-1 instance at p = 32003 in its
#: census chart, in the order reduced; i < j index the elements in the order
#: found (the four quintics first) and lead is the normal form's lead
#: exponent in (y1, y2, y3).  Recorded by ``tests/oracles.record_schedule``
#: from a completion with no schedule.  It replays to its last pair on the
#: census charts of seeds 1 to 20 at that prime; at small primes the replay
#: often stops early and the completion does the rest.  A change to the
#: engine's sugar order or pair criteria must re-record it, which
#: ``test_census_schedule_is_the_plain_trace`` enforces.
CENSUS_SCHEDULE = (
    (0, 1, (1, 5, 0)), (1, 2, (0, 6, 0)), (2, 3, (1, 4, 1)), (3, 4, (0, 5, 2)),
    (4, 5, (4, 0, 3)), (3, 6, (3, 1, 3)), (4, 6, (2, 2, 3)), (4, 7, (1, 3, 4)),
    (5, 7, (0, 4, 4)), (0, 8, (3, 0, 5)), (1, 8, (2, 1, 5)), (1, 9, (1, 2, 5)),
    (2, 9, (0, 3, 5)), (3, 10, (2, 0, 6)), (3, 11, (1, 1, 7)), (6, 11, (0, 2, 7)),
    (7, 12, (1, 0, 8)), (8, 13, (0, 1, 8)), (9, 13, (0, 0, 9)), (10, 14, (1, 1, 6)),
    (10, 15, (0, 2, 6)), (11, 15, (1, 0, 7)), (12, 16, (0, 1, 7)), (14, 17, (0, 0, 8)),
    (14, 23, (1, 3, 3)), (15, 23, (0, 4, 3)), (15, 24, (3, 0, 4)), (16, 24, (2, 1, 4)),
    (17, 25, (1, 2, 4)), (18, 23, (0, 3, 4)), (18, 25, (2, 0, 5)), (18, 26, (1, 1, 5)),
    (19, 24, (0, 2, 5)), (19, 26, (1, 0, 6)), (20, 25, (0, 1, 6)), (20, 27, (0, 0, 7)),
    (3, 28, (0, 5, 1)), (6, 28, (4, 0, 2)), (7, 29, (3, 1, 2)), (8, 30, (2, 2, 2)),
    (9, 30, (1, 3, 2)), (10, 31, (0, 4, 2)), (10, 32, (3, 0, 3)), (11, 28, (2, 1, 3)),
    (11, 32, (1, 2, 3)), (12, 29, (0, 3, 3)), (13, 30, (2, 0, 4)), (14, 31, (1, 1, 4)),
    (14, 34, (0, 2, 4)), (14, 35, (1, 0, 5)), (15, 32, (0, 1, 5)), (15, 35, (0, 0, 6)),
    (4, 40, (1, 4, 0)), (5, 40, (0, 5, 0)), (1, 41, (4, 0, 1)), (2, 42, (3, 1, 1)),
    (2, 43, (2, 2, 1)), (3, 44, (1, 3, 1)), (6, 45, (0, 4, 1)), (7, 40, (3, 0, 2)),
    (7, 45, (2, 1, 2)), (8, 41, (1, 2, 2)), (8, 46, (0, 3, 2)), (9, 42, (2, 0, 3)),
    (9, 46, (1, 1, 3)), (10, 43, (0, 2, 3)), (3, 56, (4, 0, 0)), (4, 56, (3, 1, 0)),
    (5, 57, (2, 2, 0)), (3, 61, (1, 3, 0)), (6, 56, (0, 4, 0)), (6, 61, (3, 0, 1)),
    (0, 70, (3, 0, 0)),
)


@dataclass(frozen=True)
class SingularCensusReport:
    zero_dimensional: bool
    degree: int           # -1 when the staircase is not finite
    reduced: str          # "certified" | "not_certified" | "failed"
    points_at_infinity: bool
    verdict: str
    chart_change_seed: int
    # not compared: the affine census basis (the double solid's too), the chart
    # change and (node census) the moved sextic, its partials and their y0 = 1 parts
    basis: GBasis | None = field(default=None, compare=False, repr=False)
    moved_sextic: MultiPoly | None = field(default=None, compare=False, repr=False)
    chart: LinearChange | None = field(default=None, compare=False, repr=False)
    partials: tuple | None = field(default=None, compare=False, repr=False)
    affine_partials: tuple | None = field(default=None, compare=False, repr=False)


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
class SmoothnessCertificate:
    cubic_is_gram_form: bool   # F'(x, s y) = s (x, s) M(y) (x, s)^T
    plane_smooth: bool         # condition (a): the conics x^T A_k x meet nowhere
    strata_passed: bool

    @property
    def passed(self) -> bool:
        return self.cubic_is_gram_form and self.plane_smooth and self.strata_passed


def _verdict(degree, reduced, points_at_infinity) -> str:
    if degree == EXPECTED_NODE_COUNT and not points_at_infinity:
        if reduced == "certified":
            return VERDICT_GENERIC
        return VERDICT_INCONCLUSIVE
    return VERDICT_DEGENERATE


def node_census(d: CubicData, seed: int, budget=DEFAULT_BUDGET) -> SingularCensusReport:
    """Census of the singular scheme of the instance's branch sextic: draw
    the chart T from the seed, move the ten Gram entries through T's table
    of moved monomials, and take the moved sextic as the discriminant of
    the moved instance (det M(T y) = (det M)(T y); a vanishing one raises
    ``DegenerateDiscriminant``); then ``_census`` of it."""
    rng = SplitMix64(seed)
    chart = LinearChange(random_invertible(4, d.p, rng), d.p, 3)
    moved = discriminant(CubicData(d.p, tuple(chart(f) for f in d.entries)))
    return _census(moved, seed, rng, budget, chart)


def _census(moved: MultiPoly, seed: int, rng, budget, chart) -> SingularCensusReport:
    """The census of a sextic in its chart, rng holding the rest of the
    chart seed's stream: the four partials, restricted to the plane at
    infinity y0 = 0, have no common zero there (all four zero: the whole
    plane is singular); dehomogenize; Groebner basis, replaying
    ``CENSUS_SCHEDULE`` before the completion that certifies it (a generic
    chart skips the 110 S-pairs that reduce to zero; an unlucky one, common
    at small primes, stops the replay early); the quotient must be
    zero-dimensional; degree = its dimension; reducedness by the
    multiplication-operator certificate.  Structural failures give verdict
    "degenerate" (with the honestly computed degree), never a wrong count
    reported as generic."""
    parts = tuple(moved.partial(i) for i in range(4))

    plane = [f.specialize(0, 0) for f in parts]
    points_at_infinity = all(f.is_zero() for f in plane) or not is_irrelevant(plane, budget)

    affine = tuple(f.specialize(0, 1) for f in parts)
    gb = (buchberger(affine, budget, schedule=CENSUS_SCHEDULE)
          if any(not f.is_zero() for f in affine) else None)
    if gb is None or not is_zero_dimensional(gb):
        return SingularCensusReport(False, -1, "failed", points_at_infinity,
                                    VERDICT_DEGENERATE, seed)
    degree = quotient_dim(gb)
    reduced = reducedness_certificate(gb, rng)
    return SingularCensusReport(True, degree, reduced, points_at_infinity,
                                _verdict(degree, reduced, points_at_infinity), seed,
                                basis=gb, moved_sextic=moved, chart=chart,
                                partials=parts, affine_partials=affine)


def _certified_census(census, stage) -> SingularCensusReport:
    """The census the downstream certificates stand on: generic, certified
    reduced (so its affine ideal is radical), nothing at infinity, with its
    basis, chart, moved sextic and partials."""
    if (census.verdict != VERDICT_GENERIC or census.reduced != "certified"
            or census.points_at_infinity
            or None in (census.basis, census.chart, census.moved_sextic,
                        census.partials, census.affine_partials)):
        raise CensusNotGeneric(f"{stage} needs a certified generic node census "
                               f"with its basis, got {census.verdict!r}")
    return census


def double_solid_census(census: SingularCensusReport) -> SingularCensusReport:
    """Census of the singular scheme of the double solid w^2 = delta.

    Its Tjurina ideal I_DS (g = w^2 - delta_aff and its partials) has one
    reduced point above each surface node, so the expected degree is again
    31.  It runs in the chart of the given certified generic node census,
    on its moved sextic and the affine restrictions of its partials, with
    no Groebner completion: Euler's 6 delta_aff = (d0 delta)_aff + sum y_i
    (d_i delta)_aff and d_{y_i} delta_aff = (d_i delta)_aff, checked as
    identities, put (w) + J_aff inside I_DS (2 and 6 are units).  For the
    converse, I_DS = (w) + (delta_aff, d_{y_i} delta_aff) since 2 is a
    unit, so it suffices that delta_aff and its three partials reduce to
    zero modulo the census basis.  So the quotient is the census's, and so
    are degree, reducedness and verdict; the report carries the census basis.
    """
    census = _certified_census(census, "double-solid census")
    delta_aff = census.moved_sextic.specialize(0, 1)
    parts_aff = census.affine_partials
    euler = sum((MultiPoly.variable(i, 3, delta_aff.p) * parts_aff[i + 1]
                 for i in range(3)), parts_aff[0])
    if (delta_aff.scale(6) != euler
            or any(delta_aff.partial(i) != parts_aff[i + 1] for i in range(3))):
        raise CensusNotGeneric("census sextic fails the Euler identity of a sextic")
    if not all(normal_form(f, census.basis).is_zero()
               for f in (delta_aff,) + parts_aff[1:]):
        raise CensusNotGeneric("double-solid Tjurina ideal is not (w) + census ideal")
    return replace(census, moved_sextic=None, partials=None, affine_partials=None)


def rank_stratum_ideal(M) -> tuple:
    """adj M for the symmetric 4x4 matrix M (rows of forms, as gram_matrix
    gives): its entries, the signed 3x3 minors, generate the ideal of the
    rank <= 2 locus, and M adj M = det(M) I.  adj M is symmetric, so ten
    determinants, one per GRAM_INDEX entry, give all sixteen entries."""
    cofactors = {}
    for i, row in enumerate(GRAM_INDEX):
        for j, k in enumerate(row):
            if k not in cofactors:
                minor = mp_det([[M[r][c] for c in range(4) if c != i] for r in range(4) if r != j])
                cofactors[k] = -minor if (i + j) % 2 else minor
    return symmetric_matrix(cofactors)


def strata_check(d: CubicData, census: SingularCensusReport) -> StrataReport:
    """Certify the rank stratification of the Gram matrix M with no Groebner
    basis of its own, in the chart of the given certified generic node
    census (an invertible change of coordinates preserves every ideal
    membership below), d's entries moved through the census's table with no
    second chart change.  A census of another sextic fails the identities.

    Rank-2 locus = Sing(delta), and delta in (3x3 minors).  Minors ->
    Jacobian: with no singular point at infinity and J_aff reduced, each
    distinct nonzero entry of adj M vanishes at the nodes iff it reduces to
    zero modulo the census basis.  Jacobian -> minors, and delta exactly:
    Jacobi's d_i delta = sum_jk adj(M)_jk d_i M_kj and Laplace's
    delta = sum_k M_0k adj(M)_k0, checked as identities against the
    census's moved sextic and its partials.

    Rank <= 1 empty, a corollary of the census guard: where rank M(y) <= 1,
    three rows of M vanish at y after a constant row change, so delta
    vanishes to order >= 3 at y and every partial (d_0 too, by Euler) to
    order >= 2.  The census algebra would then have a local factor of
    length >= 4 at y, but it is certified reduced (a squarefree
    characteristic polynomial: every local length is 1) with nothing at
    infinity.
    """
    census = _certified_census(census, "strata check")
    entries = [census.chart(f) for f in d.entries]
    moved = symmetric_matrix(entries)
    adj = rank_stratum_ideal(moved)

    # the distinct nonzero entries of adj M, row by row
    minors = list(dict.fromkeys(m for row in adj for m in row if not m.is_zero()))
    details = [(f"minor3_{k}_in_radical_of_jacobian",
                normal_form(m.specialize(0, 1), census.basis).is_zero())
               for k, m in enumerate(minors)]
    delta = census.moved_sextic
    zero = MultiPoly.zero(4, delta.p)
    for i in range(4):
        # adj M and d_i M are symmetric: the diagonal terms, then twice those with j < k
        d_moved = symmetric_matrix([f.partial(i) for f in entries])
        jacobi = (sum((adj[j][j] * d_moved[j][j] for j in range(4)), zero)
                  + sum((adj[j][k] * d_moved[j][k] for j in range(4)
                         for k in range(j + 1, 4)), zero).scale(2))
        details.append((f"jacobian_{i}_in_radical_of_minors3", census.partials[i] == jacobi))
    rank2_equals_sigma = all(ok for _, ok in details)

    delta_exact = delta == sum((moved[0][k] * adj[k][0] for k in range(4)), zero)
    details += [("rank1_locus_empty", True), ("delta_exactly_in_minor_ideal", delta_exact)]
    return StrataReport(rank2_equals_sigma, True, delta_exact, tuple(details))


def center_plane_conics(f: MultiPoly) -> list:
    """d_{Y_k} f on the plane {Y = 0}, k = 0..3, for f in (X0..X2, Y0..Y3):
    the terms of f linear in Y, with that Y_k dropped."""
    units = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    return [MultiPoly.from_terms(3, f.p, [(e[:3], c) for e, c in f.terms.items()
                                          if e[3:] == unit]) for unit in units]


def smoothness_certificate(d: CubicData, census: SingularCensusReport,
                           strata: StrataReport, budget=DEFAULT_BUDGET) -> SmoothnessCertificate:
    """Certify the cubic X = {F' = 0}, F' = cubic_equation(d), smooth from
    the certified generic census of its sextic, its strata check, and one
    emptiness test of four conics: Beauville's conic-bundle argument (Ann.
    Sci. ENS 10, 1977, sec. 1) carried over to quadric bundles.

    The identity F'(x, s y) = s (x, s) M(y) (x, s)^T, checked here, puts a Y
    in every term of F', so on the plane P = {Y = 0} the X-partials vanish
    and d_{Y_k} F' = x^T A_k x (A = sum_k Y_k A_k).  X is smooth iff (a) the
    four conics x^T A_k x have no common zero (checked here) and (b) X - P,
    which is Bl_P X minus the exceptional divisor, is smooth.  By the
    identity Bl_P X is the quadric bundle {v^T M(y) v = 0}, singular at
    (v, y) iff M(y) v = 0 and every v^T d_k M(y) v = 0.  Rank 4: no such v.
    Rank 3: adj M(y) = c v v^T, c != 0, so d_k delta(y) = c v^T d_k M(y) v
    (Jacobi): y would lie in Sing(delta), the rank <= 2 locus (strata).
    Rank 2: y is a node (census: degree 31, reduced, nothing at infinity),
    where delta's quadratic part, a nonzero multiple of det(sum t_k N_k)
    with N_k = W^T d_k M W on a kernel basis W, is nondegenerate; so the N_k
    span the binary quadrics and no kernel vector kills all v^T d_k M v.
    Rank <= 1: empty (strata).
    """
    _certified_census(census, "smoothness certificate")
    f, p = cubic_equation(d), d.p
    # F'(x, s y) in (X0..X2, s, Y0..Y3): a term's Y-degree becomes its s-degree
    lhs = MultiPoly.from_terms(8, p, [(e[:3] + (sum(e[3:]),) + e[3:], c)
                                      for e, c in f.terms.items()])
    v = [MultiPoly.variable(i, 8, p) for i in range(4)]
    rhs = v[3] * sum((m.embed(8, (4, 5, 6, 7)) * v[i] * v[j]
                      for i, row in enumerate(symmetric_matrix(d.entries))
                      for j, m in enumerate(row)), MultiPoly.zero(8, p))
    return SmoothnessCertificate(lhs == rhs, is_irrelevant(center_plane_conics(f), budget),
                                 strata.passed)
