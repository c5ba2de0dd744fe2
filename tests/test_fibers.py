import hashlib
import json

import pytest

from sexticsolid import bundle
from sexticsolid.bundle import (CubicData, diagonal_instance, discriminant,
                                fiber_gram, random_instance)
from sexticsolid.errors import SamplingExhausted, StratumViolation
from sexticsolid.exactalg import matrix_rank
from sexticsolid.fibers import (FiberSample, QPI_PAIRING, QPI_SOURCE,
                                conic_line_pairing, fiber_rank_check,
                                line_quadric_pairing, pairing_certificate,
                                quadratic_restriction,
                                restriction_multiplicities, sample_off_delta,
                                sample_on_delta, sigma_sample)
from sexticsolid.multipoly import MultiPoly

P = 32003


def plant_rank2_node(seed=1, p=P):
    """Modify a seeded instance so the Gram matrix at e0 = (1,0,0,0) is
    diag(1,1,0,0): then e0 is a rank-2 point, hence a node of the branch
    sextic (the adjugate of a rank-<=2 matrix vanishes, killing every
    partial of the determinant there)."""
    d = random_instance(p, seed)
    e0 = (1, 0, 0, 0)
    y0 = MultiPoly.variable(0, 4, p)
    y0sq = y0 * y0
    y0cu = y0sq * y0
    target = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    A = tuple(tuple(d.A[i][j] + (target[i][j] - d.A[i][j].eval(e0)) * y0
                    for j in range(3)) for i in range(3))
    B = tuple(b - b.eval(e0) * y0sq for b in d.B)
    C = d.C - d.C.eval(e0) * y0cu
    return CubicData(p=p, A=A, B=B, C=C, seed=None)


def test_sample_off_delta_properties(seed1):
    samples = sample_off_delta(seed1.d, seed1.surface, seed=3, n=50)
    assert len(samples) == 50
    for s in samples:
        assert s.stratum == "off_delta"
        assert seed1.surface.delta.eval(s.y) != 0
        assert fiber_rank_check(seed1.d, s) == 4


def test_sample_off_delta_diagonal_example_point():
    d = diagonal_instance(P)
    surf = discriminant(d)
    assert surf.delta.eval((1, 1, 1, 1)) == 1
    samples = sample_off_delta(d, surf, seed=4, n=5)
    assert len(samples) == 5


def test_samplers_reject_n_zero(seed1):
    with pytest.raises(ValueError):
        sample_off_delta(seed1.d, seed1.surface, seed=1, n=0)
    with pytest.raises(ValueError):
        sample_on_delta(seed1.d, seed1.surface, seed=1, n=0)


def test_sample_on_delta_properties(seed1):
    samples = sample_on_delta(seed1.d, seed1.surface, seed=5, n=50)
    assert len(samples) == 50
    seen = set()
    for s in samples:
        assert s.stratum == "on_delta_smooth"
        assert seed1.surface.delta.eval(s.y) == 0
        assert any(seed1.surface.delta.partial(i).eval(s.y) != 0 for i in range(4))
        assert fiber_rank_check(seed1.d, s) == 3
        assert s.y not in seen
        seen.add(s.y)


def test_sample_on_delta_diagonal_line_slice():
    # the line (t,1,1,1) meets the diagonal sextic Y0*Y1*Y2*Y3^3 at t=0,
    # where the partial along Y0 equals 1: an accepted smooth point
    d = diagonal_instance(P)
    surf = discriminant(d)
    y = (0, 1, 1, 1)
    assert surf.delta.eval(y) == 0
    assert surf.delta.partial(0).eval(y) == 1
    samples = sample_on_delta(d, surf, seed=6, n=10)
    assert all(fiber_rank_check(d, s) == 3 for s in samples)


def test_sample_on_delta_smooth_surface_accepts_everything():
    # on a smooth sextic (no singular points at all) every root the slicer
    # finds is accepted; the instance argument only supplies the prime
    fermat = MultiPoly.from_terms(
        4, P,
        [(tuple(6 if j == i else 0 for j in range(4)), 1) for i in range(4)])
    from sexticsolid.bundle import DiscriminantSurface
    surf = DiscriminantSurface(fermat)
    samples = sample_on_delta(diagonal_instance(P), surf, seed=14, n=10)
    assert len(samples) == 10
    assert all(s.stratum == "on_delta_smooth" for s in samples)
    assert all(fermat.eval(s.y) == 0 for s in samples)


def test_conic_restriction_diagonal_example():
    # identity conic, line X0 = 0: the restriction is X1^2 + X2^2
    conic = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert quadratic_restriction(conic, (0, 1, 0), (0, 0, 1), P) == (1, 0, 1)
    assert restriction_multiplicities(1, 0, 1) == (2, 0)


def test_fiber_rank_check_raises_on_contradicted_tag(seed1):
    on = sample_on_delta(seed1.d, seed1.surface, seed=7, n=1)[0]
    lying = FiberSample(y=on.y, stratum="off_delta")
    with pytest.raises(StratumViolation) as info:
        fiber_rank_check(seed1.d, lying)
    assert (info.value.rank, info.value.expected) == (3, 4)


def test_planted_sigma_point_has_rank_2():
    d = plant_rank2_node()
    surf = discriminant(d)
    e0 = (1, 0, 0, 0)
    assert fiber_gram(d, e0) == [[1, 0, 0, 0], [0, 1, 0, 0],
                                 [0, 0, 0, 0], [0, 0, 0, 0]]
    s = sigma_sample(d, surf, e0)
    assert s.stratum == "on_sigma"
    assert fiber_rank_check(d, s) == 2


def test_sigma_sample_rejects_non_singular_points(seed1):
    off = sample_off_delta(seed1.d, seed1.surface, seed=8, n=1)[0]
    with pytest.raises(ValueError):
        sigma_sample(seed1.d, seed1.surface, off.y)
    on = sample_on_delta(seed1.d, seed1.surface, seed=9, n=1)[0]
    with pytest.raises(ValueError):
        sigma_sample(seed1.d, seed1.surface, on.y)


def test_restriction_multiplicity_bookkeeping():
    # affine double cover of the three branch shapes; the total is always 2
    assert restriction_multiplicities(1, 5, 3) == (2, 0)
    assert restriction_multiplicities(1, 2, 1) == (2, 0)      # double root
    assert restriction_multiplicities(0, 7, 1) == (1, 1)      # one root at infinity
    assert restriction_multiplicities(0, 0, 4) == (0, 2)      # double point at infinity
    assert restriction_multiplicities(0, 0, 0) is None        # line inside the quadric


def test_quadratic_restriction_diagonal_example():
    gram = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    u = (1, 0, 0, 0)
    v = (0, 1, 0, 0)
    # q(u + t v) = 1 + t^2
    assert quadratic_restriction(gram, u, v, P) == (1, 0, 1)


def test_quadratic_restriction_detects_ruling_line():
    gram = [[1, 0, 0, 0], [0, P - 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, P - 1]]
    u = (1, 1, 0, 0)
    v = (0, 0, 1, 1)
    assert quadratic_restriction(gram, u, v, P) == (0, 0, 0)
    assert restriction_multiplicities(0, 0, 0) is None


def test_line_quadric_pairing_on_split_quadric_survives_rulings():
    # diag(1,-1,1,-1) carries lines; random lines avoid them and the
    # pairing still computes 2
    zero = MultiPoly.zero(4, P)
    ys = [MultiPoly.variable(i, 4, P) for i in range(4)]
    A = ((ys[0], zero, zero), (zero, -ys[0], zero), (zero, zero, ys[0]))
    d = CubicData(p=P, A=A, B=(zero, zero, zero), C=-(ys[0] ** 3), seed=None)
    y = (1, 0, 0, 0)
    assert fiber_gram(d, y) == [[1, 0, 0, 0], [0, P - 1, 0, 0],
                                [0, 0, 1, 0], [0, 0, 0, P - 1]]
    for seed in range(5):
        assert line_quadric_pairing(d, y, seed) == 2


def test_line_quadric_pairing_exhausts_on_zero_quadric():
    # A, B, C all vanish at y = (0,0,0,1): the "quadric" is the zero form,
    # every line lies inside it, and resampling must give up cleanly
    zero = MultiPoly.zero(4, P)
    ys = [MultiPoly.variable(i, 4, P) for i in range(4)]
    A = ((ys[0], zero, zero), (zero, ys[1], zero), (zero, zero, ys[2]))
    d = CubicData(p=P, A=A, B=(zero, zero, zero), C=ys[0] ** 3, seed=None)
    with pytest.raises(SamplingExhausted):
        line_quadric_pairing(d, (0, 0, 0, 1), seed=1)


def test_conic_line_pairing_rank1_double_line():
    # conic X0^2 (rank 1): a generic line meets it in one double point
    d = diagonal_instance(P)
    y = (1, 0, 0, 0)
    assert matrix_rank([[1, 0, 0], [0, 0, 0], [0, 0, 0]], P) == 1
    for seed in range(5):
        assert conic_line_pairing(d, y, seed) == 2


def test_pairing_certificate_values_and_parity(seed1):
    samples = sample_off_delta(seed1.d, seed1.surface, seed=10, n=25)
    for i, s in enumerate(samples):
        cert = pairing_certificate(seed1.d, s.y, seed=100 + i)
        assert (cert.pairing_h2, cert.pairing_pl, cert.pairing_qpi) == (2, 2, 0)
        assert cert.all_even
        assert cert.pairing_h2 % 2 == 0
        assert cert.pairing_pl % 2 == 0
        assert cert.pairing_qpi % 2 == 0
    assert QPI_PAIRING == 0
    assert QPI_SOURCE == "recorded"


def test_pairings_constant_across_20_line_choices(seed1):
    y = sample_off_delta(seed1.d, seed1.surface, seed=11, n=1)[0].y
    h2 = {line_quadric_pairing(seed1.d, y, seed) for seed in range(20)}
    pl = {conic_line_pairing(seed1.d, y, seed) for seed in range(20)}
    assert h2 == {2}
    assert pl == {2}


def test_sampling_is_deterministic(seed1):
    a = sample_off_delta(seed1.d, seed1.surface, seed=12, n=10)
    b = sample_off_delta(seed1.d, seed1.surface, seed=12, n=10)
    assert a == b
    c = sample_on_delta(seed1.d, seed1.surface, seed=13, n=10)
    e = sample_on_delta(seed1.d, seed1.surface, seed=13, n=10)
    assert c == e


def _points_digest(rows):
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_drawn_points_match_their_golden_digests(seed1, monkeypatch):
    # the verify report holds only rank counts, so these pin the points
    # themselves and the order in which they are drawn
    n = 200
    off = sample_off_delta(seed1.d, seed1.surface, seed=1, n=n)
    assert _points_digest([list(s.y) for s in off]) == "f8d8197002309a81"
    on = sample_on_delta(seed1.d, seed1.surface, seed=2, n=n)
    assert _points_digest([list(s.y) for s in on]) == "4b0a3f7778a8ab80"
    certs = [pairing_certificate(seed1.d, s.y, seed=3 + k) for k, s in enumerate(off)]
    assert _points_digest([[list(c.y), c.pairing_h2, c.pairing_pl, c.pairing_qpi]
                           for c in certs]) == "518d66c6e73d55f6"

    # the smoothness report keeps only failures: record every candidate point
    # as the spot-check normalizes it
    real = bundle._normalize_projective
    drawn = []

    def recording(v, p):
        pt = real(v, p)
        drawn.append(None if pt is None else list(pt))
        return pt

    monkeypatch.setattr(bundle, "_normalize_projective", recording)
    report = bundle.smoothness_spotcheck(seed1.d, n, seed=4)
    assert (report.points_checked, report.failures) == (n, ())
    assert _points_digest(drawn) == "83ee2c2aa0395067"
