import hashlib
import json
import sys

import pytest

from sexticsolid import bundle, multipoly
from sexticsolid.bundle import (GRAM_FORMS, CubicData, discriminant, fiber_gram,
                                random_instance)
from sexticsolid.errors import SamplingExhausted, StratumViolation
from sexticsolid.exactalg import matrix_rank
from sexticsolid.fibers import (FiberSample, QPI_PAIRING, QPI_SOURCE,
                                fiber_rank_check, pairing_certificate,
                                quadratic_restriction, sample_off_delta,
                                sample_on_delta, sigma_sample)
from sexticsolid.multipoly import MultiPoly

from oracles import diagonal_instance

P = 32003


def instance_of(**forms):
    """The instance over F_P with the given Gram entries, by key; every
    other entry is zero."""
    return CubicData(P, tuple(forms.get(key, MultiPoly.zero(4, P)) for key, _ in GRAM_FORMS))


def plant_rank2_node(seed=1, p=P):
    """Modify a seeded instance so the Gram matrix at e0 = (1,0,0,0) is
    diag(1,1,0,0): then e0 is a rank-2 point, hence a node of the branch
    sextic (the adjugate of a rank-<=2 matrix vanishes, killing every
    partial of the determinant there)."""
    d = random_instance(p, seed)
    e0 = (1, 0, 0, 0)
    y0 = MultiPoly.variable(0, 4, p)
    target = {"A00": 1, "A11": 1}
    return CubicData(p, tuple(f + (target.get(key, 0) - f.eval(e0)) * y0 ** degree
                              for f, (key, degree) in zip(d.entries, GRAM_FORMS)))


def test_sample_off_delta_properties(seed1):
    samples = sample_off_delta(seed1.d, seed1.delta, seed=3, n=50)
    assert len(samples) == 50
    for s in samples:
        assert s.stratum == "off_delta"
        assert seed1.delta.eval(s.y) != 0
        assert fiber_rank_check(seed1.d, s) == 4


def test_sample_off_delta_diagonal_example_point():
    d = diagonal_instance(P)
    delta = discriminant(d)
    assert delta.eval((1, 1, 1, 1)) == 1
    samples = sample_off_delta(d, delta, seed=4, n=5)
    assert len(samples) == 5


def test_samplers_reject_n_zero(seed1):
    with pytest.raises(ValueError):
        sample_off_delta(seed1.d, seed1.delta, seed=1, n=0)
    with pytest.raises(ValueError):
        sample_on_delta(seed1.d, seed1.delta, seed=1, n=0)


def test_sample_on_delta_properties(seed1):
    samples = sample_on_delta(seed1.d, seed1.delta, seed=5, n=50)
    assert len(samples) == 50
    seen = set()
    for s in samples:
        assert s.stratum == "on_delta_smooth"
        assert seed1.delta.eval(s.y) == 0
        assert any(seed1.delta.partial(i).eval(s.y) != 0 for i in range(4))
        assert fiber_rank_check(seed1.d, s) == 3
        assert s.y not in seen
        seen.add(s.y)


def test_sample_on_delta_diagonal_line_slice():
    # the line (t,1,1,1) meets the diagonal sextic Y0*Y1*Y2*Y3^3 at t=0,
    # where the partial along Y0 equals 1: an accepted smooth point
    d = diagonal_instance(P)
    delta = discriminant(d)
    y = (0, 1, 1, 1)
    assert delta.eval(y) == 0
    assert delta.partial(0).eval(y) == 1
    samples = sample_on_delta(d, delta, seed=6, n=10)
    assert all(fiber_rank_check(d, s) == 3 for s in samples)


def test_sample_on_delta_smooth_surface_accepts_everything():
    # on a smooth sextic (no singular points at all) every root the slicer
    # finds is accepted; the points come from the surface alone
    fermat = MultiPoly.from_terms(
        4, P,
        [(tuple(6 if j == i else 0 for j in range(4)), 1) for i in range(4)])
    samples = sample_on_delta(diagonal_instance(P), fermat, seed=14, n=10)
    assert len(samples) == 10
    assert all(s.stratum == "on_delta_smooth" for s in samples)
    assert all(fermat.eval(s.y) == 0 for s in samples)


def test_sample_on_delta_exhausts_when_every_point_is_singular(seed1):
    # delta = Y0^6: every point of delta = 0 is singular, so no line gives a
    # smooth point and the sampler gives up after its line budget
    y0 = MultiPoly.variable(0, 4, P)
    with pytest.raises(SamplingExhausted, match="smooth points"):
        sample_on_delta(seed1.d, y0 ** 6, seed=3, n=1)


def test_conic_restriction_diagonal_example():
    # identity conic, line X0 = 0: the restriction is X1^2 + X2^2
    conic = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert quadratic_restriction(conic, (0, 1, 0), (0, 0, 1), P) == (1, 0, 1)


def test_fiber_rank_check_raises_on_contradicted_tag(seed1):
    on = sample_on_delta(seed1.d, seed1.delta, seed=7, n=1)[0]
    lying = FiberSample(y=on.y, stratum="off_delta")
    with pytest.raises(StratumViolation) as info:
        fiber_rank_check(seed1.d, lying)
    assert (info.value.rank, info.value.expected) == (3, 4)


def test_planted_sigma_point_has_rank_2():
    d = plant_rank2_node()
    delta = discriminant(d)
    e0 = (1, 0, 0, 0)
    assert fiber_gram(d, e0) == [[1, 0, 0, 0], [0, 1, 0, 0],
                                 [0, 0, 0, 0], [0, 0, 0, 0]]
    s = sigma_sample(delta, e0)
    assert s.stratum == "on_sigma"
    assert fiber_rank_check(d, s) == 2


def test_sigma_sample_rejects_non_singular_points(seed1):
    off = sample_off_delta(seed1.d, seed1.delta, seed=8, n=1)[0]
    with pytest.raises(ValueError):
        sigma_sample(seed1.delta, off.y)
    on = sample_on_delta(seed1.d, seed1.delta, seed=9, n=1)[0]
    with pytest.raises(ValueError):
        sigma_sample(seed1.delta, on.y)


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


def test_line_quadric_pairing_on_split_quadric_survives_rulings():
    # diag(1,-1,1,-1) carries lines; random lines avoid them and the
    # pairing still computes 2
    y0 = MultiPoly.variable(0, 4, P)
    d = instance_of(A00=y0, A11=-y0, A22=y0, C=-(y0 ** 3))
    y = (1, 0, 0, 0)
    assert fiber_gram(d, y) == [[1, 0, 0, 0], [0, P - 1, 0, 0],
                                [0, 0, 1, 0], [0, 0, 0, P - 1]]
    for seed in range(5):
        assert pairing_certificate(d, y, seed).pairing_h2 == 2


def test_line_quadric_pairing_exhausts_on_zero_quadric():
    # A, B, C all vanish at y = (0,0,0,1): the "quadric" is the zero form,
    # every line lies inside it, and resampling must give up cleanly
    ys = [MultiPoly.variable(i, 4, P) for i in range(4)]
    d = instance_of(A00=ys[0], A11=ys[1], A22=ys[2], C=ys[0] ** 3)
    with pytest.raises(SamplingExhausted, match="fiber quadric"):
        pairing_certificate(d, (0, 0, 0, 1), seed=1)


def test_conic_line_pairing_exhausts_on_zero_conic():
    # A = 0: the exceptional conic is the zero form over every base point
    ys = [MultiPoly.variable(i, 4, P) for i in range(4)]
    d = instance_of(B0=ys[0] ** 2, B1=ys[1] ** 2, B2=ys[2] ** 2, C=ys[3] ** 3)
    with pytest.raises(SamplingExhausted, match="exceptional conic"):
        pairing_certificate(d, (1, 2, 3, 4), seed=1)


def test_conic_line_pairing_rank1_double_line():
    # conic X0^2 (rank 1): a generic line meets it in one double point
    d = diagonal_instance(P)
    y = (1, 0, 0, 0)
    assert matrix_rank([[1, 0, 0], [0, 0, 0], [0, 0, 0]], P) == 1
    for seed in range(5):
        assert pairing_certificate(d, y, seed).pairing_pl == 2


def test_pairing_certificate_values_and_parity(seed1):
    samples = sample_off_delta(seed1.d, seed1.delta, seed=10, n=25)
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
    y = sample_off_delta(seed1.d, seed1.delta, seed=11, n=1)[0].y
    certs = [pairing_certificate(seed1.d, y, seed) for seed in range(20)]
    h2 = {c.pairing_h2 for c in certs}
    pl = {c.pairing_pl for c in certs}
    assert h2 == {2}
    assert pl == {2}


def test_sampling_is_deterministic(seed1):
    a = sample_off_delta(seed1.d, seed1.delta, seed=12, n=10)
    b = sample_off_delta(seed1.d, seed1.delta, seed=12, n=10)
    assert a == b
    c = sample_on_delta(seed1.d, seed1.delta, seed=13, n=10)
    e = sample_on_delta(seed1.d, seed1.delta, seed=13, n=10)
    assert c == e


def _points_digest(rows):
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_drawn_points_match_their_golden_digests(seed1, monkeypatch):
    # verify draws no point; these pin the points the samplers draw for the
    # tests and the benchmark, and the order in which they are drawn
    n = 200
    off = sample_off_delta(seed1.d, seed1.delta, seed=1, n=n)
    assert _points_digest([list(s.y) for s in off]) == "f8d8197002309a81"
    on = sample_on_delta(seed1.d, seed1.delta, seed=2, n=n)
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
    assert _points_digest(drawn) == "37abea72e367e1d1"


def test_line_restriction_runs_without_evaluating(seed1, monkeypatch):
    """A line restriction is one Kronecker substitution: no MultiPoly.eval
    call runs inside restrict_to_line while the samplers draw points."""
    real = multipoly.restrict_to_line
    real_eval = multipoly.MultiPoly.eval
    depth = [0]
    restrictions = []
    nested = []

    def restrict(*args, **kwargs):
        restrictions.append(1)
        depth[0] += 1
        try:
            return real(*args, **kwargs)
        finally:
            depth[0] -= 1

    def evaluate(self, point):
        if depth[0]:
            nested.append(tuple(point))
        return real_eval(self, point)

    for name, module in list(sys.modules.items()):
        if name == "sexticsolid" or name.startswith("sexticsolid."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, restrict)
    monkeypatch.setattr(multipoly.MultiPoly, "eval", evaluate)

    on = sample_on_delta(seed1.d, seed1.delta, seed=11, n=20)
    report = bundle.smoothness_spotcheck(seed1.d, 20, seed=12)
    assert len(on) == 20 and report.passed
    assert restrictions
    assert nested == []
