"""Acceptance suite: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest -s`` to see them inline)."""
import json

from sexticsolid import bundle, fibers
from sexticsolid.cli import main
from sexticsolid.exactalg import SplitMix64, charpoly, random_matrix
from sexticsolid.groebner import buchberger, normal_form, quotient_dim
from sexticsolid.multipoly import MultiPoly
from sexticsolid.singular import double_solid_census, node_census, strata_check

import oracles
from test_groebner import rand_poly, small_ideals, tame_zero_dim_ideals

P = 32003
CENSUS_TIME_LIMIT = 60.0


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _passing(census_suite):
    return [e for e in census_suite
            if e.census is not None and e.census.verdict == "generic_31_nodes"]


def test_c1_node_census_10_seeds(census_suite):
    good = _passing(census_suite)
    honest_failures = all(
        e.census is None or e.census.verdict == "degenerate"
        for e in census_suite if e not in good)
    slowest = max(e.seconds for e in census_suite)
    details = {e.seed: (e.census.degree if e.census else "no-discriminant")
               for e in census_suite}
    ok = (len(good) >= 9
          and all(e.census.degree == 31 and e.census.reduced == "certified"
                  and not e.census.points_at_infinity for e in good)
          and honest_failures
          and slowest < CENSUS_TIME_LIMIT)
    assert _report("C1 node census",
                   ok,
                   f"{len(good)}/10 generic with degree 31, "
                   f"slowest census {slowest:.1f}s, degrees {details}")


def test_c2_double_solid_census(census_suite):
    results = {}
    for e in _passing(census_suite):
        rep = double_solid_census(e.census)
        results[e.seed] = (rep.degree, rep.reduced)
    ok = bool(results) and all(v == (31, "certified") for v in results.values())
    assert _report("C2 double-solid census", ok, f"degrees {results}")


def test_c3_rank_stratification(census_suite):
    results = {}
    for e in _passing(census_suite):
        rep = strata_check(e.d, e.census)
        results[e.seed] = (rep.rank2_equals_sigma, rep.rank1_empty,
                          rep.delta_in_minor_ideal)
    ok = bool(results) and all(v == (True, True, True) for v in results.values())
    assert _report("C3 rank stratification", ok,
                   f"(rank2==sigma, rank1 empty, delta exact) per seed {results}")


def test_c4_fiber_ranks(census_suite):
    tallies = {}
    for e in _passing(census_suite):
        off = fibers.sample_off_delta(e.d, e.delta, seed=40 + e.seed, n=100)
        on = fibers.sample_on_delta(e.d, e.delta, seed=80 + e.seed, n=100)
        off_ranks = {fibers.fiber_rank_check(e.d, s) for s in off}
        on_ranks = {fibers.fiber_rank_check(e.d, s) for s in on}
        tallies[e.seed] = (sorted(off_ranks), sorted(on_ranks))
    ok = bool(tallies) and all(v == ([4], [3]) for v in tallies.values())
    assert _report("C4 fiber ranks", ok,
                   f"100+100 samples per instance, ranks {tallies}")


def test_c5_pairing_certificates(census_suite):
    total = 0
    bad = []
    for e in _passing(census_suite):
        samples = fibers.sample_off_delta(e.d, e.delta, seed=120 + e.seed, n=100)
        for i, s in enumerate(samples):
            cert = fibers.pairing_certificate(e.d, s.y, seed=1_000_000 * e.seed + i)
            total += 1
            if (cert.pairing_h2, cert.pairing_pl, cert.pairing_qpi) != (2, 2, 0) \
                    or not cert.all_even:
                bad.append((e.seed, s.y))
        # constancy over 20 independent line choices per fiber
        for i, s in enumerate(samples):
            certs = [fibers.pairing_certificate(e.d, s.y, 7_000_000 + 100 * i + t)
                     for t in range(20)]
            h2 = {c.pairing_h2 for c in certs}
            pl = {c.pairing_pl for c in certs}
            if h2 != {2} or pl != {2}:
                bad.append((e.seed, s.y, "not constant"))
    ok = total >= 900 and not bad
    assert _report("C5 pairing certificates", ok,
                   f"{total} fibers all (2, 2, 0), 20-line constancy checked, "
                   f"violations {bad[:3]}")


def test_c6_degenerate_diagonal_handling(tmp_path):
    d = oracles.diagonal_instance(P)
    delta = bundle.discriminant(d)
    ys = [MultiPoly.variable(i, 4, P) for i in range(4)]
    exact = delta == ys[0] * ys[1] * ys[2] * ys[3] ** 3
    census = node_census(d, seed=6)
    path_ok = (not census.zero_dimensional and census.degree == -1
               and census.verdict == "degenerate")
    inst = tmp_path / "diagonal.txt"
    inst.write_text(bundle.explicit_instance_text(d))
    out = tmp_path / "report.json"
    code = main(["verify", "--instance", str(inst), "--out", str(out)])
    with open(out, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    ok = (exact and path_ok and code == 1
          and report["census"]["verdict"] == "degenerate")
    assert _report("C6 degenerate diagonal", ok,
                   f"delta exact product {exact}, census verdict "
                   f"{census.verdict} (zero_dimensional={census.zero_dimensional}), "
                   f"exit code {code}")


def test_c7_kernel_oracles():
    rng = SplitMix64(700)
    nf_cases = 0
    for gens in small_ideals(701, 25):
        gb = buchberger(gens)
        for _ in range(40):
            f = rand_poly(rng, maxdeg=4, terms=6)
            assert normal_form(f, gb) == oracles.brute_normal_form(f, gb.basis, rng)
            nf_cases += 1

    macaulay_cases = 0
    for gens in tame_zero_dim_ideals(702, 20):
        assert quotient_dim(buchberger(gens)) == oracles.macaulay_quotient_dim(gens)
        macaulay_cases += 1

    det_cases = 0
    for seed in range(1, 6):
        d = bundle.random_instance(P, seed)
        grid = bundle.gram_matrix(d)
        from sexticsolid.multipoly import mp_det
        assert mp_det(grid) == oracles.det_by_permutations(grid)
        det_cases += 1

    ch_cases = 0
    for n in range(1, 7):
        for _ in range(3):
            M = random_matrix(n, P, rng)
            Z = oracles.mat_eval_upoly(charpoly(M, P), M, P)
            assert all(v == 0 for row in Z for v in row)
            ch_cases += 1

    ok = nf_cases >= 1000 and macaulay_cases >= 20 and det_cases >= 5 and ch_cases >= 18
    assert _report("C7 kernel oracles", ok,
                   f"normal_form {nf_cases} cases, Macaulay {macaulay_cases} ideals, "
                   f"determinant {det_cases} matrices, Cayley-Hamilton {ch_cases} matrices")


def test_c8_determinism(tmp_path):
    argv = ["verify", "--seed", "1", "--checks", "census,fibers"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()

    fps = []
    for seed in ("1", "2"):
        out = tmp_path / f"fp{seed}.json"
        main(["verify", "--checks", "census", "--seed", seed, "--out", str(out)])
        with open(out, "r", encoding="utf-8") as fh:
            fps.append(json.load(fh)["instance"]["fingerprint"])
    ok = identical and fps[0] != fps[1]
    assert _report("C8 determinism", ok,
                   f"byte-identical reports {identical}, fingerprints {fps}")


def test_c9_degree_bookkeeping(census_suite):
    checks = {}
    for e in census_suite:
        m = bundle.gram_matrix(e.d)
        # symmetric, with homogeneous entries of degree 1 / 2 / 3 by block
        pattern = all(m[i][j] == m[j][i]
                      and (m[i][j].is_zero()
                           or m[i][j].homogeneous_degree() == 1 + (i == 3) + (j == 3))
                      for i in range(4) for j in range(4))
        degree6 = (e.delta is not None
                   and e.delta.homogeneous_degree() == 6)
        checks[e.seed] = (pattern, degree6)
    ok = all(v == (True, True) for v in checks.values())
    assert _report("C9 degree bookkeeping", ok,
                   f"(gram pattern, delta degree 6) per seed {checks}")
