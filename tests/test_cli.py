import hashlib
import json
import sys
from pathlib import Path

import pytest

from sexticsolid import bundle, fibers, groebner, singular
from sexticsolid.cli import (CERTIFICATES, CHECKS, RunConfig, fnv1a64, instance_fingerprint,
                             main, render_report, run_verify_all)
from sexticsolid.errors import BadPrime, ConfigError, DegenerateDiscriminant, UnknownCheck
from sexticsolid.exactalg import SplitMix64

import oracles
from oracles import diagonal_instance

P = 32003


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_fnv1a64_known_values():
    # standard FNV-1a test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_fingerprint_stable_and_seed_sensitive():
    d1 = bundle.random_instance(P, 1)
    d2 = bundle.random_instance(P, 2)
    assert instance_fingerprint(d1) == instance_fingerprint(bundle.random_instance(P, 1))
    assert instance_fingerprint(d1) != instance_fingerprint(d2)
    # explicit round trip hits the same canonical serialization
    explicit = bundle.parse_instance(bundle.explicit_instance_text(d1))
    assert instance_fingerprint(explicit) == instance_fingerprint(d1)


def test_config_validation():
    with pytest.raises(TypeError):
        RunConfig(n_samples=5)  # verify draws no point, so nothing is sampled
    with pytest.raises(ConfigError):
        RunConfig(retries=-1)
    with pytest.raises(ConfigError):  # a copy passes the same checks
        oracles.replace(RunConfig(), retries=-1)
    with pytest.raises(UnknownCheck):
        RunConfig(checks=("nodes",))
    with pytest.raises(UnknownCheck):
        RunConfig(checks=("everything",))
    with pytest.raises(ConfigError):
        RunConfig(checks=())
    with pytest.raises(ConfigError):
        RunConfig(checks=("census", "fibers", "census"))


def test_verify_with_a_repeated_check_exits_2(capsys):
    assert main(["verify", "--seed", "1", "--checks", "census,census"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --checks names 'census' twice\n"


def test_file_instance_report_names_the_file_prime(tmp_path, capsys):
    # the report echoes the field the instance lives over, not --prime
    inst = tmp_path / "p7.txt"
    inst.write_text("prime: 7\nseed: 2\n")
    assert main(["verify", "--checks", "census", "--instance", str(inst), "--prime", "11"]) == 0
    from_file = json.loads(capsys.readouterr().out)
    assert from_file["config"]["prime"] == "7"
    assert main(["verify", "--checks", "census", "--prime", "7", "--seed", "2"]) == 0
    seeded = json.loads(capsys.readouterr().out)
    assert from_file["instance"]["fingerprint"] == seeded["instance"]["fingerprint"]


def test_an_instance_file_ignores_the_prime_flag(tmp_path, capsys):
    # the file supplies the field, so --prime is neither used nor checked
    inst = tmp_path / "p7.txt"
    inst.write_text("prime: 7\nseed: 2\n")
    assert main(["verify", "--checks", "census", "--instance", str(inst)]) == 0
    reference = capsys.readouterr().out
    assert main(["verify", "--checks", "census", "--instance", str(inst), "--prime", "10"]) == 0
    assert capsys.readouterr().out == reference
    assert main(["show-instance", "--instance", str(inst), "--prime", "10"]) == 0
    capsys.readouterr()
    assert RunConfig(prime=10, instance_file=str(inst)).prime == 10
    # on the seeded path the flag picks the field and is still checked
    assert main(["verify", "--checks", "census", "--prime", "10", "--seed", "2"]) == 2
    assert capsys.readouterr().err == "error: field characteristic must be a prime > 6, got 10\n"
    with pytest.raises(BadPrime):
        RunConfig(prime=10)


def test_an_instance_report_names_the_file_however_its_path_is_spelled(tmp_path, monkeypatch,
                                                                      capsys):
    # the report records the file's name, not the path as typed, so a
    # relative, a ./ and an absolute path give byte-identical reports
    inst = tmp_path / "p7.txt"
    inst.write_text("prime: 7\nseed: 2\n")
    monkeypatch.chdir(tmp_path)
    outs = []
    for path in ("p7.txt", "./p7.txt", str(inst)):
        assert main(["verify", "--checks", "census", "--instance", path]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["config"]["instance_file"] == "p7.txt"


@pytest.mark.parametrize("checks", ["", ",,"])
def test_verify_with_no_checks_exits_2(checks, capsys):
    # a report that checked nothing must not read "pass"
    assert main(["verify", "--seed", "1", "--checks", checks]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --checks names no check\n"


def test_verify_reports_are_byte_identical(tmp_path):
    argv = ["verify", "--seed", "1", "--checks", "census,fibers,pairings,smoothness"]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = read_json(out1)
    assert report["verdict"] == "pass"
    assert report["census"]["degree"] == "31"
    assert report["fibers"]["rank_contracts"] == {"off_delta": "4", "on_delta_smooth": "3",
                                                  "on_sigma": "2"}
    assert report["pairings"]["h2"] == {"value": "2", "source": "degree"}
    assert report["pairings"]["qpi"] == {"value": "0", "source": "recorded"}
    assert report["smoothness"]["plane_smooth"] is True
    assert "timings" not in report


@pytest.mark.parametrize("argv, digest", [
    (["--seed", "1"], "088d5fabd4a71562"),
    (["--seed", "3"], "1ce712435945df38"),
    (["--prime", "19", "--seed", "3"], "992da86628034c6c"),
    (["--prime", "7", "--seed", "1"], "e47be5d39f18f18a"),
    (["--seed", "5"], "a5f35efe90128b08"),
    (["--checks", "census", "--prime", "7", "--seed", "2"], "3d42b837aced1c5f"),
    (["--prime", "18446744073709551557", "--seed", "1"], "93cfa9069a5ab88c"),
])
def test_verify_report_matches_its_golden_digest(argv, digest, capsys):
    # sha256 prefixes of the whole stdout report, pinned across changes
    # (the byte-identity test above only compares two runs of one build)
    assert main(["verify"] + argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_sigma_point_report_matches_its_golden_digest(monkeypatch, capsys):
    # the one path that builds the unmoved discriminant, once, for
    # sigma_sample; the default verify never does
    real, calls = bundle.discriminant, []
    monkeypatch.setattr(bundle, "discriminant", lambda d: calls.append(d) or real(d))
    assert main(["verify", "--seed", "1"]) == 0
    assert calls == []
    capsys.readouterr()
    assert main(["verify", "--checks", "census,fibers", "--sigma-point", "1,0,0,0"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "6f4aeae39866df84"
    assert len(calls) == 1


@pytest.mark.parametrize("check, digest", [
    ("census", "cbce957ebe2ab316"),
    ("strata", "b690b75f73b6954a"),
    ("double_solid", "d10d9984418fbef2"),
    ("fibers", "8eb0d44e1b2f9ef8"),
    ("pairings", "fe7c41b4574d0302"),
    ("smoothness", "436a2c3c99ea8a33"),
])
def test_one_check_report_matches_its_golden_digest(check, digest, capsys):
    # the reports the one-stage subcommands printed, now reached through --checks
    assert main(["verify", "--checks", check, "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("command", ["census", "strata", "double-solid", "fibers",
                                     "pairings", "smoothness"])
def test_verify_and_show_instance_are_the_only_commands(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "3"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_sigma_point_without_the_fibers_check_exits_2(capsys):
    # nothing would check the point, so the run must not read "pass"
    with pytest.raises(ConfigError):
        RunConfig(sigma_points=((1, 0, 0, 0),), checks=("census",))
    assert main(["verify", "--checks", "census", "--seed", "1",
                 "--sigma-point", "1,0,0,0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --sigma-point needs the fibers check among --checks\n"


@pytest.mark.parametrize("raw", ["a,b,c,d", "1,0,0", "1,0,0,0,0", "1.5,0,0,0"])
def test_a_malformed_sigma_point_names_the_flag(raw, capsys):
    assert main(["verify", "--checks", "fibers", "--sigma-point", raw]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --sigma-point wants 4 comma-separated integers, got {raw!r}\n"


@pytest.mark.parametrize("edit, message", [
    (("\nA01: 0\n", "\nA01: 2 3*Y0\n"), "line 3: A01: malformed polynomial '2 3*Y0'"),
    (("\nC: ", "\nC: Z0 + "), "line 11: C: unknown variable 'Z0'"),
    (("prime: 32003", "prime: 10"), "line 1: prime: field characteristic must be a prime > 6, "
                                    "got 10"),
    (("\nA00: ", "\nseed: 1 2\nA00: "), "line 2: seed: invalid literal for int() with base 10: "
                                         "'1 2'"),
    (("\nB1: 0\n", "\nB1: Y0\n"), "line 9: B1: B1 is not homogeneous of degree 2"),
], ids=["form", "variable", "prime", "seed", "degree"])
def test_a_bad_instance_value_names_its_line_and_key(edit, message, tmp_path, capsys):
    inst = tmp_path / "bad.txt"
    inst.write_text(bundle.explicit_instance_text(diagonal_instance(P)).replace(*edit))
    for command in (["verify", "--checks", "census"], ["show-instance"]):
        assert main(command + ["--instance", str(inst)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"


def test_seed_changes_fingerprint(tmp_path):
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}.json"
        assert main(["verify", "--checks", "census", "--seed", seed, "--out", str(out)]) == 0
        outs.append(read_json(out))
    assert outs[0]["instance"]["fingerprint"] != outs[1]["instance"]["fingerprint"]


def test_single_check_census_section_only():
    report, code = run_verify_all(RunConfig(seed=1, checks=("census",)))
    assert code == 0
    assert "census" in report and "strata" not in report and "fibers" not in report
    assert report["census"]["pass"] is True


def test_huge_retries_make_one_attempt_on_a_generic_seed():
    # the attempts are drawn one at a time: a generic first instance ends the
    # loop, whatever the retry allowance
    report, code = run_verify_all(RunConfig(seed=1, checks=("census",),
                                            retries=10**18))
    assert code == 0
    assert report["instance"]["attempts"] == 1


def test_seed_flag_and_seeded_files_report_the_seed_mod_2_64(tmp_path):
    runs = [["--seed", "-5"]]
    for k, seed in enumerate(("-5", str(2**64 - 5))):
        inst = tmp_path / f"seeded{k}.txt"
        inst.write_text(f"prime: 32003\nseed: {seed}\n")
        runs.append(["--instance", str(inst)])
    seen = set()
    for k, flags in enumerate(runs):
        out = tmp_path / f"report{k}.json"
        assert main(["verify", "--checks", "census", "--out", str(out)] + flags) == 0
        instance = read_json(out)["instance"]
        seen.add((instance["seed"], instance["fingerprint"]))
    assert seen == {(str(2**64 - 5), "48677add16b82f44")}


def _scripted_attempts(monkeypatch, seed1, vanishing):
    """Make the census find a vanishing discriminant on the attempts in
    ``vanishing`` and read degenerate on attempt 1; every other census is
    seed 1's.  The unmoved discriminant is never asked for."""
    seeds = []

    def node_census(d, *args):
        seeds.append(d.seed)
        if len(seeds) - 1 in vanishing:
            raise DegenerateDiscriminant("discriminant vanishes identically")
        if len(seeds) == 2:
            return oracles.replace(seed1.census, verdict=singular.VERDICT_DEGENERATE, degree=30)
        return seed1.census

    def discriminant(d):
        raise AssertionError("the instance loop builds no unmoved discriminant")

    monkeypatch.setattr(bundle, "discriminant", discriminant)
    monkeypatch.setattr(singular, "node_census", node_census)
    return seeds


def test_resampling_walks_the_seeds_to_a_generic_census(seed1, monkeypatch):
    seeds = _scripted_attempts(monkeypatch, seed1, {0})
    report, code = run_verify_all(RunConfig(seed=5, checks=("census",)))
    assert code == 0
    assert seeds == [5, 6, 7]
    instance = report["instance"]
    assert instance["attempts"] == 3 and instance["seed"] == 7
    assert [(e["attempt"], e["seed"], e["outcome"]) for e in instance["resample_history"]] == [
        (0, 5, "degenerate_discriminant"), (1, 6, "degenerate"), (2, 7, "generic_31_nodes")]
    assert report["census"]["verdict"] == "generic_31_nodes"


def test_resampling_reports_the_last_attempt_when_the_retries_run_out(seed1, monkeypatch):
    _scripted_attempts(monkeypatch, seed1, {0})
    report, code = run_verify_all(RunConfig(seed=5, retries=1, checks=("census",)))
    assert code == 1
    assert report["instance"]["attempts"] == 2 and report["instance"]["seed"] == 6
    assert report["census"]["verdict"] == "degenerate"
    assert report["census"]["degree"] == 30
    assert report["verdict"] == "fail"


def test_a_vanishing_last_discriminant_blocks_the_census(seed1, monkeypatch):
    _scripted_attempts(monkeypatch, seed1, {0, 1})
    report, code = run_verify_all(RunConfig(seed=5, retries=1, checks=("census", "strata")))
    assert code == 1
    assert [e["outcome"] for e in report["instance"]["resample_history"]] == [
        "degenerate_discriminant", "degenerate_discriminant"]
    assert report["census"] == {"certificate": CERTIFICATES["census"], "status": "blocked",
                                "pass": False, "reason": "discriminant vanishes identically"}
    assert report["strata"]["reason"] == "node census verdict is not generic_31_nodes"


def test_single_check_blocked_on_degenerate_instance(tmp_path):
    inst = tmp_path / "diagonal.txt"
    inst.write_text(bundle.explicit_instance_text(diagonal_instance(P)))
    report, code = run_verify_all(RunConfig(instance_file=str(inst), checks=("pairings",)))
    assert code == 1
    assert report["pairings"]["status"] == "blocked"
    assert report["pairings"]["pass"] is False
    assert report["instance"]["attempts"] == 1  # file instances never resample


def test_diagonal_instance_verify_exit_1(tmp_path):
    inst = tmp_path / "diagonal.txt"
    inst.write_text(bundle.explicit_instance_text(diagonal_instance(P)))
    out = tmp_path / "report.json"
    code = main(["verify", "--instance", str(inst), "--out", str(out)])
    assert code == 1
    report = read_json(out)
    assert report["census"]["verdict"] == "degenerate"
    assert report["census"]["zero_dimensional"] is False
    assert report["verdict"] == "fail"


def test_smoothness_of_the_zero_cubic_fails(tmp_path, capsys):
    # all ten forms zero: the cubic vanishes identically, and so does the
    # discriminant, so the census the certificate rests on is blocked
    inst = tmp_path / "zero.txt"
    inst.write_text("prime: 32003\n" + "".join(
        f"{key}: 0\n" for key in ("A00", "A01", "A02", "A11", "A12", "A22",
                                  "B0", "B1", "B2", "C")))
    assert main(["verify", "--checks", "smoothness", "--instance", str(inst)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["smoothness"]["status"] == "blocked"
    assert report["smoothness"]["pass"] is False
    assert report["verdict"] == "fail"


def test_budget_and_config_errors_exit_2(tmp_path, capsys):
    inst = tmp_path / "diagonal.txt"
    inst.write_text(bundle.explicit_instance_text(diagonal_instance(P)))
    assert main(["verify", "--instance", str(inst), "--budget", "10"]) == 2
    assert main(["verify", "--prime", "10"]) == 2
    assert main(["verify", "--instance", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


def test_a_prime_past_64_bits_exits_2_at_once(tmp_path, capsys):
    # 2^64 + 13 is prime, but no 64-bit draw covers F_p: refused, not drawn
    big = 2**64 + 13
    with pytest.raises(BadPrime, match="64-bit draws"):
        RunConfig(prime=big)
    assert main(["verify", "--prime", str(big)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "64-bit draws" in err
    inst = tmp_path / "big.txt"
    inst.write_text(f"prime: {big}\nseed: 1\n")
    assert main(["verify", "--instance", str(inst)]) == 2
    assert "line 1: prime:" in capsys.readouterr().err


def test_budget_overrun_names_the_stage_and_budget(capsys):
    # the budget applies to each basis, and the seed-1 census basis takes
    # exactly 3 646 steps: 3 646 passes, 3 645 is the first budget to stop
    assert main(["verify", "--seed", "1", "--budget", "3646"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    for budget in (500, 3645):
        assert main(["verify", "--seed", "1", "--budget", str(budget)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: census: reduction-step budget of {budget} steps exhausted\n"


def test_uncertified_census_downstream_exits_1(seed1, monkeypatch, capsys):
    # a census that reads generic but lacks its basis: the gated stage
    # refuses it, and the CLI reports that as a failed run
    monkeypatch.setattr(singular, "node_census",
                        lambda *args, **kwargs: oracles.replace(seed1.census, basis=None))
    assert main(["verify", "--seed", "1", "--checks", "census,strata"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "strata check" in err


def test_verify_computes_no_basis_twice(monkeypatch):
    real = groebner.buchberger
    real_irrelevant = groebner.is_irrelevant
    bases = []
    irrelevant_calls = []

    def counted(*args, **kwargs):
        gb = real(*args, **kwargs)
        bases.append(gb)
        return gb

    def counted_irrelevant(*args, **kwargs):
        irrelevant_calls.append(args)
        return real_irrelevant(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "sexticsolid" or name.startswith("sexticsolid."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
                elif value is real_irrelevant:
                    monkeypatch.setattr(module, attr, counted_irrelevant)

    real_strata = singular.strata_check
    strata_calls = []

    def strata_check(*args, **kwargs):
        before = len(bases), len(irrelevant_calls)
        report = real_strata(*args, **kwargs)
        strata_calls.append((len(bases), len(irrelevant_calls)) == before)
        return report

    monkeypatch.setattr(singular, "strata_check", strata_check)

    real_ds = singular.double_solid_census
    ds_calls = []

    def double_solid_census(*args, **kwargs):
        before = len(bases)
        report = real_ds(*args, **kwargs)
        ds_calls.append(len(bases) - before)
        return report

    monkeypatch.setattr(singular, "double_solid_census", double_solid_census)
    report, code = run_verify_all(RunConfig(seed=1))
    assert code == 0 and report["double_solid"]["degree"] == 31
    assert ds_calls == [0]
    # one strata check serves the strata, fibers, pairings and smoothness sections
    assert strata_calls == [True]
    # one basis, the affine census basis, and two irrelevance tests, which
    # build none: the infinity check on the plane y0 = 0 and the four plane
    # conics of the smoothness certificate, nothing else
    assert len(bases) == 1 and len(irrelevant_calls) == 2
    assert [g.nvars for g in bases] == [3]
    assert [len(gens) for gens, *_ in irrelevant_calls] == [4, 4]


def _planted_instance_file(tmp_path):
    from test_fibers import plant_rank2_node
    inst = tmp_path / "planted.txt"
    inst.write_text(bundle.explicit_instance_text(plant_rank2_node()))
    return str(inst)


def test_verify_evaluates_each_fiber_once(tmp_path, monkeypatch):
    # the only fiber a verify evaluates is that of a supplied point
    real = bundle.fiber_gram
    points = []

    def counted(d, y):
        points.append(tuple(y))
        return real(d, y)

    for name, module in list(sys.modules.items()):
        if name == "sexticsolid" or name.startswith("sexticsolid."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)

    report, code = run_verify_all(RunConfig(instance_file=_planted_instance_file(tmp_path),
                                            sigma_points=((2, 0, 0, 0),)))
    assert code == 0, report
    assert points == [(1, 0, 0, 0)]


def _raise(*args, **kwargs):
    raise AssertionError("verify drew a point")


def test_verify_draws_no_point(monkeypatch, capsys):
    for module, name in ((fibers, "sample_off_delta"), (fibers, "sample_on_delta"),
                         (fibers, "pairing_certificate"), (fibers, "points_on_lines"),
                         (bundle, "points_on_lines"), (bundle, "smoothness_spotcheck")):
        monkeypatch.setattr(module, name, _raise)
    assert main(["verify", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert [report[c]["pass"] for c in ("fibers", "pairings", "smoothness")] == [True] * 3


def test_verify_samples_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--samples", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments:" in capsys.readouterr().err


def test_a_strata_failure_fails_the_sections_it_certifies(seed1, monkeypatch):
    failed = oracles.replace(singular.strata_check(seed1.d, seed1.census),
                             rank2_equals_sigma=False)
    calls = []

    def strata_check(*args):
        calls.append(args)
        return failed

    monkeypatch.setattr(singular, "strata_check", strata_check)
    report, code = run_verify_all(RunConfig(seed=1, checks=("fibers", "pairings",
                                                            "smoothness")))
    assert code == 1 and report["verdict"] == "fail"
    assert len(calls) == 1
    assert [report[c]["pass"] for c in ("fibers", "pairings", "smoothness")] == [False] * 3
    assert report["smoothness"]["strata_passed"] is False
    assert report["smoothness"]["plane_smooth"] is True


def _readme_certificates():
    """The keys of the README table "How each claim is certified"."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## How each claim is certified", 1)[1].split("\n## ", 1)[0]
    return {line.split("|")[1].strip().strip("`") for line in table.splitlines()
            if line.startswith("| `")}


def test_every_report_certificate_is_in_the_readme_table(tmp_path):
    known = _readme_certificates()
    assert set(CERTIFICATES.values()) <= known
    reports = [run_verify_all(RunConfig(seed=1))[0],
               run_verify_all(RunConfig(instance_file=_planted_instance_file(tmp_path),
                                        sigma_points=((1, 0, 0, 0),)))[0]]
    inst = tmp_path / "diagonal.txt"
    inst.write_text(bundle.explicit_instance_text(diagonal_instance(P)))
    reports.append(run_verify_all(RunConfig(instance_file=str(inst)))[0])
    for report in reports:
        for check in CHECKS:
            assert report[check]["certificate"] in known, (check, report[check])


def test_show_instance_round_trip(tmp_path, capsys):
    assert main(["show-instance", "--seed", "4"]) == 0
    text = capsys.readouterr().out
    d = bundle.parse_instance(text)
    assert d.entries == bundle.random_instance(P, 4).entries
    out = tmp_path / "inst.txt"
    assert main(["show-instance", "--seed", "4", "--out", str(out)]) == 0
    assert out.read_text() == text


def test_sigma_point_flag(tmp_path):
    report, code = run_verify_all(
        RunConfig(instance_file=_planted_instance_file(tmp_path),
                  sigma_points=((1, 0, 0, 0),), checks=("fibers",)))
    section = report["fibers"]
    if section.get("status") == "blocked":
        pytest.skip("planted instance lost genericity; sigma check exercised elsewhere")
    assert section["sigma_points"][0]["gram_rank"] == 2
    assert section["sigma_points"][0]["pass"] is True


def test_render_report_stringifies_numbers():
    text = render_report({"a": 5, "b": True, "c": [1, 2], "d": None})
    data = json.loads(text)
    assert data == {"a": "5", "b": True, "c": ["1", "2"], "d": None}


def test_timings_flag_adds_section():
    report, code = run_verify_all(RunConfig(seed=1, timings=True,
                                            checks=("smoothness",)))
    assert code == 0
    assert set(report["timings"]) == {"instance", "census", "smoothness", "total"}
    report2, _ = run_verify_all(RunConfig(seed=1, checks=("smoothness",)))
    assert "timings" not in report2
    # the node census, which takes the sextic in its chart, runs while the
    # instance is acquired; its time is the census entry's, not the instance's
    report3, code3 = run_verify_all(RunConfig(seed=1, timings=True, checks=("census",)))
    assert code3 == 0
    assert set(report3["timings"]) == {"instance", "census", "total"}
    assert report3["timings"]["census"] != "0.000s"
    assert all(v.endswith("s") and float(v[:-1]) >= 0 for v in report3["timings"].values())


def test_seeded_fuzz_ends_every_run_in_a_report_or_one_error_line(tmp_path, capsys):
    # single-character edits of an explicit p = 101 instance file, each run
    # with a random --checks, --budget or --seed, then a grid of primes and
    # seeds: exit 0 or 1 prints one JSON report and nothing on stderr, exit
    # 2 one error line and nothing on stdout, and nothing raises
    assert main(["show-instance", "--prime", "101", "--seed", "1"]) == 0
    text = capsys.readouterr().out
    alphabet = sorted(set(text) | set("-#0123456789"))
    rng = SplitMix64(71)
    runs = []
    for k in range(200):
        chars = list(text)
        i, c = rng.below(len(chars)), alphabet[rng.below(len(alphabet))]
        chars[i:i + 1] = [[c], [], [c, chars[i]]][rng.below(3)]   # replace, delete, insert
        path = tmp_path / f"edit{k}.txt"
        path.write_text("".join(chars))
        flag = [["--checks", ",".join(CHECKS[rng.below(len(CHECKS))]
                                      for _ in range(rng.below(2) + 1))],
                ["--budget", str(rng.below(4000))],
                ["--seed", str(rng.below(2 ** 64))]][rng.below(3)]
        runs.append(["verify", "--instance", str(path)] + flag)
    runs += [["verify", "--prime", str(p), "--seed", str(s)]
             for p in (7, 13) for s in (2, 3)]
    runs.append(["verify", "--prime", "18446744073709551557", "--seed", "2"])
    codes = []
    for argv in runs:
        code = main(argv)
        out, err = capsys.readouterr()
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        else:
            assert code in (0, 1) and err == "", argv
            assert json.loads(out)["verdict"] in ("pass", "fail"), argv
        codes.append(code)
    assert {0, 2} <= set(codes)


@pytest.mark.parametrize("prime", [7, 11, 13, 19, 101])
def test_small_prime_verify_sweep(prime, capsys):
    # small fields make unlucky charts common; each run must still end in a
    # report, never a traceback
    code = main(["verify", "--prime", str(prime), "--seed", "1"])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["verdict"] in ("pass", "fail")
