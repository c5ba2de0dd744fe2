"""Command-line driver: instance input, pipeline orchestration, and
deterministic machine-readable verification reports.

The JSON report is a pure function of the flags: all stage seeds are derived
from the master seed by hashing, numbers are emitted as decimal strings, and
wall-clock timings are only included behind ``--timings`` (they are the one
non-deterministic section, so they are off by default).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

from . import bundle, fibers, singular
from .errors import (CensusNotGeneric, ConfigError, DegenerateDiscriminant,
                     ResourceBudgetExceeded, SexticSolidError, StratumViolation,
                     UnknownCheck)
from .exactalg import ensure_field_prime
from .groebner import DEFAULT_BUDGET

SCHEMA_VERSION = "1"
DEFAULT_PRIME = 32003
DEFAULT_SEED = 1
DEFAULT_SAMPLES = 100
DEFAULT_RETRIES = 5

CHECKS = ("census", "strata", "double_solid", "fibers", "pairings", "smoothness")
_GATED = {"strata", "double_solid", "fibers", "pairings"}

_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a (used for instance fingerprints and seed derivation)."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def instance_fingerprint(d) -> str:
    """Hash of the canonical explicit serialization (same forms, same hash,
    whether the instance came from a seed or a file)."""
    return f"{fnv1a64(bundle.explicit_instance_text(d).encode()):016x}"


def stage_seed(master: int, attempt: int, stage: str) -> int:
    return fnv1a64(f"{master}:{attempt}:{stage}".encode())


@dataclass(frozen=True)
class RunConfig:
    prime: int = DEFAULT_PRIME
    seed: int = DEFAULT_SEED
    instance_file: str | None = None
    checks: tuple = CHECKS
    n_samples: int = DEFAULT_SAMPLES
    retries: int = DEFAULT_RETRIES
    budget: int = DEFAULT_BUDGET
    sigma_points: tuple = ()
    timings: bool = False

    def __post_init__(self):
        ensure_field_prime(self.prime)
        if self.n_samples < 1:
            raise ConfigError("--samples must be >= 1")
        if self.retries < 0:
            raise ConfigError("--retries must be >= 0")
        if self.budget < 1:
            raise ConfigError("--budget must be >= 1")
        for c in self.checks:
            if c not in CHECKS:
                raise UnknownCheck(f"unknown check {c!r}; known: {', '.join(CHECKS)}")


def _stringify(value):
    """Numbers become decimal strings (booleans stay booleans)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    return value


def render_report(report: dict) -> str:
    return json.dumps(_stringify(report), indent=2) + "\n"


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def _acquire_instance(cfg: RunConfig, need_census: bool):
    """Build or load the instance; seeded instances are resampled (seed+k)
    up to cfg.retries times while the census verdict stays non-generic."""
    history = []
    if cfg.instance_file is not None:
        loaded = bundle.load_instance(cfg.instance_file)
        attempts = [(0, loaded)]
    else:
        attempts = [(k, None) for k in range(cfg.retries + 1)]
    last = None
    for attempt, preloaded in attempts:
        d = preloaded if preloaded is not None else bundle.random_instance(
            cfg.prime, (cfg.seed + attempt) & _MASK64)
        entry = {"attempt": attempt, "seed": d.seed}
        if not need_census:
            entry["outcome"] = "accepted"
            history.append(entry)
            return attempt, d, None, None, history
        try:
            surface = bundle.discriminant(d)
        except DegenerateDiscriminant:
            entry["outcome"] = "degenerate_discriminant"
            history.append(entry)
            last = (attempt, d, None, None)
            continue
        census = singular.node_census(surface, stage_seed(cfg.seed, attempt, "census"),
                                      cfg.budget)
        entry["outcome"] = census.verdict
        history.append(entry)
        last = (attempt, d, surface, census)
        if census.verdict == singular.VERDICT_GENERIC:
            break
    attempt, d, surface, census = last
    return attempt, d, surface, census, history


@contextmanager
def _stage(name: str):
    """Prefix a budget overrun inside the block with the stage it hit (only
    the census and strata stages compute Groebner bases)."""
    try:
        yield
    except ResourceBudgetExceeded as exc:
        raise ResourceBudgetExceeded(f"{name}: {exc}") from exc


def _census_section(census) -> dict:
    return {
        "zero_dimensional": census.zero_dimensional,
        "degree": census.degree,
        "reduced": census.reduced,
        "points_at_infinity": census.points_at_infinity,
        "verdict": census.verdict,
        "chart_change_seed": census.chart_change_seed,
        "pass": census.verdict == singular.VERDICT_GENERIC,
    }


def _blocked_section(reason: str) -> dict:
    return {"status": "blocked", "reason": reason, "pass": False}


def _strata_section(d, surface, census, cfg: RunConfig) -> dict:
    with _stage("strata"):
        report = singular.strata_check(d, surface, census.chart_change_seed,
                                       cfg.budget, census=census)
    return {
        "rank2_equals_sigma": report.rank2_equals_sigma,
        "rank1_empty": report.rank1_empty,
        "delta_in_minor_ideal": report.delta_in_minor_ideal,
        "details": [[label, ok] for label, ok in report.details],
        "pass": report.passed,
    }


def _double_solid_section(surface, census, cfg: RunConfig) -> dict:
    report = singular.double_solid_census(surface, census.chart_change_seed,
                                          cfg.budget, census=census)
    return _census_section(report)


def _fiber_group(d, samples) -> dict:
    counts: dict = {}
    violations = []
    for s in samples:
        try:
            rank = fibers.fiber_rank_check(d, s)
        except StratumViolation as exc:
            violations.append(str(exc))
            rank = exc.rank
        counts[rank] = counts.get(rank, 0) + 1
    return {
        "collected": len(samples),
        "rank_counts": {str(r): counts[r] for r in sorted(counts)},
        "violations": len(violations),
        "violation_details": violations[:10],
    }


def _fibers_section(d, surface, cfg: RunConfig, attempt: int) -> dict:
    off = fibers.sample_off_delta(d, surface,
                                  stage_seed(cfg.seed, attempt, "fibers.off"),
                                  cfg.n_samples)
    on = fibers.sample_on_delta(d, surface,
                                stage_seed(cfg.seed, attempt, "fibers.on"),
                                cfg.n_samples)
    section = {
        "requested": cfg.n_samples,
        "off_delta": _fiber_group(d, off),
        "on_delta_smooth": _fiber_group(d, on),
    }
    ok = (section["off_delta"]["violations"] == 0
          and section["on_delta_smooth"]["violations"] == 0
          and section["off_delta"]["rank_counts"] == {"4": cfg.n_samples}
          and section["on_delta_smooth"]["rank_counts"] == {"3": cfg.n_samples})
    if cfg.sigma_points:
        rows = []
        for y in cfg.sigma_points:
            try:
                s = fibers.sigma_sample(d, surface, y)
                rank = fibers.fiber_rank_check(d, s)
                rows.append({"y": list(s.y), "gram_rank": rank, "pass": True})
            except (ValueError, StratumViolation) as exc:
                rows.append({"y": list(y), "error": str(exc), "pass": False})
                ok = False
        section["sigma_points"] = rows
    section["pass"] = ok
    return section


def _pairings_section(d, surface, cfg: RunConfig, attempt: int) -> dict:
    ys = fibers.sample_off_delta(d, surface,
                                 stage_seed(cfg.seed, attempt, "pairings.points"),
                                 cfg.n_samples)
    h2_counts: dict = {}
    pl_counts: dict = {}
    even = 0
    for i, sample in enumerate(ys):
        cert = fibers.pairing_certificate(
            d, sample.y, stage_seed(cfg.seed, attempt, f"pairings.cert.{i}"))
        h2_counts[cert.pairing_h2] = h2_counts.get(cert.pairing_h2, 0) + 1
        pl_counts[cert.pairing_pl] = pl_counts.get(cert.pairing_pl, 0) + 1
        if cert.all_even:
            even += 1
    ok = (even == cfg.n_samples
          and h2_counts == {2: cfg.n_samples}
          and pl_counts == {2: cfg.n_samples})
    return {
        "fibers": cfg.n_samples,
        "all_even": even,
        "h2_counts": {str(k): h2_counts[k] for k in sorted(h2_counts)},
        "pl_counts": {str(k): pl_counts[k] for k in sorted(pl_counts)},
        "qpi": {"value": fibers.QPI_PAIRING, "source": fibers.QPI_SOURCE},
        "pass": ok,
    }


def _smoothness_section(d, cfg: RunConfig, attempt: int) -> dict:
    report = bundle.smoothness_spotcheck(
        d, cfg.n_samples, stage_seed(cfg.seed, attempt, "smoothness"))
    return {
        "points_checked": report.points_checked,
        "failures": len(report.failures),
        "failure_points": [list(pt) for pt in report.failures[:10]],
        "pass": report.passed,
    }


def run_verify_all(cfg: RunConfig):
    """Run the requested checks and assemble the report.

    Returns (report_dict, exit_code): 0 when every requested check passed,
    1 for verified degenerate/failed outcomes; errors raise and the CLI
    maps them to exit code 2.
    """
    t_start = time.monotonic()
    timings: dict = {}
    need_census = bool(set(cfg.checks) & ({"census"} | _GATED))
    t0 = time.monotonic()
    with _stage("census"):
        attempt, d, surface, census, history = _acquire_instance(cfg, need_census)
    timings["instance_and_census"] = time.monotonic() - t0

    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "prime": cfg.prime,
            "seed": cfg.seed,
            "instance_file": cfg.instance_file,
            "checks": list(cfg.checks),
            "n_samples": cfg.n_samples,
            "retries": cfg.retries,
            "budget": cfg.budget,
            "sigma_points": [list(y) for y in cfg.sigma_points],
        },
        "instance": {
            "source": "file" if cfg.instance_file is not None else "seeded",
            "seed": d.seed,
            "attempts": len(history),
            "resample_history": history,
            "fingerprint": instance_fingerprint(d),
        },
    }

    generic = census is not None and census.verdict == singular.VERDICT_GENERIC
    passed = []
    for check in CHECKS:
        if check not in cfg.checks:
            continue
        t0 = time.monotonic()
        if check == "census":
            if surface is None:
                section = _blocked_section("discriminant vanishes identically")
            else:
                section = _census_section(census)
        elif check in _GATED:
            if not generic:
                section = _blocked_section("node census verdict is not generic_31_nodes")
            elif check == "strata":
                section = _strata_section(d, surface, census, cfg)
            elif check == "double_solid":
                section = _double_solid_section(surface, census, cfg)
            elif check == "fibers":
                section = _fibers_section(d, surface, cfg, attempt)
            else:
                section = _pairings_section(d, surface, cfg, attempt)
        else:  # smoothness: independent of the census
            section = _smoothness_section(d, cfg, attempt)
        timings[check] = time.monotonic() - t0
        report[check] = section
        passed.append(bool(section.get("pass")))

    ok = all(passed) if passed else True
    report["verdict"] = "pass" if ok else "fail"
    if cfg.timings:
        timings["total"] = time.monotonic() - t_start
        report["timings"] = {k: f"{v:.3f}s" for k, v in timings.items()}
    return report, 0 if ok else 1


def run_single(cfg: RunConfig, check: str):
    """One pipeline stage, prerequisites computed silently (RunConfig rejects
    an unknown check)."""
    return run_verify_all(replace(cfg, checks=(check,)))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sp, with_checks=False, with_sigma=False):
    sp.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--instance", default=None, metavar="PATH",
                    help="explicit instance file (overrides --seed)")
    sp.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    sp.add_argument("--retries", type=int, default=DEFAULT_RETRIES)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="write the JSON report here instead of stdout")
    sp.add_argument("--timings", action="store_true",
                    help="include wall-clock timings (non-deterministic section)")
    if with_checks:
        sp.add_argument("--checks", default=",".join(CHECKS),
                        help="comma-separated subset of: " + ", ".join(CHECKS))
    if with_sigma:
        sp.add_argument("--sigma-point", action="append", default=[],
                        metavar="A,B,C,D",
                        help="explicit singular point for rank-2 fiber checks "
                             "(repeatable)")


def _parse_sigma(values):
    pts = []
    for raw in values:
        parts = raw.split(",")
        if len(parts) != 4:
            raise ConfigError(f"--sigma-point wants 4 comma-separated integers, got {raw!r}")
        pts.append(tuple(int(x) for x in parts))
    return tuple(pts)


def _config_from(args, checks) -> RunConfig:
    return RunConfig(
        prime=args.prime,
        seed=args.seed & _MASK64,
        instance_file=args.instance,
        checks=checks,
        n_samples=args.samples,
        retries=args.retries,
        budget=args.budget,
        sigma_points=_parse_sigma(getattr(args, "sigma_point", [])),
        timings=args.timings,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sexticsolid",
        description="Exact verification of the quadric-bundle double-solid "
                    "construction over a prime field.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("verify", help="run the full pipeline")
    _add_common(sp, with_checks=True, with_sigma=True)
    for name, check in (("census", "census"), ("strata", "strata"),
                        ("double-solid", "double_solid"), ("fibers", "fibers"),
                        ("pairings", "pairings"), ("smoothness", "smoothness")):
        sp = subs.add_parser(name, help=f"run only the {check} stage")
        _add_common(sp, with_sigma=(check == "fibers"))
        sp.set_defaults(single_check=check)

    sp = subs.add_parser("show-instance",
                         help="print the instance's explicit canonical form")
    sp.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--instance", default=None, metavar="PATH")
    sp.add_argument("--out", default=None, metavar="PATH")
    return parser


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "show-instance":
            if args.instance is not None:
                d = bundle.load_instance(args.instance)
            else:
                ensure_field_prime(args.prime)
                d = bundle.random_instance(args.prime, args.seed & _MASK64)
            _emit(bundle.explicit_instance_text(d), args.out)
            return 0
        if args.command == "verify":
            checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
            cfg = _config_from(args, checks)
            report, code = run_verify_all(cfg)
        else:
            cfg = _config_from(args, (args.single_check,))
            report, code = run_single(cfg, args.single_check)
        _emit(render_report(report), args.out)
        return code
    except CensusNotGeneric as exc:  # defensive: gating should prevent this
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, SexticSolidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
