"""Command-line driver: instance input, pipeline orchestration, and
deterministic machine-readable verification reports.

The JSON report is a pure function of the flags: the census's chart seed is
derived from the master seed by hashing, numbers are emitted as decimal
strings, and wall-clock timings are only included behind ``--timings`` (they
are the one non-deterministic section, so they are off by default).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cache

from . import bundle, fibers, singular
from .errors import (CensusNotGeneric, ConfigError, DegenerateDiscriminant,
                     ResourceBudgetExceeded, SexticSolidError, StratumViolation,
                     UnknownCheck)
from .exactalg import MASK64, ensure_field_prime
from .groebner import DEFAULT_BUDGET

SCHEMA_VERSION = "2"
DEFAULT_PRIME = 32003
DEFAULT_SEED = 1
DEFAULT_RETRIES = 5

CHECKS = ("census", "strata", "double_solid", "fibers", "pairings", "smoothness")
#: How each section's facts are known; the README table "How each claim is
#: certified" is keyed by these strings.
CERTIFICATES = {
    "census": "buchberger_criterion+squarefree_charpoly",
    "strata": "census_normal_forms+jacobi+laplace",
    "double_solid": "euler+census_normal_forms",
    "fibers": "strata_identities",
    "pairings": "degree",
    "smoothness": "census+strata+plane_conics",
}


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a (used for instance fingerprints and seed derivation)."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & MASK64
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
    retries: int = DEFAULT_RETRIES
    budget: int = DEFAULT_BUDGET
    sigma_points: tuple = ()
    timings: bool = False

    def __post_init__(self):
        if self.instance_file is None:  # an instance file supplies its own field
            ensure_field_prime(self.prime)
        if self.retries < 0:
            raise ConfigError("--retries must be >= 0")
        if self.budget < 1:
            raise ConfigError("--budget must be >= 1")
        if not self.checks:
            raise ConfigError("--checks names no check")
        for k, c in enumerate(self.checks):
            if c not in CHECKS:
                raise UnknownCheck(f"unknown check {c!r}; known: {', '.join(CHECKS)}")
            if c in self.checks[:k]:
                raise ConfigError(f"--checks names {c!r} twice")
        if self.sigma_points and "fibers" not in self.checks:
            raise ConfigError("--sigma-point needs the fibers check among --checks")


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

@contextmanager
def _timed(timings: dict, key: str):
    """Add the wall-clock seconds of the block to timings[key]; a budget
    overrun in the block names key as its stage."""
    t0 = time.monotonic()
    try:
        yield
    except ResourceBudgetExceeded as exc:
        raise ResourceBudgetExceeded(f"{key}: {exc}") from exc
    finally:
        timings[key] = timings.get(key, 0.0) + time.monotonic() - t0


def _instance(path, prime: int, seed: int):
    """The instance in the file at path, or else the one seeded at prime."""
    if path is not None:
        return bundle.load_instance(path)
    return bundle.random_instance(prime, seed)


def _acquire_instance(cfg: RunConfig, timings: dict):
    """Build or load the instance; seeded instances are resampled (seed+k)
    up to cfg.retries times while the census verdict stays non-generic.  The
    census takes the sextic in its chart; a vanishing one leaves census None.
    Seconds go to timings["instance"] and ["census"]."""
    history = []
    for attempt in range(1 if cfg.instance_file is not None else cfg.retries + 1):
        with _timed(timings, "instance"):
            d = _instance(cfg.instance_file, cfg.prime, cfg.seed + attempt)
        census = None
        entry = {"attempt": attempt, "seed": d.seed}
        history.append(entry)
        try:
            with _timed(timings, "census"):
                census = singular.node_census(d, stage_seed(cfg.seed, attempt, "census"),
                                              cfg.budget)
        except DegenerateDiscriminant:
            entry["outcome"] = "degenerate_discriminant"
            continue
        entry["outcome"] = census.verdict
        if census.verdict == singular.VERDICT_GENERIC:
            break
    return d, census, history


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


def _flags_section(report) -> dict:
    """A strata report or smoothness certificate: its fields, then pass."""
    return {**asdict(report), "pass": report.passed}


def _fibers_section(d, strata, sigma_points) -> dict:
    """The rank contracts 4 / 3 / 2, corollaries of the strata identities
    (see the fibers module), and the exact rank at each supplied point."""
    section = {"rank_contracts": dict(fibers._EXPECTED_RANK)}
    ok = strata.passed
    if sigma_points:
        delta = bundle.discriminant(d)
        rows = []
        for y in sigma_points:
            try:
                s = fibers.sigma_sample(delta, y)
                rank = fibers.fiber_rank_check(d, s)
                rows.append({"y": list(s.y), "gram_rank": rank, "pass": True})
            except (ValueError, StratumViolation) as exc:
                rows.append({"y": list(y), "error": str(exc), "pass": False})
                ok = False
        section["sigma_points"] = rows
    section["pass"] = ok
    return section


def _pairings_section(strata) -> dict:
    degree = {"value": fibers.DEGREE_PAIRING, "source": fibers.DEGREE_SOURCE}
    return {"h2": degree, "pl": degree,
            "qpi": {"value": fibers.QPI_PAIRING, "source": fibers.QPI_SOURCE},
            "pass": strata.passed}


def run_verify_all(cfg: RunConfig):
    """Run the requested checks and assemble the report.

    Returns (report_dict, exit_code): 0 when every requested check passed,
    1 for verified degenerate/failed outcomes; errors raise and the CLI
    maps them to exit code 2.
    """
    t_start = time.monotonic()
    timings = dict.fromkeys(("instance", "census"), 0.0)
    d, census, history = _acquire_instance(cfg, timings)

    config = asdict(cfg)
    config["prime"] = d.p  # an instance file's own prime, not the --prime flag
    if cfg.instance_file is not None:  # the file's name, however the path is spelled
        config["instance_file"] = os.path.basename(cfg.instance_file)
    del config["timings"]
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "instance": {
            "source": "file" if cfg.instance_file is not None else "seeded",
            "seed": d.seed,
            "attempts": len(history),
            "resample_history": history,
            "fingerprint": instance_fingerprint(d),
        },
    }

    generic = census is not None and census.verdict == singular.VERDICT_GENERIC
    strata = cache(lambda: singular.strata_check(d, census))  # run at most once
    passed = []
    for check in CHECKS:
        if check not in cfg.checks:
            continue
        with _timed(timings, check):
            if check == "census":
                if census is None:
                    section = _blocked_section("discriminant vanishes identically")
                else:
                    section = _census_section(census)
            elif not generic:
                section = _blocked_section("node census verdict is not generic_31_nodes")
            elif check == "strata":
                section = _flags_section(strata())
            elif check == "double_solid":
                section = _census_section(singular.double_solid_census(census))
            elif check == "fibers":
                section = _fibers_section(d, strata(), cfg.sigma_points)
            elif check == "pairings":
                section = _pairings_section(strata())
            else:
                section = _flags_section(singular.smoothness_certificate(
                    d, census, strata(), cfg.budget))
        report[check] = {"certificate": CERTIFICATES[check], **section}
        passed.append(bool(section.get("pass")))

    ok = all(passed)
    report["verdict"] = "pass" if ok else "fail"
    if cfg.timings:
        timings["total"] = time.monotonic() - t_start
        report["timings"] = {k: f"{v:.3f}s" for k, v in timings.items()}
    return report, 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_sigma(raw: str) -> tuple:
    try:
        point = tuple(int(x) for x in raw.split(","))
    except ValueError:
        point = ()
    if len(point) != 4:
        raise ConfigError(f"--sigma-point wants 4 comma-separated integers, got {raw!r}")
    return point


def _config_from(args) -> RunConfig:
    return RunConfig(
        prime=args.prime,
        seed=args.seed & MASK64,
        instance_file=args.instance,
        checks=tuple(c.strip() for c in args.checks.split(",") if c.strip()),
        retries=args.retries,
        budget=args.budget,
        sigma_points=tuple(_parse_sigma(raw) for raw in args.sigma_point),
        timings=args.timings,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sexticsolid",
        description="Exact verification of the quadric-bundle double-solid "
                    "construction over a prime field.")
    subs = parser.add_subparsers(dest="command", required=True)
    verify = subs.add_parser("verify", help="run the requested checks (default: all)")
    show = subs.add_parser("show-instance",
                           help="print the instance's explicit canonical form")
    for sp in (verify, show):
        sp.add_argument("--prime", type=int, default=DEFAULT_PRIME)
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--instance", default=None, metavar="PATH",
                        help="explicit instance file instead of the seeded one "
                             "(verify's --seed still seeds its census chart)")
        sp.add_argument("--out", default=None, metavar="PATH",
                        help="write the output here instead of stdout")
    verify.add_argument("--checks", default=",".join(CHECKS),
                        help="comma-separated subset of: " + ", ".join(CHECKS))
    verify.add_argument("--retries", type=int, default=DEFAULT_RETRIES)
    verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    verify.add_argument("--sigma-point", action="append", default=[], metavar="A,B,C,D",
                        help="explicit singular point for rank-2 fiber checks "
                             "(repeatable; needs the fibers check)")
    verify.add_argument("--timings", action="store_true",
                        help="include wall-clock timings (non-deterministic section)")
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
            d = _instance(args.instance, args.prime, args.seed)
            _emit(bundle.explicit_instance_text(d), args.out)
            return 0
        report, code = run_verify_all(_config_from(args))
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
