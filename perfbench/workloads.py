"""The benchmark workloads and the output check of every operation.

Each workload is a closed loop: one process, one thread, one operation in
flight, the next started only after the previous one returned.  The program
receives only inputs generated from the workload seed.

* ``verify_full``    one ``sexticsolid verify`` (all six checks, default
                     ``--samples``) of a fresh seeded instance per operation.
* ``fiber_sampling`` one large batch of fiber checks per operation, calling
                     the ``fibers`` and ``bundle`` functions directly; no
                     Groebner basis is computed.

An operation returns an :class:`OpResult`: how many units of work it
completed (verifies or fibers checked), whether its output passed
the check, and a record holding the instance fingerprint and a digest of
the output, so that two runs of the same code can be compared byte for byte.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass

PRIME = 32003
EXPECTED_DEGREE = "31"
GENERIC = "generic_31_nodes"

#: Samples per stage in one fiber_sampling operation: large enough that the
#: per-sample functions dominate, small enough for several operations a run.
FIBER_BATCH = 1000
#: fiber_sampling cycles through this many instances built in set-up.
FIBER_INSTANCES = 4


@dataclass
class OpResult:
    units: int      # work items completed: verifies or fibers
    ok: bool        # the output passed its check
    record: dict    # seed, instance fingerprint, output digest, failure reason


def derive_seed(workload: str, seed: int, *parts) -> int:
    """A 32-bit seed for the program, a pure function of the workload seed."""
    text = ":".join(str(x) for x in (workload, seed) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cli(cli, argv):
    """Call ``cli.main`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _census_problems(section: dict, name: str):
    problems = []
    if section.get("degree") != EXPECTED_DEGREE:
        problems.append(f"{name} degree {section.get('degree')}")
    if section.get("reduced") != "certified":
        problems.append(f"{name} reducedness {section.get('reduced')}")
    if section.get("points_at_infinity") is not False:
        problems.append(f"{name} has points at infinity")
    if section.get("verdict") != GENERIC:
        problems.append(f"{name} verdict {section.get('verdict')}")
    return problems


class _CliWorkload:
    """One CLI command per operation, each on its own seeded instance."""

    name = ""
    command = ""

    def setup(self, pkg, seed: int):
        return {"cli": pkg.cli, "seed": seed}

    def problems(self, report: dict):
        raise NotImplementedError

    def run(self, inputs, i: int) -> OpResult:
        instance_seed = derive_seed(self.name, inputs["seed"], i)
        argv = [self.command, "--prime", str(PRIME), "--seed", str(instance_seed)]
        code, text, err = run_cli(inputs["cli"], argv)
        record = {"seed": instance_seed, "exit": code, "digest": digest(text)}
        if code != 0 or not text:
            record["problem"] = f"exit code {code}: {err.strip()[:200]}"
            return OpResult(0, False, record)
        report = json.loads(text)
        record["fingerprint"] = report["instance"]["fingerprint"]
        problems = self.problems(report)
        if problems:
            record["problem"] = "; ".join(problems)
        return OpResult(0 if problems else 1, not problems, record)


class VerifyFull(_CliWorkload):
    name = "verify_full"
    command = "verify"

    def problems(self, report):
        problems = []
        if report.get("verdict") != "pass":
            problems.append(f"verdict {report.get('verdict')}")
        problems += _census_problems(report["census"], "census")
        problems += _census_problems(report["double_solid"], "double_solid")
        for flag in ("rank2_equals_sigma", "rank1_empty", "delta_in_minor_ideal"):
            if report["strata"].get(flag) is not True:
                problems.append(f"strata {flag} is not true")
        return problems


class FiberSampling:
    """Off-delta and on-delta rank checks, pairing certificates and the
    smoothness spot-check, in batches of FIBER_BATCH per stage."""

    name = "fiber_sampling"

    def setup(self, pkg, seed: int):
        pool = []
        for k in range(FIBER_INSTANCES):
            d = pkg.bundle.random_instance(PRIME, derive_seed(self.name, seed, "instance", k))
            pool.append((d, pkg.bundle.discriminant(d), pkg.cli.instance_fingerprint(d)))
        return {"pkg": pkg, "seed": seed, "pool": pool}

    def run(self, inputs, i: int) -> OpResult:
        fibers, bundle = inputs["pkg"].fibers, inputs["pkg"].bundle
        d, surface, fingerprint = inputs["pool"][i % FIBER_INSTANCES]
        seed = derive_seed(self.name, inputs["seed"], i)
        n = FIBER_BATCH

        off = fibers.sample_off_delta(d, surface, derive_seed(self.name, seed, "off"), n)
        off_ranks = [fibers.fiber_rank_check(d, s) for s in off]
        on = fibers.sample_on_delta(d, surface, derive_seed(self.name, seed, "on"), n)
        on_ranks = [fibers.fiber_rank_check(d, s) for s in on]
        certs = [fibers.pairing_certificate(d, s.y, derive_seed(self.name, seed, "pair", k))
                 for k, s in enumerate(off)]
        smooth = bundle.smoothness_spotcheck(d, n, derive_seed(self.name, seed, "smooth"))

        pairings = sorted({(c.pairing_h2, c.pairing_pl, c.pairing_qpi) for c in certs})
        problems = []
        if len(off) != n or set(off_ranks) != {4}:
            problems.append(f"off-delta ranks {sorted(set(off_ranks))} over {len(off)} fibers")
        if len(on) != n or set(on_ranks) != {3}:
            problems.append(f"on-delta ranks {sorted(set(on_ranks))} over {len(on)} fibers")
        if pairings != [(2, 2, 0)] or not all(c.all_even for c in certs):
            problems.append(f"pairings {pairings}")
        if not smooth.passed or smooth.points_checked != n:
            problems.append(f"smoothness: {len(smooth.failures)} failures over "
                            f"{smooth.points_checked} points")
        output = json.dumps({
            "off": [[list(s.y), r] for s, r in zip(off, off_ranks)],
            "on": [[list(s.y), r] for s, r in zip(on, on_ranks)],
            "pairings": [[c.pairing_h2, c.pairing_pl, c.pairing_qpi] for c in certs],
            "smoothness": [smooth.points_checked, [list(pt) for pt in smooth.failures]],
        }, separators=(",", ":"))
        record = {"seed": seed, "fingerprint": fingerprint, "digest": digest(output)}
        if problems:
            record["problem"] = "; ".join(problems)
            return OpResult(0, False, record)
        return OpResult(len(off) + len(on) + len(certs) + smooth.points_checked, True, record)


WORKLOADS = {w.name: w for w in (VerifyFull(), FiberSampling())}
