"""Spans around the calls into each layer of sexticsolid, recorded from
outside the program.

``Tracer.install`` replaces each traced public function by a wrapper at every
name it is bound under in the package (``groebner.buchberger`` and
``singular.buchberger`` alike, ``fibers.matrix_rank`` as well as
``bundle.matrix_rank``), so calls between modules and within one module are
both seen.  Every call records a span (function, start, end, parent span,
operation) in memory; ``write`` saves them when the run ends.

The traced set is each layer's entry points and the functions the per-layer
metrics name.  Hot scalar helpers (``fp_inv``, ``upoly_mul``, ...) are left
out: they run millions of times per operation, and wrapping them would
measure the tracer rather than the program.
"""
from __future__ import annotations

import functools
import gzip
import hashlib
import json
import statistics
import sys
import time
from collections import defaultdict

TRACED = {
    "cli": ("main", "render_report"),
    "bundle": ("random_instance", "discriminant", "smoothness_spotcheck", "fiber_gram"),
    "singular": ("node_census", "strata_check", "double_solid_census", "rank_stratum_ideal"),
    "groebner": ("buchberger", "is_irrelevant", "in_radical", "normal_form", "quotient_dim",
                 "reducedness_certificate", "mult_matrix"),
    "exactalg": ("charpoly", "upoly_fp_roots", "matrix_rank"),
    "multipoly": ("mp_det", "restrict_to_line"),
    "fibers": ("sample_off_delta", "sample_on_delta", "fiber_rank_check", "pairing_certificate"),
}

#: The census-like stage a Groebner basis is computed for, by calling span.
STAGES = {"singular.node_census": "census", "singular.strata_check": "strata",
          "singular.double_solid_census": "double_solid"}

S_OP, CALLS_OP, RATIO = "s/op", "calls/op", "ratio"

#: Every per-layer metric: (name, unit).
PER_LAYER = [
    ("cli.self_s", S_OP),
    ("bundle.random_instance_s", S_OP),
    ("bundle.discriminant_s", S_OP),
    ("bundle.smoothness_spotcheck_s", S_OP),
    ("bundle.fiber_gram_calls", CALLS_OP),
    ("singular.node_census_s", S_OP),
    ("singular.node_census_self_s", S_OP),
    ("singular.strata_check_s", S_OP),
    ("singular.strata_check_self_s", S_OP),
    ("singular.double_solid_census_s", S_OP),
    ("singular.double_solid_census_self_s", S_OP),
    ("singular.census_attempts_per_instance", RATIO),
    ("groebner.buchberger_calls", CALLS_OP),
    ("groebner.buchberger_s", S_OP),
    ("groebner.buchberger_s.census", S_OP),
    ("groebner.buchberger_s.strata", S_OP),
    ("groebner.buchberger_s.double_solid", S_OP),
    ("groebner.buchberger_share", RATIO),
    ("groebner.repeat_basis_s", S_OP),
    ("groebner.is_irrelevant_calls", CALLS_OP),
    ("groebner.is_irrelevant_s", S_OP),
    ("groebner.in_radical_calls", CALLS_OP),
    ("groebner.in_radical_s", S_OP),
    ("groebner.normal_form_calls", CALLS_OP),
    ("groebner.normal_form_s", S_OP),
    ("groebner.quotient_dim_s", S_OP),
    ("groebner.reducedness_certificate_s", S_OP),
    ("groebner.certificate_tries", RATIO),
    ("exactalg.charpoly_s", S_OP),
    ("exactalg.upoly_fp_roots_calls", CALLS_OP),
    ("exactalg.upoly_fp_roots_s", S_OP),
    ("exactalg.matrix_rank_calls", CALLS_OP),
    ("exactalg.matrix_rank_s", S_OP),
    ("multipoly.mp_det_calls", CALLS_OP),
    ("multipoly.mp_det_s", S_OP),
    ("multipoly.restrict_to_line_calls", CALLS_OP),
    ("multipoly.restrict_to_line_s", S_OP),
    ("fibers.sample_off_delta_s", S_OP),
    ("fibers.sample_on_delta_s", S_OP),
    ("fibers.fiber_rank_check_s", S_OP),
    ("fibers.pairing_certificate_s", S_OP),
    ("fibers.lines_per_on_delta_sample", RATIO),
    ("trace.op_s", "s"),
    ("trace.coverage_share", RATIO),
    ("trace.overhead_share", RATIO),
]


def basis_fingerprint(gb):
    """Identity of a reduced Groebner basis (canonical for ideal and order)."""
    text = repr((gb.nvars, gb.p, repr(gb.order),
                 [sorted(g.terms.items()) for g in gb.basis]))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: What is kept of a traced function's return value, by function.
RESULT_PROBES = {
    "groebner.buchberger": basis_fingerprint,
    "fibers.sample_on_delta": len,
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []      # (name index, start, end, parent, op)
        self.results: dict = {}    # span index -> probed return value
        self.op = -1
        self._stack: list = []
        self._restore: list = []

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, results = self.spans, self._stack, self.results
        probe = RESULT_PROBES.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, tracer.op)
            if probe is not None:
                results[slot] = probe(result)
            return result

        return traced

    def install(self, package: str = "sexticsolid"):
        """Wrap every traced function under every name it is bound to in
        the loaded modules of the package."""
        wrappers = {}
        for module, functions in TRACED.items():
            mod = sys.modules[f"{package}.{module}"]
            for fn_name in functions:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = (fn, self.wrap(f"{module}.{fn_name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "results": {str(k): v for k, v in self.results.items()}}, fh)


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds, measured on an empty function."""
    def empty():
        return None

    tracer = Tracer()
    traced = tracer.wrap("empty", empty)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        empty()
    plain = clock() - t0
    t0 = clock()
    for _ in range(calls):
        traced()
    return max(0.0, (clock() - t0 - plain) / calls)


def layer_metrics(tracer: Tracer, op_seconds: list, cost_per_span: float) -> dict:
    """Per-layer metrics from the spans: busy seconds and calls per
    operation, waste ratios, how much of the operations' wall time the spans
    cover, and the share of it the tracing itself cost (spans recorded times
    ``cost_per_span``)."""
    names, spans, results = tracer.names, tracer.spans, tracer.results
    n_ops = max(1, len(op_seconds))
    wall = sum(op_seconds)

    child_time = [0.0] * len(spans)
    for idx, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def ancestors(k):
        k = spans[k][3]
        while k >= 0:
            yield k
            k = spans[k][3]

    total = defaultdict(float)     # outermost calls only: recursion counted once
    calls = defaultdict(int)
    self_s = defaultdict(float)
    stage_gb = defaultdict(float)
    within = defaultdict(int)      # (callee, caller) -> calls
    covered = 0.0
    repeat = 0.0
    seen_bases = defaultdict(set)  # op -> basis fingerprints returned so far
    on_delta_samples = 0
    for k, (idx, start, end, parent, op) in enumerate(spans):
        name = names[idx]
        dur = end - start
        up = [names[spans[a][0]] for a in ancestors(k)]
        self_s[name] += dur - child_time[k]
        if name not in up:
            total[name] += dur
            calls[name] += 1
        if not name.startswith("cli.") and (parent < 0 or names[spans[parent][0]].startswith("cli.")):
            covered += dur
        for caller in set(up):
            within[(name, caller)] += 1
        if name == "groebner.buchberger":
            stage = next((STAGES[a] for a in up if a in STAGES), "other")
            stage_gb[stage] += dur
            basis = results.get(k)
            if basis in seen_bases[op]:
                repeat += dur
            seen_bases[op].add(basis)
        elif name == "fibers.sample_on_delta":
            on_delta_samples += results.get(k, 0)

    cli_self = sum(v for name, v in self_s.items() if name.startswith("cli."))
    per_op = {name: v / n_ops for name, v in total.items()}
    calls_op = {name: v / n_ops for name, v in calls.items()}

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "cli.self_s": cli_self / n_ops,
        "singular.census_attempts_per_instance": ratio(calls["singular.node_census"],
                                                       calls["cli.main"]),
        "groebner.buchberger_share": ratio(total["groebner.buchberger"], wall),
        "groebner.repeat_basis_s": repeat / n_ops,
        "groebner.certificate_tries": ratio(
            within[("groebner.mult_matrix", "groebner.reducedness_certificate")],
            calls["groebner.reducedness_certificate"]),
        "fibers.lines_per_on_delta_sample": ratio(
            within[("multipoly.restrict_to_line", "fibers.sample_on_delta")], on_delta_samples),
        "trace.op_s": statistics.median(op_seconds),
        "trace.coverage_share": ratio(covered, wall),
        "trace.overhead_share": ratio(len(spans) * cost_per_span, wall),
    }
    for stage in STAGES.values():
        m[f"groebner.buchberger_s.{stage}"] = stage_gb[stage] / n_ops
    for name, unit in PER_LAYER:
        if name in m:
            continue
        base = name[:-len("_calls")] if name.endswith("_calls") else name[:-len("_s")]
        if name.endswith("_self_s"):
            m[name] = self_s[name[:-len("_self_s")]] / n_ops
        elif name.endswith("_calls"):
            m[name] = calls_op.get(base, 0.0)
        else:
            m[name] = per_op.get(base, 0.0)
    return m
