"""Span tracing of caf's layers from outside the package.

``Tracer.installed()`` replaces every function named in ``LAYERS`` with a
wrapper, everywhere it is bound: as a module attribute of any loaded
``caf`` module (``inversion`` imports ``canonical_signature`` by name) and
as a value of any module-level dict (``cli.COMMANDS``). On exit every
binding is restored.

A wrapper opens a span (layer, function, start, end, parent) only when the
caller is in another layer; a call from inside the same layer just runs,
so hot inner helpers such as ``evaluate_monomial`` cost a counter bump and
their time stays in the enclosing span. Private names in ``LAYERS`` exist
only to feed the work counters of ``HOOKS``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = {
    "caf.rates": {
        "best_coefficient_vector": "rates.search",
        "top_coefficient_vectors": "rates.search",
        "_enumerate_ball": "rates.search",
        "_loss_values": "rates.search",
        "lattice_sum_rate": "rates.sumrate",
        "_rank_exact": "rates.sumrate",
        "evaluate_sum_rate": "rates.evaluate",
        "lattice_rate_single": "rates.evaluate",
        "loss_term": "rates.evaluate",
        "loss_tradeoff_check": "rates.evaluate",
        "db_to_linear": "rates.evaluate",
        "time_sharing_rate": "rates.baselines",
        "ia_baseline": "rates.baselines",
        "mimo_upper_bound": "rates.baselines",
        "dof_slope": "rates.baselines",
        "normalized_rate_sweep": "rates.sweep",
    },
    "caf.diophantine": {
        "build_monomial_set": "diophantine.monomials",
        "evaluate_monomial": "diophantine.monomials",
        "check_unique_factorization": "diophantine.factorization",
        "monomial_separation": "diophantine.separation",
        "separation_scaling_probe": "diophantine.separation",
        "khinchin_error": "diophantine.khinchin",
        "khinchin_decay_fit": "diophantine.khinchin",
    },
    "caf.alignment": {
        "canonical_signature": "alignment.signature",
        "example_signature": "alignment.signature",
        "derive_equation_system": "alignment.equations",
        "true_equations": "alignment.equations",
        "tight_scaling_factor": "alignment.scaling",
        "ml_demodulate": "alignment.demod",
        "modulate": "alignment.modem",
        "awgn_channel": "alignment.modem",
        "monomial_card": "alignment.bounds",
        "power_bound": "alignment.bounds",
        "error_bound": "alignment.bounds",
        "select_parameters": "alignment.bounds",
        "achievable_rate": "alignment.bounds",
        "rate_power_ratio": "alignment.bounds",
    },
    "caf.fpcode": {
        "gv_search": "fpcode.codesearch",
        "min_distance": "fpcode.codesearch",
        "encode": "fpcode.encode",
        "all_messages": "fpcode.encode",
        "md_decode": "fpcode.decode",
        "is_prime": "fpcode.field",
        "p_ary_entropy": "fpcode.field",
        "gv_rate_bound": "fpcode.field",
        "gv_message_len": "fpcode.field",
    },
    "caf.inversion": {
        "peel_invert": "inversion.peel",
        "solve_linear": "inversion.solve",
        "build_incidence": "inversion.incidence",
        "injectivity_check": "inversion.injectivity",
    },
    "caf.cli": {
        "cmd_fig2": "cli.command",
        "cmd_dof": "cli.command",
        "cmd_align": "cli.command",
        "cmd_invert": "cli.command",
        "cmd_dioph": "cli.command",
        "_run_alignment_block": "cli.command",
        "write_csv": "cli.output",
        "read_csv_text": "cli.output",
        "_write_run_json": "cli.output",
        "build_parser": "cli.parse",
        "parse_config": "cli.parse",
    },
    "caf.svgplot": {"svg_line_chart": "cli.output"},
}

# caf.cli.main is the traced root: the harness times it as the wall
UNWRAPPED = {("caf.cli", "main")}

MB = 1e6


def layer_names() -> list:
    """Every layer of ``LAYERS``, in declaration order."""
    return list(dict.fromkeys(layer for funcs in LAYERS.values() for layer in funcs.values()))


def unmapped_public_functions() -> list:
    """Public functions of the layer modules that ``LAYERS`` does not name."""
    missing = []
    for modname, funcs in LAYERS.items():
        module = sys.modules[modname]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == modname
                    and not name.startswith("_") and name not in funcs
                    and (modname, name) not in UNWRAPPED):
                missing.append(f"{modname}.{name}")
    return missing


# ------------------------------------------------------------------ hooks
# hook(tracer, span, arguments, result); ``arguments`` has defaults applied


def _ball(t, span, a, result):
    # the stacked (2 amax + 1)^K x K int64 candidate grid of _enumerate_ball
    h = a["h"]
    amax = math.isqrt(int(math.ceil(float(h @ h) * a["power"])))
    t.peak("rates.search.computed_mb", (2 * amax + 1) ** h.size * h.size * 8 / MB)


def _loss_values(t, span, a, result):
    t.count("rates.search.ball_points", len(a["A"]))


def _rank(t, span, a, result):
    t.count("rates.sumrate.combos")
    t.count("rates.sumrate.full_rank", int(result == len(a["A"])))


def _sumrate(t, span, a, result):
    t.count("rates.sumrate.fallbacks", int(result.fallback))


def _monomials(t, span, a, result):
    t.count("diophantine.monomials.count", len(result))


def _separation(t, span, a, result):
    counts = [2 * int(r) + 1 for r in np.broadcast_to(a["q_max"], (len(a["values"]),))]
    total = math.prod(counts)
    mode = a["mode"]
    if mode == "auto":
        mode = "exhaustive" if total <= a["budget"] else "mitm"
    nl = len(counts) // 2
    tuples = total if mode == "exhaustive" else math.prod(counts[:nl]) + math.prod(counts[nl:])
    t.count("diophantine.separation.combos", tuples)


def _demod(t, span, a, result):
    if span is not None:
        span[5] = a["strategy"]
    symbols = int(np.size(a["y_m"]))
    candidates = math.prod(len(g.contributors) * (a["p"] - 1) + 1 for g in a["groups"])
    t.count("alignment.demod.symbols", symbols)
    t.count("alignment.demod.candidates", candidates)
    if a["strategy"] == "exhaustive":
        # one symbols x candidates float64 distance matrix
        t.peak("alignment.demod.computed_mb", symbols * candidates * 8 / MB)


def _gv(t, span, a, result):
    t.count("fpcode.codesearch.attempts", result.attempts)


def _decode(t, span, a, result):
    t.count("fpcode.decode.words")


def _peel(t, span, a, result):
    t.count("inversion.peel.rounds", result.rounds)
    t.count("inversion.peel.fallbacks", int(result.fallback))


def _solve(t, span, a, result):
    rows, cols = a["sys"].matrix.shape
    t.count("inversion.solve.cells", rows * cols)
    # the int64 working copy of the incidence matrix
    t.peak("inversion.solve.computed_mb", rows * cols * 8 / MB)


def _block(t, span, a, result):
    # the inline decoder's (T, p^message_len, trials) bool comparison tensor
    code = a["code"]
    t.peak("cli.decode.computed_mb", code.t * code.p ** code.message_len * a["trials"] / MB)


def _text(t, span, a, result):
    t.count("cli.output.bytes", len(result.encode("utf-8")))


def _run_json(t, span, a, result):
    t.count("cli.output.bytes", os.path.getsize(os.path.join(a["outdir"], "run.json")))


HOOKS = {
    ("caf.rates", "_enumerate_ball"): _ball,
    ("caf.rates", "_loss_values"): _loss_values,
    ("caf.rates", "_rank_exact"): _rank,
    ("caf.rates", "lattice_sum_rate"): _sumrate,
    ("caf.diophantine", "build_monomial_set"): _monomials,
    ("caf.diophantine", "monomial_separation"): _separation,
    ("caf.alignment", "ml_demodulate"): _demod,
    ("caf.fpcode", "gv_search"): _gv,
    ("caf.fpcode", "md_decode"): _decode,
    ("caf.inversion", "peel_invert"): _peel,
    ("caf.inversion", "solve_linear"): _solve,
    ("caf.cli", "_run_alignment_block"): _block,
    ("caf.cli", "write_csv"): _text,
    ("caf.svgplot", "svg_line_chart"): _text,
    ("caf.cli", "_write_run_json"): _run_json,
}

COUNTERS = [
    "rates.search.ball_points", "rates.sumrate.combos", "rates.sumrate.fallbacks",
    "diophantine.monomials.count", "diophantine.separation.combos",
    "alignment.demod.symbols", "alignment.demod.candidates",
    "fpcode.codesearch.attempts", "fpcode.decode.words",
    "inversion.peel.rounds", "inversion.peel.fallbacks", "inversion.solve.cells",
]
PEAKS = [
    "rates.search.computed_mb", "alignment.demod.computed_mb",
    "inversion.solve.computed_mb", "cli.decode.computed_mb",
]


class Tracer:
    """In-memory spans and work counters for one traced run."""

    def __init__(self):
        self.spans = []  # [layer, function, start, end, parent index, strategy]
        self._stack = []
        self.counters = Counter()
        self.peaks = {}

    def count(self, key, n=1):
        self.counters[key] += n

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    def _wrap(self, layer, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, key = fn.__qualname__, "call:" + fn.__qualname__
        params = inspect.signature(fn).parameters
        defaults = {n: p.default for n, p in params.items() if p.default is not p.empty}
        names = list(params)

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                span = None
                result = fn(*args, **kwargs)
            else:
                span = [layer, name, clock(), 0.0, stack[-1] if stack else -1, None]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[3] = clock()
                    stack.pop()
            self.counters[key] += 1
            if hook is not None:
                arguments = dict(defaults)
                arguments.update(zip(names, args))
                arguments.update(kwargs)
                hook(self, span, arguments, result)
            return result

        functools.update_wrapper(wrapper, fn)
        wrapper.__perfbench_original__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function of ``LAYERS`` wherever a caf module binds it."""
        wrappers, patches = {}, []
        for modname, funcs in LAYERS.items():
            module = sys.modules[modname]
            for fname, layer in funcs.items():
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(layer, fn, HOOKS.get((modname, fname))))
        try:
            for module in _caf_modules():
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        patches.append((vars(module), attr, value))
                        setattr(module, attr, wrappers[id(value)][1])
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if id(item) in wrappers and wrappers[id(item)][0] is item:
                                patches.append((value, key, item))
                                value[key] = wrappers[id(item)][1]
            yield self
        finally:
            for namespace, key, original in reversed(patches):
                namespace[key] = original


def _caf_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "caf" or name.startswith("caf."))]


def leftover_wrappers() -> list:
    """Bindings in caf modules that still point at a wrapper (should be none)."""
    found = []
    for module in _caf_modules():
        for attr, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{module.__name__}.{attr}")
            elif isinstance(value, dict):
                found += [f"{module.__name__}.{attr}[{k!r}]" for k, v in value.items()
                          if hasattr(v, "__perfbench_original__")]
    return found


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals."""
    covered = [0.0] * len(spans)
    reach = {}  # parent index -> end of the child union so far
    for i in sorted(range(len(spans)), key=lambda i: spans[i][2]):
        parent = spans[i][4]
        if parent < 0:
            continue
        lo = max(spans[i][2], spans[parent][2], reach.get(parent, -math.inf))
        hi = min(spans[i][3], spans[parent][3])
        if hi > lo:
            covered[parent] += hi - lo
            reach[parent] = hi
    return [s[3] - s[2] - c for s, c in zip(spans, covered)]


def tail_percentile(n: int) -> float:
    """Highest of p99.9/p99/p90 with at least ten calls beyond it, else p50."""
    for pct in (99.9, 99.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(tracer: Tracer, rounds: int, traced_wall_s: float,
                  untraced_round_s: float, traced_round_s: float) -> dict:
    """Per-layer metrics of the traced rounds, per round: name -> (value, unit)."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls, busy = Counter(), Counter()
    demod = Counter()
    search_ms = []
    for span, own in zip(spans, selfs):
        calls[span[0]] += 1
        busy[span[0]] += own
        if span[0] == "alignment.demod":
            demod[span[5]] += own
        elif span[0] == "rates.search":
            search_ms.append((span[3] - span[2]) * 1e3)
    out = {}
    for layer in layer_names():
        out[f"{layer}.calls"] = (calls[layer] / rounds, "count")
        out[f"{layer}.self_s"] = (busy[layer] / rounds, "s")
    for key in COUNTERS:
        out[key] = (tracer.counters[key] / rounds, "count")
    for key in PEAKS:
        out[key] = (tracer.peaks.get(key, 0.0), "MB")
    out["cli.output.bytes"] = (tracer.counters["cli.output.bytes"] / rounds, "B")
    combos = tracer.counters["rates.sumrate.combos"]
    out["rates.sumrate.full_rank_ratio"] = (
        tracer.counters["rates.sumrate.full_rank"] / combos if combos else 0.0, "ratio")
    out["alignment.demod.exhaustive_s"] = (demod["exhaustive"] / rounds, "s")
    out["alignment.demod.mitm_s"] = (demod["mitm"] / rounds, "s")
    search_ms.sort()
    tail = tail_percentile(len(search_ms))
    out["rates.search.call_p50_ms"] = (percentile(search_ms, 50.0), "ms")
    out["rates.search.call_tail_ms"] = (percentile(search_ms, tail), "ms")
    out["rates.search.call_tail_pct"] = (tail, "pct")
    out["trace.wall_s"] = (traced_wall_s / rounds, "s")
    out["trace.unattributed_s"] = ((traced_wall_s - sum(selfs)) / rounds, "s")
    out["trace.overhead_ratio"] = (traced_round_s / untraced_round_s, "ratio")
    return out
