"""Spans and counters recorded from outside the `orthostab` package.

`Tracer.install` replaces public functions of the six modules by
wrappers, in the namespace that calls them (for example
`stability.sample_orthogonal_pairs`, the name `_run_pipeline` looks
up), and `Tracer.uninstall` puts the originals back.  Each wrapper
records a span `[name, start, end, parent]`; spans live in memory
until the run ends.  `MapHandle.__call__` only counts, since it runs
hundreds of thousands of times a round.

A span's name is `<layer>.<function>`, and its self time is its
duration minus the time of its child spans (spans nest, since the
program is single-threaded).  `layer_metrics` turns one round's spans
and counters into the per-layer metrics of `PER_LAYER`.
"""

from __future__ import annotations

import collections
import functools
import time

LAYERS = ("orthogonality", "funcspace", "fixedpoint", "stability",
          "perturb", "cli")

# the root span of every job; `run_job` opens it around `cli.main`
JOB_SPAN = "cli.main"

# name -> (unit, better); the order is the order of the printout
PER_LAYER = {
    "orthogonality.sample_pairs_s": ("s", "lower"),
    "orthogonality.pairs_sampled": ("count", "higher"),
    "orthogonality.pairs_per_s": ("1/s", "higher"),
    "orthogonality.bj_margin_calls": ("count", "lower"),
    "orthogonality.bj_margin_s": ("s", "lower"),
    "orthogonality.bj_margin_per_pair": ("count/pair", "lower"),
    "orthogonality.thalesian_calls": ("count", "lower"),
    "orthogonality.thalesian_s": ("s", "lower"),
    "orthogonality.thalesian_failures": ("count", "lower"),
    "orthogonality.is_orthogonal_calls": ("count", "lower"),
    "orthogonality.is_orthogonal_s": ("s", "lower"),
    "orthogonality.check_axioms_s": ("s", "lower"),
    "orthogonality.self_s": ("s", "lower"),
    "orthogonality.cover_frac": ("ratio", "lower"),
    "funcspace.map_calls": ("count", "lower"),
    "funcspace.map_points": ("count", "lower"),
    "funcspace.points_per_call": ("points/call", "higher"),
    "funcspace.sup_distance_s": ("s", "lower"),
    "funcspace.self_s": ("s", "lower"),
    "fixedpoint.iterate_s": ("s", "lower"),
    "fixedpoint.picard_steps": ("count", "lower"),
    "fixedpoint.apriori_bound_s": ("s", "lower"),
    "fixedpoint.self_s": ("s", "lower"),
    "stability.pipeline_s": ("s", "lower"),
    "stability.pipeline_self_s": ("s", "lower"),
    "stability.pexider_defect_s": ("s", "lower"),
    "stability.necessity_check_s": ("s", "lower"),
    "stability.split_witness_attempts": ("count", "lower"),
    "stability.self_s": ("s", "lower"),
    "perturb.instance_s": ("s", "lower"),
    "perturb.self_s": ("s", "lower"),
    "cli.serialize_s": ("s", "lower"),
    "cli.json_bytes": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "bench.reference_s": ("s", "lower"),
}


# span name -> the (module, function) pairs it wraps; a public function
# is patched in every module whose code calls it by that name
_SPANS = {
    "orthogonality.check_axioms": [("cli", "check_axioms")],
    "orthogonality.sample_pairs": [("cli", "sample_orthogonal_pairs"),
                                   ("stability", "sample_orthogonal_pairs"),
                                   ("orthogonality",
                                    "sample_orthogonal_pairs")],
    "orthogonality.bj_margin": [("orthogonality", "bj_margin")],
    "orthogonality.is_orthogonal": [("orthogonality", "is_orthogonal")],
    "orthogonality.thalesian": [("orthogonality", "thalesian_solve"),
                                ("stability", "thalesian_solve")],
    "funcspace.sup_distance": [("stability", "sup_distance"),
                               ("fixedpoint", "sup_distance")],
    "funcspace.make_grid": [("cli", "make_grid"), ("stability", "make_grid")],
    "fixedpoint.iterate": [("stability", "iterate")],
    "fixedpoint.apriori_bound": [("stability", "apriori_bound")],
    "stability.pipeline": [("cli", "run_main_theorem"),
                           ("cli", "run_cauchy_corollary"),
                           ("cli", "run_quadratic_corollary")],
    "stability.pexider_defect": [("cli", "pexider_defect"),
                                 ("stability", "pexider_defect")],
    "stability.necessity_check": [("stability", "necessity_check")],
    "stability.doubling_defect": [("cli", "doubling_defect")],
    "stability.mixed_parity_defect": [("cli", "mixed_parity_defect")],
    "stability.derive_normalized_parts": [("cli",
                                           "derive_normalized_parts")],
    "stability.extract_odd": [("cli", "extract_odd")],
    "stability.extract_even": [("cli", "extract_even")],
    "perturb.random_ground_truth": [("cli", "random_ground_truth")],
    "perturb.compose_pexider_instance": [("cli",
                                          "compose_pexider_instance")],
    "perturb.compose_cauchy_instance": [("cli", "compose_cauchy_instance")],
    "perturb.compose_quadratic_instance": [("cli",
                                            "compose_quadratic_instance")],
    "perturb.make_cubic_growth": [("cli", "make_cubic_growth")],
    # recursive: only the outermost call is recorded
    "cli.serialize": [("cli", "dump_json_17g")],
}

# span name -> (counter, what of the result it adds up)
_COUNTS = {
    "orthogonality.sample_pairs": ("orthogonality.pairs_sampled", len),
    "fixedpoint.iterate": ("fixedpoint.picard_steps",
                           lambda res: len(res.raw_gaps)),
    "cli.serialize": ("cli.json_bytes", len),
}


class Tracer:
    """Records spans and counters while installed; see the module doc."""

    def __init__(self):
        self.spans: list = []
        self.counters: collections.Counter = collections.Counter()
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn, outermost_only=False):
        """`fn` recording a span `name`, and its `_COUNTS` counter.

        With `outermost_only`, calls made while a span of this wrapper
        is open run `fn` unrecorded (for recursive functions).
        """
        counter, count = _COUNTS.get(name, (None, None))
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        busy = [False]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if busy[0]:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            busy[0] = outermost_only
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                counters[name + ".errors"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
                busy[0] = False
            if counter is not None:
                counters[counter] += count(out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, mods: dict):
        """Patch the modules in `mods` (layer name -> module object)."""
        for name, targets in _SPANS.items():
            for module, attr in targets:
                owner = mods[module]
                self._patch(owner, attr, self.wrap(
                    name, getattr(owner, attr),
                    outermost_only=name == "cli.serialize"))

        handle = mods["funcspace"].MapHandle
        call = handle.__call__
        counters = self.counters

        def counted_call(m, pts):
            out = call(m, pts)
            if m.fn is not None:
                counters["funcspace.map_calls"] += 1
                counters["funcspace.map_points"] += out.size // out.shape[-1]
            return out

        self._patch(handle, "__call__", counted_call)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def root(self, fn):
        """`fn` wrapped as the root span of one job."""
        return self.wrap(JOB_SPAN, fn)

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        spans, counters = self.spans[:], collections.Counter(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its child spans."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list, counters, split_witness_attempts: int,
                  scale: float = 1.0) -> dict:
    """The per-layer metrics of one round, but for `trace.overhead_frac`
    and `bench.reference_s`.

    `split_witness_attempts` comes from the reports' diagnostics;
    `scale` multiplies every time (see `harness.Round`).
    """
    spans = [[name, scale * start, scale * end, parent]
             for name, start, end, parent in spans]
    total = collections.Counter()
    calls = collections.Counter()
    self_by_name = collections.Counter()
    self_by_layer = collections.Counter()
    cover = collections.Counter()
    # bitmask of the layers among each span's ancestors
    above = [0] * len(spans)
    bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
    for idx, (span, own) in enumerate(zip(spans, self_times(spans))):
        name, start, end, parent = span
        layer = name.split(".", 1)[0]
        if parent >= 0:
            above[idx] = above[parent] | bit[spans[parent][0].split(".")[0]]
        if not above[idx] & bit[layer]:
            cover[layer] += end - start
        total[name] += end - start
        calls[name] += 1
        self_by_name[name] += own
        self_by_layer[layer] += own

    wall = total[JOB_SPAN]
    pairs = counters["orthogonality.pairs_sampled"]
    splits = (calls["orthogonality.thalesian"]
              - counters["orthogonality.thalesian.errors"])
    leaf_calls = counters["funcspace.map_calls"]
    m = {
        "orthogonality.sample_pairs_s": total["orthogonality.sample_pairs"],
        "orthogonality.pairs_sampled": pairs,
        "orthogonality.pairs_per_s": _ratio(
            pairs, total["orthogonality.sample_pairs"]),
        "orthogonality.bj_margin_calls": calls["orthogonality.bj_margin"],
        "orthogonality.bj_margin_s": total["orthogonality.bj_margin"],
        "orthogonality.bj_margin_per_pair": _ratio(
            calls["orthogonality.bj_margin"], pairs + splits),
        "orthogonality.thalesian_calls": calls["orthogonality.thalesian"],
        "orthogonality.thalesian_s": total["orthogonality.thalesian"],
        "orthogonality.thalesian_failures":
            counters["orthogonality.thalesian.errors"],
        "orthogonality.is_orthogonal_calls":
            calls["orthogonality.is_orthogonal"],
        "orthogonality.is_orthogonal_s": total["orthogonality.is_orthogonal"],
        "orthogonality.check_axioms_s": total["orthogonality.check_axioms"],
        "orthogonality.cover_frac": _ratio(cover["orthogonality"], wall),
        "funcspace.map_calls": leaf_calls,
        "funcspace.map_points": counters["funcspace.map_points"],
        "funcspace.points_per_call": _ratio(
            counters["funcspace.map_points"], leaf_calls),
        "funcspace.sup_distance_s": total["funcspace.sup_distance"],
        "fixedpoint.iterate_s": total["fixedpoint.iterate"],
        "fixedpoint.picard_steps": counters["fixedpoint.picard_steps"],
        "fixedpoint.apriori_bound_s": total["fixedpoint.apriori_bound"],
        "stability.pipeline_s": total["stability.pipeline"],
        "stability.pipeline_self_s": self_by_name["stability.pipeline"],
        "stability.pexider_defect_s": total["stability.pexider_defect"],
        "stability.necessity_check_s": total["stability.necessity_check"],
        "stability.split_witness_attempts": split_witness_attempts,
        "perturb.instance_s": cover["perturb"],
        "cli.serialize_s": total["cli.serialize"],
        "cli.json_bytes": counters["cli.json_bytes"],
        "trace.wall_s": wall,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
