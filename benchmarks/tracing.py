"""Spans around the package's public functions, recorded from outside the package.

Each traced function is replaced, in every centrum module namespace that
holds it, by a wrapper that records a span: layer name, start, end, the
index of the enclosing span and the op id. Module-internal calls go
through the same global names, so they are traced too. Functions not
listed here are not wrapped; their time is self time of the caller.
A function a later version no longer has is skipped.
"""

import contextlib
import functools
import statistics
import sys
import time

# layer name -> (module, public functions); jsonutil.format_float is left
# out because dumps calls it once per float
LAYERS = {
    "cli": ("cli", ("run",)),
    "jsonutil.emit": ("jsonutil", ("dumps", "dump_path")),
    "metric.load": ("metric", ("load_instance", "instance_from_dict")),
    "metric.build": ("metric", ("build_from_matrix", "build_from_points", "build_from_graph")),
    "metric.validate": ("metric", ("validate_metric",)),
    "metric.save": ("metric", ("save_instance", "instance_to_dict")),
    "objectives.profile": ("objectives", ("cost_profile",)),
    "objectives.graph": ("objectives", ("graph_from_profile", "ratio_graph")),
    "selection": ("selection", ("select_pair", "select_largest_objective",
                                "select_multi_graph", "select_exhaustive")),
    "harness.check": ("harness", ("check_inequalities",)),
    "harness.sweep": ("harness", ("sweep_pair", "sweep_multi")),
    "generators": ("generators", ("gen_tight_pair_line", "gen_tight_pair_triangle",
                                  "gen_tight_triple", "gen_random_euclidean",
                                  "gen_random_graph_metric", "triple_location_metric")),
    "bounds": ("bounds", ("beta_q", "pair_bound_f", "pair_bound_shared", "pair_guarantee",
                          "multi_guarantee", "shared_guarantee")),
}


def _validate_triples(args, result):
    size = args[0].cross.shape[0]
    return size ** 3


def _profile_cells(args, result):
    return args[0].n_clients * args[0].m_facilities


def _emit_bytes(args, result):
    return len(result.encode("utf-8"))


def _comparisons(args, result):
    return sum(rec.comparisons for rec in result.checks.values())


def _clients(args, result):
    return getattr(result, "n_clients", 0)


# computed counts: derived from the arguments or results at the layer
# boundary, so they repeat exactly for the same inputs
COUNTERS = {
    "validate_metric": ("metric.validate.triples", _validate_triples),
    "cost_profile": ("objectives.profile.cells", _profile_cells),
    "dumps": ("jsonutil.emit.bytes", _emit_bytes),
    "check_inequalities": ("harness.comparisons", _comparisons),
    "gen_tight_pair_line": ("generators.clients", _clients),
    "gen_tight_pair_triangle": ("generators.clients", _clients),
    "gen_tight_triple": ("generators.clients", _clients),
    "gen_random_euclidean": ("generators.clients", _clients),
    "gen_random_graph_metric": ("generators.clients", _clients),
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for layer in LAYERS:
        units[layer + ".self_s"] = "s"
        units[layer + ".calls"] = "count"
    for name, _ in COUNTERS.values():
        units[name] = "bytes-computed" if name.endswith(".bytes") else "count-computed"
    units.update({"trace.pass_s": "s", "trace.overhead_s": "s", "trace.spans": "count"})
    return units


class Tracer:
    """Spans in memory: [name, start, end, parent index, op id, (count name, value)]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None

    def _wrap(self, layer, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, time.perf_counter(), None, stack[-1] if stack else -1, self.op_id, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = (counter[0], counter[1](args, result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Swap the wrappers in for the duration of the block."""
        modules = [m for name, m in sys.modules.items()
                   if name == "centrum" or name.startswith("centrum.")]
        saved = []
        for layer, (module_name, names) in LAYERS.items():
            home = sys.modules["centrum." + module_name]
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(layer, fn, COUNTERS.get(fname))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            saved.append((module, attr, value))
                            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)


def summarize(spans, first: int = 0) -> dict:
    """Per-layer self time, calls and computed counts of spans[first:].

    Self time is a span's duration minus the durations of its direct
    children. A call is a span whose parent belongs to another layer,
    so dump_path calling dumps counts once.
    """
    out = {name: 0 for name in metric_units()}
    out.pop("trace.pass_s")
    out.pop("trace.overhead_s")
    child_time = {}
    for i in range(first, len(spans)):
        parent = spans[i][3]
        if parent >= first:
            child_time[parent] = child_time.get(parent, 0.0) + spans[i][2] - spans[i][1]
    for i in range(first, len(spans)):
        layer, start, end, parent, _, count = spans[i]
        out[layer + ".self_s"] += end - start - child_time.get(i, 0.0)
        if parent < first or spans[parent][0] != layer:
            out[layer + ".calls"] += 1
        if count is not None:
            out[count[0]] += count[1]
    out["trace.spans"] = len(spans) - first
    return out


def median_of(passes) -> dict:
    """Median of each metric over several pass summaries."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
