"""Span tracing around the public functions of each matchkit layer.

The wrappers live here, in the benchmark, not in the engines.  A call is
wrapped under the name its caller sees, so ``transferable`` calling
``linear_sum_assignment`` or ``partial_transfer`` calling
``find_positive_cycle`` each go through the wrapper.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# The layers.  cli, errors and tolerance are glue; rng is left out, as
# most of its work happens in set-up.
LAYERS = (
    "instances",
    "nontransferable",
    "transferable",
    "cycles",
    "partial_transfer",
    "bargaining",
    "exact_lp",
)

# Foreign kernels, wrapped where the layer binds them.
FOREIGN = (("transferable", "linear_sum_assignment"),)


def _proposals(result):
    return result.proposals


def _found(result):
    return int(result is not None)


# Values taken from a call's result: name -> function of the result.
RESULT_VALUES = {
    "nontransferable.gale_shapley_detailed": _proposals,
    "exact_lp.feasible_point": _found,
}


class Tracer:
    """Records (name, parent, job, start, end, value) for each wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1  # -1: not inside a job, record nothing
        self._restore: list = []

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        value_of = RESULT_VALUES.get(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if self.job < 0:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (index, parent, self.job, start, end, None)
            if value_of is not None:
                spans[sid] = (index, parent, self.job, start, end, value_of(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Rebind every public layer function in every matchkit module."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"matchkit.{layer}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for layer, attr in FOREIGN:
            module = sys.modules[f"matchkit.{layer}"]
            original = getattr(module, attr)
            self._set(module, attr, original, self._wrap(f"{layer}.{attr}", original))
        for modname, module in list(sys.modules.items()):
            if modname != "matchkit" and not modname.startswith("matchkit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, value, hit[1])

    def _set(self, module, attr, original, wrapper):
        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def begin_job(self, job_id, kind):
        """Open the job's root span; wrapped calls nest under it."""
        name = f"job.{kind}"
        if name not in self.names:
            self.names.append(name)
        sid = len(self.spans)
        self.spans.append((self.names.index(name), -1, job_id, perf_counter_ns(), None, None))
        self.stack.append(sid)
        self.job = job_id

    def end_job(self):
        sid = self.stack.pop()
        index, parent, job, start, _, _ = self.spans[sid]
        self.spans[sid] = (index, parent, job, start, perf_counter_ns(), None)
        self.job = -1

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(f"# {header}\n")
            fh.write("span,parent,job,name,start_ns,end_ns,value\n")
            for sid, (index, parent, job, start, end, value) in enumerate(self.spans):
                shown = "" if value is None else value
                fh.write(f"{sid},{parent},{job},{self.names[index]},{start},{end},{shown}\n")


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for index, parent, job, start, end, value in spans]
    for index, parent, job, start, end, value in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(tracer, jobs_per_pass):
    """Per-pass aggregates of the recorded spans.

    Returns one dict per pass, holding ``calls`` and ``self_ns`` by name,
    ``calls_under`` by (name, parent name), ``values`` (summed result
    values by name) and ``job_ns`` (total time of the job root spans).
    """
    names = tracer.names
    spans = tracer.spans
    per_pass = defaultdict(
        lambda: {
            "calls": Counter(),
            "self_ns": Counter(),
            "calls_under": Counter(),
            "values": Counter(),
            "job_ns": 0,
        }
    )
    for (index, parent, job, start, end, value), own in zip(spans, self_times(spans)):
        agg = per_pass[job // jobs_per_pass]
        name = names[index]
        agg["calls"][name] += 1
        agg["self_ns"][name] += own
        parent_name = names[spans[parent][0]] if parent >= 0 else None
        agg["calls_under"][(name, parent_name)] += 1
        if value is not None and not (
            name == "nontransferable.gale_shapley_detailed" and parent_name == name
        ):
            # A women-proposing run wraps a men-proposing one: count once.
            agg["values"][name] += value
        if parent < 0:
            agg["job_ns"] += end - start
    return [per_pass[k] for k in sorted(per_pass)]


def count_signature(agg):
    """The counts that must repeat exactly between passes of one seed."""
    return (
        dict(agg["calls"]),
        dict(agg["calls_under"]),
        dict(agg["values"]),
    )


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(passes, untraced_pass_ns):
    """Per-layer metrics, averaged per pass over the traced passes."""
    k = len(passes)
    calls = Counter()
    self_ns = Counter()
    under = Counter()
    values = Counter()
    for agg in passes:
        calls.update(agg["calls"])
        self_ns.update(agg["self_ns"])
        under.update(agg["calls_under"])
        values.update(agg["values"])

    def per_pass(x):
        return x / k

    def self_ms(name):
        return per_pass(self_ns[name]) / 1e6

    traced_ns = statistics.median(agg["job_ns"] for agg in passes)
    fpc = "cycles.find_positive_cycle"
    exists = "partial_transfer.exists_pq_stable"
    metrics = {
        "transferable.calls": (
            per_pass(sum(c for name, c in calls.items() if name.startswith("transferable."))),
            "count",
        ),
        "transferable.lsa_calls": (per_pass(calls["transferable.linear_sum_assignment"]), "count"),
        "transferable.lsa_calls_per_solve": (
            _ratio(
                calls["transferable.linear_sum_assignment"],
                calls["transferable.optimal_assignment"],
            ),
            "calls/solve",
        ),
        "cycles.find_positive_cycle.calls": (per_pass(calls[fpc]), "count"),
        "cycles.best_cycle_bruteforce.calls": (
            per_pass(calls["cycles.best_cycle_bruteforce"]),
            "count",
        ),
        "cycles.fallback_ratio": (
            _ratio(under[("cycles.best_cycle_bruteforce", fpc)], calls[fpc]),
            "ratio",
        ),
        "partial_transfer.oracle_leaves_per_call": (
            _ratio(under[(fpc, exists)], calls[exists]),
            "leaves/call",
        ),
        "nontransferable.proposals": (
            per_pass(values["nontransferable.gale_shapley_detailed"]),
            "count",
        ),
        "nontransferable.enumerate_fnt_stable.calls": (
            per_pass(calls["nontransferable.enumerate_fnt_stable"]),
            "count",
        ),
        "exact_lp.feasible_point.calls": (per_pass(calls["exact_lp.feasible_point"]), "count"),
        "exact_lp.feasible_ratio": (
            _ratio(values["exact_lp.feasible_point"], calls["exact_lp.feasible_point"]),
            "ratio",
        ),
        "trace.overhead_ms": ((traced_ns - untraced_pass_ns) / 1e6, "ms"),
    }
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = (self_ms(name), "ms")
    return metrics


# Functions whose self time per pass is a per-layer metric.
SELF_MS = (
    "transferable.optimal_assignment",
    "transferable.linear_sum_assignment",
    "transferable.dual_cuts",
    "transferable.is_cyclically_monotone",
    "cycles.shortest_potentials",
    "cycles.find_positive_cycle",
    "cycles.best_cycle_bruteforce",
    "partial_transfer.find_pq_blocking_chain",
    "partial_transfer.exists_pq_stable",
    "partial_transfer.pq_plane_sweep",
    "nontransferable.gale_shapley_detailed",
    "nontransferable.find_fnt_blocking_pairs",
    "nontransferable.enumerate_fnt_stable",
    "instances.preference_orders",
    "instances.parse_instance",
    "instances.combined_rewards",
    "bargaining.search_core",
    "bargaining.verify_core_point",
    "exact_lp.feasible_point",
)
