"""Spans around the public functions of each iwot module, recorded from outside src/.

A site names the object a caller looks a function up on, so the wrapper is
what the caller finds: `training` calls `losses.wot_loss`, so the wrapper
replaces the attribute of `iwot.losses`; `cli` imported `train` by name, so
its own binding `iwot.cli.train` is replaced. Spans are kept in memory as
dicts (name, duration in seconds, index of the enclosing span) and written
out when the process is done. Solver calls also keep (solver, cost, p1, p2,
plan) so the plans can be checked after the timed work.
"""

import functools
import importlib
import inspect
import statistics
import time

# (module, class or None, attribute, span name)
LIBRARY_SITES = [
    ("iwot.ot", None, "solve_sinkhorn", "ot.solve_sinkhorn"),
    ("iwot.ot", None, "solve_exact", "ot.solve_exact"),
    ("iwot.ot", None, "cosine_cost", "ot.cosine_cost"),
    ("iwot.ot", None, "cosine_cost_grad", "ot.cosine_cost_grad"),
    ("iwot.losses", None, "wot_loss", "losses.wot_loss"),
    ("iwot.losses", None, "iot_loss", "losses.iot_loss"),
    ("iwot.losses", None, "partial_coupling", "losses.sa_loss"),
    ("iwot.losses", None, "sa_loss", "losses.sa_loss"),
    ("iwot.losses", None, "loss_backward", "losses.loss_backward"),
    ("iwot.nets", "Mlp", "forward", "nets.forward"),
    ("iwot.nets", "Mlp", "backward", "nets.backward"),
    ("iwot.nets", "SgdMomentum", "step", "nets.sgd_step"),
    ("iwot.training", None, "train", "training.train"),
    ("iwot.data", None, "generate_pair", "data.generate_pair"),
    ("iwot.data", None, "save_dataset", "data.dataset_io"),
    ("iwot.data", None, "load_dataset", "data.dataset_io"),
    ("iwot.evaluation", None, "evaluate", "evaluation.evaluate"),
    ("iwot.evaluation", None, "predict_batch", "evaluation.predict_batch"),
    ("iwot.evaluation", None, "wasserstein_gap", "evaluation.wasserstein_gap"),
]

# Names the command-line module imported into its own namespace.
CLI_SITES = [
    ("iwot.cli", None, "train", "training.train"),
    ("iwot.cli", None, "evaluate", "evaluation.evaluate"),
    ("iwot.cli", None, "generate_pair", "data.generate_pair"),
    ("iwot.cli", None, "save_dataset", "data.dataset_io"),
    ("iwot.cli", None, "load_dataset", "data.dataset_io"),
    ("iwot.cli", None, "save_checkpoint", "nets.checkpoint"),
    ("iwot.cli", None, "load_checkpoint", "nets.checkpoint"),
]

SOLVERS = {"ot.solve_sinkhorn": "sinkhorn", "ot.solve_exact": "exact"}


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans = []
        self.solves = []
        self._stack = []
        self._patches = []

    def install(self, sites):
        for module_name, class_name, attr, span_name in sites:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, original, name):
        spans, stack, solves = self.spans, self._stack, self.solves
        solver = SOLVERS.get(name)
        signature = inspect.signature(original) if solver else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["s"] = time.perf_counter() - start
                stack.pop()
            if solver:
                # Only references are kept here; binding and checking wait
                # until the timed work is over.
                solves.append((solver, signature, args, kwargs, result))
                if solver == "sinkhorn":
                    span["iterations"] = result.iterations
                    span["converged"] = result.converged
            return result

        return traced

    def plan_records(self):
        """(solver, cost, p1, p2, plan) of every solve, for checks.check_plans."""
        records = []
        for solver, signature, args, kwargs, result in self.solves:
            bound = signature.bind(*args, **kwargs).arguments
            plan = result.coupling if solver == "sinkhorn" else result
            records.append((solver, bound["cost"], bound["p1"], bound["p2"], plan))
        return records


def wrapper_cost_s(calls=20000, repeats=5):
    """Median time one span wrapper adds to a call, measured on an empty function."""

    def empty():
        return None

    tracer = Tracer()
    traced = tracer._wrap(empty, "empty")
    costs = []
    for _ in range(repeats):
        del tracer.spans[:]
        start = time.perf_counter()
        for _ in range(calls):
            empty()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)


def merge(span_lists):
    """Concatenate span lists of several processes, renumbering parent links."""
    merged = []
    for spans in span_lists:
        offset = len(merged)
        for span in spans:
            span = dict(span)
            if span["parent"] is not None:
                span["parent"] += offset
            merged.append(span)
    return merged


def _median(values):
    return statistics.median(values) if values else 0.0


def span_metrics(spans, wrapper_s):
    """Per-layer metrics of one round from its spans: totals, self times, solver counts.

    `wrapper_s` is the time one wrapper adds to a call (wrapper_cost_s); the
    tracing overhead is that time for every span, as a share of the traced
    work (the outermost spans) less it.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["s"]

    def total(name):
        return sum((span["s"] for span in spans if span["name"] == name), 0.0)

    def self_total(name):
        return sum(
            (span["s"] - children[i] for i, span in enumerate(spans) if span["name"] == name), 0.0
        )

    def parent_name(span):
        return spans[span["parent"]]["name"] if span["parent"] is not None else None

    traced_s = sum(span["s"] for span in spans if span["parent"] is None)
    wrapping_s = wrapper_s * len(spans)
    sinkhorn = [span for span in spans if span["name"] == "ot.solve_sinkhorn"]
    exact = [span for span in spans if span["name"] == "ot.solve_exact"]
    return {
        "ot.solve_sinkhorn.calls": len(sinkhorn),
        "ot.solve_sinkhorn.s": total("ot.solve_sinkhorn"),
        "ot.solve_sinkhorn.p50_ms": 1e3 * _median([s["s"] for s in sinkhorn]),
        "ot.solve_sinkhorn.iters_total": sum(s["iterations"] for s in sinkhorn),
        "ot.solve_sinkhorn.iters_cross_p50": _median(
            [s["iterations"] for s in sinkhorn if parent_name(s) == "losses.wot_loss"]
        ),
        "ot.solve_sinkhorn.iters_intra_p50": _median(
            [s["iterations"] for s in sinkhorn if parent_name(s) == "losses.iot_loss"]
        ),
        "ot.solve_sinkhorn.unconverged": sum(1 for s in sinkhorn if not s["converged"]),
        "ot.solve_exact.calls": len(exact),
        "ot.solve_exact.s": total("ot.solve_exact"),
        "ot.solve_exact.p50_ms": 1e3 * _median([s["s"] for s in exact]),
        "ot.cosine_cost.s": total("ot.cosine_cost"),
        "ot.cosine_cost_grad.s": total("ot.cosine_cost_grad"),
        "losses.wot_loss.self_s": self_total("losses.wot_loss"),
        "losses.iot_loss.self_s": self_total("losses.iot_loss"),
        "losses.sa_loss.s": total("losses.sa_loss"),
        "losses.loss_backward.self_s": self_total("losses.loss_backward"),
        "nets.forward.s": total("nets.forward"),
        "nets.backward.s": total("nets.backward"),
        "nets.sgd_step.s": total("nets.sgd_step"),
        "nets.checkpoint.s": total("nets.checkpoint"),
        "training.train.self_s": self_total("training.train"),
        "data.generate_pair.s": total("data.generate_pair"),
        "data.dataset_io.s": total("data.dataset_io"),
        "evaluation.evaluate.s": total("evaluation.evaluate"),
        "evaluation.predict_batch.s": total("evaluation.predict_batch"),
        "evaluation.wasserstein_gap.self_s": self_total("evaluation.wasserstein_gap"),
        "trace.overhead_pct": 100.0 * wrapping_s / max(traced_s - wrapping_s, 1e-12),
    }
