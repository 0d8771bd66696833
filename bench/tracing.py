"""Per-layer tracing installed from outside the program.

``Tracer.install`` replaces each public function of the traced ``mixent``
modules with a wrapper at every name a caller looks it up by (the defining
module, every module that imported it, and the package namespace), and
wraps three methods at their class attributes.  Each wrapper records a span
``[name, parent, start_ns, end_ns]`` in memory; self time is a span's duration
minus the durations of its direct children.

``GaussianDensity.log_pdf`` runs millions of times per pass, so it gets a
counter instead of spans: its time stays inside its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

# Modules whose every public function is wrapped.  The cli module is the
# entry point; its handlers and formatting count as ``cli.main`` self time.
TRACED_MODULES = ("checks", "entropy", "numerics", "bounds", "distributions", "landauer")

# Atoms farther than this many sigmas contribute below exp(-800): a scalar
# log_pdf call that far out is wasted work.
FAR_SIGMAS = 40.0

CHECK_NAMES = (
    "identity", "sharpness_sandwich", "bound_chain", "lattice_sum_bound",
    "big_sigma_lower", "rate_match", "landauer", "equality_cases",
    "mc_agreement", "tail_inequality",
)

# (metric, unit): the per-layer metrics of a traced run, in report order.
PER_LAYER = (
    *((f"checks.check_{n}.s", "s") for n in CHECK_NAMES),
    ("entropy.mc_entropy.s", "s"),
    ("distributions.MixtureDensity.sample.s", "s"),
    ("distributions.MixtureDensity.log_density.s", "s"),
    ("distributions.MixtureDensity.log_density.points", "count"),
    ("entropy.deficit_direct.calls", "count"),
    ("entropy.deficit_direct.s", "s"),
    ("entropy.deficit_direct.self_s", "s"),
    ("entropy.mixture_entropy.calls", "count"),
    ("entropy.mixture_entropy.s", "s"),
    ("entropy.mixture_entropy.self_s", "s"),
    ("distributions.GaussianDensity.log_pdf.calls", "count"),
    ("distributions.GaussianDensity.log_pdf.far_frac", "share"),
    ("numerics.integrate.calls", "count"),
    ("numerics.integrate.s", "s"),
    ("numerics.integrate.neval", "count"),
    ("numerics.integrate.unconverged", "count"),
    ("bounds.lemma1_upper_bound.calls", "count"),
    ("bounds.lemma1_upper_bound.s", "s"),
    ("numerics.lattice_sum_excluding_zero.calls", "count"),
    ("numerics.lattice_sum_excluding_zero.s", "s"),
    ("bounds.sandwich_report.calls", "count"),
    ("bounds.sandwich_report.self_s", "s"),
    ("numerics.lattice_sum.calls", "count"),
    ("numerics.lattice_sum.s", "s"),
    ("landauer.reset_report.calls", "count"),
    ("landauer.reset_report.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Metrics that count work; they must repeat exactly for a given seed.
COUNT_STATS = ("calls", "neval", "unconverged", "points", "far_frac")


def span_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total duration ``s`` and ``self_s``.

    ``spans`` holds ``[name, parent_index, start_ns, end_ns]`` rows; a
    parent of -1 marks a root.  Self time is a span's duration minus the
    durations of its direct children.
    """
    child_ns = [0] * len(spans)
    for _name, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for i, (name, _parent, start, end) in enumerate(spans):
        t = totals[name]
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - child_ns[i]
    return {name: {"calls": calls, "s": ns / 1e9, "self_s": self_ns / 1e9}
            for name, (calls, ns, self_ns) in totals.items()}


class Tracer:
    """Spans and counters for one traced pass; ``install`` returns the
    function that puts every original back."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # GaussianDensity.log_pdf calls: all, scalar, scalar beyond FAR_SIGMAS
        self.log_pdf_tally = [0, 0, 0]
        self._stack: list[int] = []

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            row = [name, stack[-1] if stack else -1, 0, 0]
            spans.append(row)
            stack.append(sid)
            row[2] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[3] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _after_integrate(self, args, result) -> None:
        self.counts["numerics.integrate.neval"] += result.evaluations
        if not result.converged:
            self.counts["numerics.integrate.unconverged"] += 1

    def _after_log_density(self, args, result) -> None:
        self.counts["distributions.MixtureDensity.log_density.points"] += np.size(args[1])

    def _log_pdf(self, fn):
        tally = self.log_pdf_tally

        @functools.wraps(fn)
        def log_pdf(density, x):
            tally[0] += 1
            if type(x) is float or np.ndim(x) == 0:
                tally[1] += 1
                if abs(x) > FAR_SIGMAS * density.sigma:
                    tally[2] += 1
            return fn(density, x)

        return log_pdf

    def install(self):
        cli = importlib.import_module("mixent.cli")
        dist = importlib.import_module("mixent.distributions")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "mixent" or n.startswith("mixent."))]

        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"mixent.{short}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    after = self._after_integrate if name == "numerics.integrate" else None
                    wrappers[fn] = self._span(name, fn, after)
        wrappers[cli.main] = self._span("cli.main", cli.main)

        undo = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

        mix, gauss = dist.MixtureDensity, dist.GaussianDensity
        for cls, attr, wrapped in (
            (gauss, "log_pdf", self._log_pdf(gauss.log_pdf)),
            (mix, "log_density", self._span("distributions.MixtureDensity.log_density",
                                            mix.log_density, self._after_log_density)),
            (mix, "sample", self._span("distributions.MixtureDensity.sample", mix.sample)),
        ):
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapped)

        def uninstall() -> None:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

        return uninstall

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of this pass except the tracing overhead."""
        stats = span_stats(self.spans)
        out: dict[str, float] = {}
        for metric, _unit in PER_LAYER:
            name, stat = metric.rsplit(".", 1)
            if metric == "trace.overhead_s":
                continue
            if name == "distributions.GaussianDensity.log_pdf":
                calls, scalar, far = self.log_pdf_tally
                out[metric] = calls if stat == "calls" else far / scalar if scalar else 0.0
            elif stat in ("calls", "s", "self_s"):
                out[metric] = stats.get(name, {}).get(stat, 0)
            else:
                out[metric] = self.counts[metric]
        return out


def count_metrics(metrics: dict[str, float]) -> dict[str, float]:
    return {m: v for m, v in metrics.items() if m.rsplit(".", 1)[1] in COUNT_STATS}


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Times as the median over passes; counts from the first pass."""
    first = per_pass[0]
    out = {}
    for metric, value in first.items():
        stat = metric.rsplit(".", 1)[1]
        out[metric] = value if stat in COUNT_STATS else statistics.median(
            p[metric] for p in per_pass)
    return out
