"""Benchmark of the mixent user paths, end to end and layer by layer.

    python3 bench/run.py --workload {validate_sweep,deficit_wide} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The workload's ``mixent`` command lines are generated from
``--seed`` (see ``workloads.py``) and run in-process through
``mixent.cli.main`` with stdout captured, in one process with one thread,
pass after pass for about ``--seconds`` seconds.  Every output is checked
by its oracle.

With ``--trace 0`` the end-to-end metrics are reported: ``wall_s`` (median
time of one pass), ``setup_s`` (median over fresh interpreters of
``import mixent`` plus ``build_parser()``), ``peak_rss_mb`` and
``pass_rate`` (operations whose output passed its oracle, over operations
attempted; ``1 - error_rate``).  With ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics of ``tracing.PER_LAYER`` are
reported, with the tracing overhead as traced minus untraced pass time.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The generated command lines, every operation's computed
values and stdout digest, the pass times and the environment go to
``bench/out/<workload>-seed<N>-trace<T>.json``; a traced run also writes
the spans of its first traced pass to ``bench/out/<workload>-seed<N>-spans.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import mixent\n"
    "from mixent.cli import build_parser\n"
    "build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)

# (metric, unit) of an untraced run; pass_rate is 1 - error_rate, reported
# that way so that the metric never reads 0.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_rate", "share"))

SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def program_source() -> Path:
    """``src/`` of the checkout, or exit when the program is not there."""
    src = ROOT / "src"
    if not (src / "mixent" / "__init__.py").is_file():
        sys.exit(f"error: no mixent sources at {src}; run from a source checkout")
    return src


def measure_setup(src: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(src)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
    }


def run_op(cli, argv) -> tuple[object, str, str, float]:
    """One in-process ``mixent`` invocation: exit code, stdout, stderr and
    wall time.  An exception from the program is a failed operation."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = "exception"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def run_pass(cli, ops) -> list[tuple[object, str, str, float]]:
    return [run_op(cli, op.argv) for op in ops]


class Ledger:
    """Outcome of every operation over every pass of a run."""

    def __init__(self, ops, known_defects) -> None:
        self.ops = ops
        self.known = known_defects
        self.records = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def add(self, outcomes) -> float:
        """Check one pass's outputs; return the pass's wall time."""
        for i, (op, (code, out, err, secs)) in enumerate(zip(self.ops, outcomes)):
            verdict = op.check(out, code)
            digest = hashlib.sha256(out.encode()).hexdigest()
            rec = self.records[i]
            if rec is None:
                rec = self.records[i] = {
                    "name": op.name, "argv": list(op.argv),
                    "known_defect": op.name in self.known,
                    "exit_code": code, "ok": verdict.ok, "reasons": verdict.reasons,
                    "values": verdict.values, "stdout_sha256": digest,
                    "stderr": err, "seconds": [],
                }
            rec["seconds"].append(secs)
            self.attempted += 1
            repeated = digest == rec["stdout_sha256"]
            if not repeated:
                verdict.ok = rec["ok"] = False
                rec["reasons"].append("stdout differs from the first pass")
            if not verdict.ok:
                self.failed += 1
                # only a known defect that fails the same way each pass is expected
                if (op.name not in self.known or not repeated) and op.name not in self.unexpected:
                    self.unexpected.append(op.name)
        return sum(o[3] for o in outcomes)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timed_loop(seconds: float, step) -> None:
    """Call ``step()`` (which returns its own duration) at least once, and
    again while the time left fits another step as long as the median one."""
    start = perf_counter()
    durations = []
    while True:
        durations.append(step())
        left = seconds - (perf_counter() - start)
        if left < statistics.median(durations):
            return


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = program_source()
    sys.path.insert(0, str(src))
    import mixent.cli as cli

    import tracing

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: mixent imported from {cli.__file__}, not from {src}")

    ops = workloads.build(args.workload, args.seed)
    ledger = Ledger(ops, workloads.KNOWN_DEFECTS)
    untraced: list[float] = []
    traced: list[float] = []
    layer_passes: list[dict] = []
    first_spans = None

    def untraced_pass() -> float:
        untraced.append(ledger.add(run_pass(cli, ops)))
        return untraced[-1]

    def traced_pair() -> float:
        nonlocal first_spans
        before = untraced_pass()
        tracer = tracing.Tracer()
        uninstall = tracer.install()
        try:
            traced.append(ledger.add(run_pass(cli, ops)))
        finally:
            uninstall()
        layer_passes.append(tracer.metrics())
        if first_spans is None:
            first_spans = tracer.spans
        return before + traced[-1]

    setup = [] if args.trace else measure_setup(src)
    timed_loop(args.seconds, traced_pair if args.trace else untraced_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = not ledger.unexpected
    lines = [f"workload={args.workload} seed={args.seed} trace={args.trace} "
             f"ops/pass={len(ops)} untraced_passes={len(untraced)} "
             f"traced_passes={len(traced)}"]
    if args.trace:
        per_layer = tracing.median_metrics(layer_passes)
        if any(tracing.count_metrics(p) != tracing.count_metrics(layer_passes[0])
               for p in layer_passes):
            correct = False
            lines.append("counts differ between traced passes")
        per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics = {m: {"value": per_layer[m], "unit": u} for m, u in tracing.PER_LAYER}
    else:
        values = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "pass_rate": (ledger.attempted - ledger.failed) / ledger.attempted,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
        q1, q2, q3 = quartiles(untraced)
        lines.append(f"wall_s quartiles {q1:.4f} / {q2:.4f} / {q3:.4f} s over "
                     f"{len(untraced)} passes")
        s1, s2, s3 = quartiles(setup)
        lines.append(f"setup_s quartiles {s1:.4f} / {s2:.4f} / {s3:.4f} s over "
                     f"{len(setup)} interpreters")
    lines.append(f"error_rate {ledger.failed}/{ledger.attempted} = "
                 f"{ledger.failed / ledger.attempted:.6g}")
    for rec in ledger.records:
        if not rec["ok"]:
            tag = "known defect" if rec["known_defect"] else "UNEXPECTED"
            lines.append(f"failed ({tag}) {rec['name']}: {'; '.join(rec['reasons'])}")
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']!r} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "untraced_pass_s": untraced, "traced_pass_s": traced, "setup_s": setup,
        "layer_passes": layer_passes, "metrics": metrics, "operations": ledger.records,
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    if first_spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"columns": ["name", "parent", "start_ns", "end_ns"], "spans": first_spans}))

    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    os.environ.update(SINGLE_THREAD)
    sys.exit(main())
