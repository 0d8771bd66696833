"""Tests of the benchmark itself: its oracles, its self-time arithmetic,
the repeatability of its counts, and its agreement with BENCHMARK.json.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# The wide-support defect: Z on {0, 1, 10^4} with probs (0.4, 0.4, 0.2) at
# sigma=0.25 has delta = 0.8 * delta_Bern(1/2) exactly, but the identity
# route prints 0.4023.
FAIR_BERNOULLI_025 = 0.0604269868230783277
WIDE_TRUTH = 0.8 * FAIR_BERNOULLI_025


def _entropy_stdout(direct: float, identity: float, err: float = 1e-11) -> str:
    doc = {"converged": True}
    for name, nats in (("H_Z", 1.0549201679861442), ("h_X", 0.0), ("h_mixture", 0.0),
                       ("delta_direct", direct), ("delta_identity", identity)):
        doc[name] = {"nats": nats, "abs_error": err, "method": "quadrature"}
    return json.dumps(doc)


def test_mpmath_reference_matches_published_digits():
    assert abs(oracles.bernoulli_deficit(0.5, 0.25, dps=30) - FAIR_BERNOULLI_025) < 1e-17


def test_cluster_oracle_rejects_wide_support_identity_value():
    expected = 0.8 * oracles.bernoulli_deficit(0.5, 0.25)
    bad = oracles.check_entropy_cluster(_entropy_stdout(WIDE_TRUTH, 0.4023), 0, expected)
    assert not bad.ok
    assert "delta_identity" in bad.reasons[0]
    good = oracles.check_entropy_cluster(_entropy_stdout(WIDE_TRUTH, WIDE_TRUTH), 0, expected)
    assert good.ok, good.reasons


def test_contiguous_oracle_rejects_disagreement_and_negative_delta():
    assert oracles.check_entropy_contiguous(_entropy_stdout(0.1, 0.1), 0).ok
    assert not oracles.check_entropy_contiguous(_entropy_stdout(0.1, 0.1 + 1e-6), 0).ok
    assert not oracles.check_entropy_contiguous(_entropy_stdout(-1e-3, -1e-3), 0).ok
    assert not oracles.check_entropy_contiguous(_entropy_stdout(0.1, 0.1), 3).ok


def test_sweep_oracle_rechecks_bound_order():
    header = ",".join(oracles.SWEEP_COLUMNS)
    row = "0.25,0.06,1e-12,0.1,0.1,0.2,0.49,0.014,,true"
    assert oracles.check_sweep(f"{header}\n{row}\n", 0, [0.25]).ok
    swapped = "0.25,0.06,1e-12,0.6,0.1,0.2,0.49,0.014,,true"
    assert not oracles.check_sweep(f"{header}\n{swapped}\n", 0, [0.25]).ok
    flagged = row.replace("true", "false")
    assert not oracles.check_sweep(f"{header}\n{flagged}\n", 0, [0.25]).ok


def test_self_time_on_hand_built_tree():
    # a [0,100] holds b [10,40] (which holds c [15,25]) and b [50,90]
    spans = [["a", -1, 0, 100], ["b", 0, 10, 40], ["c", 1, 15, 25], ["b", 0, 50, 90]]
    stats = tracing.span_stats(spans)
    assert stats["a"] == {"calls": 1, "s": 100e-9, "self_s": 30e-9}
    assert stats["b"]["calls"] == 2
    assert abs(stats["b"]["s"] - 70e-9) < 1e-18
    assert abs(stats["b"]["self_s"] - 60e-9) < 1e-18
    assert stats["c"] == {"calls": 1, "s": 10e-9, "self_s": 10e-9}


def _traced_counts(cli, ops) -> dict:
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        outcomes = run.run_pass(cli, ops)
    finally:
        uninstall()
    assert all(op.check(out, code).ok or op.name in workloads.KNOWN_DEFECTS
               for op, (code, out, _err, _s) in zip(ops, outcomes))
    return tracing.count_metrics(tracer.metrics())


def test_counts_repeat_across_traced_runs_and_uninstall_restores():
    import mixent.cli as cli
    import mixent.entropy as entropy
    from mixent.distributions import GaussianDensity

    originals = (cli.main, entropy.integrate, GaussianDensity.log_pdf)
    ops = [op for op in workloads.build("deficit_wide", 7)
           if op.name.startswith(("contig_K3_", "gapped_F1000_"))]
    ops += [op for op in workloads.build("validate_sweep", 7) if op.name == "sweep_3atom"]
    first = _traced_counts(cli, ops)
    second = _traced_counts(cli, ops)
    assert first == second
    assert first["numerics.integrate.neval"] > 0
    assert first["bounds.lemma1_upper_bound.calls"] == workloads.SWEEP_STEPS
    assert (cli.main, entropy.integrate, GaussianDensity.log_pdf) == originals


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(tracing.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
