import argparse
import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import mixent
from mixent import landauer
from mixent.bounds import CSV_COLUMNS, sandwich_report
from mixent.cli import _cell, build_parser, main
from mixent.distributions import DiscreteLattice, GaussianDensity
from mixent.entropy import deficit_via_identity

LN2 = math.log(2.0)
FAIR_JSON = '{"bernoulli":0.5}'
# a gap of 10^5 at sigma 1e-150: the deficit's scale d^2 / (8 sigma^2)
# overflows, and the deficit is 0 within one unit in the last place
WIDE_GAP_JSON = '{"support":[0,100000],"probs":[0.5,0.5]}'
SWEEP_FAIR = ["sweep", "--sigma-start", "0.25", "--sigma-end", "1", "--steps", "2",
              "--dist", FAIR_JSON]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "value, cell",
    [(None, ""), (True, "true"), (False, "false"), ("quadrature", "quadrature"),
     (0.25, "0.25"), (0.0, "0"), (1.0 / 3.0, "0.333333333333333"), (4, "4")],
)
def test_cell_renders_every_value_kind(value, cell):
    assert _cell(value) == cell


class TestEntropyCommand:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "entropy", "--sigma", "0.25", "--dist", FAIR_JSON,
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["H_Z"]["nats"] == pytest.approx(LN2, rel=1e-12)
        assert doc["h_X"]["nats"] == pytest.approx(0.0326441720847821, rel=1e-10)
        assert doc["delta_direct"]["nats"] == pytest.approx(
            doc["delta_identity"]["nats"], abs=1e-9
        )
        assert 0.0140330 <= doc["delta_direct"]["nats"] <= 0.4858927
        assert doc["converged"] is True

    def test_point_mass_deficit_is_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "entropy", "--sigma", "0.25",
            "--dist", '{"support":[0],"probs":[1]}', "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["delta_direct"]["nats"]) <= 1e-12

    def test_scale_overflow_deficit_is_zero_within_one_ulp(self, capsys):
        argv = ["entropy", "--sigma", "1e-150", "--dist", WIDE_GAP_JSON]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
        assert doc["delta_direct"] == {
            "nats": 0.0, "abs_error": 5e-324, "method": "quadrature"}
        assert doc["converged"] is True
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert re.search(r"^delta_direct +0  \(\+- 4\.941e-324, quadrature\)$", out, re.M)

    @pytest.mark.parametrize("sigma, dist", [("0.001", FAIR_JSON), ("1e-149", WIDE_GAP_JSON)])
    def test_underflowed_deficit_is_zero_within_one_ulp(self, capsys, sigma, dist):
        # the scale is finite but the deficit underflows: 0, not exactly 0
        argv = ["entropy", "--sigma", sigma, "--dist", dist]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["delta_direct"] == {
            "nats": 0.0, "abs_error": 5e-324, "method": "quadrature"}
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert re.search(r"^delta_direct +0  \(\+- 4\.941e-324, quadrature\)$", out, re.M)

    def test_mixture_entropy_integrated_once(self, capsys, integrate_calls):
        code, out, _ = run_cli(
            capsys, "entropy", "--sigma", "0.25", "--dist", FAIR_JSON,
            "--format", "json",
        )
        assert code == 0
        # one quadrature for the direct route, one for h(X+Z)
        assert len(integrate_calls) == 2
        expected = deficit_via_identity(
            DiscreteLattice.bernoulli(0.5), GaussianDensity(0.25)
        )
        assert json.loads(out)["delta_identity"]["nats"] == expected.nats

    @pytest.mark.parametrize(
        "dist, fault",
        [('{"support":[0,1],"probs":[0.4,0.5]}', "sum to 1"),
         ('{"bernoulli":null}', "bernoulli None is not a number"),
         ('{"support":"10","probs":[0.5,0.5]}', "must be JSON arrays"),
         ('{"support":[0,1],"probs":[0.5,0.5],"bernoulli":0.9}',
          "(got ['bernoulli', 'probs', 'support'])"),
         ('{"bernoulli":0.5,"typo":1}', "(got ['bernoulli', 'typo'])"),
         # inline JSON, not a file name
         ("[0.5, 0.5]", "distribution JSON must be an object")],
        ids=["probs_sum", "bernoulli_null", "support_string", "two_forms",
             "unknown_key", "array"],
    )
    def test_malformed_dist_exits_2_naming_the_fault(self, capsys, dist, fault):
        code, out, err = run_cli(capsys, "entropy", "--sigma", "0.25", "--dist", dist)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fault in err

    def test_missing_dist_file_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "entropy", "--sigma", "0.25", "--dist", "no/such/file.json",
        )
        assert code == 2
        assert "not found" in err

    def test_dist_from_file(self, capsys, tmp_path):
        path = tmp_path / "z.json"
        path.write_text('{"uniform_support": 4}', encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "entropy", "--sigma", "0.25", "--dist", str(path),
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["H_Z"]["nats"] == pytest.approx(
            math.log(4.0), rel=1e-12
        )

    def test_nonconvergence_exit_3_with_output(self, capsys, unreachable_tolerance):
        code, out, err = run_cli(
            capsys, "entropy", "--sigma", "0.25", "--dist", FAIR_JSON,
            "--format", "json",
        )
        assert code == 3
        doc = json.loads(out)  # result still printed
        assert doc["converged"] is False
        assert "converge" in err

    @pytest.mark.parametrize(
        "sigma, dist, samples",
        [("0.25", FAIR_JSON, "20000"), ("1", '{"uniform_support":12}', "2000")],
        ids=["fair", "uniform_support_12"],
    )
    def test_includes_mc_when_requested(self, capsys, sigma, dist, samples):
        code, out, _ = run_cli(
            capsys, "entropy", "--sigma", sigma, "--dist", dist,
            "--format", "json", "--mc-samples", samples,
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["h_mc"]["nats"] - doc["h_mixture"]["nats"]) <= (
            4.0 * doc["h_mc"]["abs_error"]
        )

    def test_invalid_sigma_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "entropy", "--sigma", "-1", "--dist", FAIR_JSON,
        )
        assert code == 2
        assert "sigma" in err

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--sigma", "0.25"])
        assert exc.value.code == 2


class TestSweepCommand:
    def test_subcritical_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--sigma-start", "0.15", "--sigma-end", "0.45",
            "--steps", "7", "--dist", FAIR_JSON, "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "sigma,delta,delta_err,lemma1,lemma3,lemma4,thm1,bern_lb,bigsig_lb,ok"
        assert len(lines) == 8
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[-1] == "true"
            assert cells[6] != ""  # closed-form upper bound present
            assert cells[8] == ""  # big-sigma bound absent

    def test_scale_overflow_row_is_zero_within_one_ulp(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--sigma-start", "1e-150", "--sigma-end", "1e-149",
            "--steps", "2", "--dist", WIDE_GAP_JSON, "--format", "csv",
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[:3] == ["1e-150", "0", "4.94065645841247e-324"]
        assert row[-1] == "true"

    def test_supercritical_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--sigma-start", "0.5", "--sigma-end", "2",
            "--steps", "4", "--dist", FAIR_JSON, "--format", "csv",
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            cells = line.split(",")
            assert cells[6] == ""  # thm1 column empty
            assert cells[8] != ""  # big-sigma bound populated
            assert cells[-1] == "true"

    def test_single_step_equals_sandwich_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--sigma-start", "0.25", "--sigma-end", "0.45",
            "--steps", "1", "--dist", FAIR_JSON, "--format", "csv",
        )
        assert code == 0
        row = out.strip().split("\n")[1]
        doc = asdict(sandwich_report(DiscreteLattice.bernoulli(0.5), 0.25))
        assert row == ",".join(_cell(doc[c]) for c in CSV_COLUMNS)

    @pytest.mark.parametrize("grid", [np.geomspace(0.2, 0.4, 3)], ids=["log"])
    def test_json_format(self, capsys, grid):
        code, out, _ = run_cli(
            capsys, "sweep", "--sigma-start", "0.2", "--sigma-end", "0.4",
            "--steps", "3", "--dist", FAIR_JSON, "--format", "json",
        )
        assert code == 0
        docs = json.loads(out)
        assert all(doc["ok"] for doc in docs)
        assert [doc["sigma"] for doc in docs] == grid.tolist()
        # each row is exactly its sandwich report, field for field
        z = DiscreteLattice.bernoulli(0.5)
        rows = [asdict(sandwich_report(z, s)) for s in grid.tolist()]
        assert docs == json.loads(json.dumps(rows))

    def test_repeat_runs_are_byte_identical(self, capsys):
        argv = [
            "sweep", "--sigma-start", "0.2", "--sigma-end", "0.4",
            "--steps", "3", "--dist", FAIR_JSON, "--format", "csv",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_output_to_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--sigma-start", "0.25", "--sigma-end", "0.25",
            "--steps", "1", "--dist", FAIR_JSON, "--format", "csv",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("sigma,")

    def test_bad_grid_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--sigma-start", "0.4", "--sigma-end", "0.2",
            "--steps", "3", "--dist", FAIR_JSON,
        )
        assert code == 2
        assert "sigma-start" in err

    def test_bad_steps_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--sigma-start", "0.2", "--sigma-end", "0.4",
            "--steps", "0", "--dist", FAIR_JSON,
        )
        assert code == 2
        assert "steps" in err


class TestValidateCommand:
    def test_every_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        lines = out.strip().split("\n")
        named_checks = [line for line in lines if line.startswith(("PASS", "FAIL"))]
        assert len(named_checks) >= 6
        assert all(line.startswith("PASS") for line in named_checks)
        assert "10/10 checks passed" in lines[-1]

    def test_impossible_tolerance_fails_with_nonconvergence(
        self, capsys, unreachable_tolerance
    ):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 1
        assert "FAIL" in out
        assert "NonConvergence" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 10
        assert all(set(doc) == {"name", "passed", "detail"} for doc in docs)
        assert all(doc["passed"] is True for doc in docs)

    def test_csv_failure_details_stay_in_one_cell(self, capsys, unreachable_tolerance):
        code, out, _ = run_cli(capsys, "validate", "--format", "csv")
        assert code == 1
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["name", "passed", "detail"]
        assert len(rows) == 11
        assert all(len(row) == 3 for row in rows)
        assert any(row[1] == "false" and "NonConvergence" in row[2] for row in rows)


class TestLandauerCommand:
    # sigma_eff 0.1 and 0.05; at mu = 1e-9 the deficit is far below an ulp
    # of h_before and h_after, so only ideal - deficit carries it
    @pytest.mark.parametrize("mu, sigma", [("0.5", "0.1"), ("1e-9", "1e-10")])
    def test_small_noise_report(self, capsys, mu, sigma):
        code, out, _ = run_cli(
            capsys, "landauer", "--mu", mu, "--sigma", sigma, "--p1", "0.5",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["delta_h"] == doc["ideal"] - doc["deficit"]
        assert abs(doc["delta_h"] - doc["ideal"]) <= doc["envelope"]
        assert abs(doc["delta_h"] - LN2) <= 1.7840634176811572e-05
        assert doc["ideal"] == pytest.approx(LN2, rel=1e-12)

    def test_large_noise_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "landauer", "--mu", "0.5", "--sigma", "1", "--p1", "0.5",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["delta_h"] <= 0.4792775 + 1e-7
        assert doc["envelope"] is None

    def test_bits_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "landauer", "--mu", "0.5", "--sigma", "0.1", "--p1", "0.5",
            "--bits", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ideal"] == pytest.approx(1.0, rel=1e-12)

    def test_noise_where_two_pi_e_sigma_squared_overflows(self, capsys):
        code, out, _ = run_cli(
            capsys, "landauer", "--mu", "1e154", "--sigma", "5e153", "--p1", "0.5",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["h_after"] == pytest.approx(355.32389567372775, rel=1e-15)
        assert math.isfinite(doc["h_before"])

    def test_invalid_p1_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "landauer", "--mu", "0.5", "--sigma", "1", "--p1", "1.5",
        )
        assert code == 2
        assert "p1" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "landauer", "--mu", "0.5", "--sigma", "0.1", "--p1", "0.5",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mu,sigma,p1,h_before,h_after,delta_h,ideal,deficit,envelope"
        assert len(lines) == 2



@pytest.mark.parametrize(
    "argv",
    [
        ["landauer", "--mu", "0.5", "--sigma", "0.1", "--p1", "0.5", "--seed", "9"],
        ["landauer", "--mu", "0.5", "--sigma", "0.1", "--p1", "0.5", "--mc-samples", "10"],
        ["validate", "--seed", "1"],
        ["validate", "--quick"],
        ["validate", "--mc-samples", "2000"],
        ["entropy", "--sigma", "0.25", "--dist", FAIR_JSON, "--quad-abs-tol", "1e-30"],
        ["entropy", "--sigma", "0.25", "--dist", FAIR_JSON, "--seed", "4"],
        [*SWEEP_FAIR, "--spacing", "linear"],
        [*SWEEP_FAIR, "--mc-samples", "10"],
        [*SWEEP_FAIR, "--seed", "4"],
    ],
    ids=[
        "landauer_seed", "landauer_mc_samples", "validate_seed", "validate_quick",
        "validate_mc_samples", "entropy_quad_abs_tol", "entropy_seed", "sweep_spacing",
        "sweep_mc_samples", "sweep_seed",
    ],
)
def test_flag_the_command_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["entropy"])
@pytest.mark.parametrize("mc_flags", [["--mc-samples", "-5"]], ids=["negative_samples"])
def test_unread_or_negative_mc_flags_exit_2(capsys, command, mc_flags):
    code, out, err = run_cli(
        capsys, command, "--sigma", "0.25", "--dist", FAIR_JSON, *mc_flags
    )
    assert code == 2
    assert out == ""
    assert "mc-samples -5" in err


@pytest.mark.parametrize(
    "argv", [["entropy", "--sigma", "0.25", "--dist", FAIR_JSON]], ids=["entropy"]
)
def test_one_mc_sample_exits_2_before_any_quadrature(capsys, integrate_calls, argv):
    code, out, err = run_cli(capsys, *argv, "--mc-samples", "1")
    assert code == 2
    assert out == ""
    assert "mc-samples 1" in err and "samples must be >= 2" in err
    assert integrate_calls == []


def test_main_reuses_one_parser_per_process(capsys, monkeypatch):
    """Calls of every kind, a usage error among them, give the same output
    and exit code on every round, and all of them share one parser tree."""
    entropy = ["entropy", "--sigma", "0.25", "--dist", FAIR_JSON, "--format", "json"]
    sequence = [
        entropy,
        ["entropy", "--sigma", "0.25"],  # no --dist: argparse exits 2
        SWEEP_FAIR + ["--format", "csv"],
        ["landauer", "--mu", "0.5", "--sigma", "0.1", "--p1", "0.5"],
        entropy,
    ]
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return (code,) + tuple(capsys.readouterr())

    first = [run(argv) for argv in sequence]
    one_tree = len(built)
    second = [run(argv) for argv in sequence]
    assert [r[0] for r in first] == [0, 2, 0, 0, 0]
    assert "--dist" in first[1][2]
    assert first[4] == first[0]
    assert second == first
    assert one_tree > 0 and built.count("mixent") == 1 and len(built) == one_tree
    assert build_parser.cache_info().misses == 1


def _fresh_python(*args: str) -> bytes:
    """stdout of ``python *args`` in a new interpreter that imports this
    ``mixent``; a nonzero exit fails the test."""
    src = str(Path(mixent.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, check=True, timeout=60,
    )
    return run.stdout


def test_cli_import_loads_no_scipy_and_no_thread_pool():
    # scipy loads only in the tests and concurrent.futures nowhere; most of a
    # fresh process's start-up would otherwise be theirs
    loaded = _fresh_python("-c", "import sys, mixent.cli; print(*sys.modules)")
    roots = {name.split(".")[0] for name in loaded.decode().split()}
    assert sorted(roots & {"scipy", "concurrent"}) == []


def test_repeated_main_calls_print_what_fresh_processes_print(capsys):
    """In one process, each ``main`` call prints what the same command prints
    in a process of its own: no state carries from one call to the next."""
    entropy = ["entropy", "--sigma", "0.25", "--dist", FAIR_JSON, "--format", "json"]
    sweep = ["sweep", "--sigma-start", "0.2", "--sigma-end", "1", "--steps", "4",
             "--dist", FAIR_JSON, "--format", "csv"]
    calls = [entropy, sweep, entropy, sweep]
    in_process = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [0] * 4
    fresh = [_fresh_python("-m", "mixent.cli", *argv) for argv in calls]
    assert [out.encode() for _, out, _ in in_process] == fresh


def test_readme_invocations_parse():
    """Every ``mixent`` line in README's code blocks, with backslash
    continuations joined and ``#`` comments dropped, parses as it stands."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    invocations = [
        shlex.split(line, comments=True)[1:]
        for line in lines
        if line.startswith("mixent ")
    ]
    assert {argv[0] for argv in invocations} == {"entropy", "sweep", "validate", "landauer"}
    for argv in invocations:
        build_parser().parse_args(argv)


def test_readme_library_block_runs_with_the_values_it_shows():
    """README's ``python`` block runs as written, and each expression with a
    value in its comment (``0.0604...``, or ``same value`` as the line
    above) has that value to the digits shown."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    namespace = {}
    exec(block, namespace)
    checked, digits = 0, None
    for expr, comment in re.findall(r"^(\S.*?)\s+# (.*)$", block, re.M):
        shown = re.fullmatch(r"(\d+\.\d+)\.\.\.", comment)
        if shown:
            digits = shown.group(1)
        elif not comment.startswith("same value"):
            continue
        assert repr(eval(expr, namespace)).startswith(digits), (expr, digits)
        checked += 1
    assert checked == 4


@pytest.mark.parametrize(
    "lead, columns",
    [("Sweep CSV columns (stable order):", CSV_COLUMNS),
     ("Landauer CSV columns:", landauer.CSV_COLUMNS)],
    ids=["sweep", "landauer"],
)
def test_readme_lists_the_report_columns(lead, columns):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(re.escape(lead) + r"\s*`([^`]*)`", readme)
    assert listed is not None, lead
    assert tuple(listed.group(1).split(",")) == columns


def test_output_into_missing_directory_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(
        capsys, "entropy", "--sigma", "0.25", "--dist", FAIR_JSON,
        "--output", str(target),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--sigma-start", "1e155", "--sigma-end", "1e155", "--steps", "1",
         "--dist", FAIR_JSON],
        ["landauer", "--mu", "1e200", "--sigma", "1e200", "--p1", "0.5"],
        ["entropy", "--sigma", "1e308", "--dist", FAIR_JSON],
        ["entropy", "--sigma", "1e-160", "--dist", FAIR_JSON],
        ["entropy", "--sigma", "1e-170", "--dist", FAIR_JSON],
        ["landauer", "--mu", "1", "--sigma", "1e-160", "--p1", "0.5"],
    ],
    ids=["sweep_sigma_squared", "landauer_sigma_squared", "entropy_infinite_reach",
         "entropy_sigma_squared_subnormal", "entropy_sigma_squared_zero",
         "landauer_sigma_squared_subnormal"],
)
def test_scale_beyond_a_double_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert re.search(r"sigma \S+ is outside \[2\*\*-511, 2\*\*512\)", err), err


@pytest.mark.parametrize("start, end", [("0.2", "inf"), ("inf", "inf"), ("nan", "1")])
def test_non_finite_sigma_range_exits_2_with_one_line(capsys, start, end):
    # rejected before np.geomspace, which would warn on an infinite end
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "sweep", "--sigma-start", start, "--sigma-end", end,
            "--steps", "3", "--dist", FAIR_JSON,
        )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "sigma-end" in err


# 10**17 doubles are 711 PiB, beyond any address space: the allocation
# fails at once and is never attempted for real
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--sigma-start", "0.2", "--sigma-end", "1",
         "--steps", "100000000000000000", "--dist", FAIR_JSON],
        ["entropy", "--sigma", "0.25", "--dist", FAIR_JSON,
         "--mc-samples", "100000000000000000"],
    ],
    ids=["sweep_steps", "entropy_mc_samples"],
)
def test_count_too_large_to_allocate_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "allocate" in err


# sigma >= 1e18: the cell window around an atom holds more elements than any
# array, so numpy refuses it at once and no memory is ever touched
@pytest.mark.parametrize(
    "argv, base",
    [
        (["entropy", "--sigma", "1e30", "--dist", FAIR_JSON], "sigma=1e+30"),
        (["sweep", "--sigma-start", "1e20", "--sigma-end", "1e20", "--steps", "1",
          "--dist", FAIR_JSON], "sigma=1e+20"),
        (["landauer", "--mu", "1e-30", "--sigma", "1", "--p1", "0.5"],
         "sigma=4.9999999999999994e+29"),
    ],
    ids=["entropy", "sweep", "landauer"],
)
def test_a_cell_window_beyond_any_array_names_the_base(capsys, argv, base):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: GaussianDensity(" + base + "): ")
    assert err.endswith(" cells around each atom\n") and err.count("\n") == 1
