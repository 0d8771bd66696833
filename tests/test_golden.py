"""Golden CLI outputs: each case replays one ``mixent`` invocation through
``mixent.cli.main`` and compares its stdout and exit code, byte for byte,
with what is stored under ``tests/golden/``.  The one unconverged case is
replayed with the quadrature tolerances patched to 1e-30.

The stored outputs were captured with numpy 2.4; another build of it (its
exp and log) can move the last printed digit of a quadrature result.
To rewrite them after a change that is meant to alter the output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path
from unittest import mock

import pytest

from mixent import numerics
from mixent.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

FAIR = '{"bernoulli":0.5}'
THREE = '{"support":[0,1,2],"probs":[0.2,0.5,0.3]}'
FORMATS = ("text", "csv", "json")

_COMMANDS = {
    "entropy_fair": ["entropy", "--sigma", "0.25", "--dist", FAIR],
    "entropy_3atom_mc": [
        "entropy", "--sigma", "1", "--dist", THREE, "--mc-samples", "5000",
    ],
    "sweep_3atom": [
        "sweep", "--sigma-start", "0.03", "--sigma-end", "4", "--steps", "12",
        "--dist", THREE,
    ],
    "sweep_fair": [
        "sweep", "--sigma-start", "0.2", "--sigma-end", "1", "--steps", "4",
        "--dist", FAIR,
    ],
    "landauer": ["landauer", "--mu", "0.5", "--sigma", "0.1", "--p1", "0.5"],
    "landauer_bits": ["landauer", "--mu", "0.5", "--sigma", "1", "--p1", "0.3", "--bits"],
    "validate": ["validate"],
}

CASES = {
    f"{name}_{fmt}": argv + ["--format", fmt]
    for name, argv in _COMMANDS.items()
    for fmt in FORMATS
}
# unreachable tolerances: rows still printed, ok=false, exit code 3
UNCONVERGED = "sweep_unconverged_csv"
CASES[UNCONVERGED] = [
    "sweep", "--sigma-start", "0.2", "--sigma-end", "1", "--steps", "4",
    "--dist", FAIR, "--format", "csv",
]


def replay(name: str) -> tuple[int, str]:
    out = io.StringIO()
    tols = (
        mock.patch.multiple(numerics, _ABS_TOL=1e-30, _REL_TOL=1e-30)
        if name == UNCONVERGED
        else contextlib.nullcontext()
    )
    with tols, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(CASES[name])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    code, out = replay(name)
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert out == expected
    assert code == json.loads(EXIT_CODES.read_text(encoding="utf-8"))[name]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name in sorted(CASES):
        codes[name], out = replay(name)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")
