"""Command-line front end: single evaluations, sigma sweeps, self-validation,
and bit-reset reports, emitting CSV/JSON/text for downstream tooling.

The CLI emits data only (no plotting); CSV and text values carry 15
significant digits and JSON numbers use full round-trip precision, so
downstream tools can re-verify every inequality at double precision.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import bounds as bounds_mod
from . import landauer as landauer_mod
from .checks import run_all_checks
from .distributions import DiscreteLattice, GaussianDensity
from .entropy import McConfig, entropy_report

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3

_SWEEP_COLUMNS_HELP = (
    "sweep CSV columns (stable order): "
    + ",".join(bounds_mod.CSV_COLUMNS)
    + "; landauer CSV columns: " + ",".join(landauer_mod.CSV_COLUMNS)
)


def _parse_dist(spec: str) -> DiscreteLattice:
    text = spec.strip()
    if not text.startswith(("{", "[")):
        path = Path(text)
        if not path.exists():
            raise ValueError(f"distribution file not found: {text}")
        text = path.read_text(encoding="utf-8")
    return DiscreteLattice.from_json(text)


def _cell(x) -> str:
    """One CSV/text cell: empty for None, true/false, strings as they are,
    numbers to 15 significant digits."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    return f"{x:.15g}"


def _table(fmt: str, header: tuple[str, ...], rows: list[list]) -> str:
    """``rows`` under ``header`` as CSV, or as a left-aligned text table."""
    lines = [list(header)] + [[_cell(x) for x in row] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(lines)
        return buf.getvalue()
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(line, widths)) + "\n" for line in lines
    )


def _labelled(label: str, width: int, value, err=None, tail: str = "") -> str:
    """One text-report line: ``label  value  (+- err<tail>)``."""
    line = f"{label:<{width}} {_cell(value):>22}"
    if err is not None:
        line += f"  (+- {err:.3e}{tail})"
    return line


def _render(
    args: argparse.Namespace,
    doc,
    header: tuple[str, ...],
    rows: list[list],
    text: Optional[list[str]] = None,
) -> None:
    """Emit ``doc`` as JSON, ``rows`` as CSV, or the ``text`` lines (``rows``
    as a text table when no lines are given), as ``--format`` says."""
    if args.format == "json":
        payload = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv" or text is None:
        payload = _table(args.format, header, rows)
    else:
        payload = "\n".join(text) + "\n"
    if args.output in ("stdout", "-"):
        sys.stdout.write(payload)
    else:
        Path(args.output).write_text(payload, encoding="utf-8")


def _exit_code(converged: bool, what: str = "quadrature") -> int:
    if converged:
        return EXIT_OK
    print(f"warning: {what} did not converge to tolerance", file=sys.stderr)
    return EXIT_NONCONVERGENCE


# ---------------------------------------------------------------- entropy --


def cmd_entropy(args: argparse.Namespace) -> int:
    mc = McConfig(args.mc_samples, 0) if args.mc_samples else None
    z = _parse_dist(args.dist)
    report = entropy_report(z, GaussianDensity(args.sigma), mc)
    converged = all(v.converged for v in report.values())

    doc = {"sigma": args.sigma, "z": z.to_json(), "converged": converged}
    for name, v in report.items():
        doc[name] = {"nats": v.nats, "abs_error": v.abs_error, "method": v.method.value}
    rows = [[name, v.nats, v.abs_error, v.method.value] for name, v in report.items()]
    text = [f"sigma = {_cell(args.sigma)}   Z = {json.dumps(z.to_json())}"]
    text += [
        _labelled(name, 16, v.nats, v.abs_error, f", {v.method.value}")
        for name, v in report.items()
    ]
    _render(args, doc, ("quantity", "nats", "abs_error", "method"), rows, text)
    return _exit_code(converged)


# ------------------------------------------------------------------ sweep --


def _sigma_grid(args: argparse.Namespace) -> np.ndarray:
    if not (0.0 < args.sigma_start <= args.sigma_end < math.inf):
        raise ValueError(
            f"need 0 < sigma-start <= sigma-end < inf "
            f"(got {args.sigma_start!r}, {args.sigma_end!r})"
        )
    if args.steps < 1:
        raise ValueError(f"steps must be >= 1 (got {args.steps})")
    return np.geomspace(args.sigma_start, args.sigma_end, args.steps)


def cmd_sweep(args: argparse.Namespace) -> int:
    z = _parse_dist(args.dist)
    docs = [asdict(bounds_mod.sandwich_report(z, float(s))) for s in _sigma_grid(args)]
    header = bounds_mod.CSV_COLUMNS
    _render(args, docs, header, [[doc[c] for c in header] for doc in docs])
    return _exit_code(all(doc["converged"] for doc in docs), "some rows")


# --------------------------------------------------------------- validate --


def cmd_validate(args: argparse.Namespace) -> int:
    results = run_all_checks(mc_samples=args.mc_samples)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name.ljust(width)}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    docs = [asdict(r) for r in results]
    header = ("name", "passed", "detail")
    _render(args, docs, header, [[doc[c] for c in header] for doc in docs], lines)
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILED


# --------------------------------------------------------------- landauer --


def cmd_landauer(args: argparse.Namespace) -> int:
    model = landauer_mod.BitMemoryModel(mu=args.mu, sigma=args.sigma, p1=args.p1)
    report = landauer_mod.reset_report(model)
    if args.bits:
        report = report.in_bits()
    doc = asdict(report)
    columns = landauer_mod.CSV_COLUMNS
    unit = "bits" if args.bits else "nats"
    text = [
        f"mu = {_cell(report.mu)}  sigma = {_cell(report.sigma)}  "
        f"p1 = {_cell(report.p1)}  [{unit}]"
    ]
    # one line per entropy column, after mu, sigma and p1
    text += [
        _labelled(c, 10, doc[c], doc["deficit_err"] if c == "deficit" else None)
        for c in columns[3:]
    ]
    _render(args, doc, columns, [[doc[c] for c in columns]], text)
    return _exit_code(report.converged)


# ------------------------------------------------------------------- main --


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``mixent`` argument parser, built on the first call and shared by
    every later call and every ``main`` in the process: do not mutate it.
    Its ``set_defaults(func=cmd_*)`` binds the command functions as they
    are at that first build."""
    parser = argparse.ArgumentParser(
        prog="mixent",
        description=(
            "Entropy of lattice-Gaussian mixtures: deficit computation and "
            "closed-form bound validation."
        ),
        epilog=_SWEEP_COLUMNS_HELP,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json", "text"), default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--output", default="stdout", metavar="PATH",
        help="output file path, or 'stdout' (default)",
    )
    law = argparse.ArgumentParser(add_help=False)
    law.add_argument(
        "--dist", required=True, metavar="JSON|FILE",
        help='discrete law: inline JSON ({"support":[..],"probs":[..]}, '
             '{"bernoulli":p}, {"uniform_support":n}) or a file path',
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_entropy = sub.add_parser(
        "entropy", parents=[common, law],
        help="H(Z), h(X), h(X+Z) and the deficit by both routes",
    )
    p_entropy.add_argument("--sigma", type=float, required=True,
                           help="Gaussian standard deviation")
    p_entropy.add_argument(
        "--mc-samples", type=int, default=0, metavar="N",
        help="Monte Carlo sample count, drawn from seed 0 (0 = skip MC; default 0)",
    )
    p_entropy.set_defaults(func=cmd_entropy)

    p_sweep = sub.add_parser(
        "sweep", parents=[common, law],
        help="bound/deficit sandwich report per sigma over a geometric grid "
             "(the bounds decay like exp(-1/(8 sigma^2)))",
    )
    p_sweep.add_argument("--sigma-start", type=float, required=True)
    p_sweep.add_argument("--sigma-end", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_validate = sub.add_parser(
        "validate", parents=[common],
        help="run the full self-validation suite (exit 0 iff all pass)",
    )
    p_validate.add_argument(
        "--mc-samples", type=int, default=10**6, metavar="N",
        help="Monte Carlo sample count of the MC agreement check (default 10^6)",
    )
    p_validate.set_defaults(func=cmd_validate)

    p_landauer = sub.add_parser(
        "landauer", parents=[common],
        help="bit-reset entropy report for a double-well memory",
    )
    p_landauer.add_argument("--mu", type=float, required=True,
                            help="half-separation of the well centers")
    p_landauer.add_argument("--sigma", type=float, required=True,
                            help="in-well standard deviation")
    p_landauer.add_argument("--p1", type=float, required=True,
                            help="probability of logic state 1")
    p_landauer.add_argument("--bits", action="store_true",
                            help="report entropies in bits instead of nats")
    p_landauer.set_defaults(func=cmd_landauer)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, MemoryError, OSError) as exc:
        # ValueError covers bad laws, sample counts and sweep grids and a
        # missing --dist file, OverflowError a scale too large to square or
        # reach, MemoryError a step or sample count too large to allocate,
        # OSError an unreadable --dist or unwritable --output: usage errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
