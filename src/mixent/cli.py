"""Command-line front end: single evaluations, sigma sweeps, self-validation,
and bit-reset reports, emitting CSV/JSON/text for downstream tooling.

The CLI emits data only (no plotting); CSV and text values carry 15
significant digits and JSON numbers use full round-trip precision, so
downstream tools can re-verify every inequality at double precision.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import bounds as bounds_mod
from . import landauer as landauer_mod
from .bounds import _fmt
from .checks import run_all_checks
from .distributions import (
    DiscreteLattice,
    DistributionError,
    GaussianDensity,
    MixtureDensity,
)
from .entropy import (
    McConfig,
    deficit_direct,
    deficit_via_identity,
    discrete_entropy,
    gaussian_entropy,
    mc_entropy,
    mixture_entropy,
)
from .numerics import QuadratureConfig

ENV_ABS_TOL = "MIXENT_QUAD_ABS_TOL"
ENV_REL_TOL = "MIXENT_QUAD_REL_TOL"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3

_SWEEP_COLUMNS_HELP = (
    "sweep CSV columns (stable order): "
    + ",".join(bounds_mod.CSV_COLUMNS)
    + " [+ mc_delta,mc_se when --mc-samples > 0]; "
    "landauer CSV columns: " + ",".join(landauer_mod.CSV_COLUMNS)
)


class CliError(Exception):
    """Invalid arguments or inputs; maps to exit code 2."""


def _env_float(name: str, fallback: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return float(raw)
    except ValueError as exc:
        raise CliError(f"environment variable {name}={raw!r} is not a number") from exc


def _quad_config(args: argparse.Namespace) -> QuadratureConfig:
    abs_tol = args.quad_abs_tol
    if abs_tol is None:
        abs_tol = _env_float(ENV_ABS_TOL, 1e-12)
    rel_tol = args.quad_rel_tol
    if rel_tol is None:
        rel_tol = _env_float(ENV_REL_TOL, 1e-10)
    try:
        return QuadratureConfig(abs_tol=abs_tol, rel_tol=rel_tol)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _parse_dist(spec: str) -> DiscreteLattice:
    text = spec.strip()
    if not text.startswith("{"):
        path = Path(text)
        if not path.exists():
            raise CliError(f"distribution file not found: {text}")
        text = path.read_text(encoding="utf-8")
    return DiscreteLattice.from_json(text)


def _emit(args: argparse.Namespace, payload: str) -> None:
    if args.output in (None, "stdout", "-"):
        sys.stdout.write(payload)
    else:
        Path(args.output).write_text(payload, encoding="utf-8")


def _csv_lines(header: tuple[str, ...], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- entropy --


def cmd_entropy(args: argparse.Namespace) -> int:
    z = _parse_dist(args.dist)
    g = GaussianDensity(args.sigma)
    cfg = _quad_config(args)
    m = MixtureDensity(g, z)

    hz = discrete_entropy(z)
    hx = gaussian_entropy(g)
    hm = mixture_entropy(m, cfg)
    dd = deficit_direct(z, g, cfg)
    di = deficit_via_identity(z, g, cfg, hm)
    quantities = [
        ("H_Z", hz),
        ("h_X", hx),
        ("h_mixture", hm),
        ("delta_direct", dd),
        ("delta_identity", di),
    ]
    if args.mc_samples > 0:
        quantities.append(
            ("h_mc", mc_entropy(m, McConfig(samples=args.mc_samples, seed=args.seed)))
        )
    converged = all(v.converged for _, v in quantities)

    if args.format == "json":
        doc = {
            "sigma": args.sigma,
            "z": z.to_json(),
            "converged": converged,
        }
        for name, v in quantities:
            doc[name] = {
                "nats": v.nats,
                "abs_error": v.abs_error,
                "method": v.method.value,
            }
        payload = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        rows = [
            [name, _fmt(v.nats), _fmt(v.abs_error), v.method.value]
            for name, v in quantities
        ]
        payload = _csv_lines(("quantity", "nats", "abs_error", "method"), rows)
    else:
        lines = [f"sigma = {_fmt(args.sigma)}   Z = {json.dumps(z.to_json())}"]
        for name, v in quantities:
            lines.append(
                f"{name:<16} {_fmt(v.nats):>22}  (+- {v.abs_error:.3e}, {v.method.value})"
            )
        payload = "\n".join(lines) + "\n"
    _emit(args, payload)
    if not converged:
        print("warning: quadrature did not converge to tolerance", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


# ------------------------------------------------------------------ sweep --


def _sigma_grid(args: argparse.Namespace) -> np.ndarray:
    if not (0.0 < args.sigma_start <= args.sigma_end):
        raise CliError(
            f"need 0 < sigma-start <= sigma-end "
            f"(got {args.sigma_start!r}, {args.sigma_end!r})"
        )
    if args.steps < 1:
        raise CliError(f"steps must be >= 1 (got {args.steps})")
    if args.steps == 1:
        return np.asarray([args.sigma_start])
    if args.spacing == "linear":
        return np.linspace(args.sigma_start, args.sigma_end, args.steps)
    return np.geomspace(args.sigma_start, args.sigma_end, args.steps)


def cmd_sweep(args: argparse.Namespace) -> int:
    z = _parse_dist(args.dist)
    cfg = _quad_config(args)
    sigmas = _sigma_grid(args)
    with_mc = args.mc_samples > 0

    reports = []
    mc_extras: list[tuple[Optional[float], Optional[float]]] = []
    for i, sigma in enumerate(sigmas):
        report = bounds_mod.sandwich_report(z, float(sigma), cfg)
        reports.append(report)
        if with_mc:
            g = GaussianDensity(float(sigma))
            hmc = mc_entropy(
                MixtureDensity(g, z),
                McConfig(samples=args.mc_samples, seed=args.seed + i),
            )
            mc_delta = (
                discrete_entropy(z).nats + gaussian_entropy(g).nats - hmc.nats
            )
            mc_extras.append((mc_delta, hmc.abs_error))
        else:
            mc_extras.append((None, None))

    if args.format == "json":
        docs = []
        for report, (mc_delta, mc_se) in zip(reports, mc_extras):
            doc = report.to_json_dict()
            if with_mc:
                doc["mc_delta"] = mc_delta
                doc["mc_se"] = mc_se
            docs.append(doc)
        payload = json.dumps(docs, indent=2) + "\n"
    else:
        header = bounds_mod.CSV_COLUMNS + (("mc_delta", "mc_se") if with_mc else ())
        rows = []
        for report, (mc_delta, mc_se) in zip(reports, mc_extras):
            row = report.to_csv_row()
            if with_mc:
                row.extend([_fmt(mc_delta), _fmt(mc_se)])
            rows.append(row)
        if args.format == "csv":
            payload = _csv_lines(header, rows)
        else:
            widths = [
                max(len(h), *(len(r[i]) for r in rows))
                for i, h in enumerate(header)
            ]
            lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
            lines.extend(
                "  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows
            )
            payload = "\n".join(lines) + "\n"
    _emit(args, payload)
    if not all(r.converged for r in reports):
        print("warning: some rows did not converge to tolerance", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


# --------------------------------------------------------------- validate --


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _quad_config(args)
    mc_samples = args.mc_samples if args.mc_samples > 0 else 10**6
    results = run_all_checks(cfg, quick=args.quick, mc_samples=mc_samples)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name.ljust(width)}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILED


# --------------------------------------------------------------- landauer --


def cmd_landauer(args: argparse.Namespace) -> int:
    cfg = _quad_config(args)
    model = landauer_mod.BitMemoryModel(mu=args.mu, sigma=args.sigma, p1=args.p1)
    report = landauer_mod.reset_report(model, cfg)
    if args.bits:
        report = report.in_bits()
    if args.format == "json":
        payload = json.dumps(report.to_json_dict(), indent=2) + "\n"
    elif args.format == "csv":
        payload = _csv_lines(landauer_mod.CSV_COLUMNS, [report.to_csv_row()])
    else:
        unit = "bits" if args.bits else "nats"
        lines = [
            f"mu = {_fmt(report.mu)}  sigma = {_fmt(report.sigma)}  "
            f"p1 = {_fmt(report.p1)}  [{unit}]",
            f"h_before   {_fmt(report.h_before):>22}",
            f"h_after    {_fmt(report.h_after):>22}",
            f"delta_h    {_fmt(report.delta_h):>22}",
            f"ideal      {_fmt(report.ideal):>22}",
            f"deficit    {_fmt(report.deficit_correction):>22}"
            f"  (+- {report.deficit_error:.3e})",
            f"envelope   {_fmt(report.thm1_envelope):>22}",
        ]
        payload = "\n".join(lines) + "\n"
    _emit(args, payload)
    if not report.converged:
        print("warning: quadrature did not converge to tolerance", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


# ------------------------------------------------------------------- main --


def build_parser() -> argparse.ArgumentParser:
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
    common.add_argument(
        "--quad-abs-tol", type=float, default=None, metavar="TOL",
        help=f"quadrature absolute tolerance (default 1e-12; env {ENV_ABS_TOL})",
    )
    common.add_argument(
        "--quad-rel-tol", type=float, default=None, metavar="TOL",
        help=f"quadrature relative tolerance (default 1e-10; env {ENV_REL_TOL})",
    )
    common.add_argument(
        "--mc-samples", type=int, default=0, metavar="N",
        help="Monte Carlo sample count (0 = skip MC; default 0)",
    )
    common.add_argument(
        "--seed", type=int, default=0, metavar="SEED",
        help="Monte Carlo seed (default 0)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_entropy = sub.add_parser(
        "entropy", parents=[common],
        help="H(Z), h(X), h(X+Z) and the deficit by both routes",
    )
    p_entropy.add_argument("--sigma", type=float, required=True,
                           help="Gaussian standard deviation")
    p_entropy.add_argument(
        "--dist", required=True, metavar="JSON|FILE",
        help='discrete law: inline JSON ({"support":[..],"probs":[..]}, '
             '{"bernoulli":p}, {"uniform_support":n}) or a file path',
    )
    p_entropy.set_defaults(func=cmd_entropy)

    p_sweep = sub.add_parser(
        "sweep", parents=[common],
        help="bound/deficit sandwich report per sigma over a grid",
    )
    p_sweep.add_argument("--sigma-start", type=float, required=True)
    p_sweep.add_argument("--sigma-end", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument(
        "--spacing", choices=("log", "linear"), default="log",
        help="grid spacing; log is the default since the bounds decay "
             "like exp(-1/(8 sigma^2))",
    )
    p_sweep.add_argument("--dist", required=True, metavar="JSON|FILE")
    p_sweep.set_defaults(func=cmd_sweep)

    p_validate = sub.add_parser(
        "validate", parents=[common],
        help="run the full self-validation suite (exit 0 iff all pass)",
    )
    p_validate.add_argument(
        "--quick", action="store_true",
        help="reduced grids and Monte Carlo size",
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
    except (CliError, DistributionError, ValueError) as exc:
        # ValueError covers parameter validation in configs (seed, samples,
        # tolerances); all map to a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
