"""Command-line interface.

Subcommands: simulate, analytic, estimate, fit, devtest, validate.
Global flags: --seed, --json-errors, --manifest OUT.json.
Exit codes: 0 success, 2 validation error, 3 numeric failure
(divergence / optimizer non-convergence), 4 I/O error.  Every run can
write a manifest recording the command line, resolved configuration,
seed, package version and SHA-256 digests of the output files; re-running
with the same configuration reproduces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__, analytic
from .analytic import DivergentModelError
from .core import SummaryTable
from .estimate import (EstimatorConfig, estimate_F, estimate_G, estimate_L,
                       estimate_pcf)
from .infer import DeviationTestSpec, FitProblem, deviation_test, fit_min_contrast
from .io import (RunManifest, SpecValidationError, file_digest,
                 model_spec_from_dict, model_spec_to_dict, parse_fit_family,
                 parse_model_spec, read_pattern, read_window,
                 window_sidecar_path, write_pattern, write_summary_table)
from .simulate import SimConfig, simulate_model

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class NumericFailure(RuntimeError):
    """Divergence or non-convergence surfaced to the CLI as exit code 3."""

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload or {}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matern-thinning",
        description="Simulation, exact characteristics, estimation and "
                    "inference for probabilistically thinned point processes.")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default 0)")
    parser.add_argument("--json-errors", action="store_true",
                        help="machine-readable JSON errors on stderr")
    parser.add_argument("--manifest", metavar="OUT.json",
                        help="write a reproducibility manifest")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one replicate of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--replicate", type=int, default=0)
    p.add_argument("--out", required=True, help="pattern CSV (window sidecar "
                   "written next to it)")

    p = sub.add_parser("analytic", help="exact intensity / pcf / L tables")
    p.add_argument("--model", required=True)
    p.add_argument("--stat", required=True, choices=("intensity", "pcf", "L"))
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--out", required=True)

    p = sub.add_parser("estimate", help="empirical summary statistics")
    p.add_argument("--pattern", required=True)
    p.add_argument("--window", default=None)
    p.add_argument("--stat", required=True,
                   choices=("pcf", "L", "G", "F", "intensity"))
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="minimum-contrast parameter fit")
    p.add_argument("--pattern", required=True)
    p.add_argument("--window", default=None)
    p.add_argument("--family", required=True,
                   help="model JSON with {'free': ...} placeholders")
    p.add_argument("--rmin", type=float, required=True)
    p.add_argument("--rmax", type=float, required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--out", required=True)

    p = sub.add_parser("devtest", help="Monte-Carlo deviation test")
    p.add_argument("--pattern", required=True)
    p.add_argument("--window", default=None)
    p.add_argument("--model", required=True,
                   help="model JSON or a fit-result JSON")
    p.add_argument("--stat", default="L",
                   choices=("L", "pcf", "G", "F", "radius-pdf"))
    p.add_argument("--k", type=int, default=99)
    p.add_argument("--rmax", type=float, required=True)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="validate a model-spec file")
    p.add_argument("--model", required=True)
    return parser


# ---------------------------------------------------------------------------
# subcommand implementations; each returns {output-path: description}
# ---------------------------------------------------------------------------

def _default_rmax(args, spec=None, window=None) -> float:
    if args.rmax is not None:
        return args.rmax
    if spec is not None:
        r_cut = spec.interaction_range()
        if np.isfinite(r_cut) and r_cut > 0:
            return 3.0 * r_cut
    if window is not None:
        return 0.25 * float(window.sides.min())
    raise SpecValidationError(["--rmax: required (no default derivable)"])


def _cmd_simulate(args):
    spec = parse_model_spec(args.model)
    window = read_window(args.window)
    if window.dim != spec.dim:
        raise SpecValidationError(
            [f"window.dim: {window.dim} does not match model dim {spec.dim}"])
    pattern = simulate_model(spec, window,
                             SimConfig(seed=args.seed,
                                       replicate_index=args.replicate))
    write_pattern(pattern, args.out)
    return [args.out, window_sidecar_path(args.out)]


def _cmd_analytic(args):
    spec = parse_model_spec(args.model)
    if args.stat == "intensity":
        report = analytic.intensity_report(spec)
        if report.divergent:
            raise NumericFailure(
                f"intensity 0: {report.message}",
                payload={"intensity": 0.0, "divergent": True,
                         "diagnostic": report.message})
        table = SummaryTable("intensity", np.array([0.0]),
                             np.array([report.value]), provenance="analytic")
    else:
        r_max = _default_rmax(args, spec=spec)
        r = np.linspace(0.0, r_max, args.grid + 1)[1:]
        vals = (np.atleast_1d(analytic.pcf(spec, r)) if args.stat == "pcf"
                else analytic.l_function(spec, r))
        table = SummaryTable(args.stat, r, vals, provenance="analytic")
    write_summary_table(table, args.out,
                        meta={"model": args.model, "seed": args.seed})
    return [args.out]


def _cmd_estimate(args):
    pattern = read_pattern(args.pattern, args.window)
    if args.stat == "intensity":
        table = SummaryTable("intensity", np.array([0.0]),
                             np.array([pattern.intensity()]),
                             provenance="empirical")
    else:
        cfg = EstimatorConfig(
            bandwidth=args.bandwidth if args.bandwidth else "auto",
            r_max=args.rmax, n_points=args.grid)
        fn = {"pcf": estimate_pcf, "L": estimate_L,
              "G": estimate_G, "F": estimate_F}[args.stat]
        table = fn(pattern, cfg)
    write_summary_table(table, args.out,
                        meta={"pattern": args.pattern, "seed": args.seed})
    return [args.out]


def _cmd_fit(args):
    pattern = read_pattern(args.pattern, args.window)
    with open(args.family) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(
                [f"family: invalid JSON ({exc})"]) from exc
    build, free, constraint = parse_fit_family(doc)
    problem = FitProblem(build=build, free=free, data=pattern,
                         contrast_domain=(args.rmin, args.rmax),
                         grid=args.grid, constraint=constraint)
    result = fit_min_contrast(problem, seed=args.seed, restarts=args.restarts)
    out_doc = {"model": model_spec_to_dict(result.spec),
               "params": result.params,
               "contrast": result.contrast,
               "constraint_residual": result.constraint_residual,
               "converged": result.converged,
               "n_evaluations": result.n_evaluations,
               "message": result.message}
    with open(args.out, "w") as fh:
        json.dump(out_doc, fh, indent=2)
        fh.write("\n")
    if not result.converged:
        raise NumericFailure(
            f"optimizer did not converge (best point written to {args.out})",
            payload=out_doc)
    return [args.out]


def _cmd_devtest(args):
    pattern = read_pattern(args.pattern, args.window)
    with open(args.model) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecValidationError([f"model: invalid JSON ({exc})"]) from exc
    model = model_spec_from_dict(doc["model"] if "model" in doc else doc)
    spec = DeviationTestSpec(statistic=args.stat, r_max=args.rmax, k=args.k,
                             seed=args.seed, n_grid=args.grid)
    result = deviation_test(pattern, model, spec)
    out_doc = {"p_value": result.p_value,
               "delta_obs": result.delta_obs,
               "deltas": [float(d) for d in result.deltas],
               "statistic": result.statistic,
               "reference": result.reference,
               "k": args.k, "r_max": args.rmax, "seed": args.seed}
    with open(args.out, "w") as fh:
        json.dump(out_doc, fh, indent=2)
        fh.write("\n")
    return [args.out]


def _cmd_validate(args):
    parse_model_spec(args.model)
    print(f"{args.model}: valid")
    return []


_COMMANDS = {"simulate": _cmd_simulate, "analytic": _cmd_analytic,
             "estimate": _cmd_estimate, "fit": _cmd_fit,
             "devtest": _cmd_devtest, "validate": _cmd_validate}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _emit_error(args_ns, code: int, message: str, payload=None) -> None:
    if args_ns is not None and getattr(args_ns, "json_errors", False):
        doc = {"error": message, "code": code}
        if payload:
            doc.update(payload)
        print(json.dumps(doc), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    t0 = time.monotonic()
    try:
        outputs = _COMMANDS[args.command](args)
    except SpecValidationError as exc:
        _emit_error(args, EXIT_VALIDATION, str(exc),
                    payload={"errors": exc.errors})
        return EXIT_VALIDATION
    except NumericFailure as exc:
        _emit_error(args, EXIT_NUMERIC, str(exc), payload=exc.payload)
        return EXIT_NUMERIC
    except DivergentModelError as exc:
        _emit_error(args, EXIT_NUMERIC, str(exc))
        return EXIT_NUMERIC
    except OSError as exc:
        _emit_error(args, EXIT_IO, str(exc))
        return EXIT_IO
    except ValueError as exc:
        _emit_error(args, EXIT_VALIDATION, str(exc))
        return EXIT_VALIDATION
    if args.manifest:
        config = {k: v for k, v in vars(args).items() if k != "command"}
        manifest = RunManifest(
            command=tuple(["matern-thinning", *argv]),
            config=config, seed=args.seed, version=__version__,
            wall_time_s=round(time.monotonic() - t0, 6),
            outputs={path: file_digest(path) for path in outputs})
        manifest.write(args.manifest)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
