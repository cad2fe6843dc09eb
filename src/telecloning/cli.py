"""Command line front end: run | sample | sweep | criteria.

The machine-readable result (JSON, or CSV for ``sweep``) goes to stdout;
a short human-readable summary goes to stderr. Exit codes: 0 success,
1 configuration error, 2 physicality or numeric-consistency error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .config import ConfigError, load_config, opo_params_from, protocol_config_from
from .gaussian import PhysicalityError
from .homodyne import RNG_CONTRACT
from .metrics import (
    UndefinedGainError,
    estimate_gains,
    fidelity_general,
    fidelity_report,
)
from .opo import OPOParams, pump_spectra
from .protocol import (
    CloneMoments,
    ProtocolConfig,
    clone_variances,
    run_analytic,
    run_circuit_analytic,
    run_monte_carlo,
)
from .resource import (
    ResourceState,
    bipartite_criterion_lhs,
    clone_pair_criterion_lhs,
    optimal_squeezing,
    squeezer_variances,
)

PATH_AGREEMENT_TOL = 1e-9
_FLOAT_FMT = "%.12g"
_CSV_ROW = "%d" + ("," + _FLOAT_FMT) * 6 + "\n"  # shot index and ShotRecord
_SWEEP_ROW = ",".join([_FLOAT_FMT] * 6) + "\n"
_CSV_BLOCK_ROWS = 1 << 13


def _criteria_dict(resource: ResourceState) -> dict:
    return {
        "a_b": bipartite_criterion_lhs(resource, "B"),
        "a_c": bipartite_criterion_lhs(resource, "C"),
        "b_c": clone_pair_criterion_lhs(resource),
    }


def _gains_dict(moments: CloneMoments, alpha: complex) -> dict | None:
    try:
        return dict(vars(estimate_gains(moments, alpha)))
    except UndefinedGainError:
        return None


def _run_output(cfg: dict, config: ProtocolConfig, moments: CloneMoments,
                mode: str, resource: ResourceState) -> dict:
    # the result dataclasses hold plain values: their field dicts are the JSON
    return {
        "config": cfg,
        "clone_moments": {"clone1": dict(vars(moments.clone1)),
                          "clone2": dict(vars(moments.clone2))},
        "fidelity": dict(vars(fidelity_report(moments, config.input_alpha))),
        "criteria": _criteria_dict(resource),
        "gains": _gains_dict(moments, config.input_alpha),
        "provenance": {
            "seed": config.seed,
            "shots": config.shots,
            "mode": mode,
            "version": __version__,
        },
    }


def _emit(document: dict) -> None:
    """Write the document in one piece, so a value JSON cannot hold (an
    overflow to inf, or a NaN) is a numeric error with stdout left empty."""
    try:
        text = json.dumps(document, indent=2, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"result is not finite: {exc}") from exc
    sys.stdout.write(text + "\n")


def _summary(lines: list[str]) -> None:
    for line in lines:
        print(line, file=sys.stderr)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    config = protocol_config_from(cfg)
    direct = run_analytic(config)
    resource = config.build_resource()  # shared by the circuit route and the criteria
    circuit = run_circuit_analytic(config, resource)
    worst = max(
        abs(getattr(getattr(direct, c), f) - getattr(getattr(circuit, c), f))
        for c in ("clone1", "clone2")
        for f in ("mean_x", "mean_p", "var_x", "var_p")
    )
    if worst > PATH_AGREEMENT_TOL:
        print(f"error: analytic paths disagree by {worst:.3e}", file=sys.stderr)
        return 2
    out = _run_output(cfg, config, circuit, "analytic", resource)
    out["provenance"]["path_agreement"] = worst
    _emit(out)
    _summary([
        f"clone fidelities: {out['fidelity']['f_clone1']:.9g} "
        f"{out['fidelity']['f_clone2']:.9g} (classical 0.5, optimal 2/3)",
        f"criterion A-B: {out['criteria']['a_b']:.9g} (< 1 certifies entanglement)",
    ])
    return 0


def cmd_sample(args) -> int:
    cfg = load_config(args.config)
    if args.shots is not None:
        cfg["run.shots"] = args.shots
    if args.seed is not None:
        cfg["run.seed"] = args.seed
    config = protocol_config_from(cfg)
    resource = config.build_resource()  # shared by the plan and the criteria
    moments, records = run_monte_carlo(config, args.sampled, resource)
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as handle:
                handle.write("shot,x_u,p_v,x1,p1,x2,p2\n")
                # blocks of rows keep the formatted text small at any shot count
                for first in range(0, len(records), _CSV_BLOCK_ROWS):
                    block = records.columns[:, first:first + _CSV_BLOCK_ROWS]
                    rows = zip(range(first, first + block.shape[1]), *block.tolist())
                    handle.write("".join(_CSV_ROW % row for row in rows))
        except OSError as exc:
            raise ConfigError(f"cannot write {args.csv}: {exc.strerror or exc}") from exc
    out = _run_output(cfg, config, moments, "monte-carlo", resource)
    out["provenance"]["rng"] = RNG_CONTRACT
    _emit(out)
    _summary([
        f"{config.shots} shots, seed {config.seed}",
        f"estimated fidelities: {out['fidelity']['f_clone1']:.9g} "
        f"{out['fidelity']['f_clone2']:.9g}",
    ])
    return 0


def _sweep_block(config: ProtocolConfig, params: OPOParams | None,
                 values: np.ndarray) -> np.ndarray:
    """Columns 1-5 of the sweep CSV for one block of grid values.

    ``params`` is None for a squeezing sweep (pure squeezers at each value)
    and the OPO model for a pump sweep. Both squeezers take the same spec.
    """
    if params is None:
        levels = (values, values)
    else:
        levels = pump_spectra(params, values)
    v_sq, v_anti = squeezer_variances(*levels)
    var_x, var_p, _, _ = clone_variances(config, v_anti, v_sq, v_sq, v_anti)
    alpha = config.input_alpha
    mean = np.broadcast_to((config.gains[0] * alpha.real,
                            config.gains[1] * alpha.imag), (values.size, 2))
    cov = np.zeros((values.size, 2, 2))
    cov[:, 0, 0], cov[:, 1, 1] = var_x, var_p
    fidelity = fidelity_general(mean, cov, alpha)
    return np.stack((*levels, var_x, var_p, fidelity))


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    config = protocol_config_from(cfg)
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise ConfigError("--from and --to must be finite")
    if args.stop <= args.start:
        raise ConfigError("--from must be smaller than --to")
    if args.steps < 2:
        raise ConfigError("--steps must be at least 2")
    params = opo_params_from(cfg) if args.param == "pump_mw" else None
    grid = np.linspace(args.start, args.stop, args.steps)

    # check and compute every point before the first byte goes out, so a
    # bad grid leaves stdout empty; the blocks bound the temporaries at any
    # --steps, and an overflow or NaN is a numeric error
    columns = np.empty((5, grid.size))
    with np.errstate(over="raise", invalid="raise"):
        for first in range(0, grid.size, _CSV_BLOCK_ROWS):
            block = slice(first, first + _CSV_BLOCK_ROWS)
            try:
                columns[:, block] = _sweep_block(config, params, grid[block])
            except ValueError as exc:
                if exc.__class__ is ValueError:
                    raise ConfigError(f"--param {args.param}: {exc}") from exc
                raise  # physicality and linear-algebra errors keep their type

    sys.stdout.write("param_value,squeezing_db,antisqueezing_db,"
                     "var_x_clone,var_p_clone,fidelity\n")
    for first in range(0, grid.size, _CSV_BLOCK_ROWS):
        block = slice(first, first + _CSV_BLOCK_ROWS)
        rows = zip(grid[block].tolist(), *columns[:, block].tolist())
        sys.stdout.write("".join(_SWEEP_ROW % row for row in rows))
    return 0


def cmd_criteria(args) -> int:
    cfg = load_config(args.config)
    config = protocol_config_from(cfg)
    r_star, e_minus_2r, db = optimal_squeezing()
    out = {
        "config": cfg,
        "criteria": _criteria_dict(config.build_resource()),
        "optimal_squeezing": {"r_star": r_star, "e_minus_2r": e_minus_2r, "db": db},
    }
    _emit(out)
    _summary([f"criterion A-B: {out['criteria']['a_b']:.9g}, "
              f"minimum 0.5 at {db:.9g} dB"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telecloning",
        description="Simulate 1-to-2 telecloning of optical coherent states.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="analytic run with dual-path consistency check")
    run.add_argument("config")
    run.set_defaults(func=cmd_run)

    sample = sub.add_parser("sample", help="Monte Carlo run with per-shot records")
    sample.add_argument("config")
    sample.add_argument("--shots", type=int, default=None)
    sample.add_argument("--seed", type=int, default=None)
    sample.add_argument("--csv", default=None, metavar="PATH",
                        help="write per-shot records to this file")
    sample.add_argument("--sampled", action="store_true",
                        help="draw one output quadrature per clone per shot")
    sample.set_defaults(func=cmd_sample)

    sweep = sub.add_parser("sweep", help="fidelity curve over squeezing or pump power")
    sweep.add_argument("config")
    sweep.add_argument("--param", choices=("squeezing_db", "pump_mw"), required=True)
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.set_defaults(func=cmd_sweep)

    criteria = sub.add_parser("criteria", help="inseparability criterion values")
    criteria.add_argument("config")
    criteria.set_defaults(func=cmd_criteria)

    return parser


_PARSER = build_parser()  # built once per process; parsing leaves it unchanged


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # every result is checked to be finite before any output, so numpy's
    # overflow and invalid-value warnings would only precede the error line
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except PhysicalityError as exc:
        print(f"physicality error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
