"""Command line front end: run | sample | sweep | criteria.

The machine-readable result (JSON, or CSV for ``sweep``) goes to stdout;
a short human-readable summary goes to stderr. Exit codes: 0 success,
1 configuration error, 2 physicality or numeric-consistency error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from . import __version__
from .config import ConfigError, load_config, opo_params_from, protocol_config_from
from .csvtext import csv_rows
from .gaussian import PhysicalityError
from .homodyne import RNG_CONTRACT
from .metrics import UndefinedGainError, estimate_gains, fidelity_report
from .opo import pump_spectra
from .protocol import (
    CloneMoments,
    ProtocolConfig,
    clone_curve,
    run_analytic,
    run_circuit_analytic,
    run_monte_carlo,
)
from .resource import bipartite_criterion_lhs, clone_pair_criterion_lhs, optimal_squeezing

PATH_AGREEMENT_TOL = 1e-9
# Rows per block of the sweep's computation and of both CSV writers. Median
# of 30 alternated in-process rounds on a 2-core x86 host, writing 1e5
# `sample` rows with `csvtext.csv_rows`: 51.8, 48.2, 44.2, 51.9 ms at
# 2**10..2**13 (2**14: 90.1 ms, once a block's temporaries outgrow the 2 MB
# L2 cache); a 100 001-step sweep, fastest of 12: 128, 122, 112, 120 ms.
_CSV_BLOCK_ROWS = 1 << 12


def _criteria_dict(config: ProtocolConfig) -> dict:
    return {
        "a_b": bipartite_criterion_lhs(config.resource, "B"),
        "a_c": bipartite_criterion_lhs(config.resource, "C"),
        "b_c": clone_pair_criterion_lhs(config.resource),
    }


def _gains_dict(moments: CloneMoments, alpha: complex) -> dict | None:
    try:
        return dict(vars(estimate_gains(moments, alpha)))
    except UndefinedGainError:
        return None


def _run_output(cfg: dict, config: ProtocolConfig, moments: CloneMoments,
                mode: str) -> dict:
    # the result dataclasses hold plain values: their field dicts are the JSON
    return {
        "config": cfg,
        "clone_moments": {"clone1": dict(vars(moments.clone1)),
                          "clone2": dict(vars(moments.clone2))},
        "fidelity": dict(vars(fidelity_report(moments, config.input_alpha))),
        "criteria": _criteria_dict(config),
        "gains": _gains_dict(moments, config.input_alpha),
        "provenance": {
            "seed": config.seed,
            "shots": config.shots,
            "mode": mode,
            "version": __version__,
        },
    }


def _json_text(document: dict, pad: str = "") -> str:
    """``json.dumps(document, indent=2, allow_nan=False)`` for a dict of str
    keys and float, dict, str, None, bool or int values, without json's
    pure-Python encoder: the same layout, json's own string escaper,
    ``float.__repr__``, and json's message for a non-finite float."""
    if not document:
        return "{}"
    inner, items = pad + "  ", []
    for key, value in document.items():
        if isinstance(value, float):  # most values: tested first
            if not math.isfinite(value):
                raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
            text = float.__repr__(value)
        elif isinstance(value, dict):
            text = _json_text(value, inner)
        elif isinstance(value, str):
            text = _json_string(value)
        elif value is None or value is True or value is False:
            text = "null" if value is None else "true" if value else "false"
        else:  # an int; any other type raises TypeError
            text = int.__repr__(value)
        items.append(f"{_json_string(key)}: {text}")
    return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"


def _emit(document: dict) -> None:
    """Write ``_json_text`` in one piece, so a value JSON cannot hold (an
    overflow to inf, or a NaN) is a numeric error with stdout left empty."""
    try:
        text = _json_text(document)
    except ValueError as exc:
        raise FloatingPointError(f"result is not finite: {exc}") from exc
    sys.stdout.write(text + "\n")


def _summary(lines: list[str]) -> None:
    for line in lines:
        print(line, file=sys.stderr)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    config = protocol_config_from(cfg)
    # the checked plan first, so a config fails at the stage `sample` names
    circuit = run_circuit_analytic(config)
    direct = run_analytic(config)
    pairs = [(getattr(getattr(direct, c), f), getattr(getattr(circuit, c), f))
             for c in ("clone1", "clone2")
             for f in ("mean_x", "mean_p", "var_x", "var_p")]
    worst = max(abs(a - b) for a, b in pairs)
    # each moment against its own magnitude: a large variance may round by
    # more than 1e-9, but a small variance next to large means may not
    if any(abs(a - b) > PATH_AGREEMENT_TOL * max(1.0, abs(a), abs(b)) for a, b in pairs):
        print(f"error: analytic paths disagree by {worst:.3e}", file=sys.stderr)
        return 2
    out = _run_output(cfg, config, circuit, "analytic")
    out["provenance"]["path_agreement"] = worst
    _emit(out)
    _summary([
        f"clone fidelities: {out['fidelity']['f_clone1']:.9g} "
        f"{out['fidelity']['f_clone2']:.9g} (classical 0.5, optimal 2/3)",
        f"criterion A-B: {out['criteria']['a_b']:.9g} (< 1 certifies entanglement)",
    ])
    return 0


def _sample_to_csv(config: ProtocolConfig, sampled: bool, path: str) -> CloneMoments:
    """``run_monte_carlo`` writing each chunk's records to ``path`` as it is
    drawn, in blocks of rows that keep the formatted text small. The file is
    opened at the first chunk, once every check made before drawing has
    passed, and removed if the run fails after that: its rows went out
    before the moments were checked."""
    handle = regular = None

    def write(records: np.ndarray, first: int) -> None:
        nonlocal handle, regular
        if handle is None:
            handle = open(path, "wb")
            regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
            handle.write(b"shot,x_u,p_v,x1,p1,x2,p2\n")
        for start in range(0, records.shape[1], _CSV_BLOCK_ROWS):
            block = records[:, start:start + _CSV_BLOCK_ROWS].T
            index = np.arange(first + start, first + start + len(block))
            handle.write(csv_rows(block, index))

    try:
        moments = run_monte_carlo(config, sampled, write)
        handle.close()
    except BaseException:
        if regular:  # the rows sent to a pipe or device cannot be taken back
            with contextlib.suppress(OSError):
                os.unlink(os.path.realpath(path))  # the file written, also through a link
        if handle is not None:
            with contextlib.suppress(OSError):  # a full disk can fail the flush again
                handle.close()
        raise
    return moments


def cmd_sample(args) -> int:
    cfg = load_config(args.config)
    if args.shots is not None:
        cfg["run.shots"] = args.shots
    if args.seed is not None:
        cfg["run.seed"] = args.seed
    config = protocol_config_from(cfg)
    if args.csv:
        try:
            moments = _sample_to_csv(config, args.sampled, args.csv)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.csv}: {exc.strerror or exc}") from exc
    else:
        moments = run_monte_carlo(config, args.sampled)
    out = _run_output(cfg, config, moments, "monte-carlo")
    out["provenance"]["rng"] = RNG_CONTRACT
    _emit(out)
    _summary([
        f"{config.shots} shots, seed {config.seed}",
        f"estimated fidelities: {out['fidelity']['f_clone1']:.9g} "
        f"{out['fidelity']['f_clone2']:.9g}",
    ])
    return 0


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
    try:
        grid = np.linspace(args.start, args.stop, args.steps)
    except ValueError as exc:  # numpy refuses a size beyond its limits
        raise MemoryError(f"--steps {args.steps}: {exc}") from exc

    # check and compute every point before the first byte goes out, so a
    # bad grid leaves stdout empty; the blocks bound the temporaries at any
    # --steps, and an overflow or NaN is a numeric error
    columns = np.empty((5, grid.size))
    with np.errstate(over="raise", invalid="raise"):
        for first in range(0, grid.size, _CSV_BLOCK_ROWS):
            block = slice(first, first + _CSV_BLOCK_ROWS)
            values = grid[block]
            try:
                # both squeezers take the same levels: pure at a squeezing
                # value, the OPO model's at a pump power
                levels = (values, values) if params is None else pump_spectra(params, values)
                columns[:, block] = (*levels, *clone_curve(config, *levels))
            except ValueError as exc:
                if exc.__class__ is ValueError:
                    raise ConfigError(f"--param {args.param}: {exc}") from exc
                raise  # physicality and linear-algebra errors keep their type

    sys.stdout.write("param_value,squeezing_db,antisqueezing_db,"
                     "var_x_clone,var_p_clone,fidelity\n")
    for first in range(0, grid.size, _CSV_BLOCK_ROWS):
        block = slice(first, first + _CSV_BLOCK_ROWS)
        rows = np.column_stack((grid[block], *columns[:, block]))
        sys.stdout.write(csv_rows(rows).decode("ascii"))
    return 0


def cmd_criteria(args) -> int:
    cfg = load_config(args.config)
    config = protocol_config_from(cfg)
    r_star, e_minus_2r, db = optimal_squeezing()
    out = {
        "config": cfg,
        "criteria": _criteria_dict(config),
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
    except MemoryError as exc:
        # a --steps value too large for this machine's memory
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 1
    except PhysicalityError as exc:
        print(f"physicality error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
