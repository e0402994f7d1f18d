"""Command-line surface: scan curves, vanishing gates, sensitivity reports.

Five subcommands: ``curve`` writes interference scans as CSV, ``vanish`` and
``sorkin`` are CI-friendly zero-assertion gates, ``table`` emits the
sensitivity-versus-M table, ``montecarlo`` runs a deviation experiment.

Exit codes: 0 success or assertion passed, 1 usage error, 2 I/O error,
3 assertion failed.  Options resolve as CLI flag over config-file entry
(``--config`` JSON, keys named like the long flags) over built-in default,
and every JSON report echoes the effective configuration it ran with.
Outputs are byte-identical across re-runs with the same configuration.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from .hierarchy import DEFAULT_SEED, curve, vanishing_check
from .sorkin import (DEVIATION_LAWS, DEVIATION_VARIANTS, DeviationModel,
                     deviation_montecarlo, sensitivity_table)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_ASSERTION = 3

ZERO_THRESHOLD = 1e-9
DEFAULT_GRID = "0:6.283185307179586:257"
# Grid points are materialized as a list before any work starts.
MAX_GRID_POINTS = 100_000


class _CliError(Exception):
    """Carries a message and the exit code it should map to."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here wants 1."""

    def error(self, message: str):  # noqa: A003 - argparse API
        raise _CliError(f"{self.prog}: {message}", EXIT_USAGE)


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _CliError(f"grid must look like start:end:points, got {text!r}",
                        EXIT_USAGE)
    try:
        start, end = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError:
        raise _CliError(f"grid must look like start:end:points, got {text!r}",
                        EXIT_USAGE) from None
    if not (math.isfinite(start) and math.isfinite(end)):
        raise _CliError(f"grid endpoints must be finite, got {text!r}", EXIT_USAGE)
    if points < 2:
        raise _CliError(f"grid needs at least 2 points, got {points}", EXIT_USAGE)
    if points > MAX_GRID_POINTS:
        raise _CliError(f"grid has {points} points, over the cap of "
                        f"{MAX_GRID_POINTS}", EXIT_USAGE)
    if start == end:
        raise _CliError(f"grid is degenerate: start equals end in {text!r}", EXIT_USAGE)
    return [start + (end - start) * i / (points - 1) for i in range(points)]


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read config file: {exc}", EXIT_IO) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(f"config file {path} is not valid JSON: {exc}",
                        EXIT_USAGE) from None
    if not isinstance(data, dict):
        raise _CliError(f"config file {path} must hold a JSON object", EXIT_USAGE)
    return data


_OPTION_TYPES = {
    "m": int, "n": int, "m_max": int, "trials": int, "seed": int,
    "delta": float, "epsilon": float,
    "preset": str, "grid": str, "law": str, "variant": str,
    "format": str, "output": str,
    "normalize": bool,
}


def _resolve(args: argparse.Namespace, config: dict, names: Sequence[str],
             defaults: dict) -> dict:
    """CLI flag > config-file entry > built-in default, per option."""
    unknown = set(config) - set(names)
    if unknown:
        raise _CliError(
            f"config file has entries not used by this command: {sorted(unknown)}",
            EXIT_USAGE)
    out = {}
    for name in names:
        value = getattr(args, name, None)
        if value is None and name in config:
            caster = _OPTION_TYPES[name]
            raw = config[name]
            if caster is bool:
                if not isinstance(raw, bool):
                    raise _CliError(f"config entry {name!r} must be true or false",
                                    EXIT_USAGE)
                value = raw
            else:
                try:
                    value = caster(raw)
                except (TypeError, ValueError):
                    raise _CliError(f"config entry {name!r} has the wrong type",
                                    EXIT_USAGE) from None
        if value is None:
            value = defaults.get(name)
        if value is None:
            raise _CliError(f"missing required option --{name.replace('_', '-')}",
                            EXIT_USAGE)
        out[name] = value
    return out


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write output: {exc}", EXIT_IO) from None


_NOT_FINITE = ("the result is not a finite number: the inputs overflow "
               "double precision")


def _json_text(payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise _CliError(_NOT_FINITE, EXIT_USAGE) from None


def _run_curve(args: argparse.Namespace, config: dict) -> int:
    names = ("m", "n", "preset", "grid", "normalize", "format", "output")
    opts = _resolve(args, config, names, {
        "preset": "fixed_scan", "grid": DEFAULT_GRID, "normalize": False,
        "format": "csv", "output": "-",
    })
    deltas = _parse_grid(opts["grid"])
    try:
        rows = curve(opts["m"], opts["n"], opts["preset"], deltas,
                     normalize=opts["normalize"])
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from None
    if opts["format"] == "csv":
        if not all(math.isfinite(v) for _, v in rows):
            raise _CliError(_NOT_FINITE, EXIT_USAGE)
        lines = ["delta,value"]
        lines += [f"{d:.12g},{v:.12g}" for d, v in rows]
        _write_text(opts["output"], "\n".join(lines) + "\n")
    else:
        payload = {"command": "curve", "config": opts,
                   "rows": [[d, v] for d, v in rows]}
        _write_text(opts["output"], _json_text(payload))
    return EXIT_OK


def _run_vanish(args: argparse.Namespace, config: dict) -> int:
    names = ("m", "n", "trials", "seed", "output")
    opts = _resolve(args, config, names, {
        "trials": 100, "seed": DEFAULT_SEED, "output": "-",
    })
    try:
        report = vanishing_check(opts["m"], opts["n"], trials=opts["trials"],
                                 seed=opts["seed"], threshold=ZERO_THRESHOLD)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from None
    payload = {"command": "vanish", "config": opts}
    payload.update(report.as_dict())
    _write_text(opts["output"], _json_text(payload))
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _run_sorkin(args: argparse.Namespace, config: dict) -> int:
    names = ("m", "trials", "seed", "output")
    opts = _resolve(args, config, names, {
        "trials": 100, "seed": DEFAULT_SEED, "output": "-",
    })
    m = opts["m"]
    try:
        # kappa is the order-(2M+1) term over the peak; rounded division by
        # a positive peak is monotone, so max|I| / peak is max|kappa|
        report = vanishing_check(m, 2 * m + 1, trials=opts["trials"],
                                 seed=opts["seed"], threshold=ZERO_THRESHOLD)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from None
    payload = {"command": "sorkin", "config": opts, "m": m,
               "trials": report.trials, "seed": report.seed,
               "max_abs_kappa": report.max_normalized,
               "threshold": ZERO_THRESHOLD, "passed": report.passed}
    _write_text(opts["output"], _json_text(payload))
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _run_table(args: argparse.Namespace, config: dict) -> int:
    names = ("m_max", "format", "output")
    opts = _resolve(args, config, names, {
        "m_max": 11, "format": "csv", "output": "-",
    })
    try:
        rows = sensitivity_table(opts["m_max"])
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from None
    if opts["format"] == "csv":
        lines = ["m,c_of_m,ratio,ratio_rounded"]
        lines += [f"{r.m},{r.c_of_m:.12g},{r.ratio:.12g},{r.table_row:.1f}"
                  for r in rows]
        _write_text(opts["output"], "\n".join(lines) + "\n")
    else:
        payload = {"command": "table", "config": opts,
                   "rows": [r.as_dict() for r in rows]}
        _write_text(opts["output"], _json_text(payload))
    return EXIT_OK


def _run_montecarlo(args: argparse.Namespace, config: dict) -> int:
    names = ("m", "delta", "law", "variant", "epsilon", "trials", "seed", "output")
    opts = _resolve(args, config, names, {
        "delta": 1e-3, "law": "uniform_symmetric",
        "variant": "per_combination_iid", "epsilon": 1e-3,
        "trials": 10_000, "seed": DEFAULT_SEED, "output": "-",
    })
    try:
        model = DeviationModel(delta=opts["delta"], law=opts["law"],
                               seed=opts["seed"], variant=opts["variant"],
                               epsilon=opts["epsilon"])
        report = deviation_montecarlo(opts["m"], model, opts["trials"])
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from None
    payload = {"command": "montecarlo", "config": opts}
    payload.update(report.as_dict())
    _write_text(opts["output"], _json_text(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="manyslit",
        description="Many-particle interference hierarchies behind multi-slit "
                    "gratings: scan curves, vanishing checks, and Sorkin-"
                    "parameter sensitivity experiments.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with defaults for this command")
        p.add_argument("--output", help="output path, '-' for stdout (default)")

    p = sub.add_parser("curve", help="interference term along a phase scan (CSV)")
    p.add_argument("--m", type=int, help="particle / detector count")
    p.add_argument("--n", type=int, help="number of slits")
    p.add_argument("--preset", choices=("fixed_scan", "fixed-scan",
                                        "opposite_scan", "opposite-scan"),
                   help="detector preset (default fixed_scan)")
    p.add_argument("--grid", help="phase grid start:end:points in radians")
    p.add_argument("--normalize", action="store_const", const=True, default=None,
                   help="divide by the central coincidence peak")
    p.add_argument("--format", choices=("csv", "json"), help="output format")
    add_common(p)

    p = sub.add_parser("vanish", help="assert an interference order is zero")
    p.add_argument("--m", type=int, help="particle / detector count")
    p.add_argument("--n", type=int, help="number of slits")
    p.add_argument("--trials", type=int, help="random phase draws (default 100)")
    p.add_argument("--seed", type=int, help="RNG seed")
    add_common(p)

    p = sub.add_parser("sorkin", help="assert the order-(2M+1) parameter is zero")
    p.add_argument("--m", type=int, help="particle / detector count")
    p.add_argument("--trials", type=int, help="random phase draws (default 100)")
    p.add_argument("--seed", type=int, help="RNG seed")
    add_common(p)

    p = sub.add_parser("table", help="sensitivity-versus-M table (CSV)")
    p.add_argument("--m-max", dest="m_max", type=int,
                   help="last particle number of the table (default 11)")
    p.add_argument("--format", choices=("csv", "json"), help="output format")
    add_common(p)

    p = sub.add_parser("montecarlo", help="deviation-injection experiment (JSON)")
    p.add_argument("--m", type=int, help="particle / detector count")
    p.add_argument("--delta", type=float, help="deviation magnitude (default 1e-3)")
    p.add_argument("--law", choices=DEVIATION_LAWS, help="draw law")
    p.add_argument("--variant", choices=DEVIATION_VARIANTS,
                   help="deviation variant (default per_combination_iid)")
    p.add_argument("--epsilon", type=float,
                   help="Born exponent offset for the exponent variant")
    p.add_argument("--trials", type=int, help="Monte-Carlo trials (default 10000)")
    p.add_argument("--seed", type=int, help="RNG seed")
    add_common(p)

    return parser


_RUNNERS = {
    "curve": _run_curve,
    "vanish": _run_vanish,
    "sorkin": _run_sorkin,
    "table": _run_table,
    "montecarlo": _run_montecarlo,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        if "preset" in config and isinstance(config["preset"], str):
            config["preset"] = config["preset"].replace("-", "_")
        if getattr(args, "preset", None) is not None:
            args.preset = args.preset.replace("-", "_")
        # Overflow shows up as OverflowError or as a non-finite result, both
        # refused with one line; numpy's warnings would only repeat it.
        with np.errstate(all="ignore"):
            return _RUNNERS[args.command](args, config)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except OverflowError:
        print(_NOT_FINITE, file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
