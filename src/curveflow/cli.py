"""Command-line front end: every pipeline as a subcommand with file I/O.

Exit codes partition outcomes so scripts can branch on them:
0 success / verdict true, 1 bad input, 2 numerical failure,
3 verdict false, 4 geometric precondition (convexity) failure,
141 stdout closed before the output was written (``curveflow ... | head``),
the 128 + SIGPIPE a shell reports for a tool killed by a broken pipe.

Each subcommand takes only the flags it reads (``_DEFAULTS``). Flags override
values from an optional JSON config file (``--config``), an object whose keys
are those flags; it in turn overrides the defaults. The effective
configuration is echoed into every JSON report, beside the package version
and the seconds the run took (``elapsed_s``). ``CURVEFLOW_LOG``
(error|info|debug) sets verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import bonnesen as bn
from . import curves as cv
from . import flow as fl
from . import shrinker as sk
from . import support as sp
from .errors import (
    GeometricPreconditionError,
    InputError,
    NumericalError,
)
from .symmetrize import find_bisecting_chord, symmetrize

log = logging.getLogger("curveflow")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_VERDICT_FALSE = 3
EXIT_PRECONDITION = 4
_EXIT_BROKEN_PIPE = 141

# The flags each subcommand reads, besides --input (--amplitudes for ode-shoot)
# and --config, with their defaults. The keys of a --config file are these too.
_DEFAULTS = {
    "flow": {
        "output": ".",
        "t_max": None,
        "area_floor_rel": 1e-3,
        "stride": 1,
        "svg_every": 0,
    },
    "shrink-verify": {"tol": 1e-3, "output": None},
    "ode-shoot": {"tol": 1e-3, "output": None, "format": "csv"},
    "bonnesen": {"tol": None, "output": None},
    "symmetrize": {"grid": 1024, "tol": 1e-8, "output": "."},
    "support": {"grid": 1024, "output": None},
}

# Type and help of each flag in _DEFAULTS; key "t_max" is the flag --t-max.
_FLAGS = {
    "output": (str, "output directory or file"),
    "grid": (int, "support grid size (even, >= 16)"),
    "tol": (float, "tolerance knob"),
    "format": (str, "output format"),
    "t_max": (float, "flow time horizon (>= 0)"),
    "area_floor_rel": (float, "stop when the area falls below this fraction of the initial area"),
    "stride": (int, "trajectory CSV decimation (>= 1)"),
    "svg_every": (int, "write an SVG snapshot every N accepted steps (>= 0)"),
}
_FORMATS = ["csv", "json"]  # of ode-shoot, the one subcommand with --format
# time.perf_counter() when main() began; each JSON report's elapsed_s counts from it.
_started = 0.0


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("CURVEFLOW_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveflow",
        description="curve shortening flow toolkit: flows, shrinker checks, "
        "support functions, Bonnesen chains, and symmetrization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler in _HANDLERS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        if command == "ode-shoot":
            p.add_argument("--amplitudes", help="comma-separated list of p0 values")
        else:
            p.add_argument("--input", help="curve CSV file (x,y per line)")
        for key in _DEFAULTS[command]:
            kind, text = _FLAGS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=text,
                           choices=_FORMATS if key == "format" else None)
        p.add_argument("--config", help="JSON config file (flags override it)")
    return parser


def _config_value(key: str, value):
    """A --config value, checked as its flag would check it on the command line."""
    kind = _FLAGS[key][0]
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise InputError(f"config key {key!r}: expected a string or a number, got {value!r}")
    try:
        value = kind(str(value))
    except ValueError as exc:
        raise InputError(f"config key {key!r}: invalid {kind.__name__} value {value!r}") from exc
    if key == "format" and value not in _FORMATS:
        raise InputError(f"config key 'format': {value!r} is not one of {_FORMATS}")
    return value


def _effective_config(args: argparse.Namespace) -> dict:
    config = dict(_DEFAULTS[args.command])
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise InputError(f"config file {args.config} must hold a JSON object")
        for k, v in loaded.items():
            if k not in config:
                raise InputError(f"config key {k!r} is not a flag of {args.command}: "
                                 f"expected one of {sorted(config)}")
            config[k] = _config_value(k, v)
    for k in config:
        flag = getattr(args, k)
        if flag is not None:
            config[k] = flag
    return config


def _read_curve(path) -> cv.ClosedCurve:
    if not path:
        raise InputError("--input is required")
    if not Path(path).exists():
        raise InputError(f"input file not found: {path}")
    return cv.read_curve_csv(path)


def _emit(config: dict, payload: dict, name: str | None = None) -> None:
    """Print the JSON report; with --output set, also write it to ``name`` there."""
    text = json.dumps({"config": config, "report": payload, "version": __version__,
                       "elapsed_s": time.perf_counter() - _started})
    # RFC 8259 has no NaN or Infinity (a NaN period, --t-max inf): read them back as null
    text = json.dumps(json.loads(text, parse_constant=lambda _: None), indent=2)
    print(text)
    if name and config["output"]:
        out = Path(config["output"])
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text + "\n")


def _cmd_flow(args) -> int:
    """time-step the curve shortening flow"""
    config = _effective_config(args)
    if config["stride"] < 1:  # before the flow runs, not after it in write_csv
        raise InputError(f"--stride must be >= 1, got {config['stride']}")
    curve = _read_curve(args.input)
    out = Path(config["output"])  # made only once the flow has run
    if out.exists() and not out.is_dir():
        raise InputError(f"--output {out} is not a directory")
    t_max = config["t_max"] if config["t_max"] is not None else np.inf
    traj = fl.run_flow(
        curve,
        area_floor_rel=config["area_floor_rel"],
        t_max=t_max,
        snapshot_stride=config["svg_every"],
    )
    out.mkdir(parents=True, exist_ok=True)
    traj.write_csv(out / "trajectory.csv", stride=config["stride"])
    cv.write_curve_csv(traj.final_state.curve, out / "final_curve.csv")
    if config["svg_every"]:
        viewbox = fl._viewbox(curve.points)
        for i, (_t, snap) in enumerate(traj.snapshots):
            fl.write_curve_svg(snap, out / f"snapshot_{i:06d}.svg", viewbox=viewbox)
    log.info("flow stopped (%s) at t = %.6g after %d steps",
             traj.stop_reason, traj.final_state.time, traj.final_state.step_count)
    _emit(config, {
        "stop_reason": traj.stop_reason,
        "final_time": traj.final_state.time,
        "steps": traj.final_state.step_count,
        "final_area": traj.areas[-1],
        "final_length": traj.lengths[-1],
    })
    return EXIT_OK


def _cmd_shrink_verify(args) -> int:
    """verify the self-shrinker relation"""
    config = _effective_config(args)
    curve = _read_curve(args.input)
    report = sk.verify_shrinker(curve, tol=config["tol"])
    _emit(config, asdict(report), "shrinker_report.json")
    return EXIT_OK if report.verdict else EXIT_VERDICT_FALSE


def _cmd_ode_shoot(args) -> int:
    """period survey of the support ODE"""
    config = _effective_config(args)
    raw = args.amplitudes or ""
    try:
        amplitudes = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"cannot parse --amplitudes {raw!r}: {exc}") from exc
    if not amplitudes:
        raise InputError("--amplitudes must list at least one p0 value")
    report = sk.classify_closed_solutions(amplitudes, tol=config["tol"])
    if config["format"] == "json":
        _emit(config, asdict(report))
    else:
        report.write_csv(sys.stdout)
    if config["output"]:
        Path(config["output"]).mkdir(parents=True, exist_ok=True)
        report.write_csv(Path(config["output"]) / "classification.csv")
    return EXIT_OK


def _cmd_bonnesen(args) -> int:
    """inradius/circumradius inequality chain"""
    config = _effective_config(args)
    curve = _read_curve(args.input)
    report = bn.bonnesen_chain(curve, tol=config["tol"])
    _emit(config, asdict(report), "bonnesen_report.json")
    return EXIT_OK if report.chain_ok else EXIT_VERDICT_FALSE


def _cmd_symmetrize(args) -> int:
    """equal-area chord symmetrization"""
    config = _effective_config(args)
    curve = _read_curve(args.input)
    shift = cv.centroid(curve)
    p = sp.support_from_curve(curve.translated(-shift), config["grid"])
    cut = find_bisecting_chord(p, tol=config["tol"])
    pair = symmetrize(p, cut)
    out = Path(config["output"])
    out.mkdir(parents=True, exist_ok=True)
    cv.write_curve_csv(pair.curve1.translated(shift), out / "symmetrized_1.csv")
    cv.write_curve_csv(pair.curve2.translated(shift), out / "symmetrized_2.csv")
    sidecar = pair.sidecar()
    sidecar["omega0"] = [sidecar["omega0"][0] + shift[0], sidecar["omega0"][1] + shift[1]]
    sidecar["evaluations"] = cut.evaluations
    _emit(config, sidecar, "symmetrize_report.json")
    return EXIT_OK


def _cmd_support(args) -> int:
    """extract the support function"""
    config = _effective_config(args)
    curve = _read_curve(args.input)
    p = sp.support_from_curve(curve.translated(-cv.centroid(curve)), config["grid"])
    if config["output"]:
        out = Path(config["output"])
        out.mkdir(parents=True, exist_ok=True)
        sp.write_support_csv(p, out / "support.csv")
    else:
        sp.write_support_csv(p, sys.stdout)
    return EXIT_OK


_HANDLERS = {
    "flow": _cmd_flow,
    "shrink-verify": _cmd_shrink_verify,
    "ode-shoot": _cmd_ode_shoot,
    "bonnesen": _cmd_bonnesen,
    "symmetrize": _cmd_symmetrize,
    "support": _cmd_support,
}


def main(argv=None) -> int:
    global _started
    _started = time.perf_counter()
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        status = _HANDLERS[args.command](args)
        sys.stdout.flush()  # so a closed pipe is seen here, not at interpreter exit
        return status
    except BrokenPipeError:
        # Python's SIGPIPE recipe: stdout goes to devnull, so the flush at exit
        # prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE
    except (InputError, OSError, ValueError) as exc:
        log.error("input error: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GeometricPreconditionError as exc:
        log.error("precondition failed: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
