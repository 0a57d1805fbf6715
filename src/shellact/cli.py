"""Command-line interface.

Subcommands:
  geometry   equal-area cross-section family table
  predict    force table for an actuator spec over a pressure list
  generate   deterministic synthetic sweep dataset (CSV)
  fit        validate a sweep CSV, fit the linear loss model, emit reports
  simulate   run the six-actuator brace over gait cycles

Exit codes: 0 success; 1 when argv does not parse (an unknown or missing
flag, or a value not of the flag's type); 2 when the program
refuses a value, a file or a dataset. Only :func:`main` picks the code: the
library raises ValueError naming the refused field and value. CSV numbers
are written with 4 decimal places, fit_report.csv's slope_per_kpa and
intercept with 6, so repeated runs are byte-comparable.

A start loads only the modules its subcommand runs: the package's modules
are lazy module objects here, loaded on first attribute access. numpy runs
with one OpenBLAS thread unless the caller sets OPENBLAS_NUM_THREADS: no
subcommand calls BLAS, and an idle thread pool slows numpy's start. ``main()``
reads sys.argv and ends its process: at exit it freezes the heap (gc.freeze)
rather than collect what the OS frees. ``main(argv)`` exits normally.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

from ._lazy import _lazy, np
from .svgchart import csv_field, line_chart_svg

brace, configio, geometry, loss, rig, sweep = (
    _lazy(f"{__package__}.{name}") for name in "brace configio geometry loss rig sweep".split()
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
MAX_MESSAGE = 1000  # characters of an error line before the rest is cut
_WRITE_SLICE = 8192  # TextIOWrapper's chunk size: it writes an ASCII str up to this long uncopied


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the CLI contract reserves 2 for
    # data errors, so remap to a catchable exception.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _shape_label(cs: geometry.CrossSection) -> str:
    kind = next(name for name, cls in geometry.CROSS_SECTIONS.items() if isinstance(cs, cls))
    dims = ", ".join(f"{k}={v:.4f}" for k, v in vars(cs).items())  # the fields, in order
    return f"{kind}({dims})"


def _print_error(line: str) -> None:  # a refused value is echoed whole; the head names its source
    cut = len(line) - MAX_MESSAGE
    print(line if cut <= 0 else f"{line[:MAX_MESSAGE]}... [{cut} characters cut]", file=sys.stderr)


def _write(out_dir: str, name: str, content: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for start in range(0, len(content), _WRITE_SLICE):
            fh.write(content[start:start + _WRITE_SLICE])
    return path


def _emit(out_dir: str | None, name: str, lines: list[str]) -> None:
    """Print the table of ``lines``; given a directory, also write it there as ``name``."""
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if out_dir:
        _write(out_dir, name, table)


# --- subcommands -----------------------------------------------------------


def cmd_geometry(args: argparse.Namespace) -> int:
    family = geometry.equal_area_family(args.radius, args.aspect)
    lines = ["shape,area_mm2"]
    for cs in family:
        lines.append(f'"{_shape_label(cs)}",{_fmt(geometry.area(cs))}')
    _emit(args.out, "geometry.csv", lines)
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    spec = configio.load_actuator_spec(args.spec) if args.spec else loss.balloon_spec()
    try:
        pressures = [float(tok) for tok in args.pressures.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad --pressures value: {exc}") from exc
    lo, hi = spec.loss_model.valid_range_kpa
    lines = ["pressure_kpa,ideal_force_n,predicted_force_n,loss_fraction,extrapolated"]
    for p in pressures:
        force = loss.predicted_force(p, spec)  # refuses a pressure past the actuator's max
        ideal = geometry.ideal_force(p, spec.cross_section)
        frac = loss.loss_fraction(p, spec.loss_model)
        lines.append(f"{_fmt(p)},{_fmt(ideal)},{_fmt(force)},{_fmt(frac)},{int(not lo <= p <= hi)}")
    _emit(args.out, "predict.csv", lines)
    return EXIT_OK


def _balloon_family() -> dict[str, geometry.CrossSection]:
    family = geometry.equal_area_family(25.0, 2.0)
    return dict(zip(["circle", "triangle", "square", "rectangle"], family))


def cmd_generate(args: argparse.Namespace) -> int:
    protocol = sweep.SweepProtocol(trials=args.trials)
    ground_truth = {name: loss.balloon_spec(cs) for name, cs in _balloon_family().items()}
    sigma = args.noise_sigma
    if sigma is None:
        sigma = rig.default_noise_sigma_n(ground_truth, protocol)
    cfg = rig.RigConfig(ground_truth, protocol, noise_sigma_n=sigma, seed=args.seed)
    text = rig.write_measurements_csv(rig.generate_sweep(cfg))  # rig's name, which bench/run.py wraps
    print(f"wrote {_write(args.out, 'measurements.csv', text)}")
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    try:
        with open(args.input, "rb") as fh:
            ds = sweep.read_measurements_csv(fh)
    except ValueError as exc:  # also bad UTF-8; OSError names the file itself
        raise ValueError(f"{args.input}: {exc}") from None
    shapes = configio.load_shapes(args.shapes) if args.shapes else _balloon_family()
    table = ds.aggregates()
    violations = sweep.validate_sweep(table, sweep.SweepProtocol(trials=args.trials))
    if violations:
        for v in violations:
            _print_error(f"protocol violation: {v}")
        return EXIT_DATA
    window = (args.window[0], args.window[1])
    series = sweep.compute_loss_series(table, shapes)
    fit_lines = ["shape_id,window_min_kpa,window_max_kpa,slope_per_kpa,intercept,r_squared"]
    for shape_id, points in series.items():
        rep = sweep.fit_linear_loss(points, window, label=f"shape {shape_id!r}")
        fit_lines.append(
            f"{csv_field(shape_id)},{_fmt(window[0])},{_fmt(window[1])},"
            f"{rep.slope_per_kpa:.6f},{rep.intercept:.6f},{_fmt(rep.r_squared)}"
        )
    _emit(args.out, "fit_report.csv", fit_lines)
    # comparison table against one fit pooled over all shapes
    pooled = sweep.fit_linear_loss([pt for s in series.values() for pt in s], window)
    report = sweep.comparison_report(table, shapes, pooled.as_model())
    _write(args.out, "comparison.csv", report)
    _write(args.out, "loss_vs_pressure.svg", line_chart_svg(
        series, "Force loss vs supply pressure", "pressure (kPa)", "loss fraction"))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    layout = configio.load_layout(args.layout) if args.layout else brace.default_layout()
    schedule = (
        configio.load_schedule(args.schedule) if args.schedule else brace.default_valgus_schedule()
    )
    try:
        schedule.validate_against(layout)
    except ValueError as exc:
        raise ValueError(f"{args.schedule or args.layout}: {exc}") from None
    trace = brace.run_gait_cycle(
        layout, schedule, args.duration, args.dt, tau_s=args.tau, n_cycles=args.cycles
    )
    _write(args.out, "trace.csv", brace.write_trace_csv(trace))
    force_series = {
        aid: np.column_stack((trace.t_s, trace.force_n[:, j]))
        for j, aid in enumerate(trace.actuator_ids)
    }
    _write(args.out, "trace.svg", line_chart_svg(
        force_series, "Actuator forces over the gait cycle", "time (s)", "force (N)"))
    if len(trace.t_s):
        print(f"steps: {len(trace.t_s)}")
        print(f"final moment_nm: {_fmt(trace.moment_nm[-1])}")
        print(f"final net_force_n: {_fmt(trace.net_force_n[-1])}")
    return EXIT_OK


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shellact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="equal-area cross-section family")
    g.add_argument("--radius", type=float, required=True, help="reference circle radius (mm)")
    g.add_argument("--aspect", type=float, default=2.0, help="rectangle width/height (>= 1)")
    g.add_argument("--out", default=None, help="also write geometry.csv here")
    g.set_defaults(func=cmd_geometry)

    p = sub.add_parser("predict", help="force table for an actuator spec")
    p.add_argument("--spec", default=None, help="actuator spec YAML (default: balloon)")
    p.add_argument("--pressures", required=True, help="comma-separated kPa values")
    p.add_argument("--out", default=None, help="also write predict.csv here")
    p.set_defaults(func=cmd_predict)

    gen = sub.add_parser("generate", help="synthetic sweep dataset")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--trials", type=int, default=3)
    gen.add_argument("--noise-sigma", type=float, default=None, help="force noise std dev (N)")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", help="fit the linear loss model to a sweep CSV")
    f.add_argument("--input", required=True, help="measurement CSV")
    f.add_argument("--shapes", default=None, help="shapes YAML (default: balloon family)")
    f.add_argument("--window", type=float, nargs=2, default=[30.0, 60.0], metavar=("LO", "HI"))
    f.add_argument("--trials", type=int, default=3, help="expected trials per step")
    f.add_argument("--out", required=True, help="output directory")
    f.set_defaults(func=cmd_fit)

    s = sub.add_parser("simulate", help="six-actuator brace gait simulation")
    s.add_argument("--layout", default=None, help="layout YAML (default: built-in brace)")
    s.add_argument("--schedule", default=None, help="schedule YAML (default: valgus example)")
    s.add_argument("--duration", type=float, default=1.2, help="gait cycle duration (s)")
    s.add_argument("--dt", type=float, default=0.01, help="time step (s)")
    s.add_argument("--tau", type=float, default=0.2, help="pressure lag time constant (s)")
    s.add_argument("--cycles", type=int, default=1)
    s.add_argument("--out", required=True, help="output directory")
    s.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read as numpy loads; no subcommand calls BLAS
    if argv is None:  # a console run; its files are closed and stdout is flushed before exit's gc
        atexit.register(gc.freeze)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        code, message = EXIT_USAGE, f"usage error: {exc}"
    except (OSError, ValueError, OverflowError) as exc:
        code, message = EXIT_DATA, f"error: {exc}"
    _print_error(message)
    return code


if __name__ == "__main__":
    sys.exit(main())
