"""Benchmark of the shellact CLI, end to end and per layer.

    python3 bench/run.py --workload brace-gait --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35  # each workload, timed and traced

Run from anywhere; the repository root is the parent of this directory and
the program is imported from its `src/`. Workloads (see bench_workloads):

  brace-gait  simulate --dt 0.001 --cycles 10 with a seeded schedule
  sweep-char  generate --trials 3000, then fit on its output
  cli-small   the five subcommands at paper size with seeded YAML inputs

--trace 0 is the timed run. It starts the CLI as one subprocess at a time
(a closed loop with one client) and reports, as medians over the passes
made in --seconds:
  wall_s       spawn-to-exit time of all of a pass's invocations, summed
  setup_s      a fresh interpreter importing shellact.cli and building the
               parser (the fixed cost of every invocation); one start after
               each pass, at least 7
  peak_rss_mb  the largest peak RSS (VmHWM) of any child in a pass

--trace 1 is the traced run. It calls cli.main in-process with a span
around each module's public functions (bench_trace) and reports per-layer
self times and counts, and the import time. Tracing overhead shows twice:
trace.overhead_ratio is traced over untraced in-process cli.main time, and
the traced stage sum cli.main_s compares with trace.untraced_work_s, which
is wall_s minus the invocations' set-up time from a few untraced
subprocess passes of the same run.

Every artifact is checked by an oracle (bench_oracles). An invocation fails
if it exits non-zero or an oracle rejects an output; error_rate is failed
over attempted. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. A report with each artifact's
SHA-256 and, for --trace 1, the span log are written to .bench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import bench_workloads
from bench_trace import Recorder

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3
SETUP_REPS = 7
IMPORT_REPS = 5
REFERENCE_PASSES = 2
MIN_TRACED_PASSES = 2

_PY = sys.executable
# Runs the CLI as its console script does, then writes the process's own
# peak RSS (kB) to $BENCH_PEAK_FILE. The max RSS that wait4 reports is no
# use here: Linux carries the parent's high-water mark into the child
# across fork and exec.
CLI_CMD = [_PY, "-c", """import atexit, os, sys
def _peak():
    with open("/proc/self/status") as status, open(os.environ["BENCH_PEAK_FILE"], "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
atexit.register(_peak)
from shellact.cli import main
sys.exit(main())
"""]
SETUP_CMD = [_PY, "-c", "from shellact.cli import build_parser; build_parser()"]
IMPORT_CMD = [_PY, "-c", "import shellact.cli"]
BARE_CMD = [_PY, "-c", "pass"]


def spawn(cmd: list[str], log_path: str, cwd: str, **env: str) -> tuple[float, int]:
    """Run one child to completion: (spawn-to-exit seconds, exit code)."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **env)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=cwd, env=env)
        code = proc.wait()
        return time.perf_counter() - start, code


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


class Tally:
    """Attempted and failed invocations, and the artifacts' SHA-256.

    An artifact is run through its oracle the first time its bytes are seen;
    a later pass that reproduces the same bytes needs no second check.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str | None] = {}
        self._verified: set[tuple[str, str | None]] = set()

    def judge(self, results: list[tuple[bench_workloads.Invocation, object, str]]) -> None:
        for inv, code, log in results:
            self.attempted += 1
            problems = [] if code == 0 else [f"{inv.name} exited with {code}: {log.strip()[-500:]}"]
            digests = {os.path.basename(a): _sha256(a) for a in inv.artifacts}
            for name, digest in digests.items():
                self.hashes.setdefault(name, digest)
            seen = {(inv.name, d) for d in digests.values()}
            if not problems and not seen <= self._verified:
                problems = inv.check()
                if not problems:
                    self._verified |= seen
            if problems:
                self.failed += 1
                self.problems += problems[:5]


def subprocess_pass(wl, tally: Tally) -> tuple[float, float]:
    """One pass through the CLI as subprocesses: (summed wall s, peak RSS MB)."""
    wall, peak, results = 0.0, 0.0, []
    log_path = os.path.join(wl.out_dir, "child.log")
    peak_path = os.path.join(wl.out_dir, "child.peak")
    for inv in wl.invocations:
        if os.path.exists(peak_path):
            os.remove(peak_path)
        elapsed, code = spawn(CLI_CMD + list(inv.argv), log_path, wl.out_dir, BENCH_PEAK_FILE=peak_path)
        wall += elapsed
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            results.append((inv, code, fh.read()))
        if code == 0:
            with open(peak_path, encoding="utf-8") as fh:
                peak = max(peak, int(fh.read()) / 1024.0)
    tally.judge(results)
    return wall, peak


def _times(cmd: list[str], reps: int, cwd: str) -> list[float]:
    times = []
    for _ in range(reps):
        elapsed, code = spawn(cmd, os.path.join(cwd, "setup.log"), cwd)
        if code != 0:
            raise RuntimeError(f"{cmd[-1]!r} exited with {code}")
        times.append(elapsed)
    return times


def timed_run(wl, seconds: float, tally: Tally) -> tuple[dict[str, float], dict]:
    subprocess_pass(wl, tally)  # warm-up: byte-compiles the package, fills the page cache
    deadline = time.perf_counter() + seconds
    walls, peaks, setup = [], [], []
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        wall, peak = subprocess_pass(wl, tally)
        walls.append(wall)
        peaks.append(peak)
        # one set-up sample per pass, so both see the same machine state
        setup += _times(SETUP_CMD, 1, wl.out_dir)
    setup += _times(SETUP_CMD, SETUP_REPS - len(setup), wl.out_dir)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(peaks),
    }
    return metrics, {"wall_s": walls, "setup_s": setup, "peak_rss_mb": peaks}


# --- traced in-process run --------------------------------------------------


def instrument(rec: Recorder, mods: dict) -> None:
    """Wrap each layer's public functions at the names the CLI calls them by."""
    cli, brace, configio, rig, sweep = (mods[m] for m in ("cli", "brace", "configio", "rig", "sweep"))
    for loader in ("load_layout", "load_schedule", "load_shapes", "load_actuator_spec"):
        rec.wrap(configio, loader, "configio.load", lambda a, r: {"configio.files_n": 1})
    rec.wrap(brace, "run_gait_cycle", "brace.run_gait_cycle", alloc_peak="brace.trace_alloc_mb")
    rec.wrap(
        brace, "write_trace_csv", "brace.write_trace_csv",
        lambda a, r: {"brace.trace_rows_n": r.count("\n") - 1, "brace.trace_bytes": len(r.encode())},
    )
    rec.wrap(rig, "generate_sweep", "rig.generate_sweep")
    rec.wrap(
        rig, "write_measurements_csv", "sweep.write_measurements_csv",
        lambda a, r: {
            "rig.records_n": sum(1 for ln in r.splitlines() if ln and ln[0] != "#") - 1,
            "sweep.measurements_bytes": len(r.encode()),
        },
    )
    rec.wrap(sweep, "read_measurements_csv", "sweep.read_measurements_csv")
    rec.wrap(sweep.SweepDataset, "aggregates", "sweep.aggregates")
    rec.wrap(sweep, "validate_sweep", "sweep.validate_sweep")
    rec.wrap(sweep, "compute_loss_series", "sweep.compute_loss_series")
    rec.wrap(
        sweep, "fit_linear_loss", "sweep.fit_linear_loss",
        lambda a, r: {"sweep.fit_points_n": len(a[0])},
    )
    rec.wrap(sweep, "comparison_report", "sweep.comparison_report")
    rec.wrap(
        cli, "line_chart_svg", "svgchart.line_chart_svg",
        lambda a, r: {
            "svgchart.points_n": sum(len(s) for s in a[0].values()),
            "svgchart.bytes": len(r.encode()),
        },
    )


def inprocess_pass(wl, main, rec: Recorder | None, tally: Tally) -> float:
    """One pass through cli.main in this process: summed seconds in cli.main."""
    total, results = 0.0, []
    for inv in wl.invocations:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            with rec.span("cli.main") if rec else nullcontext():
                start = time.perf_counter()
                try:
                    code: object = main(list(inv.argv))
                except Exception:  # a crash is a failed invocation, not a benchmark error
                    code = "an exception"
                    err.write(traceback.format_exc())
                total += time.perf_counter() - start
        results.append((inv, code, err.getvalue()))
    tally.judge(results)
    return total


def import_program() -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import shellact.cli  # noqa: F401  (loads every layer)

    return {name: sys.modules[f"shellact.{name}"] for name in
            ("cli", "brace", "configio", "loss", "rig", "sweep")}


def traced_layers(wl, seconds: float, tally: Tally) -> tuple[Recorder, list[int], int, list[float]]:
    """In-process passes for `seconds`, untraced and traced in turn.

    Returns the recorder, the traced pass ids, the loss evaluations per pass
    and the untraced passes' seconds in cli.main. A traced pass runs the
    workload's invocations through cli.main, then the loss probe:
    predicted_force over the pressures the workload's outputs hold. A last
    pass (id -1, not timed) runs under tracemalloc for the brace's
    allocation peak when the workload simulates.
    """
    mods = import_program()
    main = mods["cli"].main
    inprocess_pass(wl, main, None, tally)  # warm-up
    specs = {}
    probe = []
    for p, spec in wl.probe_points():
        if id(spec) not in specs:
            specs[id(spec)] = mods["configio"].actuator_spec_from_dict(spec)
        probe.append((p, specs[id(spec)]))
    predicted_force = mods["loss"].predicted_force
    rec = Recorder()

    def traced_pass(pass_id: int) -> None:
        rec.pass_id = pass_id
        instrument(rec, mods)
        try:
            inprocess_pass(wl, main, rec, tally)
            with rec.span("loss.predicted_force"):
                for p, spec in probe:
                    predicted_force(p, spec)
        finally:
            rec.restore()

    passes, untraced = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        untraced.append(inprocess_pass(wl, main, None, tally))
        traced_pass(len(passes))
        passes.append(len(passes))
    if any(s.name == "brace.run_gait_cycle" for s in rec.spans):
        tracemalloc.start()
        try:
            traced_pass(-1)
        finally:
            tracemalloc.stop()
    return rec, passes, len(probe), untraced


def layer_metrics(
    rec: Recorder,
    passes: list[int],
    probe_n: int,
    untraced: list[float],
    reference: dict[str, float],
    n_invocations: int,
) -> dict[str, float]:
    table = rec.per_pass(passes)

    def med(fn) -> float:
        return statistics.median(fn(p) for p in passes)

    def self_s(name: str) -> float:
        return med(lambda p: table[p][name]["self"])

    def count(name: str) -> float:
        return med(lambda p: rec.counts[p][name])

    def per(total: float, n: float, scale: float = 1.0) -> float:
        return total / n * scale if n else 0.0

    brace_s = self_s("brace.run_gait_cycle")
    steps = count("brace.trace_rows_n") / 6  # one row per actuator, six per step
    loss_s = self_s("loss.predicted_force")
    main_s = med(lambda p: table[p]["cli.main"]["total"])
    return {
        "shellact.import_s": reference["import_s"],
        "configio.load_s": self_s("configio.load"),
        "configio.files_n": count("configio.files_n"),
        "loss.predicted_force_s": loss_s,
        "loss.evals_n": probe_n,
        "loss.predicted_force_us": per(loss_s, probe_n, 1e6),
        "brace.run_gait_cycle_s": brace_s,
        "brace.steps_n": steps,
        "brace.step_us": per(brace_s, steps, 1e6),
        "brace.trace_alloc_mb": rec.counts[-1]["brace.trace_alloc_mb"],
        "brace.write_trace_csv_s": self_s("brace.write_trace_csv"),
        "brace.trace_rows_n": count("brace.trace_rows_n"),
        "brace.trace_bytes": count("brace.trace_bytes"),
        "rig.generate_sweep_s": self_s("rig.generate_sweep"),
        "rig.records_n": count("rig.records_n"),
        "sweep.write_measurements_csv_s": self_s("sweep.write_measurements_csv"),
        "sweep.measurements_bytes": count("sweep.measurements_bytes"),
        "sweep.read_measurements_csv_s": self_s("sweep.read_measurements_csv"),
        "sweep.aggregates_s": med(
            lambda p: per(table[p]["sweep.aggregates"]["self"], table[p]["sweep.aggregates"]["calls"])
        ),
        "sweep.aggregates_calls_n": med(lambda p: table[p]["sweep.aggregates"]["calls"]),
        "sweep.validate_sweep_s": self_s("sweep.validate_sweep"),
        "sweep.compute_loss_series_s": self_s("sweep.compute_loss_series"),
        "sweep.comparison_report_s": self_s("sweep.comparison_report"),
        "sweep.fit_linear_loss_s": self_s("sweep.fit_linear_loss"),
        "sweep.fit_points_n": count("sweep.fit_points_n"),
        "svgchart.line_chart_svg_s": self_s("svgchart.line_chart_svg"),
        "svgchart.points_n": count("svgchart.points_n"),
        "svgchart.bytes": count("svgchart.bytes"),
        "cli.main_s": main_s,
        "cli.glue_s": self_s("cli.main"),
        "trace.overhead_ratio": per(main_s, statistics.median(untraced)),
        "trace.untraced_work_s": reference["wall_s"] - n_invocations * reference["setup_s"],
    }


def traced_run(wl, seconds: float, tally: Tally) -> tuple[dict[str, float], dict]:
    """Untraced reference passes, then traced passes until `seconds` are up."""
    deadline = time.perf_counter() + seconds
    subprocess_pass(wl, tally)  # warm-up
    bare, imp, setup = [], [], []
    for _ in range(IMPORT_REPS):  # interleaved, so drift hits all three alike
        bare += _times(BARE_CMD, 1, wl.out_dir)
        imp += _times(IMPORT_CMD, 1, wl.out_dir)
        setup += _times(SETUP_CMD, 1, wl.out_dir)
    walls = [subprocess_pass(wl, tally)[0] for _ in range(REFERENCE_PASSES)]
    reference = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "import_s": statistics.median(imp) - statistics.median(bare),
    }
    rec, passes, probe_n, untraced = traced_layers(wl, deadline - time.perf_counter(), tally)
    metrics = layer_metrics(rec, passes, probe_n, untraced, reference, len(wl.invocations))
    spans_path = WORK / f"spans-{wl.name}-seed{wl.seed}.json"
    rec.write(str(spans_path))
    return metrics, {
        "reference": reference,
        "traced_passes": len(passes),
        "spans": str(spans_path.relative_to(ROOT)),
        "not_instrumented": sorted(set(rec.missing)),
    }


# --- entry point --------------------------------------------------------------


def _declared(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    units = _declared("per_layer" if trace else "end_to_end")
    WORK.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    tally = Tally()
    try:
        wl = bench_workloads.build(workload, seed, str(run_dir))
        values, detail = (traced_run if trace else timed_run)(wl, seconds, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")

    error_rate = tally.failed / tally.attempted
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"error_rate {error_rate:.6g} ({tally.failed} of {tally.attempted} invocations failed)")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    for name, digest in sorted(tally.hashes.items()):
        print(f"artifact {name} sha256 {digest}")
    report = WORK / f"report-{tag}.json"
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(
            {"workload": workload, "seed": seed, "seconds": seconds, "metrics": values,
             "error_rate": error_rate, "attempted": tally.attempted, "failed": tally.failed,
             "problems": tally.problems, "artifacts_sha256": tally.hashes, "samples": detail},
            fh, indent=1,
        )
    print(f"report {report.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if tally.failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=(*bench_workloads.WORKLOADS, "all"),
        help="'all' runs every workload, timed and then traced",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shellact" / "cli.py").is_file():
        print(f"error: program source not found at {SRC / 'shellact'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    status = 0
    for workload in bench_workloads.WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}")
            status = max(status, run_one(workload, args.seed, args.seconds, trace))
    return status


if __name__ == "__main__":
    sys.exit(main())
