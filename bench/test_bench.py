"""Tests of the benchmark itself.

A tiny pass of each workload completes with no failed invocation, and each
oracle rejects a deliberately corrupted artifact, so an error rate of 0
cannot come about by accident.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_workloads
import run as bench_run
from bench_trace import Recorder, Span

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """One tiny subprocess pass of each workload: {name: (workload, tally)}."""
    passes = {}
    for name in bench_workloads.WORKLOADS:
        wl = bench_workloads.build(name, 7, str(tmp_path_factory.mktemp(name)), tiny=True)
        tally = bench_run.Tally()
        bench_run.subprocess_pass(wl, tally)
        passes[name] = (wl, tally)
    return passes


@pytest.mark.parametrize("name", bench_workloads.WORKLOADS)
def test_tiny_pass_has_no_errors(tiny, name):
    wl, tally = tiny[name]
    assert tally.attempted == len(wl.invocations)
    assert tally.failed == 0, tally.problems
    assert all(tally.hashes.values())


def _rejects_corruption(inv: bench_workloads.Invocation, path: str, corrupt) -> list[str]:
    original = Path(path).read_text(encoding="utf-8")
    try:
        Path(path).write_text(corrupt(original), encoding="utf-8")
        return inv.check()
    finally:
        Path(path).write_text(original, encoding="utf-8")


def test_trace_oracle_rejects_one_altered_moment(tiny):
    wl, _ = tiny["brace-gait"]
    inv = wl.invocations[0]

    def alter(text: str) -> str:
        lines = text.split("\n")
        row = lines[len(lines) // 2].split(",")
        row[5] = f"{float(row[5]) + 0.01:.4f}"
        lines[len(lines) // 2] = ",".join(row)
        return "\n".join(lines)

    assert inv.check() == []
    problems = _rejects_corruption(inv, inv.artifacts[0], alter)
    assert any("moment_nm" in p for p in problems), problems


def test_fit_oracle_rejects_a_wrong_slope(tiny):
    wl, _ = tiny["sweep-char"]
    inv = next(i for i in wl.invocations if i.name == "fit")
    report = next(a for a in inv.artifacts if a.endswith("fit_report.csv"))

    def alter(text: str) -> str:
        lines = text.split("\n")
        row = lines[1].split(",")
        row[3] = "0.005000"
        lines[1] = ",".join(row)
        return "\n".join(lines)

    assert inv.check() == []
    problems = _rejects_corruption(inv, report, alter)
    assert any("slope" in p for p in problems), problems


def test_svg_oracle_rejects_a_truncated_svg(tiny):
    wl, _ = tiny["brace-gait"]
    inv = wl.invocations[0]
    svg = next(a for a in inv.artifacts if a.endswith(".svg"))
    problems = _rejects_corruption(inv, svg, lambda text: text[: len(text) // 2])
    assert any("XML" in p for p in problems), problems


def test_same_seed_gives_same_inputs(tmp_path):
    def inputs(seed: int, where: str) -> list:
        wl = bench_workloads.build("cli-small", seed, str(tmp_path / where))
        files = sorted(p.name for p in (tmp_path / where).glob("*.yaml"))
        argv = [[a.replace(str(tmp_path / where), "") for a in inv.argv] for inv in wl.invocations]
        return [argv, [(tmp_path / where / f).read_text() for f in files]]

    assert inputs(3, "a") == inputs(3, "b")
    assert inputs(3, "a") != inputs(4, "c")


def test_self_time_subtracts_child_coverage():
    rec = Recorder()
    rec.spans = [
        Span("outer", 0.0, 10.0, None, 0),
        Span("child", 1.0, 3.0, 0, 0),
        Span("child", 2.0, 4.0, 0, 0),
        Span("grandchild", 2.5, 3.5, 2, 0),
    ]
    assert rec.self_times() == pytest.approx([7.0, 2.0, 1.0, 1.0])


def test_traced_run_reports_every_declared_layer_metric(tiny):
    wl, _ = tiny["cli-small"]
    tally = bench_run.Tally()
    rec, passes, probe_n, untraced = bench_run.traced_layers(wl, 0.0, tally)
    reference = {"wall_s": 2.0, "setup_s": 0.3, "import_s": 0.2}
    metrics = bench_run.layer_metrics(rec, passes, probe_n, untraced, reference, len(wl.invocations))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    layer_map = json.loads((ROOT / "bench" / "layer_map.json").read_text())["metrics"]
    assert set(metrics) == {m["name"] for m in declared} == set(layer_map)
    assert tally.failed == 0, tally.problems
    assert not rec.missing
    # cli-small reaches every layer, so every span was recorded.
    assert all(metrics[name] > 0 for name in metrics if name.endswith(("_s", "_n")))
    # The layer self times and the CLI glue add up to cli.main.
    table = rec.per_pass(passes)[passes[0]]
    in_main = sum(row["self"] for name, row in table.items() if name != "loss.predicted_force")
    assert in_main == pytest.approx(table["cli.main"]["total"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
