"""The bench finds every program name it wraps.

``bench_trace.Recorder.wrap`` records a name it cannot find and goes on,
so a renamed function would turn that layer's metric into
``not_instrumented`` instead of failing the bench. This test runs the
bench's own ``import_program`` and ``instrument`` in a new interpreter,
where the modules that ``import shellact.cli`` registers are still lazy,
and fails on any missing name.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, types
import run
from bench_trace import Recorder

mods = run.import_program()
lazy = sorted(name for name, module in mods.items() if type(module) is not types.ModuleType)
rec = Recorder()
run.instrument(rec, mods)
rec.restore()
print(json.dumps([lazy, rec.missing]))
"""


def test_bench_finds_every_name_it_wraps():
    path = os.pathsep.join(filter(None, [str(ROOT / "bench"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    lazy, missing = json.loads(proc.stdout.splitlines()[-1])
    assert lazy == ["brace", "configio", "loss", "rig", "sweep"]
    assert missing == []
