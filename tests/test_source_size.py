"""The package's source stays within ROADMAP's line gate.

Lines are counted as ``wc -l src/shellact/*.py`` counts them: newline
characters, summed over the package's modules.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "shellact"
GATE_LINES = 1800


def test_source_is_within_the_line_gate():
    counts = {path.name: path.read_bytes().count(b"\n") for path in SRC.glob("*.py")}
    assert len(counts) >= 10
    assert sum(counts.values()) <= GATE_LINES, counts
