"""Byte identity of the default CLI artifacts.

The digests were taken from the per-step simulation, scalar chart and
per-record sweep code that the columnar versions replaced; any change to
an artifact's bytes must come with a deliberate update here.
"""

import hashlib

import pytest

from shellact.cli import main

SIMULATE = {
    "trace.csv": "c927d94382dc97b9e313f97f237f6dbc390ef91a0f41f5a58c97c30cc3787fac",
    "trace.svg": "98ccaabbe76aff2704c6e861a8aed0c87732c90a4c36d59bc843bf9af2fe54d7",
}
SIMULATE_10_CYCLES = {
    "trace.csv": "d5e7419d55b2123cead0edd8d871a0d690f0cb0aa714370e9a058b0d8b8bb56f",
    "trace.svg": "a702f24a18d68a6f082a3944bcefd1d4ee9e23b5e2c1e55d1145b140832106af",
}
GENERATE = {
    "measurements.csv": "fd96882646f9ad7a2cc297160ee4d4d418e313f7e89ce60cda92e8f00e3595dd",
}
FIT = {
    "fit_report.csv": "3a7ed74a2bb69c9065fabf26c6827c153740ea100bc8511303fcb24f6725dd8b",
    "comparison.csv": "de6f0928fcb3ba27b60e23efe7d04243c2045ed407f0bfafb938077e39eff75e",
    "loss_vs_pressure.svg": "d4ff5e77d35ac4bf88e77af74dc7835b3e6b1af0fb7a9bc4c93f4890a65488aa",
}
GENERATE_200_TRIALS_SEED_7 = {
    "measurements.csv": "5829b8d42f8b400d1ff581a74969807ab51ab41e893f586c396cee9339440579",
}
GENERATE_NOISELESS = {
    "measurements.csv": "7cd506b2bf96e34ed631e8ce714ff8271a8c33de5675c36aa41f354f3c3bf843",
}
PREDICT = {"predict.csv": "61467e7b79f709afa37d472b701a63396501e6ac242c5bf2cfda83773e989ba2"}
GEOMETRY = {"geometry.csv": "5f819dfd8fc855387ca9460a635e8b4ea6a8efce60334145be9823f9910e3d22"}


def digests(out_dir, names):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["simulate"], SIMULATE),
        (["simulate", "--dt", "0.001", "--cycles", "10"], SIMULATE_10_CYCLES),
        (["predict", "--pressures", "10,30,50,60"], PREDICT),
        (["geometry", "--radius", "25"], GEOMETRY),
        (["generate", "--trials", "200", "--seed", "7"], GENERATE_200_TRIALS_SEED_7),
        (["generate", "--noise-sigma", "0"], GENERATE_NOISELESS),
    ],
    ids=["simulate", "simulate-10-cycles", "predict", "geometry", "generate-200-trials",
         "generate-noiseless"],
)
def test_artifact_digests(tmp_path, capsys, argv, expected):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert digests(tmp_path, expected) == expected


def test_generate_then_fit_digests(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path)]) == 0
    assert digests(tmp_path, GENERATE) == GENERATE
    measurements = str(tmp_path / "measurements.csv")
    assert main(["fit", "--input", measurements, "--out", str(tmp_path)]) == 0
    assert digests(tmp_path, FIT) == FIT
