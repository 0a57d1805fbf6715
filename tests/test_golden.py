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
    "measurements.csv": "448d76295bdf96df04bfd6d1c5704e374ec440d0603f1dad43da85c0ded5902a",
}
FIT = {
    "fit_report.csv": "3a7ed74a2bb69c9065fabf26c6827c153740ea100bc8511303fcb24f6725dd8b",
    "comparison.csv": "de6f0928fcb3ba27b60e23efe7d04243c2045ed407f0bfafb938077e39eff75e",
    "loss_vs_pressure.svg": "d4ff5e77d35ac4bf88e77af74dc7835b3e6b1af0fb7a9bc4c93f4890a65488aa",
}
GENERATE_200_TRIALS_SEED_7 = {
    "measurements.csv": "85617ff4636cc24c7314d7d57ad5b2204965ac2e1e65d7221976d5570015a098",
}
GENERATE_NOISELESS = {
    "measurements.csv": "835682b12cbfee95b2a25ff1fdeeec33e70b13becb7c06515f0d984e69eea2ea",
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
