"""Seeded CLI output against committed golden files, byte for byte.

The files in tests/golden/ are the output of

    qdosc timeseries --model ho --q 1.1 --gamma 0.8 --shots 64 --seed 3 --samples 256

The series CSV pins the seeded shot counts; the spectrum_points CSV pins
the transform (window, real FFT, scaling, mirror and frequency grid) to
the last bit of every repr.  Regenerate them only for a change that is
meant to move these bytes, and say so where the change is described.
"""

from pathlib import Path

import pytest

from qdosc.cli import main

GOLDEN = Path(__file__).parent / "golden"
ARGS = ["timeseries", "--model", "ho", "--q", "1.1", "--gamma", "0.8",
        "--shots", "64", "--seed", "3", "--samples", "256"]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    assert main(ARGS + ["--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["timeseries_ho_q1.1.csv",
                                  "spectrum_points_ho_q1.1.csv"])
def test_seeded_timeseries_output_is_byte_identical(run_dir, name):
    got = (run_dir / name).read_text().splitlines()
    want = (GOLDEN / name).read_text().splitlines()
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"{name} line {i + 1}: got {a!r}, golden {b!r}"
    assert (run_dir / name).read_bytes() == (GOLDEN / name).read_bytes()
