"""Seeded CLI output against committed golden files.

The files in tests/golden/ are the output of

    qdosc timeseries --model ho --q 1.1 --gamma 0.8 --shots 64 --seed 3 --samples 256
    qdosc spectrum --model ao --q 1.3 --delta 0.3 --shots 1024 --seed 7 --samples 1024

The timeseries CSV pins the seeded shot counts at 64 shots, where numpy
draws most binomials by inversion; the spectrum CSV pins the levels
recovered from 1024-shot counts, which numpy mostly draws by rejection.
The spectrum_points CSV pins the transform (window, real FFT, scaling,
mirror and frequency grid) to the last bit of every repr.  The spectrum
run's manifest is compared field by field, all but its output directory.
Regenerate these files only for a change that is meant to move them, and
say so where the change is described.
"""

import json
from pathlib import Path

import pytest

from qdosc.cli import main

GOLDEN = Path(__file__).parent / "golden"
RUNS = {
    "timeseries": ["timeseries", "--model", "ho", "--q", "1.1", "--gamma", "0.8",
                   "--shots", "64", "--seed", "3", "--samples", "256"],
    "spectrum": ["spectrum", "--model", "ao", "--q", "1.3", "--delta", "0.3",
                 "--shots", "1024", "--seed", "7", "--samples", "1024"],
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """Output directory of one RUNS command, run once per module."""
    dirs = {}

    def get(command):
        if command not in dirs:
            out = tmp_path_factory.mktemp(command)
            assert main(RUNS[command] + ["--out", str(out)]) == 0
            dirs[command] = out
        return dirs[command]
    return get


@pytest.mark.parametrize("command, name", [
    pytest.param("timeseries", "timeseries_ho_q1.1.csv", id="timeseries_ho_q1.1.csv"),
    pytest.param("timeseries", "spectrum_points_ho_q1.1.csv",
                 id="spectrum_points_ho_q1.1.csv"),
    pytest.param("spectrum", "spectrum_ao.csv", id="spectrum_ao.csv"),
])
def test_seeded_timeseries_output_is_byte_identical(run_dir, command, name):
    path = run_dir(command) / name
    got = path.read_text().splitlines()
    want = (GOLDEN / name).read_text().splitlines()
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"{name} line {i + 1}: got {a!r}, golden {b!r}"
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


def test_seeded_spectrum_manifest_matches_golden(run_dir):
    got = json.loads((run_dir("spectrum") / "run_manifest.json").read_text())
    want = json.loads((GOLDEN / "spectrum_ao_manifest.json").read_text())
    del got["config"]["out"]
    assert got.keys() == want.keys()
    for field in want:
        assert got[field] == want[field], f"manifest field {field!r} differs"
