"""CLI output against committed golden files.

The files in tests/golden/ are the output of

    qdosc timeseries --model ho --q 1.1 --gamma 0.8 --shots 64 --seed 3 --samples 256
    qdosc spectrum --model ao --q 1.3 --delta 0.3 --shots 1024 --seed 7 --samples 1024
    qdosc spectrum --model ho --q-grid 0.6:1.8:0.4 --gamma 0.5 --samples 1024
    qdosc spectrum --model h0 --q-grid 0.5:2.0:0.5 --samples 1024

The timeseries CSV pins the seeded shot counts at 64 shots, where numpy
draws most binomials by inversion; the ao spectrum CSV pins the levels
recovered from 1024-shot counts, which numpy mostly draws by rejection.
The spectrum_points CSV pins the transform (window, real FFT, scaling,
mirror and frequency grid) to the last bit of every repr.  These seeded
files are compared byte for byte.  The ho and h0 runs read the exact
probe series, whose last bits a reordering of the engine's floating-point
work may move, so their CSVs match the header, the row count and the q
column exactly and every other value within EXACT_ATOL.  Each spectrum
run's manifest is compared field by field, all but its output directory.
Regenerate these files only for a change that is meant to move them, and
say so where the change is described.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from qdosc.cli import main

GOLDEN = Path(__file__).parent / "golden"
RUNS = {
    "timeseries": ["timeseries", "--model", "ho", "--q", "1.1", "--gamma", "0.8",
                   "--shots", "64", "--seed", "3", "--samples", "256"],
    "spectrum": ["spectrum", "--model", "ao", "--q", "1.3", "--delta", "0.3",
                 "--shots", "1024", "--seed", "7", "--samples", "1024"],
    "spectrum_ho": ["spectrum", "--model", "ho", "--q-grid", "0.6:1.8:0.4",
                    "--gamma", "0.5", "--samples", "1024"],
    "spectrum_h0": ["spectrum", "--model", "h0", "--q-grid", "0.5:2.0:0.5",
                    "--samples", "1024"],
}
#: bound on any level, reference or error value of an exact-mode golden;
#: levels are read to within half a bin, about 1e-3 here, and rounding in
#: the exact series moves them by about 1e-13
EXACT_ATOL = 1e-9


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


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("command, name, exact_bytes", [
    pytest.param("timeseries", "timeseries_ho_q1.1.csv", True,
                 id="timeseries_ho_q1.1.csv"),
    pytest.param("timeseries", "spectrum_points_ho_q1.1.csv", True,
                 id="spectrum_points_ho_q1.1.csv"),
    pytest.param("spectrum", "spectrum_ao.csv", True, id="spectrum_ao.csv"),
    pytest.param("spectrum_ho", "spectrum_ho.csv", False, id="spectrum_ho.csv"),
    pytest.param("spectrum_h0", "spectrum_h0.csv", False, id="spectrum_h0.csv"),
])
def test_seeded_timeseries_output_is_byte_identical(run_dir, command, name,
                                                     exact_bytes):
    path = run_dir(command) / name
    if not exact_bytes:
        got, want = read_rows(path), read_rows(GOLDEN / name)
        assert got[0] == want[0] and len(got) == len(want)
        assert [r[0] for r in got] == [r[0] for r in want], "q column differs"
        np.testing.assert_allclose(
            np.array([r[1:] for r in got[1:]], dtype=float),
            np.array([r[1:] for r in want[1:]], dtype=float),
            rtol=0.0, atol=EXACT_ATOL)
        return
    got = path.read_text().splitlines()
    want = (GOLDEN / name).read_text().splitlines()
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"{name} line {i + 1}: got {a!r}, golden {b!r}"
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


def test_seeded_spectrum_manifest_matches_golden(run_dir):
    for command, golden in (("spectrum", "spectrum_ao_manifest.json"),
                            ("spectrum_ho", "spectrum_ho_manifest.json"),
                            ("spectrum_h0", "spectrum_h0_manifest.json")):
        got = json.loads((run_dir(command) / "run_manifest.json").read_text())
        want = json.loads((GOLDEN / golden).read_text())
        del got["config"]["out"]
        assert got.keys() == want.keys(), golden
        for field in want:
            assert got[field] == want[field], f"{golden}: field {field!r} differs"
