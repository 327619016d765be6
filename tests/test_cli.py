"""Command line front end: files, exit codes, config round trips."""

import json
import math

import numpy as np
import pytest

from qdosc import Spectrum, __version__, detect_levels, spectrum_hho_paper
from qdosc import cli, spectral
from qdosc.cli import MAX_Q_POINTS, ExperimentConfig, _parse_q_grid, main


def load_rows(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_spectrum_undeformed_row(tmp_path):
    rc = main(["spectrum", "--model", "h0", "--q", "1.0",
               "--samples", "1024", "--out", str(tmp_path)])
    assert rc == 0
    csv = tmp_path / "spectrum_h0.csv"
    header = csv.read_text().splitlines()[0].split(",")
    assert header == (["q"] + [f"e{i}_detected" for i in range(1, 5)]
                      + [f"e{i}_reference" for i in range(1, 5)]
                      + [f"abs_err{i}" for i in range(1, 5)])
    row = load_rows(csv)[0]
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    dt = manifest["per_q"][0]["dt"]
    tol = math.pi / (1024 * dt)
    assert row[0] == 1.0
    np.testing.assert_allclose(row[1:5], [0.5, 1.5, 2.5, 3.5], atol=tol)
    np.testing.assert_allclose(row[5:9], [0.5, 1.5, 2.5, 3.5], atol=1e-12)
    np.testing.assert_allclose(row[9:13], np.abs(row[1:5] - row[5:9]),
                               atol=1e-12)
    assert manifest["command"] == "spectrum"
    assert manifest["version"] == __version__
    assert manifest["detection"]["window"] == "hann"


def test_pipeline_settings_are_the_library_defaults():
    assert cli.PIPELINE_WINDOW is spectral.DEFAULT_WINDOW
    assert cli.PIPELINE_PROMINENCE is spectral.DEFAULT_PROMINENCE


def test_spectrum_quadratic_emits_shift_reference(tmp_path):
    rc = main(["spectrum", "--model", "ho", "--gamma", "0.5", "--q", "1.0",
               "--samples", "512", "--out", str(tmp_path)])
    assert rc == 0
    csv = tmp_path / "spectrum_ho.csv"
    header = csv.read_text().splitlines()[0].split(",")
    assert header[-4:] == [f"e{i}_shifted_omega" for i in range(1, 5)]
    row = load_rows(csv)[0]
    np.testing.assert_allclose(row[13:17], spectrum_hho_paper(1.0, 0.5),
                               atol=1e-12)


def test_quartic_zero_strength_matches_free_model(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--model", "ao", "--delta", "0.0", "--q", "1.0",
                 "--samples", "512", "--out", str(a)]) == 0
    assert main(["spectrum", "--model", "h0", "--q", "1.0",
                 "--samples", "512", "--out", str(b)]) == 0
    det_ao = load_rows(a / "spectrum_ao.csv")[0][1:5]
    det_h0 = load_rows(b / "spectrum_h0.csv")[0][1:5]
    np.testing.assert_array_equal(det_ao, det_h0)  # identical pipeline inputs


def test_timeseries_files(tmp_path):
    rc = main(["timeseries", "--model", "h0", "--q", "1.0",
               "--samples", "256", "--out", str(tmp_path)])
    assert rc == 0
    series = load_rows(tmp_path / "timeseries_h0_q1.csv")
    assert series[0, 0] == 0.0
    assert series[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert len(series) == 256

    points = load_rows(tmp_path / "spectrum_points_h0_q1.csv")
    spec = Spectrum(frequencies=points[:, 0], values=points[:, 1])
    lv = detect_levels(spec, n_expected=4, min_prominence=0.05)
    halfbin = 0.5 * spec.bin_width
    np.testing.assert_allclose(2.0 * lv.levels, [1.0, 3.0, 5.0, 7.0],
                               atol=halfbin)


def test_timeseries_shot_mode_is_reproducible(tmp_path):
    args = ["timeseries", "--model", "h0", "--q", "1.0", "--samples", "256",
            "--shots", "1024"]
    for sub in ("a", "b"):
        assert main(args + ["--seed", "3", "--out", str(tmp_path / sub)]) == 0
    one = (tmp_path / "a" / "timeseries_h0_q1.csv").read_bytes()
    two = (tmp_path / "b" / "timeseries_h0_q1.csv").read_bytes()
    assert one == two
    assert main(args + ["--seed", "4", "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "timeseries_h0_q1.csv").read_bytes() != one


class TestConfig:
    @pytest.mark.parametrize("text,cfg", [
        ("model = h0\nq_grid = 1.0\ngamma = 0.0\ndelta = 0.0\nseed = 0\nout = .\n",
         ExperimentConfig()),
        ("model = ho\nq_grid = 0.5,1.0,1.5\ngamma = 0.3\nsamples = 512\nout = runs\n",
         ExperimentConfig(model="ho", q_grid=(0.5, 1.0, 1.5), gamma=0.3,
                          samples=512, out="runs")),
        ("model = ao\ndelta = 0.5\ndt = 0.07\nshots = 2048\nseed = 11\n",
         ExperimentConfig(model="ao", delta=0.5, dt=0.07, shots=2048, seed=11)),
    ], ids=["cfg0", "cfg1", "cfg2"])
    def test_text_round_trip(self, text, cfg):
        """Literal key = value text, one line per field type, parses to the
        config the same values give as arguments."""
        assert ExperimentConfig.from_text(text) == cfg

    def test_parser_tolerates_comments(self):
        cfg = ExperimentConfig.from_text(
            "# sweep setup\nmodel = ho\n\ngamma = 0.25  # quadratic\n")
        assert cfg.model == "ho" and cfg.gamma == 0.25

    def test_parser_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text("modle = h0\n")

    def test_parser_rejects_bad_line(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text("just words\n")

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="bogus")
        with pytest.raises(ValueError):
            ExperimentConfig(shots=0)
        with pytest.raises(ValueError):
            ExperimentConfig(q_grid=())
        # X4 entries overflow to inf/nan, which PauliCoefficients refuses
        with pytest.raises(ValueError, match="ao coefficients or their sum overflow"):
            ExperimentConfig(model="ao", q_grid=(1e50,), delta=0.3)


def test_q_grid_parsing():
    assert _parse_q_grid("0.5:2.0:0.5") == (0.5, 1.0, 1.5, 2.0)
    assert _parse_q_grid("1.0:1.0:0.1") == (1.0,)
    with pytest.raises(ValueError):
        _parse_q_grid("1.0:2.0:-0.5")
    with pytest.raises(ValueError):
        _parse_q_grid("1.2:0.8:0.1")
    assert len(_parse_q_grid(f"0:{MAX_Q_POINTS - 1}:1")) == MAX_Q_POINTS
    for text in (f"0:{MAX_Q_POINTS}:1", "1:2:0", "1:inf:0.1", "-inf:1:0.1"):
        with pytest.raises(ValueError):
            _parse_q_grid(text)


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("model = ho\nq_grid = 0.5,1.5\ngamma = 0.3\n"
                        "samples = 512\n")
    rc = main(["spectrum", "--config", str(cfg_path), "--gamma", "0.8",
               "--out", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["config"]["gamma"] == 0.8  # flag wins over file
    assert manifest["config"]["model"] == "ho"
    assert tuple(manifest["config"]["q_grid"]) == (0.5, 1.5)
    assert len(load_rows(tmp_path / "spectrum_ho.csv")) == 2


def test_config_file_shots_match_the_flag(tmp_path):
    cfg_path = tmp_path / "shots.cfg"
    cfg_path.write_text("shots = 256\nseed = 3\n")
    args = ["timeseries", "--model", "h0", "--q", "1.0", "--samples", "256"]
    assert main(args + ["--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--shots", "256", "--seed", "3",
                        "--out", str(tmp_path / "b")]) == 0
    name = "timeseries_h0_q1.csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    manifest = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
    assert manifest["config"]["shots"] == 256 and "mode" not in manifest["config"]


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("QDOSC_OUT", str(env_dir))
    rc = main(["timeseries", "--model", "h0", "--q", "1.0", "--samples", "256",
               "--out", str(tmp_path / "ignored")])
    assert rc == 0
    assert (env_dir / "timeseries_h0_q1.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_empty_output_dir_exits_cleanly(tmp_path, monkeypatch, capsys):
    # flag, config file and environment all name the output directory
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.delenv("QDOSC_OUT", raising=False)
    cfg_path = tmp_path / "empty_out.cfg"
    cfg_path.write_text("out =\n")
    args = ["timeseries", "--q", "1.0", "--samples", "16"]
    assert main(args + ["--out", ""]) == 2
    assert main(args + ["--config", str(cfg_path)]) == 2
    monkeypatch.setenv("QDOSC_OUT", "")
    assert main(args + ["--out", str(tmp_path / "flag")]) == 2
    monkeypatch.delenv("QDOSC_OUT")
    # a regular file where the directory, or one of its parents, should be
    afile = tmp_path / "afile"
    afile.write_text("x")
    assert main(args + ["--out", str(afile)]) == 2
    assert main(["spectrum", "--q", "1.0", "--samples", "16",
                 "--out", str(afile / "sub")]) == 2
    for env in (afile, afile / "sub"):
        monkeypatch.setenv("QDOSC_OUT", str(env))
        assert main(args + ["--out", str(tmp_path / "flag")]) == 2
    err = capsys.readouterr().err
    assert err.count("output directory must not be empty") == 3
    assert err.count("error:") == 7
    assert not any(work.iterdir())
    assert {p.name for p in tmp_path.iterdir()} == {"work", "empty_out.cfg", "afile"}
    assert afile.read_text() == "x"


def test_manifest_records_the_directory_written(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("QDOSC_OUT", str(env_dir))
    assert main(["timeseries", "--q", "1.0", "--samples", "16",
                 "--out", str(tmp_path / "ignored")]) == 0
    manifest = json.loads((env_dir / "run_manifest.json").read_text())
    assert manifest["config"]["out"] == str(env_dir)


def test_aliasing_error_names_the_q_point(tmp_path, capsys):
    rc = main(["spectrum", "--model", "h0", "--q", "1.0", "--dt", "0.5",
               "--samples", "32", "--out", str(tmp_path)])
    assert rc == 1
    assert "q=1.0" in capsys.readouterr().err


def test_unresolved_peaks_error_names_the_q_point(tmp_path, capsys):
    # 16 samples at dt = 0.05 put all four lines inside the first bin, and
    # span too little of the slowest line for the pencil to see eight poles
    rc = main(["spectrum", "--model", "h0", "--q", "1.0", "--dt", "0.05",
               "--samples", "16", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: q=1.0: found 0 peak(s)" in err
    assert "; matrix pencil: singular value 8 is" in err
    assert not any(tmp_path.iterdir())


def test_default_exact_run_reads_128_samples(tmp_path):
    assert main(["spectrum", "--model", "ho", "--q", "1.1", "--gamma", "0.4",
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["per_q"][0]["samples"] == spectral.DEFAULT_SAMPLES_EXACT == 128
    row = load_rows(tmp_path / "spectrum_ho.csv")[0]
    assert row[9:13].max() <= 1e-12 * row[8]


def test_default_exact_run_seeds_from_the_pencil_on_one_series(tmp_path, monkeypatch):
    # at 128 samples two lines of this point share one FFT peak
    calls = []

    def count(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, call)
    count(cli, "sample_series")
    count(spectral, "pencil_levels")
    assert main(["spectrum", "--model", "ao", "--q", "2.2", "--delta", "0.5",
                 "--out", str(tmp_path)]) == 0
    assert calls == ["sample_series", "pencil_levels"]
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["per_q"][0]["samples"] == spectral.DEFAULT_SAMPLES_EXACT == 128
    row = load_rows(tmp_path / "spectrum_ao.csv")[0]
    assert row[9:13].max() <= 1e-12 * row[8]


def test_default_exact_run_names_both_seeds_when_both_fail(tmp_path, capsys):
    # at q = 4 the closest lines are 0.14 bins apart at 128 samples
    rc = main(["spectrum", "--model", "ao", "--q", "4.0", "--delta", "0.5",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: q=4.0: found 2 peak(s)" in err
    assert "matrix pencil: singular value 8 is" in err
    assert not any(tmp_path.iterdir())


def test_default_shot_run_reads_one_8192_sample_series(tmp_path):
    assert main(["spectrum", "--model", "h0", "--q", "1.0", "--shots", "1024",
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["per_q"][0]["samples"] == spectral.DEFAULT_SAMPLES_SHOTS == 8192


def test_explicit_sample_count_takes_the_default_rule(tmp_path):
    # the FFT cannot seed this point at 128 or 512 samples; the pencil does,
    # whether or not the sample count was given
    argv = ["spectrum", "--model", "ao", "--q", "2.2", "--delta", "0.5"]
    for name, extra in (("default", []), ("given", ["--samples", "128"]),
                        ("512", ["--samples", "512"])):
        assert main(argv + extra + ["--out", str(tmp_path / name)]) == 0
    csv = "spectrum_ao.csv"
    assert (tmp_path / "given" / csv).read_bytes() == (tmp_path / "default" / csv).read_bytes()
    row = load_rows(tmp_path / "512" / csv)[0]
    assert row[9:13].max() <= 1e-12 * row[8]


def _flag_cases(argv, flag, values, codes):
    return [(argv + [f"{flag}={v}"], None, c) for v, c in zip(values, codes)]


def _key_cases(text, key, values, codes, command="spectrum"):
    return [([command], f"{text}{key} = {v}\n", c) for v, c in zip(values, codes)]


# (argv, config-file text or None, exit code) for every flag and config key
# at 0, negative, huge, nan, inf and a wrong type, then cases of their own.
# 2 is an unusable argument: "error:" and nothing written.  1 is a runtime
# failure of a usable one (a dt that aliases), 0 a finished run (16 exact
# samples recover the levels at q = 1 with no coupling).  A case that runs
# for real uses 16 samples; no huge sample, shot or grid count gets past
# the checks.
SPECTRUM, HO, AO = ["spectrum"], ["spectrum", "--model=ho"], ["spectrum", "--model=ao"]
SIX = ("0", "-1", "1e300", "nan", "inf", "x")
EDGE_CASES = [
    *_flag_cases(SPECTRUM, "--model", ("0", "x"), (2, 2)),
    *_flag_cases(SPECTRUM, "--q", SIX, (2, 2, 2, 2, 2, 2)),
    *_flag_cases(SPECTRUM, "--q-grid", ("0:1:0.5", "-1:1:0.5", "0.5:2.0:1e-12",
                                        "nan:1:0.1", "1:inf:0.1", "a:b:c"),
                 (2, 2, 2, 2, 2, 2)),
    *_flag_cases(HO, "--gamma", ("0", "-5", "1e308", "nan", "inf", "x"),
                 (0, 2, 2, 2, 2, 2)),
    *_flag_cases(AO, "--delta", ("0", "-1", "5e306", "nan", "inf", "x"),
                 (0, 2, 2, 2, 2, 2)),
    *_flag_cases(SPECTRUM, "--dt", SIX, (2, 2, 1, 2, 2, 2)),
    *_flag_cases(SPECTRUM, "--samples", ("0", "-16", str(2**40), "nan", "inf", "1.5"),
                 (2, 2, 2, 2, 2, 2)),
    *_flag_cases(SPECTRUM, "--shots", ("0", "-1", "100000000000000000000",
                                       "nan", "inf", "x"), (2, 2, 2, 2, 2, 2)),
    *_flag_cases(["timeseries", "--shots=16"], "--seed",
                 ("0", "-1", str(2**64), "nan", "inf", "x"), (0, 2, 0, 2, 2, 2)),
    *_flag_cases(["timeseries"], "--t-max", SIX, (2, 2, 1, 2, 2, 2)),
    *_flag_cases(SPECTRUM, "--out", ("", "{tmp}/afile", "{tmp}/afile/sub"), (2, 2, 2)),
    *_flag_cases(SPECTRUM, "--config", ("{tmp}/missing.cfg", "{tmp}"), (2, 2)),
    *_key_cases("", "model", ("0", "x"), (2, 2)),
    *_key_cases("", "q_grid", ("0", "-1", "1e300", "nan", "inf", "x", "1,,2", ""),
                (2, 2, 2, 2, 2, 2, 2, 2)),
    *_key_cases("model = ho\n", "gamma", ("0", "-5", "1e308", "nan", "inf", "x"),
                (0, 2, 2, 2, 2, 2)),
    *_key_cases("model = ao\n", "delta", ("0", "-1", "5e306", "nan", "inf", "x"),
                (0, 2, 2, 2, 2, 2)),
    *_key_cases("", "dt", SIX, (2, 2, 1, 2, 2, 2)),
    *_key_cases("", "samples", ("0", "-16", str(2**40), "nan", "inf", "1.5", "100"),
                (2, 2, 2, 2, 2, 2, 2)),
    *_key_cases("", "shots", ("0", "-1", "100000000000000000000", "nan", "inf", "x"),
                (2, 2, 2, 2, 2, 2)),
    *_key_cases("shots = 16\n", "seed", ("0", "-1", str(2**64), "nan", "inf", "x"),
                (0, 2, 0, 2, 2, 2), command="timeseries"),
    *_key_cases("", "out", ("",), (2,)),
    # coefficients, or their frequency estimate, that overflow; a reversed or
    # short grid; samples off the power-of-two rule or one step past the cap
    (["spectrum", "--model=ho", "--q=1e200"], None, 2),
    (["spectrum", "--model=ao", "--q=1.0", "--delta=5e306"], None, 2),
    (["spectrum", "--model=ao", "--q=1e60", "--delta=0.5"], None, 2),
    (["timeseries", "--model=ao", "--delta=5e306"], None, 2),
    (["spectrum", "--q-grid=1.2:0.8:0.1"], None, 2),
    (["spectrum", "--q-grid=1:2"], None, 2),
    (["spectrum", "--samples=100"], None, 2),
    (["spectrum", f"--samples={2**21}"], None, 2),
    # flags that conflict, and a config key given twice; a --t-max flag beats
    # a config dt that would alias
    (["spectrum", "--q=1.0", "--q-grid=0.5:1.0:0.5"], None, 2),
    (["timeseries", "--dt=0.1", "--t-max=5"], None, 2),
    (["timeseries", "--t-max=1.6"], "dt = 1e300\n", 0),
    *_key_cases("q_grid = 1.0\n", "q_grid", ("2.0",), (2,)),
]


def _edge_id(case):
    argv, text, _ = case
    return " ".join(argv + ([text.replace("\n", "; ").strip("; ")] if text else []))


@pytest.mark.parametrize("argv,text,code", EDGE_CASES,
                         ids=[_edge_id(c) for c in EDGE_CASES])
def test_edge_values_exit_as_documented(argv, text, code, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QDOSC_OUT", raising=False)
    monkeypatch.chdir(tmp_path)  # an output directory that slips through lands here
    (tmp_path / "afile").write_text("x")
    out = tmp_path / "out"
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if text is not None:
        (tmp_path / "run.cfg").write_text(text)
        argv += ["--config", str(tmp_path / "run.cfg")]
    if not any(a.startswith("--samples") for a in argv) and "samples" not in (text or ""):
        argv += ["--samples=16"]
    if not any(a.startswith("--out") for a in argv):
        argv += ["--out", str(out)]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse: a wrong type or an unknown choice
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == code, err
    if code == 0:
        assert (out / "run_manifest.json").exists()
    else:
        assert "error:" in err
    if code == 1:
        assert "error: q=1.0:" in err  # the point that failed, not an argument
    if code == 2:
        assert {p.name for p in tmp_path.iterdir()} <= {"afile", "run.cfg"}
        assert (tmp_path / "afile").read_text() == "x"


def test_verify_reports_all_suites(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 5
    assert all("PASS" in ln for ln in lines)
    assert "FAIL" not in out
