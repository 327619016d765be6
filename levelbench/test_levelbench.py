"""Tests of the benchmark's inputs, oracle, checker and tracer."""

import json
import math

import numpy as np
import pytest

from levelbench import bench, checks, reference, spans
from levelbench.reference import Point

HO = Point("ho", 1.3, 0.6, 0.0, 12345)


def _csv(point: Point, detected) -> bytes:
    """A CSV laid out as `qdosc spectrum` writes it."""
    ref = reference.reference_levels(point)
    row = [point.q, *detected, *ref, *np.abs(np.asarray(detected) - ref)]
    if point.model == "ho":
        row += list(math.sqrt(1.0 + point.gamma) * reference.h0_closed_form(point.q))
    header = ",".join(checks.spectrum_header(point.model))
    return (header + "\n" + ",".join(repr(float(x)) for x in row) + "\n").encode()


def _manifest(point: Point, samples: int = 8192) -> bytes:
    return json.dumps({"per_q": [{"q": point.q, "dt": 0.1, "samples": samples}]}).encode()


def _near(point: Point, tol: float) -> np.ndarray:
    """Detected levels a quarter tolerance above the reference."""
    ref = reference.reference_levels(point)
    return ref + 0.25 * tol * ref[-1]


def test_same_seed_same_points_and_series():
    assert reference.parameter_points(7) == reference.parameter_points(7)
    assert reference.parameter_points(7) != reference.parameter_points(8)
    assert [p.model for p in reference.parameter_points(7)] == ["h0", "ho", "ao"]
    dt1, s1 = reference.long_series(reference.parameter_points(7)[1])
    dt2, s2 = reference.long_series(reference.parameter_points(7)[1])
    assert dt1 == dt2 and np.array_equal(s1, s2)
    assert len(s1) == reference.LONG_SAMPLES


@pytest.mark.parametrize("point", reference.parameter_points(3))
def test_oracle_agrees_with_program(point):
    from qdosc import ModelParams, build_hamiltonian, model_coefficients, probe_expectation
    ham = build_hamiltonian(point.model, 4, point.q, ModelParams(point.gamma, point.delta))
    assert np.allclose(reference.hamiltonian(point), ham.matrix, rtol=0, atol=1e-12)
    d = model_coefficients(point.model, point.q, point.gamma, point.delta)
    times = np.array([0.0, 0.37, 2.9])
    expected = [probe_expectation(d, t) for t in times]
    assert np.allclose(reference.probe_signal(point, times), expected, rtol=0, atol=1e-12)


def test_h0_closed_form_matches_eigensolve():
    point = Point("h0", 1.7, 0.0, 0.0, 0)
    assert np.allclose(reference.h0_closed_form(1.7), reference.reference_levels(point),
                       rtol=0, atol=1e-12)
    assert np.array_equal(reference.h0_closed_form(1.0), [0.5, 1.5, 2.5, 3.5])


def test_checker_accepts_levels_within_tolerance():
    checker = checks.SweepChecker(checks.TOL_SHOTS)
    csv = _csv(HO, _near(HO, checks.TOL_SHOTS))
    assert checker.problems(HO, 0, csv, _manifest(HO), samples_seen=8192) == []


@pytest.mark.parametrize("level", range(4))
def test_level_shifted_by_one_tolerance_fails(level):
    detected = _near(HO, checks.TOL_EXACT)
    detected[level] += checks.TOL_EXACT * reference.reference_levels(HO)[-1]
    problems = checks.SweepChecker(checks.TOL_EXACT).problems(
        HO, 0, _csv(HO, detected), _manifest(HO))
    assert any("level error" in p for p in problems)


def test_csv_with_zero_rows_fails():
    header_only = _csv(HO, _near(HO, checks.TOL_EXACT)).splitlines(keepends=True)[0]
    problems = checks.SweepChecker(checks.TOL_EXACT).problems(HO, 0, header_only, _manifest(HO))
    assert problems == ["expected one CSV row, got 0"]


def test_nonzero_exit_code_fails():
    csv = _csv(HO, _near(HO, checks.TOL_EXACT))
    problems = checks.SweepChecker(checks.TOL_EXACT).problems(HO, 1, csv, _manifest(HO))
    assert problems == ["exit code 1"]


def test_repeat_differing_by_one_byte_fails():
    checker = checks.SweepChecker(checks.TOL_SHOTS)
    csv = _csv(HO, _near(HO, checks.TOL_SHOTS))
    assert checker.problems(HO, 0, csv, _manifest(HO)) == []
    last = csv.rstrip()[-1:]
    changed = csv.rstrip()[:-1] + (b"1" if last != b"1" else b"2") + b"\n"
    assert len(changed) == len(csv) and changed != csv
    assert checker.problems(HO, 0, changed, _manifest(HO)) == [
        "CSV differs from the first run of the same point"]
    assert checker.problems(HO, 0, csv, _manifest(HO)) == []


def test_manifest_samples_must_match_boundary_count():
    csv = _csv(HO, _near(HO, checks.TOL_SHOTS))
    problems = checks.SweepChecker(checks.TOL_SHOTS).problems(
        HO, 0, csv, _manifest(HO, samples=4096), samples_seen=8192)
    assert len(problems) == 1 and "manifest samples" in problems[0]


def test_wrong_reference_column_fails():
    lines = _csv(HO, _near(HO, checks.TOL_SHOTS)).decode().splitlines()
    values = lines[1].split(",")
    values[5] = repr(float(values[5]) + 1e-8)  # e1_reference
    csv = (lines[0] + "\n" + ",".join(values) + "\n").encode()
    problems = checks.SweepChecker(checks.TOL_SHOTS).problems(HO, 0, csv, _manifest(HO))
    assert any("reference columns" in p for p in problems)


def test_missing_and_uncalled_names_trace_as_zero(monkeypatch):
    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + (
        ("qdosc.spectral", "no_such_function", "simulator.run_circuit", None),
        ("qdosc.no_such_module", "main", "cli.main", None),
    ))
    tracer = spans.Tracer()
    with tracer.installed(0):
        pass
    metrics = tracer.layer_metrics(1)
    assert set(metrics) == set(spans.LAYER_METRICS)
    assert all(v == 0 for v in metrics.values())


def test_traced_cli_call_counts_layers(tmp_path):
    import qdosc.cli
    import qdosc.simulator
    original = qdosc.simulator.run_circuit
    tracer = spans.Tracer()
    argv = ["spectrum", "--model", "ho", "--q", "1.1", "--gamma", "0.4",
            "--samples", "256", "--out", str(tmp_path)]
    with tracer.installed(0):
        assert qdosc.cli.main(argv) == 0
        assert tracer.count("spectral.sample_series") == 256
    assert qdosc.simulator.run_circuit is original
    m = tracer.layer_metrics(1)
    assert m["simulator.run_calls"] == m["circuit.compile_calls"] == 256
    assert m["simulator.probe_calls"] == m["spectral.samples"] == 256
    assert m["spectral.bins"] == 256 and m["circuit.gates"] >= 256
    assert all(m[name] > 0 for name in ("cli.self_s", "spinmap.coeffs_s", "qops.hamiltonian_s",
                                        "analytic.reference_s", "spectral.detect_s"))
    assert all(v >= 0 for v in m.values())


def test_sweep_operation_passes_its_checks(tmp_path):
    sweep = bench.Sweep(bench.import_qdosc(), 11, False, tmp_path)
    assert sweep(sweep.round[1], None) == []


def test_benchmark_json_names_every_metric():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(layer_units) == {*spans.LAYER_METRICS, *bench.TRACE_METRICS}
    assert all(unit == ("s" if name.endswith("_s") else "count")
               for name, unit in layer_units.items())
