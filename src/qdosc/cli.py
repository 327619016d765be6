"""Command line front end: level-sweep, single-point series, self-check."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .analytic import exact_diag, spectrum_h0, spectrum_hho_paper
from .circuit import build_evolution_block, circuit_unitary, phase_aligned_distance
from .qops import MODELS, build_hamiltonian, check_couplings
from .simulator import evolution_target, evolve_exact, probe_expectation
from .spectral import (DEFAULT_PROMINENCE, DEFAULT_WINDOW, FIRST_SAMPLES_EXACT,
                       InsufficientPeaks, MeasurementConfig, _write_csv,
                       check_sample_count, default_samples, detect_levels,
                       dft_real, energy_scale_estimate, fit_levels,
                       match_levels, pencil_levels, sample_series)
from .spinmap import PauliCoefficients, model_coefficients, pauli_decompose, reconstruct

OUTDIR_ENV = "QDOSC_OUT"
# read by the benchmark's analyse_long; they go with ROADMAP item 1's benchmark change
PIPELINE_WINDOW, PIPELINE_PROMINENCE = DEFAULT_WINDOW, DEFAULT_PROMINENCE
#: longest --q-grid; each point is a full probe series
MAX_Q_POINTS = 10_000
#: config-file value parsers, keyed by field type without its "| None"
_PARSERS = {"str": str, "int": int, "float": float,
            "tuple[float, ...]": lambda v: tuple(float(x) for x in v.split(","))}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved run parameters, read from flags or key = value text."""

    model: str = "h0"
    q_grid: tuple[float, ...] = (1.0,)
    gamma: float = 0.0
    delta: float = 0.0
    dt: float | None = None
    samples: int | None = None
    shots: int | None = None
    seed: int = 0
    out: str = "."

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        object.__setattr__(self, "q_grid", tuple(float(q) for q in self.q_grid))
        if not self.q_grid or not all(math.isfinite(q) and q > 0 for q in self.q_grid):
            raise ValueError(f"q grid must be non-empty, finite and positive, "
                             f"got {self.q_grid}")
        check_couplings(self.gamma, self.delta)
        for q in self.q_grid:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    d = model_coefficients(self.model, q, self.gamma, self.delta)
                    finite = math.isfinite(2.0 * energy_scale_estimate(d))
            except (OverflowError, ValueError):  # ValueError: an inf/NaN coefficient
                finite = False
            if not finite:
                raise ValueError(f"q={q}: {self.model} coefficients or their sum overflow")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if self.samples is not None:
            check_sample_count(self.samples)
        if not self.out:
            raise ValueError("output directory must not be empty")
        self.measurement()  # rejects a bad shot count or seed

    def measurement(self) -> MeasurementConfig:
        return MeasurementConfig(self.shots, self.seed)

    def resolved_samples(self) -> int:
        if self.samples is not None:
            return self.samples
        return default_samples(self.measurement())

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        types = {f.name: f.type.removesuffix(" | None") for f in fields(cls)}
        values: dict = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw!r}, expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            if key in values:
                raise ValueError(f"config key {key!r} given twice")
            values[key] = _PARSERS[types[key]](val)
        return cls(**values)


def _series_for_q(cfg: ExperimentConfig, q: float, m: int):
    """Probe series of m samples at q and its windowed spectrum."""
    d = model_coefficients(cfg.model, q, cfg.gamma, cfg.delta)
    ts = sample_series(d, dt=cfg.dt, m=m, cfg=cfg.measurement())
    return ts, dft_real(ts)


def recover_levels(cfg: ExperimentConfig, q: float):
    """Levels at q, end to end: (series, fitted EnergyLevels, reference
    levels, absolute errors of the fitted against the reference).

    One series is read, and its FFT peaks seed the line fit.  Exact readout
    with no sample count given reads FIRST_SAMPLES_EXACT samples, and if
    the FFT seed raises InsufficientPeaks, pencil_levels on the same series
    seeds the fit again; the error names both failures if that raises too.
    Otherwise the series has the configured or default length and the FFT
    seed is the only one.
    """
    rescue = cfg.samples is None and cfg.shots is None
    ts, spec = _series_for_q(cfg, q, FIRST_SAMPLES_EXACT if rescue
                             else cfg.resolved_samples())
    try:
        levels = fit_levels(ts, detect_levels(spec, n_expected=4))
    except InsufficientPeaks as fft_failure:
        if not rescue:
            raise
        try:
            levels = fit_levels(ts, pencil_levels(ts, n=4))
        except InsufficientPeaks as exc:
            raise InsufficientPeaks(f"{fft_failure}; {exc}") from exc
    if cfg.model == "h0":
        ref = spectrum_h0(q)
    else:
        ref = exact_diag(build_hamiltonian(cfg.model, q, cfg.gamma, cfg.delta))
    return ts, levels, ref, match_levels(levels, ref)


def _write_manifest(cfg: ExperimentConfig, command: str, points) -> None:
    """Record the run from its config and the (q, dt, sample count) of each
    series it sampled."""
    manifest = {
        "command": command,
        "version": __version__,
        "config": asdict(cfg),
        "detection": {"window": DEFAULT_WINDOW, "prominence": DEFAULT_PROMINENCE},
        "per_q": [{"q": q, "dt": dt, "samples": m} for q, dt, m in points],
    }
    with open(os.path.join(cfg.out, "run_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)


def cmd_spectrum(cfg: ExperimentConfig) -> int:
    """Detect levels for every q in the grid and write one CSV row each."""
    header = ["q"]
    header += [f"e{i}_detected" for i in range(1, 5)]
    header += [f"e{i}_reference" for i in range(1, 5)]
    header += [f"abs_err{i}" for i in range(1, 5)]
    if cfg.model == "ho":
        header += [f"e{i}_shifted_omega" for i in range(1, 5)]
    rows, points = [], []
    for q in cfg.q_grid:
        try:
            ts, levels, ref, errs = recover_levels(cfg, q)
        except (InsufficientPeaks, ValueError) as exc:
            print(f"error: q={q}: {exc}", file=sys.stderr)
            return 1
        row = [q, *levels.levels, *ref, *errs]
        if cfg.model == "ho":
            row += list(spectrum_hho_paper(q, cfg.gamma))
        rows.append(row)
        points.append((q, ts.dt, len(ts.samples)))
    path = os.path.join(cfg.out, f"spectrum_{cfg.model}.csv")
    _write_csv(path, ",".join(header), *zip(*rows))
    _write_manifest(cfg, "spectrum", points)
    print(f"wrote {path} ({len(rows)} q point(s))")
    return 0


def cmd_timeseries(cfg: ExperimentConfig) -> int:
    """Emit the sampled series and its spectrum for the first grid q."""
    q = cfg.q_grid[0]
    try:
        ts, spec = _series_for_q(cfg, q, cfg.resolved_samples())
    except ValueError as exc:
        print(f"error: q={q}: {exc}", file=sys.stderr)
        return 1
    tag = f"{cfg.model}_q{q:g}"
    ts_path = os.path.join(cfg.out, f"timeseries_{tag}.csv")
    sp_path = os.path.join(cfg.out, f"spectrum_points_{tag}.csv")
    ts.write_csv(ts_path)
    spec.write_csv(sp_path)
    _write_manifest(cfg, "timeseries", [(q, ts.dt, len(ts.samples))])
    print(f"wrote {ts_path} and {sp_path}")
    return 0


def _verify_suites() -> list[tuple[str, int, float, float]]:
    """(name, points, max deviation, tolerance) for each equivalence suite."""
    grid_q = (0.5, 0.8, 1.0, 1.2, 1.5, 2.0)
    suites = []

    dev, n = 0.0, 0
    for q in grid_q:
        for t in (0.1, 0.7, 1.3):
            for d, _ in _verify_models(q):
                got = circuit_unitary(build_evolution_block(d, t))
                dev = max(dev, phase_aligned_distance(got, evolution_target(d, t)))
                n += 1
    suites.append(("circuit-vs-exponential", n, dev, 1e-9))

    rng = np.random.default_rng(20240811)
    dev = 0.0
    for _ in range(100):
        d = PauliCoefficients(*rng.normal(size=6))
        back = pauli_decompose(reconstruct(d))
        dev = max(dev, float(np.abs(back.as_array() - d.as_array()).max()))
    suites.append(("pauli-roundtrip", 100, dev, 1e-12))

    dev, n = 0.0, 0
    for q in grid_q:
        for d, ham in _verify_models(q):
            dev = max(dev, float(np.abs(
                pauli_decompose(ham).as_array() - d.as_array()).max()))
            n += 1
    suites.append(("closed-form-vs-projection", n, dev, 1e-10))

    rng = np.random.default_rng(7)
    dev = 0.0
    for _ in range(50):
        q = rng.uniform(0.5, 2.0)
        t = rng.uniform(0.0, 2.0)
        options = (model_coefficients("h0", q),
                   model_coefficients("ho", q, gamma=rng.uniform(0.1, 1.0)),
                   model_coefficients("ao", q, delta=rng.uniform(0.1, 0.5)))
        d = options[rng.integers(3)]
        dev = max(dev, abs(probe_expectation(d, t) - evolve_exact(reconstruct(d), t)))
    suites.append(("probe-vs-exact-evolution", 50, dev, 1e-8))

    dev, n = 0.0, 0
    for model, q, gamma, delta in (("h0", 1.0, 0.0, 0.0),
                                   ("ho", 1.3, 0.5, 0.0),
                                   ("ao", 0.8, 0.0, 0.1)):
        cfg = ExperimentConfig(model=model, q_grid=(q,), gamma=gamma, delta=delta,
                               samples=2048)
        _, levels, _, errs = recover_levels(cfg, q)
        dev = max(dev, errs.max() / (0.5 * levels.bin_width))
        n += 1
    suites.append(("detected-vs-diagonalization (half-bin units)", n, dev, 1e-6))
    return suites


def _verify_models(q: float):
    """(coefficients, Hamiltonian) at q for each model point the suites cover."""
    points = [("h0", 0.0, 0.0)]
    points += [("ho", gamma, 0.0) for gamma in (0.1, 0.5, 1.0)]
    points += [("ao", 0.0, delta) for delta in (0.1, 0.5)]
    for model, gamma, delta in points:
        yield (model_coefficients(model, q, gamma, delta),
               build_hamiltonian(model, q, gamma, delta))


def cmd_verify() -> int:
    """Run the oracle-equivalence suites and report one line per suite."""
    failures = 0
    for name, points, dev, tol in _verify_suites():
        ok = dev <= tol
        failures += 0 if ok else 1
        print(f"{name:45s} points={points:4d} max_dev={dev:.3e} "
              f"tol={tol:.1e} {'PASS' if ok else 'FAIL'}")
    return 0 if failures == 0 else 1


def _parse_q_grid(text: str) -> tuple[float, ...]:
    start, stop, step = (float(x) for x in text.split(":"))
    # the length is checked before np.arange allocates it
    if not (step > 0 and 0 <= (stop - start) / step <= MAX_Q_POINTS - 1):
        raise ValueError(f"q grid needs start <= stop, a positive step and at most "
                         f"{MAX_Q_POINTS} points")
    return tuple(np.round(np.arange(start, stop + step / 2.0, step), 12))


def _build_config(args) -> ExperimentConfig:
    base = ExperimentConfig()
    if args.config:
        with open(args.config) as fh:
            base = ExperimentConfig.from_text(fh.read())
    values = asdict(base)
    if args.q is not None:
        values["q_grid"] = (args.q,)
    if args.q_grid is not None:
        values["q_grid"] = _parse_q_grid(args.q_grid)
    for key in ("model", "gamma", "delta", "dt", "samples", "shots", "seed", "out"):
        val = getattr(args, key)
        if val is not None:
            values[key] = val
    values["out"] = os.environ.get(OUTDIR_ENV, values["out"])
    cfg = ExperimentConfig(**values)
    t_max = getattr(args, "t_max", None)
    if t_max is not None:
        if args.dt is not None:
            raise ValueError("--dt and --t-max cannot be given together")
        cfg = replace(cfg, dt=t_max / cfg.resolved_samples())
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qdosc",
        description="Four-level deformed-oscillator spectroscopy on a "
                    "simulated three-qubit register")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", choices=MODELS)
    grid = common.add_mutually_exclusive_group()
    grid.add_argument("--q", type=float, help="single deformation value")
    grid.add_argument("--q-grid", help="start:stop:step, endpoints inclusive")
    common.add_argument("--gamma", type=float, help="quadratic coupling")
    common.add_argument("--delta", type=float, help="quartic coupling")
    common.add_argument("--dt", type=float, help="sample spacing (default: auto)")
    common.add_argument("--samples", type=int, help="number of time samples")
    common.add_argument("--shots", type=int, help="enable shot readout with this count")
    common.add_argument("--seed", type=int, help="shot-noise seed")
    common.add_argument("--out", help=f"output directory (env {OUTDIR_ENV} overrides)")
    common.add_argument("--config", help="key=value config file; flags override it")

    sub.add_parser("spectrum", parents=[common],
                   help="detect levels over a q grid and write CSV")
    ts_parser = sub.add_parser("timeseries", parents=[common],
                               help="write the probe series and its spectrum")
    ts_parser.add_argument("--t-max", type=float,
                           help="total span; sets dt = t_max/samples (not with --dt)")
    sub.add_parser("verify", help="run the oracle-equivalence self-checks")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify()
    try:
        cfg = _build_config(args)
        os.makedirs(cfg.out, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "spectrum":
        return cmd_spectrum(cfg)
    return cmd_timeseries(cfg)


if __name__ == "__main__":
    sys.exit(main())
