"""Time-series sampling and level recovery from the probe spectrum.

The probe signal is even in t (a weighted sum of cosines at twice the
level energies), so the transform is taken over the two-sided even
extension of the sampled data.  Folded mod M that extension is
ws[j] + ws[M-j], ws the windowed series, and its DFT is exactly
2 Re(rfft(ws))[k] - ws[0]: one real FFT of the series itself, real and
even in k, so bins 0 .. M/2 hold all of it.  That keeps every spectral
line a symmetric real kernel regardless of where it falls between bins;
the real part of a one-sided transform would instead carry a phase ramp
that can null a half-bin-offset peak.  Bin k maps to angular frequency
2 pi k / (M dt), with the upper half mirrored to negative frequencies
(arrays are stored shifted, ascending).

Levels are read in two steps: detect_levels puts each tallest peak at its
parabolic vertex (up to about 0.22 bins of bias), and fit_levels fits the
series itself to sum_k c_k cos(2 E_k t) from those seeds.  The fit reads
exact series to about 1e-15 of the top level from 512 samples, where the
vertex is off by up to 1.4e-3, and 8192 samples of 1024-shot readout to a
few 1e-6, where the vertex is off by up to 8.5e-5.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qops import is_int
from .simulator import probe_expectation
from .spinmap import PauliCoefficients

DEFAULT_SAMPLES_EXACT = 4096
DEFAULT_SAMPLES_SHOTS = 8192
#: exact-readout series length the CLI tries before DEFAULT_SAMPLES_EXACT; at
#: 256 samples the FFT seed loses points that 512 resolves
FIRST_SAMPLES_EXACT = 512
#: detection settings: Hann suppresses the rectangular sidelobes (the first ~13%
#: of a peak) that would compete with weak lines, and the prominence floor sits
#: under the weakest level weight of the supported ranges (~13% of the tallest)
DEFAULT_WINDOW = "hann"
DEFAULT_PROMINENCE = 0.05
#: line fit (fit_levels): iteration cap, the step in bins that counts as
#: settled, and how far in bins a line may move from its FFT seed
FIT_MAX_ITER = 30
FIT_TOL = 1e-10
FIT_MAX_SHIFT = 1.0
#: most samples in one series; each is a full circuit run
MAX_SAMPLES = 1 << 20
#: fraction of the one-sided bandwidth pi/dt that the default dt leaves to
#: the estimated top frequency 2 * sum|d_i|
NYQUIST_HEADROOM = 0.8


def freeze_arrays(obj, *names: str) -> None:
    """Replace each named field of a frozen dataclass by a read-only float view.

    The view shares the given array's data without copying it, so the
    caller's own array stays writable; writes to it show through the field.
    """
    for name in names:
        view = np.asarray(getattr(obj, name), dtype=float).view()
        view.setflags(write=False)
        object.__setattr__(obj, name, view)


@dataclass(frozen=True)
class MeasurementConfig:
    """Readout: exact probe expectation (shots None), or a seeded shot count."""

    shots: int | None = None
    seed: int = 0

    def __post_init__(self):
        # the binomial draw takes a C int64 count, and truncates a float one
        if self.shots is not None and not (is_int(self.shots) and 0 < self.shots < 2**63):
            raise ValueError(f"shot count must be an integer between 1 and 2**63 - 1, "
                             f"got {self.shots!r}")
        if not is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


class NyquistViolation(ValueError):
    """Raised when dt cannot resolve the estimated top frequency."""


class InsufficientPeaks(RuntimeError):
    """Raised when fewer peaks qualify than levels were requested, or when
    the line fit they seed fails its certificate."""


@dataclass(frozen=True)
class TimeSeries:
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"sample spacing must be finite and positive, "
                             f"got {self.dt}")
        freeze_arrays(self, "samples")
        if self.samples.ndim != 1 or len(self.samples) < 2:
            raise ValueError(f"time series must be 1-D with at least 2 "
                             f"samples, got shape {self.samples.shape}")
        if not np.isfinite(self.samples).all():
            raise ValueError("time series holds non-finite samples")

    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.samples))

    def write_csv(self, path) -> None:
        _write_csv(path, "t,value", self.times(), self.samples)


@dataclass(frozen=True)
class Spectrum:
    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, "frequencies", "values")
        if not (self.frequencies.ndim == self.values.ndim == 1
                and len(self.frequencies) == len(self.values) >= 2):
            raise ValueError(f"frequencies and values must be 1-D of one "
                             f"length, at least 2 bins, got shapes "
                             f"{self.frequencies.shape} and {self.values.shape}")
        # detect_levels slices the positive tail by position
        if not (self.frequencies[1:] > self.frequencies[:-1]).all():
            raise ValueError("frequencies must strictly ascend")

    @property
    def bin_width(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    def write_csv(self, path) -> None:
        _write_csv(path, "omega,re_value", self.frequencies, self.values)


@dataclass(frozen=True)
class EnergyLevels:
    """Levels (ascending), their peak heights (detect_levels) or fitted
    line weights (fit_levels), and the bin width of the spectrum they came
    from."""

    levels: np.ndarray
    heights: np.ndarray
    bin_width: float

    def __post_init__(self):
        freeze_arrays(self, "levels", "heights")


def _write_csv(path, header: str, *columns) -> None:
    # repr keeps full double precision in a stable, round-trippable form
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def default_samples(cfg: MeasurementConfig) -> int:
    """Sample count used when none is given; shot readout takes more to
    average down its noise."""
    return DEFAULT_SAMPLES_EXACT if cfg.shots is None else DEFAULT_SAMPLES_SHOTS


def check_sample_count(m: int) -> None:
    """The transform needs a power of two of at least 16 samples, and a
    series holds at most MAX_SAMPLES."""
    if not is_int(m) or m < 16 or m & (m - 1) or m > MAX_SAMPLES:
        raise ValueError(f"sample count must be a power of two from 16 to "
                         f"{MAX_SAMPLES}, got {m!r}")


def energy_scale_estimate(d: PauliCoefficients) -> float:
    """Upper bound sum|d_i| on the top level energy."""
    return float(np.abs(d.as_array()).sum())


def default_dt(d: PauliCoefficients) -> float:
    """Sample spacing placing the estimated top frequency 2 sum|d_i| at
    NYQUIST_HEADROOM of the one-sided bandwidth pi/dt; ValueError at zero."""
    if not (scale := energy_scale_estimate(d)):
        raise ValueError("energy scale sum|d_i| is zero, so there is no default dt")
    return NYQUIST_HEADROOM * math.pi / (2.0 * scale)


def sample_series(d: PauliCoefficients, dt: float | None = None,
                  m: int | None = None,
                  cfg: MeasurementConfig | None = None) -> TimeSeries:
    """Probe expectation sampled at t_j = j dt for j = 0 .. m-1.

    Refuses a dt that is not finite and positive (ValueError) before any
    circuit runs, and spacings that alias the estimated top frequency:
    requires pi/dt > 2 sum|d_i|, and that estimate finite.  Shot readout is one
    draw over the exact series z: q0 = 0 counts N0 ~ Binomial(S, (1 + z)/2)
    from default_rng(cfg.seed), read out as (2 N0 - S)/S, so the draws are
    independent sample to sample yet fully reproducible from cfg.seed.
    """
    cfg = cfg or MeasurementConfig()
    if m is None:
        m = default_samples(cfg)
    check_sample_count(m)
    top = 2.0 * energy_scale_estimate(d)
    if not math.isfinite(top):
        raise ValueError(f"estimated top frequency {top} is not finite")
    if dt is None:
        dt = default_dt(d)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if math.pi / dt <= top:
        raise NyquistViolation(
            f"dt={dt} gives bandwidth {math.pi / dt:.4g} <= estimated top "
            f"frequency {top:.4g}")
    samples = np.array([probe_expectation(d, j * dt) for j in range(m)])
    if cfg.shots is not None:
        p0 = np.clip(0.5 * (1.0 + samples), 0.0, 1.0)
        n0 = np.random.default_rng(cfg.seed).binomial(cfg.shots, p0)
        samples = (2.0 * n0 - cfg.shots) / cfg.shots
    return TimeSeries(dt=dt, samples=samples)


@functools.lru_cache(maxsize=4)
def hann_half_window(m: int) -> np.ndarray:
    """cos(pi j / (2m))**2 for j = 0 .. m-1: the descending half of a Hann
    bell whose even extension spans the 2m - 1 points of dft_real's sum.
    The array is read-only because the cache hands the same one to every
    caller; the cache holds a few lengths, so its memory stays bounded."""
    w = np.cos(0.5 * math.pi * np.arange(m) / m) ** 2
    w.setflags(write=False)
    return w


def dft_real(ts: TimeSeries, window: str = DEFAULT_WINDOW) -> Spectrum:
    """Real spectrum of the even extension of the series.

    values[k] = (1/M) sum_{j=-(M-1)}^{M-1} w(|j|) s[|j|] cos(w_k j dt)
    at w_k = 2 pi k / (M dt), returned shifted so frequencies ascend from
    -pi/dt.  window is "hann" (w = hann_half_window) or "rect" (w = 1); with
    "rect" a unit-amplitude on-bin cosine gives a peak value of 1 - 1/M.
    With ws = w s the sum is 2 Re(rfft(ws))[k] - ws[0], the j = 0 term
    counted once; it is even in k, so the negative-frequency half is the
    mirror of bins 1 .. M//2.
    """
    s = ts.samples
    m = len(s)
    if window == "hann":
        s = s * hann_half_window(m)
    elif window != "rect":
        raise ValueError(f"unknown window {window!r}")
    half = np.fft.rfft(s).real
    half *= 2.0
    half -= s[0]
    half /= m
    values = np.concatenate((half[m // 2:0:-1], half[:m - m // 2]))
    # the same products as fftshift(2 pi fftfreq(m, dt)), bit for bit
    freqs = np.arange(-(m // 2), m - m // 2, dtype=float)
    freqs *= 1.0 / (m * ts.dt)
    freqs *= 2.0 * math.pi
    return Spectrum(frequencies=freqs, values=values)


def detect_levels(spec: Spectrum, n_expected: int = 4,
                  min_prominence: float = DEFAULT_PROMINENCE) -> EnergyLevels:
    """Recover energy levels from positive-frequency spectral peaks.

    A peak is a strict local maximum at w > 0, away from either end of the
    array, whose height exceeds min_prominence times the tallest
    positive-frequency value.  Each peak frequency is refined to the vertex
    of the parabola through its three bins, and the level is half the
    refined frequency.  If more peaks qualify than requested the tallest
    n_expected are kept, the lower frequency winning a tie; if fewer,
    InsufficientPeaks is raised.  ValueError unless n_expected is an integer >= 1.
    """
    if not is_int(n_expected) or n_expected < 1:
        raise ValueError(f"n_expected must be an integer >= 1, got {n_expected!r}")
    freqs, vals = spec.frequencies, spec.values
    # the grid ascends, so the bins at w > 0 are one tail of the array
    first = int(np.searchsorted(freqs, 0.0, side="right"))
    if first == len(freqs):
        raise InsufficientPeaks("spectrum has no positive-frequency bin")
    floor = min_prominence * vals[first:].max()
    lo = max(first, 1)
    # views of every inner positive bin and its two neighbours; no copies
    ym, y0, yp = vals[lo - 1:-2], vals[lo:-1], vals[lo + 1:]
    peaks = lo + np.nonzero((y0 > ym) & (y0 > yp) & (y0 > floor))[0]
    if len(peaks) < n_expected:
        raise InsufficientPeaks(
            f"found {len(peaks)} peak(s) above prominence {min_prominence}, "
            f"needed {n_expected}")
    ym, y0, yp = vals[peaks - 1], vals[peaks], vals[peaks + 1]
    # vertex offset in bins; y0 is the strict maximum, so it lies in (-1, 1)
    denom = 2.0 * (2.0 * y0 - ym - yp)
    shift = np.divide(yp - ym, denom, out=np.zeros_like(denom), where=denom != 0.0)
    kept = np.sort(np.argsort(-y0, kind="stable")[:n_expected])
    omega = freqs[peaks[kept]] + shift[kept] * spec.bin_width
    return EnergyLevels(levels=0.5 * omega, heights=y0[kept],
                        bin_width=spec.bin_width)


def _normal_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares x of a x = b, by lstsq on the normal equations.

    The line fit's columns are well conditioned (at most 16 over a grid
    wider than the supported ranges), so squaring that costs nothing the
    iteration does not correct: it stops where a.T @ residual vanishes
    either way.  The tall matrix stays out of LAPACK, whose threaded
    least-squares routines run several times slower when another process
    holds the other cores.
    """
    return np.linalg.lstsq(a.T @ a, a.T @ b, rcond=None)[0]


def fit_levels(ts: TimeSeries, seed: EnergyLevels) -> EnergyLevels:
    """Refine seed levels by a least-squares fit of the series to
    s(t) = sum_k c_k cos(2 E_k t), one line per seed level.

    Variable projection: at given frequencies the weights c are a linear
    least-squares solve, and a Gauss-Newton step, solved by lstsq beside
    the weight columns, moves the frequencies.  These are carried in bins
    of the series' own transform, 2 pi / (M dt), so a line u bins up has
    phase 2 pi j u / M at sample j.  InsufficientPeaks names the check that
    failed: the step must fall to FIT_TOL bins within FIT_MAX_ITER
    iterations, no line may end over FIT_MAX_SHIFT bins from its seed, and
    every weight must be positive.  Returns the levels ascending, their
    weights as heights, and the seed's bin width; ValueError if that width
    is not the series' own.
    """
    m = len(ts.samples)
    width = 2.0 * math.pi / (m * ts.dt)
    if not math.isclose(seed.bin_width, width, rel_tol=1e-9):
        raise ValueError(f"seed bin width {seed.bin_width} is not the series' {width}")
    n = len(seed.levels)
    start = 2.0 * seed.levels / width
    u = start.copy()
    phase = (2.0 * math.pi / m) * np.arange(m)
    # column-major, so each column the ufuncs write is one contiguous run
    jac = np.empty((m, 2 * n), order="F")
    lines, slopes = jac[:, :n], jac[:, n:]
    for _ in range(FIT_MAX_ITER):
        np.multiply.outer(phase, u, out=slopes)
        np.cos(slopes, out=lines)
        weights = _normal_lstsq(lines, ts.samples)
        resid = ts.samples - lines @ weights
        # d/du of c cos(phase u) is -c phase sin(phase u)
        np.sin(slopes, out=slopes)
        slopes *= phase[:, None]
        slopes *= -weights
        step = _normal_lstsq(jac, resid)[n:]
        u += step
        if np.abs(step).max() <= FIT_TOL:
            break
    else:
        raise InsufficientPeaks(f"line fit did not settle in {FIT_MAX_ITER} iterations "
                                f"(last step {np.abs(step).max():.3g} bins)")
    far = int(np.argmax(np.abs(u - start)))
    if not abs(u[far] - start[far]) <= FIT_MAX_SHIFT:
        raise InsufficientPeaks(
            f"line fit moved the level seeded at {seed.levels[far]:.6g} by "
            f"{abs(u[far] - start[far]):.3g} bins, more than {FIT_MAX_SHIFT:g}")
    weak = int(np.argmin(weights))
    if not weights[weak] > 0.0:
        raise InsufficientPeaks(
            f"line fit gave the level at {0.5 * width * u[weak]:.6g} the weight "
            f"{weights[weak]:.3g}, not above 0")
    order = np.argsort(u)
    return EnergyLevels(levels=0.5 * width * u[order], heights=weights[order],
                        bin_width=seed.bin_width)


def match_levels(detected: EnergyLevels, reference) -> np.ndarray:
    """Pair detected and reference levels in ascending order and return the
    read-only array of absolute errors."""
    ref = np.sort(np.asarray(reference, dtype=float))
    det = detected.levels
    if len(det) != len(ref):
        raise ValueError(f"{len(det)} detected levels vs {len(ref)} reference")
    errs = np.abs(det - ref)
    errs.setflags(write=False)
    return errs
