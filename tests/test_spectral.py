"""Sampling, the even-extension transform, and peak-based level recovery.

One subtlety gets its own regression test here: the even extension folds
s[r] with s[M-r], and a cosine sitting exactly halfway between bins folds
to (almost) nothing under the rectangular window.  The bell window splits
such a line into two on-bin components instead of cancelling it, which is
why the sweep pipeline runs windowed.
"""

import math

import numpy as np
import pytest

from qdosc import (InsufficientPeaks, MeasurementConfig, NyquistViolation,
                   Spectrum, TimeSeries, coeffs_h0, default_dt, detect_levels,
                   dft_real, energy_scale_estimate, match_levels,
                   model_coefficients, PauliCoefficients, exact_diag,
                   reconstruct, sample_series, spectrum_h0)
from qdosc import spectral
from qdosc.spectral import MAX_SAMPLES, check_sample_count, hann_half_window


def make_series(freqs, m=512, dt=0.1, amps=None):
    t = dt * np.arange(m)
    amps = amps or [1.0] * len(freqs)
    s = sum(a * np.cos(w * t) for a, w in zip(amps, freqs))
    return TimeSeries(dt=dt, samples=s)


class TestSampleSeries:
    def test_starts_at_one(self):
        ts = sample_series(coeffs_h0(1.0), dt=0.1, m=16)
        assert ts.samples[0] == pytest.approx(1.0)

    def test_closed_form_sample(self):
        # sample 5 at dt = 0.2 is the equal-weight cosine sum at t = 1
        ts = sample_series(coeffs_h0(1.0), dt=0.2, m=16)
        assert ts.samples[5] == pytest.approx(0.1469685622685563, abs=1e-12)

    def test_time_axis(self):
        ts = sample_series(coeffs_h0(1.0), dt=0.25, m=16)
        np.testing.assert_allclose(ts.times(), 0.25 * np.arange(16), atol=0.0)

    def test_aliasing_guard(self):
        # sum|d_i| = 3.5 at q = 1, so dt = 0.5 leaves pi/dt below 2*3.5
        with pytest.raises(NyquistViolation):
            sample_series(coeffs_h0(1.0), dt=0.5, m=16)

    def test_default_spacing_keeps_margin(self):
        d = model_coefficients("ho", 1.7, gamma=1.0)
        dt = default_dt(d)
        assert math.pi / dt == pytest.approx(2.5 * energy_scale_estimate(d))
        sample_series(d, dt=dt, m=16)  # must not raise

    def test_rejects_an_overflowing_frequency_estimate(self):
        # every coefficient is finite, but 2 sum|d_i| overflows to inf
        d = model_coefficients("ao", 1.0, delta=5e306)
        assert np.isfinite(d.as_array()).all()
        with pytest.raises(ValueError, match="not finite"):
            sample_series(d, m=16)

    @pytest.mark.parametrize("bad_dt", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_a_bad_spacing_before_any_circuit_runs(self, bad_dt, monkeypatch):
        calls = []
        monkeypatch.setattr(spectral, "probe_expectation",
                            lambda d, t: calls.append(t) or 1.0)
        with pytest.raises(ValueError, match="finite and positive"):
            sample_series(coeffs_h0(1.0), dt=bad_dt, m=16)
        assert calls == []

    def test_zero_energy_scale_has_no_default_spacing(self, monkeypatch):
        # all-zero coefficients: the default dt would divide by sum|d_i| = 0
        calls = []
        monkeypatch.setattr(spectral, "probe_expectation",
                            lambda d, t: calls.append(t) or 1.0)
        zero = PauliCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="energy scale"):
            default_dt(zero)
        with pytest.raises(ValueError, match="energy scale"):
            sample_series(zero, m=16)
        assert calls == []

    @pytest.mark.parametrize("bad_m", [8, 12, 100, 1000, 16.0, 32.5])
    def test_rejects_bad_sample_counts(self, bad_m):
        with pytest.raises(ValueError):
            sample_series(coeffs_h0(1.0), dt=0.1, m=bad_m)

    def test_sample_count_is_capped(self):
        # 2^40 is a power of two but would mean 2^40 circuit runs
        check_sample_count(MAX_SAMPLES)
        for m in (2 * MAX_SAMPLES, 2**40):
            with pytest.raises(ValueError, match="power of two"):
                check_sample_count(m)

    def test_shot_series_is_seeded(self):
        cfg = MeasurementConfig(256, seed=9)
        a = sample_series(coeffs_h0(1.0), dt=0.2, m=16, cfg=cfg)
        b = sample_series(coeffs_h0(1.0), dt=0.2, m=16, cfg=cfg)
        np.testing.assert_array_equal(a.samples, b.samples)


class TestTransform:
    def test_constant_series_peaks_only_at_zero(self):
        spec = dft_real(TimeSeries(dt=0.1, samples=np.ones(64)), window="rect")
        k0 = np.argmin(np.abs(spec.frequencies))
        assert spec.frequencies[k0] == 0.0
        assert spec.values[k0] == pytest.approx(2.0 - 1.0 / 64.0)
        assert spec.values[spec.frequencies > 0].max() < 0.0  # pure leakage

    def test_on_bin_cosine(self):
        m, dt = 256, 0.1
        w0 = 2.0 * math.pi * 16 / (m * dt)
        spec = dft_real(make_series([w0], m=m, dt=dt), window="rect")
        for sign in (+1, -1):
            k = np.argmin(np.abs(spec.frequencies - sign * w0))
            assert spec.frequencies[k] == pytest.approx(sign * w0)
            assert spec.values[k] == pytest.approx(1.0 - 1.0 / m, abs=1e-12)

    def test_frequency_grid(self):
        spec = dft_real(TimeSeries(dt=0.5, samples=np.zeros(32)))
        assert spec.bin_width == pytest.approx(2.0 * math.pi / (32 * 0.5))
        assert np.all(np.diff(spec.frequencies) > 0)
        assert spec.frequencies[0] == pytest.approx(-math.pi / 0.5)

    @pytest.mark.parametrize("dt", [0.1, 0.19642182613616424, 0.037, 3.0])
    @pytest.mark.parametrize("m", [2, 15, 16, 17, 33, 4096])
    def test_frequency_grid_is_shifted_fftfreq_bit_for_bit(self, m, dt):
        spec = dft_real(TimeSeries(dt=dt, samples=np.ones(m)))
        want = np.fft.fftshift(2.0 * math.pi * np.fft.fftfreq(m, d=dt))
        assert np.array_equal(spec.frequencies, want)

    @pytest.mark.parametrize("window", ["rect", "hann"])
    @pytest.mark.parametrize("m", [15, 16, 17, 33])
    def test_values_follow_the_docstring_bit_for_bit(self, m, window):
        s = np.random.default_rng(m).standard_normal(m)
        ws = s if window == "rect" else s * np.cos(0.5 * math.pi * np.arange(m) / m) ** 2
        half = (2.0 * np.fft.rfft(ws).real - ws[0]) / m
        want = np.concatenate((half[m // 2:0:-1], half[:m - m // 2]))
        got = dft_real(TimeSeries(dt=0.1, samples=s), window=window).values
        assert np.array_equal(got, want)

    def test_hann_half_window_is_cached_and_read_only(self):
        for m in (16, 17, 4096):
            w = hann_half_window(m)
            assert hann_half_window(m) is w
            with pytest.raises(ValueError):
                w[0] = 0.5
            j = np.arange(m)
            assert np.array_equal(w, np.cos(0.5 * math.pi * j / m) ** 2)
        assert hann_half_window.cache_info().maxsize is not None  # bounded

    def test_even_in_frequency(self):
        ts = sample_series(model_coefficients("ho", 1.3, gamma=0.5), m=64)
        spec = dft_real(ts)
        pos = spec.frequencies > 0
        for w, v in zip(spec.frequencies[pos], spec.values[pos]):
            k = np.argmin(np.abs(spec.frequencies + w))
            assert v == pytest.approx(spec.values[k], abs=1e-12)

    def test_parseval_rectangular(self):
        ts = sample_series(model_coefficients("ho", 1.3, gamma=0.5), m=128)
        spec = dft_real(ts, window="rect")
        s = ts.samples
        folded = s.copy()
        folded[1:] += s[:0:-1]  # the transform's even extension, re-derived
        assert len(s) * np.sum(spec.values**2) == pytest.approx(
            np.sum(folded**2), rel=1e-8)

    @pytest.mark.parametrize("window", ["rect", "hann"])
    @pytest.mark.parametrize("m", [15, 16, 17, 64, 256])
    def test_matches_the_cosine_sum(self, m, window):
        # the docstring's two-sided sum, evaluated term by term in O(M^2)
        dt = 0.3
        s = np.random.default_rng(m).standard_normal(m)
        spec = dft_real(TimeSeries(dt=dt, samples=s), window=window)
        omega = 2.0 * math.pi * np.arange(-(m // 2), m - m // 2) / (m * dt)
        np.testing.assert_allclose(spec.frequencies, omega, rtol=1e-15, atol=0.0)
        j = np.arange(-(m - 1), m)
        w = np.ones(2 * m - 1) if window == "rect" else \
            np.cos(0.5 * math.pi * np.abs(j) / m) ** 2
        terms = (w * s[np.abs(j)])[None, :] * np.cos(np.outer(omega, j * dt))
        np.testing.assert_allclose(spec.values, terms.sum(axis=1) / m,
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("window", ["rect", "hann"])
    @pytest.mark.parametrize("m", [15, 16, 17, 64])
    def test_spectrum_is_exactly_even(self, m, window):
        # bin 0 of an even length is -pi/dt, which has no positive partner
        s = np.random.default_rng(m).standard_normal(m)
        vals = dft_real(TimeSeries(dt=0.1, samples=s), window=window).values
        mirrored = vals[1:] if m % 2 == 0 else vals
        assert np.array_equal(mirrored, mirrored[::-1])

    def test_unknown_window(self):
        with pytest.raises(ValueError):
            dft_real(TimeSeries(dt=0.1, samples=np.zeros(16)), window="flat")

    def test_half_bin_fold_cancellation(self):
        """Rectangular window nulls a half-bin-offset line; the bell window
        keeps it detectable within half a bin."""
        m, dt = 512, 0.1
        w_on = 2.0 * math.pi * 20.0 / (m * dt)
        w_off = 2.0 * math.pi * 60.47 / (m * dt)
        ts = make_series([w_on, w_off], m=m, dt=dt)

        rect = dft_real(ts, window="rect")
        pos = rect.frequencies > 0
        k = np.argmin(np.abs(rect.frequencies[pos] - w_off))
        band = rect.values[pos][k - 1:k + 2].max()
        assert band < 0.1 * rect.values[pos].max()  # line nearly gone

        hann = dft_real(ts, window="hann")
        lv = detect_levels(hann, n_expected=2, min_prominence=0.05)
        got = 2.0 * lv.levels  # peak frequencies
        assert abs(got[0] - w_on) < 0.5 * hann.bin_width
        assert abs(got[1] - w_off) < 0.5 * hann.bin_width


def loop_detect(spec, n_expected, min_prominence):
    """The peak rule written bin by bin: (levels, heights), or None when
    fewer than n_expected peaks qualify."""
    freqs, vals = spec.frequencies, spec.values
    floor = min_prominence * vals[freqs > 0].max()
    peaks = []
    for k in range(1, len(vals) - 1):
        ym, y0, yp = vals[k - 1], vals[k], vals[k + 1]
        if freqs[k] > 0 and y0 > ym and y0 > yp and y0 > floor:
            shift = (yp - ym) / (2.0 * (2.0 * y0 - ym - yp))
            peaks.append((freqs[k] + shift * spec.bin_width, y0))
    if len(peaks) < n_expected:
        return None
    peaks.sort(key=lambda p: -p[1])
    kept = sorted(peaks[:n_expected])
    return np.array([0.5 * w for w, _ in kept]), np.array([h for _, h in kept])


def spikes(heights, m=16, dt=0.1):
    """Spectrum that is zero apart from the given {bin index: value}."""
    vals = np.zeros(m)
    for k, h in heights.items():
        vals[k] = h
    return Spectrum(frequencies=np.fft.fftshift(2.0 * math.pi * np.fft.fftfreq(m, d=dt)),
                    values=vals)


class TestDetectLevels:
    def test_matches_a_per_bin_loop(self):
        rng = np.random.default_rng(11)
        spectra = [dft_real(make_series([2.0, 3.1, 5.7], amps=[1.0, 0.4, 0.7]),
                            window=window) for window in ("rect", "hann")]
        for m in (16, 64, 512, 4096):
            freqs = np.fft.fftshift(2.0 * math.pi * np.fft.fftfreq(m, d=0.1))
            for _ in range(4):
                vals = rng.normal(size=m)
                spectra.append(Spectrum(frequencies=freqs, values=vals))
                # rounded values tie often, between neighbours and between peaks
                spectra.append(Spectrum(frequencies=freqs, values=np.round(vals, 1)))
        for spec in spectra:
            for n in (1, 3, 4):
                for prominence in (0.0, 0.05, 0.5):
                    want = loop_detect(spec, n, prominence)
                    if want is None:
                        with pytest.raises(InsufficientPeaks):
                            detect_levels(spec, n, prominence)
                        continue
                    lv = detect_levels(spec, n, prominence)
                    assert np.array_equal(lv.levels, want[0])
                    assert np.array_equal(lv.heights, want[1])

    def test_grid_starting_at_zero(self):
        # the first positive bin is index 1, the first the peak rule may
        # take; the w = 0 bin sets no floor, even when it is the tallest
        rng = np.random.default_rng(12)
        for m in (16, 17, 512):
            freqs = 0.25 * np.arange(m)
            for head in ((5.0, 50.0), (100.0, 50.0)):
                for vals in (rng.normal(size=m), np.round(rng.normal(size=m), 1)):
                    vals[:2] = head
                    spec = Spectrum(frequencies=freqs, values=vals)
                    for n in (1, 3):
                        for prominence in (0.05, 0.5):
                            want = loop_detect(spec, n, prominence)
                            if want is None:
                                with pytest.raises(InsufficientPeaks):
                                    detect_levels(spec, n, prominence)
                                continue
                            lv = detect_levels(spec, n, prominence)
                            assert np.array_equal(lv.levels, want[0])
                            assert np.array_equal(lv.heights, want[1])
                            assert (50.0 in lv.heights) == (head[0] < 50.0)

    def test_equal_heights_keep_the_lower_frequency(self):
        spec = spikes({10: 1.0, 13: 1.0})
        lv = detect_levels(spec, n_expected=1, min_prominence=0.5)
        assert lv.levels[0] == 0.5 * spec.frequencies[10]

    def test_last_bin_is_never_a_peak(self):
        spec = spikes({11: 1.0, 15: 5.0})
        lv = detect_levels(spec, n_expected=1, min_prominence=0.1)
        assert lv.levels[0] == 0.5 * spec.frequencies[11]
        with pytest.raises(InsufficientPeaks,
                           match=r"^found 1 peak\(s\) above prominence 0.1, needed 2$"):
            detect_levels(spec, n_expected=2, min_prominence=0.1)

    def test_keeps_the_tallest_in_ascending_order(self):
        spec = spikes({9: 0.9, 11: 0.5, 13: 1.0})
        lv = detect_levels(spec, n_expected=2, min_prominence=0.1)
        np.testing.assert_array_equal(lv.levels, 0.5 * spec.frequencies[[9, 13]])
        np.testing.assert_array_equal(lv.heights, [0.9, 1.0])

    def test_no_levels_requested(self):
        # a count below one is refused, not read as a slice bound
        spec = dft_real(make_series([2.0, 4.0, 6.0, 8.0, 10.0]), window="hann")
        assert len(detect_levels(spec, n_expected=5, min_prominence=0.05).levels) == 5
        for bad in (0, -1, 2.5, 4.0, True):
            with pytest.raises(ValueError, match="n_expected"):
                detect_levels(spec, n_expected=bad, min_prominence=0.05)

    def test_single_line_cannot_make_two(self):
        spec = dft_real(make_series([2.0]))
        with pytest.raises(InsufficientPeaks):
            detect_levels(spec, n_expected=2, min_prominence=0.5)

    @pytest.mark.parametrize("freqs", [np.arange(-4.0, 0.0), np.arange(-4.0, 1.0)])
    def test_spectrum_without_a_positive_bin(self, freqs):
        # the second grid ends at w = 0, which is not a positive bin either
        spec = Spectrum(freqs, np.zeros(len(freqs)))
        with pytest.raises(InsufficientPeaks, match="no positive-frequency bin"):
            detect_levels(spec)

    def test_undeformed_reference_case(self):
        ts = sample_series(coeffs_h0(1.0), dt=0.05, m=4096)
        lv = detect_levels(dft_real(ts), n_expected=4)
        tol = math.pi / (4096 * 0.05)
        np.testing.assert_allclose(lv.levels, [0.5, 1.5, 2.5, 3.5], atol=tol)
        assert np.all(np.diff(lv.levels) > 0)
        assert np.all(lv.heights > 0)
        assert lv.bin_width == pytest.approx(2.0 * math.pi / (4096 * 0.05))

    def test_library_defaults_recover_the_quartic_point(self):
        # Hann with prominence 0.05 by default; a rectangular window with
        # prominence 0.2 finds only three peaks here
        d = model_coefficients("ao", 0.8, delta=0.1)
        spec = dft_real(sample_series(d, m=2048))
        lv = detect_levels(spec, 4)
        errs = match_levels(lv, exact_diag(reconstruct(d)))
        assert errs.max() < 0.5 * spec.bin_width
        with pytest.raises(InsufficientPeaks, match="found 3 peak"):
            detect_levels(dft_real(sample_series(d, m=2048), window="rect"), 4,
                          min_prominence=0.2)

    def test_parabolic_refinement_beats_bin_rounding(self):
        m, dt = 256, 0.1
        w0 = 2.0 * math.pi * (30.0 + 0.3) / (m * dt)  # 0.3 bins off grid
        lv = detect_levels(dft_real(make_series([w0], m=m, dt=dt),
                                    window="hann"),
                           n_expected=1, min_prominence=0.2)
        # nearest-bin rounding would be off by 0.3 bins; the parabola's
        # residual bias on this window is about 0.21
        assert abs(2.0 * lv.levels[0] - w0) < 0.25 * lv.bin_width


def bin_lines(bins, weights, m=256, dt=0.1):
    """Series of cosines at the given (fractional) bins of an m-point grid,
    and EnergyLevels seeding each of them at the given bins."""
    width = 2.0 * math.pi / (m * dt)
    s = sum(c * np.cos(2.0 * math.pi * u * np.arange(m) / m)
            for u, c in zip(bins, weights))
    return TimeSeries(dt=dt, samples=s), width


def seed_at(bins, width):
    return spectral.EnergyLevels(levels=0.5 * width * np.asarray(bins, dtype=float),
                                 heights=np.ones(len(bins)), bin_width=width)


class TestFitLevels:
    def test_recovers_off_grid_lines_from_their_fft_peaks(self):
        ts, width = bin_lines([20.3, 23.6, 41.15, 70.5], [0.4, 0.3, 0.2, 0.1])
        seed = detect_levels(dft_real(ts), 4)
        lv = spectral.fit_levels(ts, seed)
        np.testing.assert_allclose(2.0 * lv.levels / width, [20.3, 23.6, 41.15, 70.5],
                                   rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(lv.heights, [0.4, 0.3, 0.2, 0.1], atol=1e-9)
        assert lv.bin_width == seed.bin_width

    def test_returns_ascending_levels_for_unordered_seeds(self):
        ts, width = bin_lines([20.3, 30.6], [0.7, 0.3])
        lv = spectral.fit_levels(ts, seed_at([30.5, 20.2], width))
        np.testing.assert_allclose(2.0 * lv.levels / width, [20.3, 30.6], atol=1e-10)
        np.testing.assert_allclose(lv.heights, [0.7, 0.3], atol=1e-9)

    def test_beats_the_parabolic_vertex_on_the_undeformed_series(self):
        ts = sample_series(coeffs_h0(1.0), dt=0.05, m=512)
        seed = detect_levels(dft_real(ts), 4)
        lv = spectral.fit_levels(ts, seed)
        assert np.abs(seed.levels - spectrum_h0(1.0)).max() > 1e-3
        np.testing.assert_allclose(lv.levels, spectrum_h0(1.0), rtol=0.0, atol=1e-12)

    def test_a_negative_weight_fails_and_names_the_weight(self):
        ts, width = bin_lines([20.3, 40.7], [1.0, -0.3])
        with pytest.raises(InsufficientPeaks, match=r"weight -0\.3, not above 0"):
            spectral.fit_levels(ts, seed_at([20.3, 40.7], width))

    def test_a_line_too_far_from_its_seed_fails_and_names_the_shift(self, monkeypatch):
        # the fit settles on the line 0.3 bins off; a 0.1-bin limit refuses it
        ts, width = bin_lines([20.3], [1.0])
        assert spectral.fit_levels(ts, seed_at([20.6], width)).levels[0] == \
            pytest.approx(0.5 * width * 20.3, abs=1e-12)
        monkeypatch.setattr(spectral, "FIT_MAX_SHIFT", 0.1)
        with pytest.raises(InsufficientPeaks, match=r"by 0\.3 bins, more than 0\.1"):
            spectral.fit_levels(ts, seed_at([20.6], width))

    def test_a_fit_that_does_not_settle_fails(self, monkeypatch):
        ts, width = bin_lines([20.3], [1.0])
        monkeypatch.setattr(spectral, "FIT_MAX_ITER", 1)
        with pytest.raises(InsufficientPeaks, match="did not settle in 1 iterations"):
            spectral.fit_levels(ts, seed_at([20.6], width))

    def test_seed_from_another_grid_is_refused(self):
        ts, width = bin_lines([20.3], [1.0])
        with pytest.raises(ValueError, match="bin width"):
            spectral.fit_levels(ts, seed_at([20.3], 2.0 * width))


class TestPencilLevels:
    def test_recovers_lines_less_than_a_bin_apart(self):
        bins = [20.3, 20.9, 41.15, 70.5]
        ts, width = bin_lines(bins, [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(InsufficientPeaks, match="found 3 peak"):
            detect_levels(dft_real(ts), 4)
        seed = spectral.pencil_levels(ts, 4)
        assert seed.bin_width == width
        np.testing.assert_allclose(seed.heights, [0.4, 0.3, 0.2, 0.1], atol=1e-9)
        lv = spectral.fit_levels(ts, seed)
        np.testing.assert_allclose(lv.levels, 0.5 * width * np.array(bins),
                                   rtol=0.0, atol=1e-12)

    def test_a_line_without_weight_fails_the_singular_value_check(self):
        ts, _ = bin_lines([20.3, 33.6, 41.15, 70.5], [0.4, 0.3, 0.0, 0.1])
        with pytest.raises(InsufficientPeaks, match=r"singular value 8 is .* of the "
                                                    r"first, not above 1e-09"):
            spectral.pencil_levels(ts, 4)
        with pytest.raises(InsufficientPeaks, match="singular value 8 is 0 of the first"):
            spectral.pencil_levels(TimeSeries(ts.dt, np.zeros(256)), 4)

    def test_a_decaying_series_fails_the_unit_circle_check(self):
        ts, _ = bin_lines([20.3, 33.6, 41.15, 70.5], [0.4, 0.3, 0.2, 0.1])
        decayed = TimeSeries(ts.dt, ts.samples * np.exp(-np.arange(256) / 200.0))
        with pytest.raises(InsufficientPeaks, match=r"modulus 0\.99501\d*, more than "
                                                    r"1e-06 off the unit circle"):
            spectral.pencil_levels(decayed, 4)

    def test_a_series_too_short_for_2n_poles_fails(self):
        ts, width = bin_lines([2.3, 3.6, 4.15, 7.5], [0.4, 0.3, 0.2, 0.1], m=16)
        np.testing.assert_allclose(spectral.pencil_levels(ts, 4).levels,
                                   0.5 * width * np.array([2.3, 3.6, 4.15, 7.5]),
                                   rtol=1e-9)
        short = TimeSeries(ts.dt, ts.samples[:15])
        with pytest.raises(InsufficientPeaks, match="15 samples cannot hold 8 poles, "
                                                    "it needs at least 16"):
            spectral.pencil_levels(short, 4)

    def test_poles_on_the_real_axis_fail_the_count(self, monkeypatch):
        # a real series gives conjugate pole pairs; fold them onto the real axis
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.abs(eigvals(a)))
        ts, _ = bin_lines([20.3, 33.6, 41.15, 70.5], [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(InsufficientPeaks, match=r"0 pole\(s\) have a positive "
                                                    r"angle, needed 4"):
            spectral.pencil_levels(ts, 4)

    @pytest.mark.parametrize("n", [0, -1, 2.0, "4"])
    def test_line_count_must_be_a_positive_integer(self, n):
        ts, _ = bin_lines([20.3], [1.0])
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            spectral.pencil_levels(ts, n)

    def test_a_series_longer_than_the_cap_is_refused(self):
        ts, _ = bin_lines([20.3], [1.0], m=spectral.PENCIL_MAX_SAMPLES)
        spectral.pencil_levels(ts, 1)
        ts, _ = bin_lines([20.3], [1.0], m=spectral.PENCIL_MAX_SAMPLES + 1)
        with pytest.raises(ValueError, match="reads at most 1024 samples, got 1025"):
            spectral.pencil_levels(ts, 1)


class TestMatchLevels:
    def test_exact_match(self):
        ts = sample_series(coeffs_h0(1.0), dt=0.05, m=1024)
        lv = detect_levels(dft_real(ts, window="hann"), n_expected=4,
                           min_prominence=0.05)
        errs = match_levels(lv, spectrum_h0(1.0))
        np.testing.assert_array_equal(errs, np.abs(lv.levels - spectrum_h0(1.0)))
        assert errs.max() < math.pi / (1024 * 0.05)
        with pytest.raises(ValueError):
            errs[0] = 0.0

    def test_accepts_plain_arrays(self):
        ts = sample_series(coeffs_h0(1.0), dt=0.05, m=1024)
        lv = detect_levels(dft_real(ts, window="hann"), n_expected=4,
                           min_prominence=0.05)
        errs = match_levels(lv, [3.5, 0.5, 2.5, 1.5])  # paired after sorting
        assert errs.shape == (4,)
        assert errs.max() < math.pi / (1024 * 0.05)

    def test_length_mismatch(self):
        ts = sample_series(coeffs_h0(1.0), dt=0.05, m=1024)
        lv = detect_levels(dft_real(ts, window="hann"), n_expected=4,
                           min_prominence=0.05)
        with pytest.raises(ValueError):
            match_levels(lv, [0.5, 1.5])


def test_csv_round_trip(tmp_path):
    ts = sample_series(coeffs_h0(1.0), dt=0.2, m=16)
    ts_path = tmp_path / "series.csv"
    ts.write_csv(ts_path)
    lines = ts_path.read_text().splitlines()
    assert lines[0] == "t,value"
    data = np.loadtxt(ts_path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], ts.times())
    np.testing.assert_array_equal(data[:, 1], ts.samples)

    spec = dft_real(ts)
    sp_path = tmp_path / "spec.csv"
    spec.write_csv(sp_path)
    assert sp_path.read_text().splitlines()[0] == "omega,re_value"
    data = np.loadtxt(sp_path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], spec.frequencies)
    np.testing.assert_array_equal(data[:, 1], spec.values)


def test_series_rejects_non_finite_input():
    good = make_series([1.0, 3.0, 5.0, 7.0], m=256)
    bad = good.samples.copy()
    bad[17] = np.nan  # would otherwise end in InsufficientPeaks
    with pytest.raises(ValueError):
        TimeSeries(dt=good.dt, samples=bad)
    for dt in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            TimeSeries(dt=dt, samples=good.samples)


@pytest.mark.parametrize("samples", [np.zeros(0), np.ones(1), np.ones((2, 8))])
def test_series_needs_two_samples_on_one_axis(samples):
    with pytest.raises(ValueError, match=r"^time series must be 1-D with at "
                                         r"least 2 samples, got shape \("):
        TimeSeries(dt=0.1, samples=samples)


def test_series_is_read_only():
    ts = TimeSeries(dt=0.1, samples=np.ones(16))
    with pytest.raises(ValueError):
        ts.samples[0] = 2.0


def test_spectrum_needs_one_length_1d_fields():
    # a mirror slice one bin short must fail here, not mislabel every bin
    for freqs, vals in ((np.arange(4.0), np.arange(3.0)),
                        (np.arange(3.0), np.arange(4.0)),
                        (np.arange(4.0), np.zeros((2, 2))),
                        (np.zeros((2, 2)), np.zeros((2, 2))),
                        # bin_width needs two bins
                        (np.zeros(0), np.zeros(0)), (np.zeros(1), np.ones(1))):
        with pytest.raises(ValueError, match="1-D of one length"):
            Spectrum(frequencies=freqs, values=vals)
    Spectrum(frequencies=np.arange(4.0), values=np.zeros(4))


@pytest.mark.parametrize("freqs", [np.arange(4.0)[::-1], np.array([0.0, 1.0, 1.0, 2.0])])
def test_spectrum_needs_a_strictly_ascending_grid(freqs):
    # detect_levels takes the bins at w > 0 as one tail of the array
    with pytest.raises(ValueError, match="^frequencies must strictly ascend$"):
        Spectrum(frequencies=freqs, values=np.zeros(4))


def test_constructors_leave_the_callers_array_writable():
    a, f = np.zeros(16), np.arange(16.0)
    frozen = (TimeSeries(0.1, a).samples, Spectrum(f, a).values)
    a[0] = 5.0
    for arr in frozen:
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # the fields are views, not copies
    assert frozen[0][0] == frozen[1][0] == 5.0
