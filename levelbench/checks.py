"""Correctness checks for one benchmark operation.

A check returns the list of problems it found; an operation with any
problem counts as failed.  The level tolerances are fixed here, relative to
the top reference level, and never derived from the run's own sampling, so
that a run cannot buy speed by sampling less coarsely than today's pipeline
resolves.  Each is 1.5x the worst error the unchanged pipeline showed over
1,500 random points, 300 for the long series (README.md, "Tolerances").
"""

from __future__ import annotations

import json
import math

import numpy as np

from .reference import Point, h0_closed_form, reference_levels

#: exact readout, default 4096 samples: worst error 1.64e-4 of the top level
TOL_EXACT = 2.5e-4
#: 1024-shot readout, default 8192 samples: worst error 8.3e-5
TOL_SHOTS = 1.25e-4
#: 2^18-sample series with 1024-shot noise: worst error 2.1e-6
TOL_LONG = 3.2e-6
#: the CSV's reference columns against this module's own eigensolve
REF_TOL = 1e-10


def level_problems(detected, planted: np.ndarray, tol: float) -> list[str]:
    """Four finite ascending levels, each within tol * top of the planted one."""
    det = np.asarray(detected, dtype=float)
    if det.shape != (4,):
        return [f"expected 4 levels, got shape {det.shape}"]
    if not np.all(np.isfinite(det)):
        return [f"non-finite levels {det.tolist()}"]
    problems = []
    if np.any(np.diff(det) <= 0.0):
        problems.append(f"levels not ascending: {det.tolist()}")
    err = float(np.abs(det - planted).max())
    limit = tol * float(planted[-1])
    if not err <= limit:
        problems.append(f"level error {err:.3e} exceeds {limit:.3e} "
                        f"({tol:g} of the top level)")
    return problems


def spectrum_header(model: str) -> list[str]:
    """Columns `qdosc spectrum` documents for its CSV."""
    cols = ["q"]
    for kind in ("e{}_detected", "e{}_reference", "abs_err{}"):
        cols += [kind.format(i) for i in range(1, 5)]
    if model == "ho":
        cols += [f"e{i}_shifted_omega" for i in range(1, 5)]
    return cols


class SweepChecker:
    """Checks the files of one `qdosc spectrum` call for one point.

    It keeps the first CSV written for each point, so that any repeat of a
    seeded operation must reproduce it byte for byte.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self._first_csv: dict[Point, bytes] = {}

    def problems(self, point: Point, code, csv: bytes | None,
                 manifest: bytes | None, samples_seen: int | None = None) -> list[str]:
        """samples_seen is the series length counted at the sample_series
        boundary by a traced run, or None when nothing was counted."""
        if code != 0:
            return [f"exit code {code!r}"]
        if csv is None:
            return ["no CSV written"]
        problems = self._csv_problems(point, csv)
        problems += _manifest_problems(point, manifest, samples_seen)
        first = self._first_csv.setdefault(point, csv)
        if csv != first:
            problems.append("CSV differs from the first run of the same point")
        return problems

    def _csv_problems(self, point: Point, csv: bytes) -> list[str]:
        lines = csv.decode().splitlines()
        header = spectrum_header(point.model)
        if not lines or lines[0].split(",") != header:
            return [f"unexpected CSV header {lines[:1]}"]
        if len(lines) != 2:
            return [f"expected one CSV row, got {len(lines) - 1}"]
        try:
            row = dict(zip(header, (float(x) for x in lines[1].split(",")), strict=True))
        except ValueError as exc:
            return [f"bad CSV row: {exc}"]

        def col(kind):
            return np.array([row[kind.format(i)] for i in range(1, 5)])

        det, ref = col("e{}_detected"), col("e{}_reference")
        mine = reference_levels(point)
        problems = []
        if row["q"] != point.q:
            problems.append(f"CSV q {row['q']!r} != {point.q!r}")
        problems += level_problems(det, mine, self.tol)
        dev = float(np.abs(ref - mine).max())
        if point.model == "h0":
            dev = max(dev, float(np.abs(ref - h0_closed_form(point.q)).max()))
        if not dev <= REF_TOL:
            problems.append(f"reference columns off by {dev:.3e}")
        if not np.allclose(col("abs_err{}"), np.abs(det - ref), rtol=0.0, atol=1e-12):
            problems.append("abs_err columns are not |detected - reference|")
        if point.model == "ho":
            shifted = math.sqrt(1.0 + point.gamma) * h0_closed_form(point.q)
            if not np.abs(col("e{}_shifted_omega") - shifted).max() <= REF_TOL:
                problems.append("shifted-frequency columns are wrong")
        return problems


def _manifest_problems(point: Point, manifest: bytes | None,
                       samples_seen: int | None) -> list[str]:
    if manifest is None:
        return ["no run_manifest.json written"]
    try:
        (entry,) = json.loads(manifest)["per_q"]
        q, samples = entry["q"], entry["samples"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"bad manifest: {exc!r}"]
    problems = []
    if q != point.q:
        problems.append(f"manifest q {q!r} != {point.q!r}")
    if samples_seen is not None and samples != samples_seen:
        problems.append(f"manifest samples {samples} != {samples_seen} "
                        f"counted at sample_series")
    return problems
