"""Post-processing: dilation, blow-up rates, monitors, series files.

The parabolic blow-up uses tau = -log(T - t) and magnifies by e^tau, so in
the slope-field variables the dilated profile is simply

    phi = f / (T - t),   y = u / (T - t),

with the collapsing endpoint landing exactly at phi = 1 (a(t) = T - t) and
the outer endpoint at (b0 - 3 a0) e^tau + 3.  All measured limits are checked
against the stationary profile's exact values: scalar curvature at the
collapsing section blows up like (4 - 2 sqrt2)/(T - t), the transverse Ricci
eigenvalue like (1 - sqrt2)/(T - t), and the gauge drift has slope sqrt2 - 1.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from operator import attrgetter

import numpy as np

from .geometry import write_rows
from .states import AnchorSample, DilatedState, FlowState, SeriesRecord

__all__ = [
    "AnalysisError", "RatesReport", "TypeOneReport", "dilate", "blowup_rates",
    "type_one_monitor", "sigma2_crosscheck", "write_series_csv", "read_series_csv",
    "write_anchor_csv", "read_anchor_csv", "write_report", "format_report",
    "report_kv",
]


class AnalysisError(RuntimeError):
    """Series too short / malformed for the requested measurement."""


def dilate(s: FlowState) -> DilatedState:
    """Blow-up view of an unscaled state: y(phi) = e^tau u(e^-tau phi), on the
    state's own nodes (inner endpoint exactly at phi = 1)."""
    Tt = s.T - s.t
    if Tt <= 0:
        raise ValueError("dilate requires t < T")
    return DilatedState(-np.log(Tt), s.profile.f / Tt, s.profile.u / Tt)


@dataclass(frozen=True)
class RatesReport:
    limit_R_times_Tt: float
    limit_R_width: float
    limit_lambda2_times_Tt: float
    limit_lambda2_width: float
    gauge_slope: float
    gauge_fit_residual: float
    decay_rate_delta0: float
    decay_fit_residual: float
    fit_window: tuple
    n_records: int


def _window_records(series, window):
    recs = [r for r in series if window[0] <= r.tau <= window[1]]
    if len(recs) < 4:
        raise AnalysisError(f"only {len(recs)} records in fit window {window}")
    return recs


def blowup_rates(series, window=None) -> RatesReport:
    """Fit the trailing-window limits: (T-t) R|_sigma0, (T-t) lambda2|_sigma0,
    the gauge slope dC/dtau, and the decay rate of sup |y - Y|.

    Constants are trailing-window means with half-spread widths; slopes are
    unweighted least squares with rms residuals.  No smoothing.
    """
    if len(series) < 8:
        raise AnalysisError("series too short")
    taus = np.array([r.tau for r in series])
    span = taus[-1] - taus[0]
    if span < 2.0:
        raise AnalysisError(f"series covers only {span:.3g} units of tau; need >= 2")
    if window is None:
        window = (taus[-1] - 1.5, taus[-1])
    recs = _window_records(series, window)
    tw = np.array([r.tau for r in recs])
    Tt = np.exp(-tw)

    v = Tt * np.array([r.R_sigma0 for r in recs])
    limit_R, width_R = float(np.mean(v)), float(0.5 * (np.max(v) - np.min(v)))
    v = Tt * np.array([r.lambda2_sigma0 for r in recs])
    limit_l2, width_l2 = float(np.mean(v)), float(0.5 * (np.max(v) - np.min(v)))

    g = np.array([r.gauge_C for r in recs])
    if np.all(np.isfinite(g)):
        slope, icpt = np.polyfit(tw, g, 1)
        g_res = float(np.sqrt(np.mean((g - (slope * tw + icpt)) ** 2)))
    else:
        slope, g_res = np.nan, np.nan

    e = np.array([r.sup_err_c0 for r in recs])
    ok = e > 0
    if np.sum(ok) >= 4:
        m, c = np.polyfit(tw[ok], np.log(e[ok]), 1)
        d_res = float(np.sqrt(np.mean((np.log(e[ok]) - (m * tw[ok] + c)) ** 2)))
        delta0 = float(-m)
    else:
        delta0, d_res = np.nan, np.nan

    return RatesReport(limit_R, width_R, limit_l2, width_l2, float(slope), g_res,
                       delta0, d_res, (float(window[0]), float(window[1])), len(recs))


@dataclass(frozen=True)
class TypeOneReport:
    max_rm: float
    growth: float
    verdict: str


def type_one_monitor(series) -> TypeOneReport:
    """Reduced-|Rm| boundedness check of a series: verdict 'bounded' if the
    running max of max_rm over the last unit of tau grew by under 10%."""
    series = list(series)
    if len(series) < 4:
        raise AnalysisError("series too short for a trend verdict")
    taus = np.array([r.tau for r in series])
    rm = np.array([r.max_rm for r in series])
    runmax = np.maximum.accumulate(rm)
    end = taus[-1]
    k = int(np.searchsorted(taus, end - 1.0))
    k = min(max(k, 0), len(series) - 2)
    growth = float(runmax[-1] / runmax[k]) if runmax[k] > 0 else np.inf
    verdict = "bounded" if growth < 1.10 else "growing"
    return TypeOneReport(float(runmax[-1]), growth, verdict)


def sigma2_crosscheck(series, anchor, tau_range=(2.0, 6.0)) -> float:
    """Max relative discrepancy between the stencil eigenvalue lambda2|_sigma0
    and -d/dt log f_w(0, t) from the anchor-chart reconstruction."""
    if not anchor:
        raise AnalysisError("anchor data missing")
    ta = np.array([s.t for s in anchor])
    taua = np.array([s.tau for s in anchor])
    lfw = np.array([s.log_fw for s in anchor])
    ts = np.array([r.t for r in series])
    l2 = np.array([r.lambda2_sigma0 for r in series])

    tm = 0.5 * (ta[1:] + ta[:-1])
    taum = 0.5 * (taua[1:] + taua[:-1])
    est = -np.diff(lfw) / np.diff(ta)
    ref = np.interp(tm, ts, l2)
    m = (taum >= tau_range[0]) & (taum <= tau_range[1]) & (np.abs(ref) > 0)
    if not np.any(m):
        raise AnalysisError(f"no anchor intervals inside tau range {tau_range}")
    return float(np.max(np.abs(est[m] - ref[m]) / np.abs(ref[m])))


# ---------------------------------------------------------------------------
# CSV / report files
# ---------------------------------------------------------------------------

def _write_records(records, cls, path):
    """CSV of dataclass records: the integer step, then %.17g floats."""
    names = [f.name for f in fields(cls)]
    write_rows(path, names, "%d" + ",%.17g" * (len(names) - 1),
               map(attrgetter(*names), records))


def _read_records(path, cls):
    """Records written by _write_records; the header must name cls's fields."""
    names = [f.name for f in fields(cls)]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [h.strip() for h in rows[0]] != names:
        raise AnalysisError(f"{path}: missing or wrong {cls.__name__} header")
    out = []
    for k, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(names):
            raise AnalysisError(f"{path}: line {k} has {len(row)} columns, "
                                f"the header {len(names)}")
        out.append(cls(int(row[0]), *map(float, row[1:])))
    return out


def write_series_csv(series, path):
    _write_records(series, SeriesRecord, path)


def read_series_csv(path):
    out = _read_records(path, SeriesRecord)
    if not out:
        raise AnalysisError(f"{path}: empty series")
    return out


def write_anchor_csv(anchor, path):
    _write_records(anchor, AnchorSample, path)


def read_anchor_csv(path):
    return _read_records(path, AnchorSample)


def write_report(report: RatesReport, path):
    """The report as strict JSON: a non-finite value (the gauge fit of a
    dilated-only series) is written as null."""
    rep = {k: None if isinstance(v, float) and not np.isfinite(v) else v
           for k, v in asdict(report).items()}
    with open(path, "w") as fh:
        json.dump(rep, fh, indent=2, sort_keys=True, allow_nan=False)


def report_kv(report: RatesReport) -> str:
    """Flat key=value block with exactly the report fields."""
    out = []
    for k, v in asdict(report).items():
        if isinstance(v, tuple):
            v = ",".join("%.17g" % x for x in v)
        elif isinstance(v, float):
            v = "%.17g" % v
        out.append(f"{k}={v}")
    return "\n".join(out)


def format_report(report: RatesReport) -> str:
    rt2 = np.sqrt(2.0)
    lines = [
        "quantity                     fitted        target",
        f"(T-t)*R|sigma0           {report.limit_R_times_Tt:12.6f}  "
        f"{4 - 2 * rt2:12.6f}",
        f"(T-t)*lambda2|sigma0     {report.limit_lambda2_times_Tt:12.6f}  "
        f"{1 - rt2:12.6f}",
        f"gauge slope dC/dtau      {report.gauge_slope:12.6f}  {rt2 - 1:12.6f}",
        f"decay rate delta0        {report.decay_rate_delta0:12.6f}  "
        f"{'> 0':>12}",
        f"fit window tau in [{report.fit_window[0]:.3g}, {report.fit_window[1]:.3g}]"
        f"  ({report.n_records} records)",
    ]
    return "\n".join(lines)
