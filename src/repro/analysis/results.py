"""Analysis helpers driven directly off result objects.

The figure drivers used to hand-build dicts of samples before calling
:mod:`repro.analysis.cdf`; these helpers close that gap by reading
:meth:`repro.api.results.SweepResult.rows` and
:class:`repro.cluster.results.ScenarioResult` directly, so a
Figure 16-style series is one call away from a result object.  The
functions duck-type their inputs (anything with ``jobs`` /
``iteration_samples`` works), keeping ``analysis/`` free of result-layer
imports.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

from repro.analysis.cdf import Cdf, empirical_cdf


def column(
    rows: Sequence[Mapping[str, Any]], key: str, drop_none: bool = True
) -> List[Any]:
    """One column of a row-per-run table (``SweepResult.rows()``).

    ``drop_none`` skips failed points' ``None`` metrics, which is what
    a CDF or a plot wants; pass ``False`` to keep row alignment.
    """
    values = [row.get(key) for row in rows]
    if drop_none:
        values = [value for value in values if value is not None]
    return values


def cdf_from_rows(rows: Sequence[Mapping[str, Any]], key: str) -> Cdf:
    """Empirical CDF of one metric column across sweep points."""
    values = column(rows, key)
    if not values:
        raise ValueError(f"no values for column {key!r}")
    return empirical_cdf([float(value) for value in values])


def iteration_time_cdf(result) -> Cdf:
    """CDF of all jobs' iteration times in one scenario (Figure 16)."""
    return empirical_cdf(result.iteration_samples())


def jct_cdf(result) -> Cdf:
    """CDF of job completion times in one scenario."""
    return empirical_cdf([job.jct_s for job in result.jobs])


def queueing_delay_cdf(result) -> Cdf:
    """CDF of queueing delays in one scenario."""
    return empirical_cdf([job.queueing_delay_s for job in result.jobs])


def iteration_time_series(
    results: Mapping[str, Any]
) -> List[Dict[str, float]]:
    """Figure 16's series: per-label average and p99 iteration time.

    ``results`` maps display labels (e.g. fabric names) to
    :class:`~repro.cluster.results.ScenarioResult` objects run under
    the same arrival trace; rows come back in mapping order.
    """
    series = []
    for label, result in results.items():
        avg, p99 = result.iteration_stats()
        series.append({"label": label, "avg_s": avg, "p99_s": p99})
    return series
