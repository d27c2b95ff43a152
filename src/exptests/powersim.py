"""Monte Carlo power estimation, including bootstrap tuning-parameter selection.

Power cells are reproducible from their fields: replicates are split into
fixed blocks over disjoint RNG substreams, so results do not depend on the
thread count used to compute them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .core import (STREAM_PARSERS, RngStream, check_positive, float_cell,
                   optional_float, read_csv_rows, write_table)
from .errors import DomainError
from .families import get_family, sample_alternative
from .nulldist import NullCalibration, _map_blocks
from .statistics import StatisticId, evaluate_many

POWER_COLUMNS = ("statistic", "a", "grid", "family", "theta", "n", "alpha",
                 "power", "se", "replicates", "seed", "stream", "key",
                 "percent")

DEFAULT_TUNING_GRID = (0.2, 0.5, 1.0, 2.0, 5.0, 10.0)


@dataclass(frozen=True)
class PowerCell:
    """One power estimate.  `grid` is None for a fixed-a cell; a data-driven
    cell (`estimate_power_adaptive`) chooses a from `grid` per replicate, and
    its `statistic` carries grid[0]."""

    statistic: StatisticId
    family: str
    theta: Optional[float]
    n: int
    alpha: float
    replicates: int
    power: float
    mc_se: float
    seed: RngStream
    grid: Optional[tuple] = None


@dataclass(frozen=True)
class BootstrapTuning:
    grid: tuple
    bootstrap_replicates: int
    selected_a: float
    scores: tuple


def _critical_value(calibration: Optional[NullCalibration], stat: StatisticId,
                    n: int, alpha: float) -> float:
    if calibration is None:
        raise DomainError(
            f"no calibration supplied for {stat.label()} at n={n}; run "
            "calibrate_critical_value first and pass the result")
    if calibration.statistic != stat or calibration.n != n:
        raise DomainError(
            f"calibration mismatch: have {calibration.statistic.label()} "
            f"n={calibration.n}, need {stat.label()} n={n}")
    try:
        return calibration.critical_values[alpha]
    except KeyError:
        raise DomainError(f"calibration lacks alpha={alpha}; "
                          f"available: {sorted(calibration.critical_values)}") from None


def _power_cell(count, stat: StatisticId, fam, theta, n: int, alpha: float,
                replicates: int, rng: RngStream, threads: int,
                grid: Optional[tuple] = None) -> PowerCell:
    """The cell whose power is the fraction of replicates rejected, summed
    over the fixed blocks by count(k, size) (block k draws from substream k)."""
    p_hat = sum(_map_blocks(count, replicates, threads)) / replicates
    se = float(np.sqrt(p_hat * (1.0 - p_hat) / replicates))
    return PowerCell(statistic=stat, family=fam.id,
                     theta=None if not fam.uses_theta else float(theta),
                     n=n, alpha=alpha, replicates=replicates,
                     power=p_hat, mc_se=se, seed=rng, grid=grid)


def estimate_power(stat: StatisticId, family, theta, n: int, alpha: float,
                   replicates: int, rng: RngStream,
                   calibration: NullCalibration,
                   threads: int = 1) -> PowerCell:
    """Fraction of alternative samples whose statistic exceeds the calibrated
    critical value."""
    if replicates < 1000:
        raise DomainError("power estimation requires at least 10^3 replicates")
    crit = _critical_value(calibration, stat, n, alpha)
    fam = get_family(family) if isinstance(family, str) else family

    def count(k, size):
        x = sample_alternative(fam, theta, (size, n), rng.substream(k))
        return int(np.count_nonzero(evaluate_many(stat, x) > crit))

    return _power_cell(count, stat, fam, theta, n, alpha, replicates, rng,
                       threads)


def _tuning_grid(grid: Sequence[float]) -> tuple:
    grid = tuple(sorted(float(a) for a in grid))
    if not grid:
        raise DomainError("tuning grid must be nonempty")
    if any(a <= 0 for a in grid):
        raise DomainError("tuning grid values must be positive")
    return grid


def _bootstrap_scores(x: np.ndarray, B: int, gen, stats, crits) -> np.ndarray:
    """(rows, len(stats)) fractions of B resamples of each row of x that each
    statistic rejects at its critical value."""
    r, n = x.shape
    idx = gen.integers(0, n, size=(r, B, n))
    res = np.take_along_axis(x[:, None, :], idx, axis=2).reshape(r * B, n)
    return np.stack([np.mean(evaluate_many(s, res).reshape(r, B) > c, axis=1)
                     for s, c in zip(stats, crits)], axis=1)


def bootstrap_select_a(stat_name: str, sample, grid: Sequence[float],
                       B: int, alpha: float, rng: RngStream,
                       calibrations: Dict[float, NullCalibration]) -> BootstrapTuning:
    """Select the tuning parameter maximizing the bootstrap rejection rate.

    Nonparametric bootstrap: B resamples of the observed data per candidate;
    the score of a candidate is the fraction of resamples rejected at the
    null critical value for that candidate.  Ties go to the smallest a.
    The sample must be 1-D and positive; a bad entry is named by its index.
    """
    grid = _tuning_grid(grid)
    if B < 200:
        raise DomainError("bootstrap requires B >= 200")
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1:
        raise DomainError(f"bootstrap_select_a expects a 1-D sample, got shape {x.shape}")
    check_positive(x)
    stats = [StatisticId(stat_name, a) for a in grid]
    crits = [_critical_value(calibrations.get(a), s, x.size, alpha)
             for a, s in zip(grid, stats)]
    scores = _bootstrap_scores(x[None, :], B, rng.generator(), stats, crits)[0]
    best = int(np.argmax(scores))  # first max = smallest a on ties
    return BootstrapTuning(grid=grid, bootstrap_replicates=B,
                           selected_a=grid[best], scores=tuple(scores.tolist()))


def estimate_power_adaptive(stat_name: str, family, theta, n: int, alpha: float,
                            replicates: int, rng: RngStream,
                            calibrations: Dict[float, NullCalibration],
                            grid: Sequence[float] = DEFAULT_TUNING_GRID,
                            B: int = 200) -> PowerCell:
    """Power of the data-driven test: per Monte Carlo replicate, pick the
    tuning parameter by bootstrap expected power, then reject using the
    critical value of the selected candidate.

    The replicates use the fixed blocks of `estimate_power` (block k draws
    from substream k); block k's resamples come from substream(k).substream(1)
    in sub-chunks that keep each resample array near 2*10^6 values.
    """
    if replicates < 1:
        raise DomainError("power estimation requires at least one replicate")
    if B < 1:
        raise DomainError("bootstrap requires B >= 1")
    grid = _tuning_grid(grid)
    stats = [StatisticId(stat_name, a) for a in grid]
    crits = np.array([_critical_value(calibrations.get(a), s, n, alpha)
                      for a, s in zip(grid, stats)])
    fam = get_family(family) if isinstance(family, str) else family
    chunk = max(1, 2_000_000 // (B * n))

    def count(k, size):
        stream = rng.substream(k)
        x = sample_alternative(fam, theta, (size, n), stream)
        gen = stream.substream(1).generator()
        scores = np.concatenate([
            _bootstrap_scores(x[i:i + chunk], B, gen, stats, crits)
            for i in range(0, size, chunk)])
        pick = np.argmax(scores, axis=1)
        observed = np.stack([evaluate_many(s, x) for s in stats], axis=1)
        return int(np.count_nonzero(
            observed[np.arange(size), pick] > crits[pick]))

    return _power_cell(count, stats[0], fam, theta, n, alpha, replicates, rng,
                       threads=1, grid=grid)


def power_table_rows(cells: Sequence[PowerCell]):
    """One row per cell, keyed by POWER_COLUMNS.  The RngStream is written
    whole (RngStream.csv_fields), so load_power_table gives the cell back.
    A data-driven cell has an empty `a` and its space-separated `grid`."""
    return [{"statistic": c.statistic.name,
             "a": float_cell(c.statistic.a if c.grid is None else None),
             "grid": " ".join(map(float_cell, c.grid or ())),
             "family": c.family, "theta": float_cell(c.theta), "n": c.n,
             "alpha": float_cell(c.alpha), "power": float_cell(c.power),
             "se": float_cell(c.mc_se), "replicates": c.replicates,
             **c.seed.csv_fields(),
             "percent": int(round(100.0 * c.power))}
            for c in cells]


def write_power_table(path, cells: Sequence[PowerCell]) -> None:
    write_table(path, POWER_COLUMNS, power_table_rows(cells))


def load_power_table(path) -> list:
    """Read a power CSV back into PowerCells; files without the stream and
    key columns load as stream 0 with an empty spawn key, files without the
    grid column as fixed-a cells; files without another column it reads or
    with a cell that does not parse or is out of range raise DomainError
    (read_csv_rows)."""
    parsers = {"statistic": str, "a": optional_float,
               "grid": lambda text: tuple(map(float, text.split())) or None,
               "family": str, "theta": optional_float, "n": int, "alpha": float,
               "power": float, "se": float, "replicates": int, **STREAM_PARSERS}

    def cell(row):
        grid = row["grid"]
        a = row["a"] if row["a"] is not None else (grid[0] if grid else None)
        return PowerCell(
            statistic=StatisticId(row["statistic"], a), family=row["family"],
            theta=row["theta"], n=row["n"], alpha=row["alpha"],
            replicates=row["replicates"], power=row["power"], mc_se=row["se"],
            seed=RngStream(row["seed"], row["stream"], row["key"]), grid=grid)

    return read_csv_rows(path, parsers, cell, optional=("grid", "stream", "key"))
