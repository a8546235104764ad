"""Finite-n statistics of the contraction-rate time average.

The central object is the probability that the dimensionless average
e_n = (time average)/(stationary mean) falls in a cell (p - delta, p + delta)
of a symmetric grid.  Cell masses come either from simulated trajectory
segments or from the exact chain distribution; both sources share one
binning routine so they can be compared cell by cell.  Masses are kept in
log space: exact deep tails decay like exp(-n zeta) and underflow linear
doubles long before n reaches the supported range.  The parabola fit of a
rate function is a closed-form two-parameter least squares, with no LAPACK
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CapacityError,
    DomainError,
    FitError,
    InsufficientFluctuationsError,
    NormalizationError,
    _in_range,
    _require,
)
from .ensemble import SimConfig, segment_mean_counts
from .markov import ContractionDistribution, mean_contraction_rate

__all__ = [
    "FRConfig",
    "PiHistogram",
    "RateFunction",
    "FRCheck",
    "ParabolaFit",
    "symmetric_grid",
    "estimate_pi",
    "rate_function",
    "fr_check",
    "fit_parabola",
]


# widest p grid accepted; it bounds the per-cell arrays and CSV rows (the
# exact source pours its atoms in one sorted pass, whatever the cell count)
_MAX_GRID_CELLS = 10_001


def _positive_claim(value: float) -> str | None:
    """Why ``value``, a ``p_max``, ``spacing`` or ``delta``, is not positive and finite (NaN is not), or None."""
    return None if 0.0 < value < np.inf else "must be positive and finite"


def _cells_claim(p_max: float, spacing: float, name: Callable[[str], str] = str) -> str | None:
    """Why ``symmetric_grid(p_max, spacing)`` has more than
    ``_MAX_GRID_CELLS`` cells, or None; ``name`` prints each field."""
    k = round(min(p_max / spacing, _MAX_GRID_CELLS))  # min() keeps inf out of round()
    if 2 * k + 1 <= _MAX_GRID_CELLS:
        return None
    half = _MAX_GRID_CELLS // 2
    return f"makes more than {_MAX_GRID_CELLS} cells: {name('p_max')} / {name('spacing')} must round to <= {half}"


# the claim of the segment length n and of the admissibility count min_count
_count_claim = _in_range(1)


def _p_grid_claim(grid: np.ndarray) -> str | None:
    """Why ``grid`` is not 3 or more cell centers, increasing, symmetric and uniform (to 1e-12), or None."""
    if grid.ndim != 1 or len(grid) < 3:
        return "must be a 1-d grid with at least 3 cells"
    if np.any(np.diff(grid) <= 0):
        return "must be strictly increasing"
    if np.max(np.abs(grid + grid[::-1])) > 1e-12:
        return "must be symmetric about 0"
    return "must be uniform" if np.max(np.abs(np.diff(grid) - float(grid[1] - grid[0]))) > 1e-12 else None


def symmetric_grid(p_max: float, spacing: float) -> np.ndarray:
    """Cell centers -p_max..p_max, ``spacing`` apart, built from integers
    so the grid is exactly symmetric."""
    _require({"p_max": p_max, "spacing": spacing}, p_max=_positive_claim, spacing=_positive_claim)
    if (claim := _cells_claim(p_max, spacing)) is not None:
        raise CapacityError(f"a p grid over [-{p_max}, {p_max}] with cells {spacing} apart {claim}")
    k = round(p_max / spacing)
    return np.arange(-k, k + 1) * spacing


@dataclass(frozen=True)
class FRConfig:
    """Segment length, cell geometry and admissibility threshold for the
    fluctuation statistics."""

    n: int
    p_grid: np.ndarray
    delta: float = 0.05
    min_count: int = 25

    def __post_init__(self):
        _require(vars(self), n=_count_claim, min_count=_count_claim, delta=_positive_claim)
        grid = np.asarray(self.p_grid, dtype=float)
        if (claim := _p_grid_claim(grid)) is not None:
            raise DomainError(f"p_grid {claim}")
        if 2.0 * self.delta > float(grid[1] - grid[0]) + 1e-12:
            raise DomainError("cells overlap: need 2*delta <= grid spacing")
        object.__setattr__(self, "p_grid", grid)


def _bin_values(values: np.ndarray, grid: np.ndarray, delta: float):
    """Cell index for each value, -1 when the value falls in no cell.
    Shared by the simulated and exact sources so both bin identically."""
    spacing = float(grid[1] - grid[0])
    t = np.subtract(values, grid[0])  # the one float temporary, reused
    t /= spacing
    idx = np.round(t, out=t).astype(np.int64)
    inside = idx >= 0
    inside &= idx < len(grid)
    # an index outside the grid is clipped only so that take cannot raise:
    # its value is already outside
    np.subtract(values, np.take(grid, idx, mode="clip", out=t), out=t)
    inside &= np.abs(t, out=t) < delta + 1e-12
    idx[~inside] = -1
    return idx


def _logsumexp(a: np.ndarray) -> float:
    """``scipy.special.logsumexp`` of a 1-d float array, bit for bit: the
    same operations in scipy 1.17's order, without loading scipy or its
    array-API dispatch (about 180 us a call).  The maxima are summed apart
    as m * exp(0); if the result is not finite, log(sum(exp(a))) decides."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        at_max = a == a_max
        m = at_max.sum(dtype=float)
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum()
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


@dataclass(frozen=True)
class PiHistogram:
    """Per-cell probability mass of the normalized time average."""

    p: np.ndarray
    delta: float
    n: int
    source: str  # "mc" or "exact"
    log_mass: np.ndarray
    counts: np.ndarray | None
    n_segments: int | None
    mean_rate: float
    min_count: int

    @property
    def mass(self) -> np.ndarray:
        return np.exp(self.log_mass)

    def admissible(self) -> np.ndarray:
        """Cells with enough support to enter ratio statistics."""
        if self.source == "mc":
            return self.counts >= self.min_count
        return self.log_mass > -np.inf


def _mean_rate_claim(mean_rate: float) -> str | None:
    """Why the stationary mean rate cannot normalize e_n, or None: on the q = 0 line it is 0 up to rounding
    (e.g. -3e-19), and dividing by it would bin noise."""
    small = abs(mean_rate) < 1e-15
    return "mean contraction rate is 0 (equilibrium), so the normalized statistic e_n is undefined" if small else None


def estimate_pi(config: FRConfig, source: SimConfig | ContractionDistribution) -> PiHistogram:
    """Cell masses of e_n, the time average over the stationary mean rate
    (rejected at equilibrium, where that mean is 0).

    A ``SimConfig`` source is evolved and cut into non-overlapping length-n
    segments, whose means each worker bins as each segment ends, so no
    segment mean is kept; one of fewer than ``min_count`` segments, where no
    cell can be admissible, is refused before it runs.  A
    ``ContractionDistribution`` source has its exact atoms poured into the
    same cells.
    """
    exact = isinstance(source, ContractionDistribution)
    if exact:
        if source.n != config.n:
            raise DomainError(f"distribution has n={source.n}, config has n={config.n}")
        mean_rate = source.mean_time_average()
    elif isinstance(source, SimConfig):
        mean_rate = mean_contraction_rate(source.params.ell, source.params.q)
    else:
        raise DomainError(f"unsupported source type {type(source).__name__}")
    if (claim := _mean_rate_claim(mean_rate)) is not None:
        raise NormalizationError(f"{claim}; choose q > 0")

    if exact:
        idx = _bin_values(source.sums / (config.n * mean_rate), config.p_grid, config.delta)
        # one stable sort by cell keeps each cell's atoms in their order
        order = np.argsort(idx, kind="stable")
        cells, starts = np.unique(idx[order], return_index=True)
        log_mass = np.full(len(config.p_grid), -np.inf)
        for cell, log_probs in zip(cells, np.split(source.log_probs[order], starts[1:])):
            if cell >= 0:
                log_mass[cell] = _logsumexp(log_probs)
        counts = n_segments = None
    else:
        counts = segment_mean_counts(
            source, config.n, mean_rate, lambda v: _bin_values(v, config.p_grid, config.delta), len(config.p_grid),
            config.min_count,
        )
        n_segments = source.n_ens * (source.n_iter // config.n)
        with np.errstate(divide="ignore"):
            log_mass = np.log(counts) - np.log(n_segments)
    return PiHistogram(
        p=config.p_grid,
        delta=config.delta,
        n=config.n,
        source="exact" if exact else "mc",
        log_mass=log_mass,
        counts=counts,
        n_segments=n_segments,
        mean_rate=mean_rate,
        min_count=config.min_count,
    )


@dataclass(frozen=True)
class RateFunction:
    """Finite-n rate function zeta_n(p) = -(1/n) log pi_n; NaN on cells
    without (sufficient) mass."""

    p: np.ndarray
    zeta: np.ndarray
    n: int
    source: str


def rate_function(pi: PiHistogram) -> RateFunction:
    adm = pi.admissible()
    if not adm.any():
        raise DomainError("histogram carries no admissible mass")
    zeta = np.where(adm, -pi.log_mass / pi.n, np.nan)
    return RateFunction(p=pi.p, zeta=zeta, n=pi.n, source=pi.source)


@dataclass(frozen=True)
class FRCheck:
    """Per-cell fluctuation-relation values and the fitted slope.

    ``value[i]`` is log(pi(p)/pi(-p)) / (n * mean_rate) for admissible
    positive p (the asymptotic prediction is value = p); ``ratio`` is
    value/p.
    """

    p: np.ndarray
    value: np.ndarray
    ratio: np.ndarray
    stderr: np.ndarray | None
    slope: float
    n: int
    source: str


def fr_check(pi: PiHistogram) -> FRCheck:
    """Compare cell masses at opposite p and fit the through-origin slope
    of the log-ratio statistic against p."""
    if pi.mean_rate <= 0:
        raise NormalizationError("normalized check needs a positive mean rate")
    scale = pi.n * pi.mean_rate

    adm = pi.admissible()
    # the grid is symmetric: reversing a per-cell array puts -p under +p
    pairs = (pi.p > 0) & adm & adm[::-1]
    if not pairs.any():
        raise InsufficientFluctuationsError(
            "insufficient negative fluctuations: no admissible (+p, -p) cell pairs"
        )
    p_arr = pi.p[pairs]
    v_arr = (pi.log_mass[pairs] - pi.log_mass[::-1][pairs]) / scale
    errs = None
    if pi.source == "mc":
        errs = np.sqrt(1.0 / pi.counts[pairs] + 1.0 / pi.counts[::-1][pairs]) / scale
    slope = float((p_arr * v_arr).sum() / (p_arr * p_arr).sum())
    return FRCheck(
        p=p_arr,
        value=v_arr,
        ratio=v_arr / p_arr,
        stderr=errs,
        slope=slope,
        n=pi.n,
        source=pi.source,
    )


@dataclass(frozen=True)
class ParabolaFit:
    """Least-squares fit zeta(p) ~ a (p-1)^2 + b."""

    a: float
    b: float
    residual: float
    n_points: int


def fit_parabola(rf: RateFunction) -> ParabolaFit:
    """Fit the finite cells of a rate function with a parabola centered at
    the mean value p = 1.

    The two-parameter least squares is solved in closed form on the
    centred u = (p-1)^2 and zeta: a = sum(du dz) / sum(du^2) and
    b = mean(zeta) - a mean(u), with no LAPACK call.  A design [u, 1] of
    numerical rank < 2, by ``np.linalg.matrix_rank``'s tolerance (its
    smaller singular value at most len(p) * eps times its larger one), is
    refused."""
    mask = np.isfinite(rf.zeta)
    p = rf.p[mask]
    z = rf.zeta[mask]
    m = len(p)
    if m < 3:
        raise FitError(f"need at least 3 finite cells, got {m}")
    u = (p - 1.0) ** 2
    u_mean, z_mean = u.mean(), z.mean()
    du = u - u_mean
    sdu2 = float(du @ du)
    # s_min s_max = sqrt(m sdu2) and s_max^2 <= sum(u^2) + m, the trace of
    # the design's Gram matrix, which s_max^2 equals up to s_min^2
    if np.sqrt(m * sdu2) <= m * np.finfo(float).eps * (float(u @ u) + m):
        raise FitError("degenerate fit: cells are collinear in (p-1)^2")
    a = float(du @ (z - z_mean)) / sdu2
    b = float(z_mean - a * u_mean)
    resid = float(np.sqrt(np.mean((a * u + b - z) ** 2)))
    return ParabolaFit(a=a, b=b, residual=resid, n_points=m)
