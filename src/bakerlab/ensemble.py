"""Deterministic parallel Monte Carlo engine for the baker dynamics.

Ensembles are evolved as numpy vectors by one sequential loop; every
random draw comes from a counter-based (Philox) stream keyed by the
configured seed, so a configuration determines its outputs exactly.
Reductions (histograms, segment sums, transition counts) are accumulated
in fixed member order.

Because the x-coordinate update never reads y, x-projected reductions are
bitwise identical between the reversible and irreversible variants at equal
seed, and internal fast paths may skip the y update entirely.

Every run starts x in its exact stationary law, the piecewise-constant
density (2, 8 ell)/(1 + 4 ell) on the two halves, by the inverse CDF of the
same uniforms, and y uniform.  x-only reductions are therefore stationary
from the first step and need no burn-in; reductions that read y still do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np
from scipy.special import chdtrc

from .errors import CapacityError, DomainError
from .mapcore import (
    MapParams,
    MapVariant,
    Region,
    ReversalScheme,
    contraction_rates,
    region_indices,
    region_reverse,
    step_arrays,
)

__all__ = [
    "SimConfig",
    "StepState",
    "Histogram2D",
    "RectSet",
    "MeasureEstimate",
    "sample_ensemble",
    "evolve",
    "region_stream",
    "empirical_density",
    "transition_counts",
    "lambda_segment_means",
    "measure_estimate",
    "odd_observable_mean",
    "reflect_rect",
    "uniformity_chi_square",
]

_MAX_ENSEMBLE = 50_000_000
# widest 2-d histogram accepted (2000 x 2000): its counts and the per-step
# bincount each take 8 bytes a cell, 32 MB apiece at the cap
_MAX_HIST_CELLS = 4_000_000

# At ell = 1/4 (and only there) every branch has x-slope exactly 2, so a
# float64 orbit sheds one significand bit per step and collapses onto the
# x = 1/2 fixed point within ~55 iterations.  The engine re-injects
# counter-based noise at 2^-43, far below any feasible histogram
# resolution, purely to keep the sampled orbit ergodic; all other
# parameter values mix low-order bits through non-dyadic arithmetic and
# need no regularization.
_DITHER_SCALE = 2.0**-43
_DITHER_SUBKEY_X = np.uint64(0xB4C3D11A)
_DITHER_SUBKEY_Y = np.uint64(0xB4C3D11B)


def _needs_dither(params: MapParams) -> bool:
    return params.ell == 0.25


def _dither_gen(seed: int, subkey: np.uint64):
    key = np.array([np.uint64(seed), subkey], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _dither(v: np.ndarray, gen) -> np.ndarray:
    """``clip(v + (u - 0.5) * 2 * _DITHER_SCALE, 0, 1)`` for uniform u,
    computed in place in the one array of draws."""
    d = gen.random(len(v))
    d -= 0.5
    d *= 2.0
    d *= _DITHER_SCALE
    d += v
    return np.clip(d, 0.0, 1.0, out=d)


def _stationary_x(x: np.ndarray, ell: float) -> None:
    """Map uniforms ``x`` in place through the inverse CDF of the invariant
    x-law, density ``(2, 8 ell) / (1 + 4 ell)`` on the halves split at 1/2.

    With ``c = 1/(1 + 4 ell)`` a uniform u goes to ``u (1 + 4 ell)/2`` when
    ``u < c`` and to ``1/2 + (u - c)(1 + 4 ell)/(8 ell)`` otherwise, so the
    count of members in the left half equals the count of u below c.  At
    ell = 1/4 both slopes are 1 and c = 1/2, so the map is the identity bit
    for bit.  One bool mask is the only temporary, so the start adds no
    full-length float array to the peak memory of a run.
    """
    width = 1.0 + 4.0 * ell
    c = 1.0 / width
    mask = np.less(x, c)
    np.multiply(x, 0.5 * width, out=x, where=mask)
    right = np.logical_not(mask, out=mask)
    np.subtract(x, c, out=x, where=right)
    np.multiply(x, width / (8.0 * ell), out=x, where=right)
    np.add(x, 0.5, out=x, where=right)


def _run(config: SimConfig, with_y: bool = True):
    """The one sequential state advance behind every ensemble entry point,
    so that any two reductions over the same config see bitwise-identical
    x streams.

    Starts from the sample of ``sample_ensemble``: its first column goes
    through the inverse CDF of the exact stationary x-law (``_stationary_x``)
    and its second column is y, uniform.  The x-projection is then
    stationary from step 0, whatever the variant; only y needs burn-in.
    Discards ``burn_in`` steps, then yields ``(x, y)`` at each of the
    ``n_iter`` kept steps (``y`` is None when ``with_y`` is false).  The
    yielded arrays are the loop's own state: the next step replaces them
    rather than writing into them.
    """
    params = config.params
    pts = sample_ensemble(config.n_ens, config.seed)
    x = np.ascontiguousarray(pts[:, 0])
    y = np.ascontiguousarray(pts[:, 1]) if with_y else None
    del pts  # else the (n_ens, 2) sample lives as long as the generator
    _stationary_x(x, params.ell)
    dither = _needs_dither(params)
    if dither:
        gx = _dither_gen(config.seed, _DITHER_SUBKEY_X)
        gy = _dither_gen(config.seed, _DITHER_SUBKEY_Y)
    for k in range(config.burn_in + config.n_iter):
        if k >= config.burn_in:
            yield x, y
        x, y = step_arrays(x, y, params, config.variant)
        if dither:
            x = _dither(x, gx)
            y = None if y is None else _dither(y, gy)


@dataclass(frozen=True)
class SimConfig:
    """One reproducible simulation run.

    The ensemble starts with x in its stationary law and y uniform;
    ``n_iter`` states per member are produced after ``burn_in`` steps
    discarded after that start, and the first produced state is the
    post-burn-in point itself.  x-only reductions are stationary at any
    ``burn_in``, including 0; the y-marginal needs a burn-in to forget its
    uniform start.
    """

    params: MapParams
    variant: MapVariant = MapVariant.REVERSIBLE
    n_ens: int = 10_000
    n_iter: int = 1_000
    burn_in: int = 1_000
    seed: int = 0

    def __post_init__(self):
        if self.n_ens < 1 or self.n_ens > _MAX_ENSEMBLE:
            raise DomainError(f"n_ens must lie in [1, {_MAX_ENSEMBLE}], got {self.n_ens}")
        if self.n_iter < 0:
            raise DomainError("n_iter must be >= 0")
        if self.burn_in < 0:
            raise DomainError("burn_in must be >= 0")


class StepState(NamedTuple):
    k: int
    x: np.ndarray
    y: np.ndarray
    region: np.ndarray


def sample_ensemble(n: int, seed: int) -> np.ndarray:
    """n i.i.d. uniform points on the unit square as an (n, 2) array.

    Point k is a fixed function of (seed, k): values come from a Philox
    counter stream keyed by the seed, in counter order.  The seed is one
    64-bit key word, so it must lie in [0, 2**64).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must lie in [0, 2**64), got {seed}")
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return gen.random((int(n), 2))


def evolve(config: SimConfig) -> Iterator[StepState]:
    """Yield the post-burn-in trajectory, one ensemble-wide state per step.

    Each yielded state carries copies of the coordinate arrays and the
    region occupied at that step; ``n_iter`` states are produced in total.
    """
    for k, (x, y) in enumerate(_run(config)):
        yield StepState(k, x.copy(), y.copy(), region_indices(x, config.params.ell))


def region_stream(config: SimConfig) -> Iterator[np.ndarray]:
    """Yield the region occupied by every member at each of the ``n_iter``
    post-burn-in steps.

    Runs the x-only fast path, valid because the x update never reads y:
    the regions are bitwise identical to those of ``evolve``.
    """
    for x, _ in _run(config, with_y=False):
        yield region_indices(x, config.params.ell)


@dataclass
class Histogram2D:
    """Uniform-bin occupation counts on the unit square."""

    nx: int
    ny: int
    counts: np.ndarray
    n_samples: int

    def x_marginal(self, density: bool = False) -> np.ndarray:
        m = self.counts.sum(axis=1).astype(float)
        if density:
            m = m * self.nx / max(self.n_samples, 1)
        return m

    def y_marginal(self, density: bool = False) -> np.ndarray:
        m = self.counts.sum(axis=0).astype(float)
        if density:
            m = m * self.ny / max(self.n_samples, 1)
        return m


def empirical_density(config: SimConfig, nx: int = 500, ny: int = 500) -> Histogram2D:
    """Histogram of all post-burn-in states (n_ens * n_iter samples)."""
    if nx < 1 or ny < 1:
        raise DomainError("bin counts must be >= 1")
    if nx * ny > _MAX_HIST_CELLS:
        raise CapacityError(
            f"a {nx} x {ny} histogram exceeds the limit of {_MAX_HIST_CELLS} cells"
        )
    counts = np.zeros(nx * ny, dtype=np.int64)
    for x, y in _run(config):
        ix = np.minimum((x * nx).astype(np.int64), nx - 1)
        iy = np.minimum((y * ny).astype(np.int64), ny - 1)
        counts += np.bincount(ix * ny + iy, minlength=nx * ny)
    n_samples = config.n_ens * config.n_iter
    return Histogram2D(nx=nx, ny=ny, counts=counts.reshape(nx, ny), n_samples=n_samples)


def transition_counts(config: SimConfig) -> np.ndarray:
    """4x4 counts of observed one-step region transitions
    (n_iter - 1 transitions per member)."""
    counts = np.zeros(16, dtype=np.int64)
    prev = None
    for r in region_stream(config):
        if prev is not None:
            counts += np.bincount(prev.astype(np.int64) * 4 + r, minlength=16)
        prev = r
    return counts.reshape(4, 4)


def lambda_segment_means(config: SimConfig, seg_len: int) -> np.ndarray:
    """Time-averaged contraction rate over consecutive non-overlapping
    segments of length ``seg_len``, flattened over members then segments.

    Each member contributes ``n_iter // seg_len`` segments; a segment mean
    sums exactly ``seg_len`` region rates starting with the segment's first
    state.
    """
    if seg_len < 1:
        raise DomainError("seg_len must be >= 1")
    n_segs = config.n_iter // seg_len
    if n_segs < 1:
        raise DomainError("n_iter too small for one segment")
    rates = contraction_rates(config.params)
    sums = np.zeros((config.n_ens, n_segs))
    acc = np.zeros(config.n_ens)
    seg = 0
    for k, r in enumerate(region_stream(config)):
        if k >= n_segs * seg_len:
            break
        acc += rates[r]
        if (k + 1) % seg_len == 0:
            sums[:, seg] = acc
            acc[:] = 0.0
            seg += 1
    return (sums / seg_len).reshape(-1)


@dataclass(frozen=True)
class RectSet:
    """Axis-aligned rectangle inside the unit square."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (0.0 <= self.x_min < self.x_max <= 1.0 and 0.0 <= self.y_min < self.y_max <= 1.0):
            raise DomainError(f"invalid rectangle {self}")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (x >= self.x_min) & (x < self.x_max) & (y >= self.y_min) & (y < self.y_max)


@dataclass(frozen=True)
class MeasureEstimate:
    fraction: float
    stderr: float
    n_samples: int


def _member_average(config: SimConfig, steps) -> tuple[float, float]:
    """Mean over members of each member's time average of the per-step
    values ``steps``, with the standard error from the spread of those time
    averages (nan for a single member)."""
    per_member = np.zeros(config.n_ens)
    for values in steps:
        per_member += values
    per_member /= config.n_iter
    se = float(per_member.std(ddof=1) / np.sqrt(config.n_ens)) if config.n_ens > 1 else float("nan")
    return float(per_member.mean()), se


def measure_estimate(config: SimConfig, rect: RectSet) -> MeasureEstimate:
    """Long-run fraction of post-burn-in states inside ``rect``.

    The standard error comes from the spread of per-member time averages,
    so it stays honest under within-member correlation.
    """
    if config.n_iter < 1:
        raise DomainError("n_iter must be >= 1 for a measure estimate")
    frac, se = _member_average(config, (rect.contains(x, y) for x, y in _run(config)))
    return MeasureEstimate(fraction=frac, stderr=se, n_samples=config.n_ens * config.n_iter)


def reflect_rect(rect: RectSet) -> list[RectSet]:
    """Image of a rectangle under the time-reversal map.

    The reversal is piecewise across x = 1/2, so the rectangle is split at
    the seam first; mapping corners of an unsplit straddling rectangle
    would be wrong.
    """
    pieces = []
    if rect.x_min < 0.5:
        pieces.append((rect.x_min, min(rect.x_max, 0.5), False))
    if rect.x_max > 0.5:
        pieces.append((max(rect.x_min, 0.5), rect.x_max, True))
    out = []
    for x0, x1, right in pieces:
        if right:
            out.append(
                RectSet(0.5 * (rect.y_min + 1.0), 0.5 * (rect.y_max + 1.0), 2.0 * x0 - 1.0, 2.0 * x1 - 1.0)
            )
        else:
            out.append(RectSet(0.5 * rect.y_min, 0.5 * rect.y_max, 2.0 * x0, 2.0 * x1))
    return out


def odd_observable_mean(
    config: SimConfig, phi: np.ndarray, scheme: ReversalScheme
) -> tuple[float, float]:
    """Ensemble/time average of a region observable that is odd under the
    reversal scheme; returns (mean, stderr across members).

    Raises if phi(Q r) != -phi(r) for any region (tolerance 1e-12).
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (4,):
        raise DomainError("phi must assign one value per region")
    for r in Region:
        if abs(phi[region_reverse(r, scheme)] + phi[r]) > 1e-12:
            raise DomainError(f"phi is not odd under {scheme.value}: region {r.name}")
    if config.n_iter < 1:
        raise DomainError("n_iter must be >= 1")
    return _member_average(config, (phi[r] for r in region_stream(config)))


def uniformity_chi_square(counts: np.ndarray) -> tuple[float, int, float]:
    """Pearson chi-square of observed bin counts against the uniform law;
    returns (statistic, dof, p-value)."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise DomainError("empty histogram")
    expected = total / counts.size
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = counts.size - 1
    return stat, dof, float(chdtrc(dof, stat))
