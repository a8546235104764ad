"""Piecewise-affine baker-map family on the unit square.

The reversible map stretches four vertical slabs of the square horizontally
and rescales them vertically.  The slab boundaries are fixed by a width
parameter ``ell`` and the vertical rates are tilted by a dissipation
parameter ``q``:

    region A = [0, ell)      ->  x' = x/(2 ell) + 1/2,          y' = (1/2 - q) y + (1/2 + q)
    region B = [ell, 1/2)    ->  x' = (x - ell)/(1 - 2 ell),    y' = (1 - 2 ell - q) y + (2 ell + q)
    region C = [1/2, 3/4)    ->  x' = 2 x - 1/2,                y' = (1/2 + q) y
    region D = [3/4, 1]      ->  x' = 2 x - 3/2,                y' = (2 ell + q) y

The x-dynamics never depends on y, so every x-projected observable is a
function of the symbolic region sequence alone.  An optional
volume-preserving perturbation flips the lower-half y-coordinates inside a
vertical strip; composing it after the baker step destroys invertibility
without touching any x-projected statistic.

All functions here are pure and stateless and operate on numpy vectors;
none draws random numbers (``check_reversibility`` takes its points from
its caller).
The one step, ``_advance``, writes the affine update, the clip and the flip
in place from one gathered row of coefficients per member: the ensemble
gathers its rows once a state, and ``step_arrays`` is that step on new arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import _require

# the top of every image and dither, below 1: D sends x = 1 to C's fixed point 1/2 (P_DC = 0)
_TOP = math.nextafter(1.0, 0.0)

__all__ = [
    "Region",
    "MapVariant",
    "ReversalScheme",
    "MapParams",
    "ReversibilityReport",
    "region_indices",
    "branch_coefficients",
    "jacobians",
    "contraction_rates",
    "step_arrays",
    "time_reversal_arrays",
    "region_reverse",
    "check_reversibility",
]


class Region(enum.IntEnum):
    """Cells of the Markov partition along the x-axis."""

    A = 0
    B = 1
    C = 2
    D = 3


class MapVariant(enum.Enum):
    """Which dynamics to iterate: the bare baker map or its composition
    with the strip flip (applied after each baker step)."""

    REVERSIBLE = "reversible"
    IRREVERSIBLE = "irreversible"


class ReversalScheme(enum.Enum):
    """Region-level time-reversal action.

    Q4 swaps A and D and fixes B, C (the equilibrium family q = 0).
    Q3 swaps B and C and fixes A, D (the family q = 1/2 - 2 ell, where the
    reversal is only available at region level).
    """

    Q4 = "q4"
    Q3 = "q3"


def _ell_claim(ell: float) -> str | None:
    """Why ``ell`` is off the domain, 0 < ell <= 1/4 with 1/(2 ell) finite (a Python float: no warning), or None."""
    if not 0.0 < ell <= 0.25:
        return "must lie in (0, 1/4]"
    return "must be large enough for 1/(2 ell) to be finite" if math.isinf(1.0 / (2.0 * float(ell))) else None


def _q_claim(q: float) -> str | None:
    """Why ``q`` is off the domain, 0 <= q < 1/2, or None."""
    return None if 0.0 <= q < 0.5 else "must lie in [0, 1/2)"


def _strip_of(ell: float, strip_x: float | None, strip_eps: float | None) -> tuple[float, float]:
    """The flip strip's (x, eps), each None at its default: [ell, 1/2], the B slab."""
    return (ell if strip_x is None else strip_x), (0.5 - ell if strip_eps is None else strip_eps)


def _strip_x_claim(strip_x: float) -> str | None:
    """Why the strip's left edge is off [0, 1) (NaN is), or None."""
    return None if 0.0 <= strip_x < 1.0 else "must lie in [0, 1)"


def _strip_eps_claim(strip_eps: float, strip_x: float) -> str | None:
    """Why the width ``strip_eps`` puts the strip [x, x + eps] outside [0, 1] (NaN does), or None."""
    return None if strip_eps >= 0.0 and strip_x + strip_eps <= 1.0 else f"must lie in [0, 1 - {strip_x}]"


@dataclass(frozen=True)
class MapParams:
    """Parameters of one map instance.

    The domain, stated once by ``_ell_claim`` and ``_q_claim``, is 0 < ell <= 1/4
    with 1/(2 ell) finite and 0 <= q < 1/2 (q = 0 is the equilibrium line).  There
    every branch coefficient is finite and every Jacobian positive: J_A = (1 - 2q)/(4 ell)
    >= 1 - 2q >= 2**-53, J_B = 1 - q/(1 - 2 ell) >= 2**-53 as 1 - 2 ell >= 1/2 > q,
    J_C >= 1 and J_D = 4 ell + 2q > 0.  The flip strip, its default and bounds stated by ``_strip_*``, is in [0, 1].
    """

    ell: float
    q: float = 0.0
    strip_x: float | None = None
    strip_eps: float | None = None

    def __post_init__(self):
        x, eps = _strip_of(self.ell, self.strip_x, self.strip_eps)
        object.__setattr__(self, "strip_x", x)
        object.__setattr__(self, "strip_eps", eps)
        claims = dict(ell=_ell_claim, q=_q_claim, strip_x=_strip_x_claim)
        _require(vars(self), **claims, strip_eps=lambda v: _strip_eps_claim(v, x))


@dataclass(frozen=True)
class ReversibilityReport:
    """Result of a reversibility check over a set of points.

    ``max_pairing_deviation`` is the largest ``|J[r(p)] J[r(G(F(p)))] - 1|``:
    at q = 0 the volume ratio of a branch and that of its time-reversed
    branch are reciprocal.
    """

    max_deviation: float
    mean_deviation: float
    max_pairing_deviation: float
    n_samples: int


def region_indices(x: np.ndarray, ell: float) -> np.ndarray:
    """Partition cell of each x, as int8 region indices.

    Cells are half-open on the right except D, which includes x = 1.
    """
    r = np.greater_equal(x, ell).view(np.int8)
    r += np.greater_equal(x, 0.5).view(np.int8)
    r += np.greater_equal(x, 0.75).view(np.int8)
    return r


def branch_coefficients(params: MapParams):
    """Affine coefficients (ax, bx, ay, by) of the four branches,
    indexed by region, so that (x, y) -> (ax x + bx, ay y + by): the
    read-only columns of ``_coefficient_table``."""
    return tuple(_coefficient_table(params).T)


@lru_cache(maxsize=128)
def _coefficient_table(params: MapParams) -> np.ndarray:
    """The read-only (4, 4) table whose row r is the coefficients
    (ax, bx, ay, by) of region r, so that one gather per member fetches
    every coefficient its step needs."""
    ell, q = params.ell, params.q
    table = np.array(
        [
            [1.0 / (2.0 * ell), 0.5, 0.5 - q, 0.5 + q],
            [1.0 / (1.0 - 2.0 * ell), -ell / (1.0 - 2.0 * ell), 1.0 - 2.0 * ell - q, 2.0 * ell + q],
            [2.0, -0.5, 0.5 + q, 0.0],
            [2.0, -1.5, 2.0 * ell + q, 0.0],
        ]
    )
    table.setflags(write=False)
    return table


def jacobians(params: MapParams) -> np.ndarray:
    """All four branch volume ratios, indexed by region."""
    return _jacobians(params.ell, params.q)


def _jacobians(ell, q) -> np.ndarray:
    """The four volume ratios at broadcast ``ell`` and ``q``, indexed by
    region along a new last axis; no range check."""
    return np.stack(
        np.broadcast_arrays(
            (1.0 - 2.0 * q) / (4.0 * ell),
            1.0 - q / (1.0 - 2.0 * ell),
            1.0 + 2.0 * q,
            4.0 * ell + 2.0 * q,
        ),
        axis=-1,
    )


def contraction_rates(params: MapParams) -> np.ndarray:
    """Contraction rates for all four regions."""
    return -np.log(jacobians(params))


def step_arrays(x: np.ndarray, y: np.ndarray, params: MapParams, variant: MapVariant = MapVariant.REVERSIBLE):
    """One iteration of the selected dynamics.

    Returns ``(x_new, y_new)``, new float64 arrays; the inputs are not
    touched.  The irreversible variant then flips y -> 1 - y where the new
    point lies in the strip with y < 1/2; x is untouched and a zero-width
    strip flips nothing.  One gather fetches each member's coefficients.
    """
    n = len(x)
    xn, yn, rows = np.empty(n), np.empty(n), np.empty((n, 4))
    _coefficient_table(params).take(region_indices(x, params.ell).view(np.uint8), axis=0, mode="clip", out=rows)
    xn[:], yn[:] = x, y
    _advance(rows, xn, yn, params, variant)
    return xn, yn


def _advance(rows: np.ndarray, x: np.ndarray, y: np.ndarray | None, params: MapParams, variant: MapVariant) -> None:
    """Step x, and y unless it is None, in place to exactly clip(a v + b, 0, _TOP) with (a, b) = row
    columns (0, 1) for x and (2, 3) for y, then the irreversible flip: the step's one arithmetic."""
    for v, col in ((x, 0), (y, 2)) if y is not None else ((x, 0),):
        np.multiply(rows[:, col], v, out=v)
        v += rows[:, col + 1]
        v.clip(0.0, _TOP, out=v)  # np.clip's wrapper adds about 1.3 us a call
    if y is not None and variant is MapVariant.IRREVERSIBLE and params.strip_eps > 0.0:
        # after the clip y lies in [0, 1) and is never -0.0 (by >= +0), so
        # |f - y| is 1 - y where the flip holds (f = 1) and y itself
        # elsewhere, bit for bit, with no masked loop
        np.subtract(_in_strip(x, y, params), y, out=y)
        np.absolute(y, out=y)


def _in_strip(x: np.ndarray, y: np.ndarray, params: MapParams) -> np.ndarray:
    """The flip predicate of a strip of positive width: x in the strip and
    y < 1/2."""
    f = np.greater_equal(x, params.strip_x)
    f &= x <= params.strip_x + params.strip_eps
    f &= y < 0.5
    return f


def time_reversal_arrays(x: np.ndarray, y: np.ndarray):
    """Self-inverse time-reversal map G.

    Reflects each half square across its main (lower-left to upper-right)
    diagonal: the left half [0,1/2) x [0,1] maps onto the lower half via
    (x, y) -> (y/2, 2x) and the right half onto the upper half via
    (x, y) -> ((y+1)/2, 2x-1).  At q = 0 the baker map M satisfies
    M G M = G at every interior point.
    """
    left = x < 0.5
    xg = np.where(left, 0.5 * y, 0.5 * (y + 1.0))
    yg = np.where(left, 2.0 * x, 2.0 * x - 1.0)
    return xg, yg


_Q4 = (Region.D, Region.B, Region.C, Region.A)
_Q3 = (Region.A, Region.C, Region.B, Region.D)


def region_reverse(region: Region, scheme: ReversalScheme) -> Region:
    """Image of a region under the time-reversal scheme (an involution)."""
    table = _Q4 if scheme is ReversalScheme.Q4 else _Q3
    return table[region]


def check_reversibility(
    params: MapParams,
    x: np.ndarray,
    y: np.ndarray,
    variant: MapVariant = MapVariant.REVERSIBLE,
) -> ReversibilityReport:
    """Measure how well M G M = G holds at the points (x, y).

    Applies the selected dynamics F on both ends of the reversal and
    reports the sup-norm deviation between F(G(F(p))) and G(p), and the
    Jacobian pairing between the regions of p and G(F(p)).  Deviations at
    rounding level certify reversibility; order-one deviations mean the
    identity fails (q != 0, or the irreversible variant inside the strip).
    The caller picks the points: the tests pass the columns of
    ``ensemble.sample_ensemble``, and ``selftest`` a fixed deterministic
    set, so that it loads no random generator.
    """
    fx, fy = step_arrays(x, y, params, variant)
    gx, gy = time_reversal_arrays(fx, fy)
    hx, hy = step_arrays(gx, gy, params, variant)
    tx, ty = time_reversal_arrays(x, y)
    dev = np.maximum(np.abs(hx - tx), np.abs(hy - ty))
    J = jacobians(params)
    pairing = np.abs(J[region_indices(x, params.ell)] * J[region_indices(gx, params.ell)] - 1.0)
    return ReversibilityReport(
        max_deviation=float(dev.max()),
        mean_deviation=float(dev.mean()),
        max_pairing_deviation=float(pairing.max()),
        n_samples=len(x),
    )
