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

All functions here are pure and stateless and operate on numpy vectors.
The ensemble step kernel ``step_arrays`` walks the members in cache-sized
blocks: per block it looks up the regions, fetches every branch coefficient
with one gather from a cached table, and writes the affine update, the clip
and the flip in place into the new arrays.  The x-only step gathers rows
``(ax, bx, phi, 0)`` of ``_x_step_table(params, phi)`` at the regions of x
instead: a caller that looks the regions up itself passes them, and gets
phi at them, column 2 of the same gather, for the reduction it runs, so
one lookup and one gather per member serve both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

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


# members per block of ``step_arrays``: with y, a block touches about 72
# bytes a member (x, y, their images, a 32-byte coefficient row and the
# gather's index), some 2.3 MB, about one core's L2 on common x86 parts
_BLOCK = 32_768


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


@dataclass(frozen=True)
class MapParams:
    """Parameters of one map instance.

    ``ell`` in (0, 1/4] sets the partition; ``q`` in [0, 1/2) tilts the
    vertical rates (q = 0 is the equilibrium line).  ``strip_x`` and
    ``strip_eps`` delimit the flip strip [strip_x, strip_x + strip_eps];
    they default to [ell, 1/2], the full B slab.
    """

    ell: float
    q: float = 0.0
    strip_x: float | None = None
    strip_eps: float | None = None

    def __post_init__(self):
        if not 0.0 < self.ell <= 0.25:
            raise DomainError(f"ell must lie in (0, 1/4], got {self.ell}")
        if not 0.0 <= self.q <= 0.5:
            raise DomainError(f"q must lie in [0, 1/2], got {self.q}")
        if self.strip_x is None:
            object.__setattr__(self, "strip_x", self.ell)
        if self.strip_eps is None:
            object.__setattr__(self, "strip_eps", 0.5 - self.ell)
        if not 0.0 <= self.strip_x < 1.0:
            raise DomainError(f"strip_x must lie in [0, 1), got {self.strip_x}")
        if not (self.strip_eps >= 0.0 and self.strip_x + self.strip_eps <= 1.0):  # NaN fails too
            raise DomainError(
                f"strip [{self.strip_x}, {self.strip_x + self.strip_eps}] "
                "must be contained in [0, 1]"
            )
        # all four volume ratios must stay strictly positive; q = 1/2 would
        # collapse region A (and q = 1 - 2 ell region B) to zero volume
        if min(jacobians(self)) <= 0.0:
            raise DomainError(
                f"Jacobians must be strictly positive; got {jacobians(self)} "
                f"for ell={self.ell}, q={self.q}"
            )


@dataclass(frozen=True)
class ReversibilityReport:
    """Result of a Monte Carlo reversibility check.

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


@lru_cache(maxsize=128)
def branch_coefficients(params: MapParams):
    """Affine coefficients (ax, bx, ay, by) of the four branches,
    indexed by region, so that (x, y) -> (ax x + bx, ay y + by)."""
    ell, q = params.ell, params.q
    ax = np.array([1.0 / (2.0 * ell), 1.0 / (1.0 - 2.0 * ell), 2.0, 2.0])
    bx = np.array([0.5, -ell / (1.0 - 2.0 * ell), -0.5, -1.5])
    ay = np.array([0.5 - q, 1.0 - 2.0 * ell - q, 0.5 + q, 2.0 * ell + q])
    by = np.array([0.5 + q, 2.0 * ell + q, 0.0, 0.0])
    for a in (ax, bx, ay, by):
        a.setflags(write=False)
    return ax, bx, ay, by


@lru_cache(maxsize=128)
def _coefficient_table(params: MapParams) -> np.ndarray:
    """``branch_coefficients`` as one (4, 4) table of rows (ax, bx, ay, by),
    so that one gather per member fetches every coefficient its step
    needs."""
    table = np.stack(branch_coefficients(params), axis=1)
    table.setflags(write=False)
    return table


def _x_step_table(params: MapParams, phi: np.ndarray | None = None) -> np.ndarray:
    """The read-only (4, 4) table whose row r is ``(ax[r], bx[r], phi[r], 0)``
    (``phi`` is 0 where None).

    Rows gathered from it at the regions of x are the coefficients of the
    x-only ``step_arrays``, and their column 2 is the region observable
    ``phi`` at those regions.  The fourth column pads a row to 32 bytes: a
    gather of four float64 columns costs what one of two does, and one of
    three about twice as much.
    """
    ax, bx = branch_coefficients(params)[:2]
    phi = np.zeros(4) if phi is None else np.asarray(phi, dtype=float)
    table = np.stack([ax, bx, phi, np.zeros(4)], axis=1)
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
            1.0 / (4.0 * ell) - q / (2.0 * ell),
            1.0 - q / (1.0 - 2.0 * ell),
            1.0 + 2.0 * q,
            4.0 * ell + 2.0 * q,
        ),
        axis=-1,
    )


def contraction_rates(params: MapParams) -> np.ndarray:
    """Contraction rates for all four regions."""
    return -np.log(jacobians(params))


def step_arrays(
    x: np.ndarray,
    y: np.ndarray | None,
    params: MapParams,
    variant: MapVariant = MapVariant.REVERSIBLE,
    regions: np.ndarray | None = None,
    table: np.ndarray | None = None,
    values: np.ndarray | None = None,
):
    """One iteration of the selected dynamics.

    Returns ``(x_new, y_new)``.  With ``y=None`` only x advances (it never
    reads y) and ``y_new`` is None.
    The irreversible variant then flips y -> 1 - y where the new point lies
    in the strip with y < 1/2; x is untouched and a zero-width strip flips
    nothing.

    Members are stepped in blocks of ``_BLOCK``, written in place into the
    new arrays, so that every temporary stays in cache; the arithmetic is
    exactly ``clip(a[r] * v + b[r], 0, 1)`` per coordinate, then the flip.

    The x-only step fetches its coefficients with ``_x_gather`` from
    ``table``, rows ``(ax, bx, phi, 0)`` as built by ``_x_step_table``, at
    ``regions``, the regions of x.  A caller that has looked them up passes
    them, and one that reduces phi at them passes ``values`` too, which
    receives phi[regions]; where ``regions`` or ``table`` is None the
    kernel looks the regions up or builds the table (phi = 0) itself.  With
    y all three must be None.
    """
    n = len(x)
    xn = np.empty(n)
    if y is None:
        regions = region_indices(x, params.ell) if regions is None else regions
        _x_gather(regions, _x_step_table(params) if table is None else table, values, x, xn)
        return xn, None
    if regions is not None or table is not None or values is not None:
        raise ValueError("regions, table and values are for the x-only step; y must be None")
    table = _coefficient_table(params)
    flip = variant is MapVariant.IRREVERSIBLE and params.strip_eps > 0.0
    yn = np.empty(n)
    coef = np.empty((min(n, _BLOCK), 4))
    for start in range(0, n, _BLOCK):
        b = slice(start, start + _BLOCK)
        rb = region_indices(x[b], params.ell)
        c = np.take(table, rb.view(np.uint8), axis=0, mode="clip", out=coef[: len(rb)])
        _affine_clip(c[:, 0], x[b], c[:, 1], xn[b])
        yb = _affine_clip(c[:, 2], y[b], c[:, 3], yn[b])
        if flip:
            # after the clip y lies in [0, 1] and is never -0.0 (by >= +0),
            # so |f - y| is 1 - y where the flip holds (f = 1) and y
            # itself elsewhere, bit for bit, with no masked loop
            np.subtract(_in_strip(xn[b], yb, params), yb, out=yb)
            np.absolute(yb, out=yb)
    return xn, yn


def _x_gather(
    regions: np.ndarray,
    table: np.ndarray,
    values: np.ndarray | None,
    x: np.ndarray | None = None,
    xn: np.ndarray | None = None,
) -> None:
    """One gather per member of the rows of an ``_x_step_table`` at the int8
    ``regions``, in blocks of ``_BLOCK`` into one cache-sized buffer: column
    2 is copied into ``values`` unless it is None, and where ``xn`` is given
    the x step ``clip(ax * x + bx, 0, 1)`` is written into it."""
    n = len(regions)
    coef = np.empty((min(n, _BLOCK), 4))
    for start in range(0, n, _BLOCK):
        b = slice(start, start + _BLOCK)
        rb = regions[b]
        c = table.take(rb.view(np.uint8), axis=0, mode="clip", out=coef[: len(rb)])
        if values is not None:
            values[b] = c[:, 2]
        if xn is not None:
            _affine_clip(c[:, 0], x[b], c[:, 1], xn[b])


def _affine_clip(a: np.ndarray, v: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``clip(a * v + b, 0, 1)`` written into ``out``, rounded as that
    expression is."""
    np.multiply(a, v, out=out)
    out += b
    return out.clip(0.0, 1.0, out=out)  # np.clip's wrapper adds about 1.3 us a call


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
    n_samples: int,
    variant: MapVariant = MapVariant.REVERSIBLE,
    seed: int = 0,
) -> ReversibilityReport:
    """Measure how well M G M = G holds over random points.

    Draws the uniform points p of ``sample_ensemble(n_samples, seed)``,
    applies the selected dynamics F on both ends of the reversal, and
    reports the sup-norm deviation between F(G(F(p))) and G(p), and the
    Jacobian pairing between the regions of p and G(F(p)).  Deviations at
    rounding level certify reversibility; order-one deviations mean the
    identity fails (q != 0, or the irreversible variant inside the strip).
    """
    from .ensemble import sample_ensemble  # ensemble imports this module

    pts = sample_ensemble(n_samples, seed)
    x, y = pts[:, 0], pts[:, 1]
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
        n_samples=int(n_samples),
    )
