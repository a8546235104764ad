"""Closed-form stochastic description of the x-projected dynamics.

Projecting the baker dynamics onto the x-axis yields a two-cell transfer
matrix for densities and, on the four-cell partition, a Markov jump chain
whose transition matrix depends on ``ell`` only; eigen-solvers appear
solely in cross-checking helpers.  The exact finite-n law of the accumulated
contraction rate, a closed-form count law (on two lattice families a 1-d
probability DP, kept in scaled linear space: mantissas with integer
exponents), doubles as the oracle backing every Monte Carlo fluctuation
result.

A process holds the ``_LAWS_HELD`` (32) lattice-family laws it used most
recently, read-only and keyed by (ell, q, n), and hands each caller fresh
writable copies, so a law asked for twice (``fr`` then ``ratefunc``, or a
test suite) is built once; a law at ``MAX_N`` is 4,001 atoms, so they take
at most about 2 MB.  Generic laws are not held: one at n = 2000 is 3,002,002
atoms (48 MB) and peaks near 384 MB while it is built.  A one-shot CLI run
builds each law once either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CapacityError, DomainError, _in_range, _refuse
from .mapcore import MapParams, Region, ReversalScheme, _jacobians, contraction_rates, region_reverse

__all__ = [
    "ProjectedDensity",
    "DBPair",
    "DBReport",
    "ContractionDistribution",
    "transfer_matrix",
    "stationary_density",
    "transition_matrix",
    "coarse_measure",
    "mean_contraction_rate",
    "mean_contraction_rate_grid",
    "chain_autocovariance",
    "contraction_c2",
    "db_report",
    "contraction_sum_distribution",
    "MAX_N",
]

# cap on n for contraction_sum_distribution: at MAX_N the generic law holds
# about 3.0M atoms
MAX_N = 2000
# widest (ell, q) grid of mean_contraction_rate_grid, 2000 x 2000: its
# float64 temporaries take about 0.4 GiB at the cap
_MAX_GRID_CELLS = 4_000_000


# the claim of the step count n of an exact law
_n_claim = _in_range(1, MAX_N)


def _grid_claim(n_ell: int, n_q: int, name: Callable[[str], str] = str) -> str | None:
    """Why an (ell, q) grid of ``n_ell`` x ``n_q`` points is refused, each
    axis needing one, or None; ``name`` prints each axis, ells or qs."""
    for axis, points in ("ells", n_ell), ("qs", n_q):
        if (claim := _in_range(1)(points)) is not None:
            return f"{name(axis)} {claim}, got {points}"
    if n_ell * n_q <= _MAX_GRID_CELLS:
        return None
    return f"{name('ells')} x {name('qs')} must be <= {_MAX_GRID_CELLS} cells, got {n_ell} x {n_q}"


class ProjectedDensity(NamedTuple):
    """Piecewise-constant invariant density of the x-projection."""

    rho_l: float
    rho_r: float


def transfer_matrix(ell: float) -> np.ndarray:
    """Transfer operator on (rho_l, rho_r), the densities of the two
    half-interval cells; columns sum to one."""
    MapParams(ell)  # range check only
    return np.array([[1.0 - 2.0 * ell, 0.5], [2.0 * ell, 0.5]])


def stationary_density(ell: float) -> ProjectedDensity:
    """Fixed point of the transfer operator: rho_l = 2/(1+4 ell),
    rho_r = 8 ell/(1+4 ell).  Independent of q."""
    MapParams(ell)  # range check only
    denom = 1.0 + 4.0 * ell
    return ProjectedDensity(2.0 / denom, 8.0 * ell / denom)


def transition_matrix(ell: float) -> np.ndarray:
    """Row-stochastic transition matrix of the four-cell jump chain
    (row = source region, column = target region)."""
    MapParams(ell)  # range check only
    two_ell = 2.0 * ell
    rest = 1.0 - 2.0 * ell
    return np.array(
        [
            [0.0, 0.0, 0.5, 0.5],
            [two_ell, rest, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [two_ell, rest, 0.0, 0.0],
        ]
    )


def coarse_measure(ell: float) -> np.ndarray:
    """Unique stationary measure of the jump chain, indexed by region:
    mu_A = mu_C = mu_D = 2 ell/(1+4 ell) and mu_B = (1-2 ell)/(1+4 ell)."""
    MapParams(ell)  # range check only
    return _coarse_measure(ell)


def _coarse_measure(ell) -> np.ndarray:
    """``coarse_measure`` at an array of ``ell``, indexed by region along a
    new last axis; no range check."""
    denom = 1.0 + 4.0 * ell
    a = 2.0 * ell / denom
    b = (1.0 - 2.0 * ell) / denom
    return np.stack(np.broadcast_arrays(a, b, a, a), axis=-1)


def mean_contraction_rate(ell: float, q: float) -> float:
    """Stationary mean of the contraction rate: -sum_i mu_i log J_i.

    Vanishes identically on the q = 0 line; on the family q = 1/2 - 2 ell it
    reduces to (1-4 ell)/(1+4 ell) * log(2 (1-2 ell)).
    """
    return float(mean_contraction_rate_grid(np.array([ell]), np.array([q]))[0, 0])


def mean_contraction_rate_grid(ells: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Stationary mean contraction rates ``mu @ contraction_rates`` at every
    (ell, q) of a grid, in one pass, of shape (len(ells), len(qs)).

    An empty grid, or one of more than ``_MAX_GRID_CELLS`` cells, is
    refused (``_grid_claim``), and the first invalid cell in row-major
    order raises the ``DomainError`` that ``MapParams`` raises for it.
    Each dot product is a stacked matmul, which rounds as the 1-d
    ``mu @ rates`` does; a sum over the last axis does not.
    """
    ell = np.asarray(ells, dtype=float)[:, None]
    q = np.asarray(qs, dtype=float)[None, :]
    if (claim := _grid_claim(ell.size, q.size, lambda axis: f"len({axis})")) is not None:
        raise (DomainError if min(ell.size, q.size) < 1 else CapacityError)(claim)
    e, v = ell[:, 0].tolist(), q[0].tolist()  # row 0, then column 0, meets the first invalid cell first
    for cell in (*zip(e[:1] * len(v), v), *zip(e, v[:1] * len(e))):
        MapParams(*cell)
    return (_coarse_measure(ell)[..., None, :] @ -np.log(_jacobians(ell, q))[..., :, None])[..., 0, 0]


def chain_autocovariance(ell: float, phi: np.ndarray, k_max: int) -> np.ndarray:
    """Stationary autocovariances cov(phi_0, phi_k) of a region observable
    for k = 0..k_max: (mu * phi) @ P^k phi - (mu @ phi)^2 on the jump chain."""
    if k_max < 0:
        raise DomainError("k_max must be >= 0")
    mu = coarse_measure(ell)
    P = transition_matrix(ell)
    mean = float(mu @ phi)
    weights = mu * phi
    u = np.array(phi, dtype=float)
    cov = np.empty(k_max + 1)
    for k in range(k_max + 1):
        cov[k] = float(weights @ u) - mean * mean
        u = P @ u
    return cov


# lags summed by contraction_c2; the covariances decay geometrically with
# ratio |1/2 - 2 ell| < 1/2, so the neglected tail is far below rounding
_C2_LAGS = 200


def contraction_c2(ell: float, q: float) -> float:
    """Integrated autocovariance C2 = var + 2 sum_{k>=1} cov(L_0, L_k);
    the curvature of the Gaussian rate-function approximation is
    mean^2 / (2 C2)."""
    cov = chain_autocovariance(ell, contraction_rates(MapParams(ell=ell, q=q)), _C2_LAGS)
    return float(cov[0] + 2.0 * cov[1:].sum())


@dataclass(frozen=True)
class DBPair:
    """One ordered transition and its time reverse."""

    source: Region
    target: Region
    forward_weight: float
    reverse_source: Region
    reverse_target: Region
    reverse_weight: float

    @property
    def mismatch(self) -> float:
        return abs(self.forward_weight - self.reverse_weight)


@dataclass(frozen=True)
class DBReport:
    """Detailed-balance comparison of joint transition weights."""

    ell: float
    q: float
    scheme: ReversalScheme
    pairs: tuple[DBPair, ...]
    max_mismatch: float

    def pair(self, source: Region, target: Region) -> DBPair:
        for p in self.pairs:
            if p.source == source and p.target == target:
                return p
        raise KeyError(f"no transition {source.name} -> {target.name} in report")


def db_report(ell: float, q: float, scheme: ReversalScheme) -> DBReport:
    """Compare each joint weight mu_i p_ij against the weight of its time
    reverse mu_{Qj} p_{Qj,Qi}.

    The transition structure does not depend on q; q is recorded to label
    the dynamical family under test.  Joint weights are assembled as
    (numerator_i * p_ij) / (1 + 4 ell) so that weights paired by the
    reversal share a bitwise-identical arithmetic form: at q = 0 under Q4
    every mismatch is exactly zero, not merely small.
    """
    MapParams(ell=ell, q=q)  # range check only
    P = transition_matrix(ell)
    two_ell = 2.0 * ell
    rest = 1.0 - 2.0 * ell
    numer = np.array([two_ell, rest, two_ell, two_ell])
    denom = 1.0 + 4.0 * ell
    weight = (numer[:, None] * P) / denom

    pairs = []
    for i in Region:
        for j in Region:
            if P[i, j] == 0.0:
                continue
            qi = region_reverse(i, scheme)
            qj = region_reverse(j, scheme)
            pairs.append(
                DBPair(
                    source=i,
                    target=j,
                    forward_weight=float(weight[i, j]),
                    reverse_source=qj,
                    reverse_target=qi,
                    reverse_weight=float(weight[qj, qi]),
                )
            )
    max_mismatch = max(p.mismatch for p in pairs)
    return DBReport(ell=ell, q=q, scheme=scheme, pairs=tuple(pairs), max_mismatch=max_mismatch)


@dataclass(frozen=True)
class ContractionDistribution:
    """Exact distribution of the n-step contraction sum over stationary
    region sequences.

    ``sums`` holds the support of n * (time-averaged rate); ``log_probs``
    the log-probability of each atom (kept in log space so that deep tails
    survive n in the thousands).
    """

    n: int
    sums: np.ndarray
    log_probs: np.ndarray

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def mean_time_average(self) -> float:
        """E[sum]/n; equals the stationary mean rate for every n."""
        return float(self.probs @ self.sums) / self.n


# family residuals allowed, in units of the rounding of the rates they test
_LATTICE_ULPS = 4


def _lattice_structure(ell: float, rates: np.ndarray):
    """Detect whether the four rates live on a one-dimensional integer
    lattice c * m with m in {-1, 0, +1}^4.  Covers the q = 0 family
    (rates (-c, 0, 0, +c)) and the q = 1/2 - 2 ell family ((0, c, -c, 0)).

    Each residual is measured in the rounding of what it tests: a few
    spacings of max(1, max |rate|), except rate A on q = 1/2 - 2 ell: that q
    is rounded, so J_A = (1 - 2q)/(4 ell) misses 1 by up to half a spacing
    of 1/(4 ell), 827 spacings of 1 at ell = 1.36e-5."""
    a, b, c, d = (float(v) for v in rates)
    tol = _LATTICE_ULPS * np.spacing(max(1.0, abs(a), abs(b), abs(c), abs(d)))
    if abs(b) <= tol and abs(c) <= tol and abs(a + d) <= tol:
        return np.array([-1, 0, 0, 1]), 0.5 * (d - a)
    if abs(a) <= _LATTICE_ULPS * np.spacing(1.0 / (4.0 * ell)) and abs(d) <= tol and abs(b + c) <= tol:
        return np.array([0, 1, -1, 0]), 0.5 * (b - c)
    return None


# most visits in one block of the DP, which rebases its exponents once a block
_DP_BLOCK = 64

# binary orders that a block may move a mantissa from [1/2, 1): a visit moves
# a value by less than 1/p_min = 1/(2 ell) against its scale at the block's
# start (at most 130 orders in 64 visits, at ell = 0.1), so blocks of
# _DP_SPAN / log2(1/p_min) visits keep every mantissa and product normal
_DP_SPAN = 900

_LN2 = math.log(2.0)


def _log_dp(ell: float, m: np.ndarray, n: int):
    """Probability DP over (class of the current region, signed count c in
    [-n, n]) in scaled linear space; visiting region r adds ``m[r]``, which
    ``_lattice_structure`` keeps in {-1, 0, +1}, so one zero cell on each
    side of [-n, n] makes every shift a plain slice.  Returns the reachable
    c and their log-probabilities.

    A cell holds a mantissa u and an integer exponent E, the value u 2**E.
    On both families m[B] = m[A] + 1 and m[D] = m[C] + 1, so the counts that
    entering A and B read from class row 1 are one (2, w) strided view of
    that row, and those that C and D read from row 0 one of row 0: a visit
    is ``classes = ab_read * w_ab + cd_read * w_cd``, three numpy calls.
    Once per block of visits ``np.frexp`` moves every mantissa back into
    [1/2, 1), adding its exponent to E, and each weight is rebuilt as
    p 2**(E_source - E_target); a cell not yet reached takes the exponent of
    the nearest reached cell in its row, which keeps every weight finite.
    Scaling by a power of two is exact, so the result is the float64 linear
    DP with an unbounded exponent, whose bits do not depend on where the
    blocks are cut.  A block holds ``_DP_BLOCK`` visits, or fewer when
    1/(2 ell) is so large that they could span more than ``_DP_SPAN``
    binary orders.  The views span only the reach |c| <= k after k visits,
    or |c| <= 1 on the q = 0 family, where A and D alternate, and are built
    once per block for the reach of the block's last visit; the cells that
    a visit cannot yet reach stay 0."""
    size = 2 * n + 1
    # row r % 2 holds the regions r of class 0 (A and C) and 1 (B and D):
    # the jump chain enters A and B only from {B, D} and C and D only from
    # {A, C}, so the next region's law depends only on the current class
    u = np.zeros((2, size + 2))  # cell n + 1 + c holds count c
    u[np.arange(4) % 2, n + 1 + m] = coarse_measure(ell)  # the four cells differ on both families
    u, exp = np.frexp(u)
    p = np.array([[2.0 * ell], [1.0 - 2.0 * ell], [0.5], [0.5]])  # of entering A, B, C, D
    p_ab, p_cd = p[:2], p[2:]
    block = min(_DP_BLOCK, max(1, int(_DP_SPAN / -math.log2(2.0 * ell))))
    # in the windows, column n + c holds count c; window j of a row is its
    # cells j..j + size - 1, so entering r reads window 1 - m[r], which holds
    # count c - m[r] at count c; the exponents have the same views
    windows = sliding_window_view(u, size, axis=1)
    exp_windows = sliding_window_view(exp, size, axis=1)
    ab_reads = windows[1, 1 - m[0] :: -1][:2]  # windows 1 - m[A], 1 - m[B] of row 1
    cd_reads = windows[0, 1 - m[2] :: -1][:2]  # windows 1 - m[C], 1 - m[D] of row 0
    exp_ab_reads = exp_windows[1, 1 - m[0] :: -1][:2]
    exp_cd_reads = exp_windows[0, 1 - m[2] :: -1][:2]
    counts, exp_counts = u[:, 1:-1], exp[:, 1:-1]
    weights, entered = np.empty((4, size)), np.empty((4, size))
    shift = np.empty_like(exp)  # the exponents frexp takes out, then exponent differences

    # visits 2, 3, ..., n in blocks
    for k in range(2, n + 1, block):
        visits = min(block, n + 1 - k)
        reach = 1 if m[1] == 0 else min(k + visits - 1, n)  # q = 0: m = (-1, 0, 0, 1)
        cells = slice(n - reach, n + reach + 1)
        span = slice(n - reach, n + reach + 3)  # the cells of the block and those they read
        u_span, exp_span, shift_span = u[:, span], exp[:, span], shift[:, span]
        np.frexp(u_span, out=(u_span, shift_span))
        np.add(exp_span, shift_span, out=exp_span)
        for row_u, row_exp in zip(u_span, exp_span):  # the reached cells of a row are contiguous
            reached = np.flatnonzero(row_u)
            row_exp[: reached[0]] = row_exp[reached[0]]
            row_exp[reached[-1] + 1 :] = row_exp[reached[-1]]
        d, exp_dst = shift[:, 1:-1][:, cells], exp_counts[:, cells]
        w_ab, w_cd = weights[:2, cells], weights[2:, cells]
        np.subtract(exp_ab_reads[:, cells], exp_dst, out=d)
        np.ldexp(p_ab, d, out=w_ab)
        np.subtract(exp_cd_reads[:, cells], exp_dst, out=d)
        np.ldexp(p_cd, d, out=w_cd)
        ab_read, cd_read, ab, cd, classes = (
            ab_reads[:, cells], cd_reads[:, cells], entered[:2, cells], entered[2:, cells], counts[:, cells]
        )
        for _ in range(visits):
            np.multiply(ab_read, w_ab, out=ab)
            np.multiply(cd_read, w_cd, out=cd)
            np.add(ab, cd, out=classes)  # rows A + C, B + D

    # the two classes of each count, added at the exponent of the larger
    mantissa, class_exp = np.frexp(counts)
    class_exp += exp_counts
    class_exp[mantissa == 0.0] = np.iinfo(exp.dtype).min // 2  # below every reached exponent
    top = class_exp.max(axis=0)
    total, total_exp = np.frexp(np.ldexp(mantissa[0], class_exp[0] - top) + np.ldexp(mantissa[1], class_exp[1] - top))
    total_exp += top
    mask = total > 0.0
    return np.flatnonzero(mask) - n, np.log(total[mask]) + total_exp[mask] * _LN2


# lattice laws a process holds; one at MAX_N is 4,001 atoms (64 kB)
_LAWS_HELD = 32


@lru_cache(maxsize=_LAWS_HELD)
def _lattice_law(ell: float, q: float, n: int):
    """The read-only atoms and log-probabilities of the lattice-family law
    at (ell, q, n), which ``contraction_sum_distribution`` has validated and
    found on a lattice; held for the next caller that asks for it."""
    m, scale = _lattice_structure(ell, contraction_rates(MapParams(ell=ell, q=q)))
    counts, log_probs = _log_dp(ell, m, n)
    sums = scale * counts
    sums.setflags(write=False)
    log_probs.setflags(write=False)
    return sums, log_probs


# cephes lgam's Stirling-series coefficients for x >= 13, highest power first
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, bitwise equal to ``scipy.special.gammaln(k + 1)``
    at every k <= MAX_N (a test checks them all).

    Repeats the steps that cephes ``lgam`` takes at an integer x = k + 1, in
    their order, with scalar ``math.log`` (the libm ``log`` that compiled
    cephes calls): x < 13 is the log of the exact product (x-1)(x-2)...2, and
    x >= 13 is Stirling's series, a degree-4 polynomial in 1/x^2.
    ``math.lgamma`` is not used: it differs from ``gammaln`` by up to 3 ulp
    at about half of these k.
    """
    out = np.empty(n + 1)
    z = 1.0
    for k in range(n + 1):
        x = k + 1.0
        if x < 13.0:
            if x >= 3.0:
                z *= k  # 2 * 3 * ... * k, an exact integer for k <= 11
            out[k] = math.log(z)
            continue
        q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178  # + log sqrt(2 pi)
        p = 1.0 / (x * x)
        poly = _LGAM_A[0]
        for coef in _LGAM_A[1:]:
            poly = poly * p + coef
        q += poly / x
        out[k] = q
    return out


def _generic_sums(ell: float, rates: np.ndarray, n: int):
    """Atoms of the sum for generic rates, in closed form from the counts.

    A path is its start half plus its switch steps: A leaves the left half
    {A, B} and D the right half {C, D}, so A and D alternate and
    e = n_D - n_A lies in {-1, 0, 1}.  The switch steps cut the path into
    n_D + 1 left and n_A right segments for a left start (e <= 0), n_D left
    and n_A + 1 right ones for a right start (e >= 0).  The n_B (n_C) stay
    steps fill the L left (R right) segments in C(n_B+L-1, L-1)
    (C(n_C+R-1, R-1)) ways, and each such path weighs
    (2 ell)^n_A (1-2 ell)^n_B 2^-(n_C+n_D) / (1+4 ell), times 4 ell when it
    starts on the right."""
    h = (n + 1) // 2  # n_A <= h, as 2 n_A - 1 <= n_A + n_D <= n
    a, b, e = np.arange(h + 1)[:, None, None], np.arange(n + 1)[:, None], np.arange(-1, 2)
    # n_C >= 0 and n_D >= 0, and with no switch step the path is B^n or C^n
    reachable = (2 * a + b + e <= n) & (a + e >= 0) & ((a > 0) | (e != 0) | (b == 0) | (b == n))
    na, nb, e = np.nonzero(reachable)  # in (n_A, n_B, e) order
    e -= 1
    nd = na + e
    nc = n - na - nb - nd
    # log k!, rounded as scipy's gammaln rounds it; a running sum of log k drifts by ~1e-11
    log_fact = _log_factorials(n)

    def log_ways(stays, segments):  # log C(stays+segments-1, segments-1); no segment holds no stay
        ways = log_fact[stays + segments - 1] - log_fact[stays] - log_fact[segments - 1]
        return np.where(segments > 0, ways, np.log(stays == 0))

    # only e <= 0 starts left and only e >= 0 right, so each case is evaluated
    # on its own atoms and the two meet in np.logaddexp only where e = 0 (at
    # e = 1 the left case is -inf, and np.logaddexp(-inf, r) is r exactly)
    lo, hi = np.flatnonzero(e <= 0), np.flatnonzero(e >= 0)
    log_start = np.full(len(e), -np.inf)
    with np.errstate(divide="ignore"):
        log_start[lo] = log_ways(nb[lo], nd[lo] + 1) + log_ways(nc[lo], na[lo])
        right = log_ways(nb[hi], nd[hi]) + log_ways(nc[hi], na[hi] + 1) + np.log(4.0 * ell)
    log_start[hi] = np.logaddexp(log_start[hi], right)
    log_probs = log_start + (
        na * np.log(2.0 * ell) + nb * np.log(1.0 - 2.0 * ell) - (nc + nd) * np.log(2.0) - np.log(1.0 + 4.0 * ell)
    )
    values = na * rates[0] + nb * rates[1] + nc * rates[2] + nd * rates[3]
    # merge count vectors that land on the same sum value: sorted neighbours within
    # 1e-9 join one group (which spans only rounding error), valued at its first atom
    order = np.argsort(values, kind="stable")
    values, log_probs = values[order], log_probs[order]
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > 1e-9)
    return values[starts], np.logaddexp.reduceat(log_probs, starts)


def contraction_sum_distribution(ell: float, q: float, n: int) -> ContractionDistribution:
    """Exact law of the n-step contraction sum of the stationary jump chain.

    The sum depends on the region sequence only through visit counts.  On
    the q = 0 and q = 1/2 - 2 ell families the counts collapse to a single
    signed difference, which a probability DP over 2n+1 states per class,
    each value a float64 mantissa with an integer exponent, tracks in O(n^2)
    work; elsewhere each atom (n_A, n_B, n_D - n_A) has a
    closed-form log-probability made of log-binomials, O(n^2) atoms in all.
    Both serve n up to ``MAX_N``.

    Every call validates its arguments.  The ``_LAWS_HELD`` (32) lattice
    laws used most recently are held read-only, so a repeated (ell, q, n)
    costs a lookup and two copies; each call returns fresh writable arrays.
    A generic law is built on every call: at n = 2000 it is 3,002,002 atoms
    (48 MB) with a peak near 384 MB, too large to hold.
    """
    params = MapParams(ell=ell, q=q)
    _refuse("n", n, _n_claim, DomainError if n < 1 else CapacityError)
    rates = contraction_rates(params)
    if np.max(np.abs(rates)) == 0.0:
        return ContractionDistribution(n=n, sums=np.zeros(1), log_probs=np.zeros(1))
    if _lattice_structure(ell, rates) is not None:
        sums, log_probs = _lattice_law(ell, q, n)
        return ContractionDistribution(n=n, sums=sums.copy(), log_probs=log_probs.copy())
    values, log_probs = _generic_sums(ell, rates, n)
    return ContractionDistribution(n=n, sums=values, log_probs=log_probs)
