"""Closed-form stochastic description of the x-projected dynamics.

Projecting the baker dynamics onto the x-axis yields a two-cell transfer
matrix for densities and, on the four-cell partition, a Markov jump chain
whose transition matrix depends on ``ell`` only.  Everything in this module
is computed in closed form; eigen-solvers appear solely in cross-checking
helpers.  The exact finite-n distribution of the accumulated contraction
rate doubles as the oracle backing every Monte Carlo fluctuation result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError
from .mapcore import MapParams, Region, ReversalScheme, contraction_rates, region_reverse

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
    "chain_autocovariance",
    "contraction_autocovariance",
    "contraction_c2",
    "db_report",
    "contraction_sum_distribution",
    "MAX_N",
    "GENERIC_MAX_N",
]

# caps on n for contraction_sum_distribution: MAX_N for every parameter set,
# GENERIC_MAX_N off the lattice-collapsible families, whose DP state holds
# 3(n+1)^2 coordinates (n_A, n_B, n_D - n_A) per region
MAX_N = 2000
GENERIC_MAX_N = 128


def _validate_ell(ell: float) -> None:
    if not 0.0 < ell <= 0.25:
        raise DomainError(f"ell must lie in (0, 1/4], got {ell}")


class ProjectedDensity(NamedTuple):
    """Piecewise-constant invariant density of the x-projection."""

    rho_l: float
    rho_r: float


def transfer_matrix(ell: float) -> np.ndarray:
    """Transfer operator on (rho_l, rho_r), the densities of the two
    half-interval cells; columns sum to one."""
    _validate_ell(ell)
    return np.array([[1.0 - 2.0 * ell, 0.5], [2.0 * ell, 0.5]])


def stationary_density(ell: float) -> ProjectedDensity:
    """Fixed point of the transfer operator: rho_l = 2/(1+4 ell),
    rho_r = 8 ell/(1+4 ell).  Independent of q."""
    _validate_ell(ell)
    denom = 1.0 + 4.0 * ell
    return ProjectedDensity(2.0 / denom, 8.0 * ell / denom)


def transition_matrix(ell: float) -> np.ndarray:
    """Row-stochastic transition matrix of the four-cell jump chain
    (row = source region, column = target region)."""
    _validate_ell(ell)
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
    _validate_ell(ell)
    denom = 1.0 + 4.0 * ell
    a = 2.0 * ell / denom
    b = (1.0 - 2.0 * ell) / denom
    return np.array([a, b, a, a])


def mean_contraction_rate(ell: float, q: float) -> float:
    """Stationary mean of the contraction rate: -sum_i mu_i log J_i.

    Vanishes identically on the q = 0 line; on the family q = 1/2 - 2 ell it
    reduces to (1-4 ell)/(1+4 ell) * log(2 (1-2 ell)).
    """
    params = MapParams(ell=ell, q=q)
    mu = coarse_measure(ell)
    return float(mu @ contraction_rates(params))


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


def contraction_autocovariance(ell: float, q: float, k_max: int) -> np.ndarray:
    """Stationary autocovariances cov(L_0, L_k) of the contraction rate for
    k = 0..k_max, computed from the jump chain."""
    return chain_autocovariance(ell, contraction_rates(MapParams(ell=ell, q=q)), k_max)


def contraction_c2(ell: float, q: float, k_max: int = 200) -> float:
    """Integrated autocovariance C2 = var + 2 sum_{k>=1} cov(L_0, L_k);
    the curvature of the Gaussian rate-function approximation is
    mean^2 / (2 C2)."""
    cov = contraction_autocovariance(ell, q, k_max)
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
    _validate_ell(ell)
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


def _lattice_structure(rates: np.ndarray, tol: float = 1e-12):
    """Detect whether the four rates live on a one-dimensional integer
    lattice c * m with m in {-1, 0, +1}^4.  Covers the q = 0 family
    (rates (-c, 0, 0, +c)) and the q = 1/2 - 2 ell family ((0, c, -c, 0))."""
    a, b, c, d = (float(v) for v in rates)
    if abs(b) <= tol and abs(c) <= tol and abs(a + d) <= tol:
        return np.array([-1, 0, 0, 1]), 0.5 * (d - a)
    if abs(a) <= tol and abs(d) <= tol and abs(b + c) <= tol:
        return np.array([0, 1, -1, 0]), 0.5 * (b - c)
    return None


# incoming edges of the jump chain: A <- {B, D}, B <- {B, D}, C <- {A, C}, D <- {A, C}
_SOURCES = ((1, 3), (1, 3), (0, 2), (0, 2))


def _log_dp(ell: float, m: np.ndarray, lo: np.ndarray, shape: tuple, n: int):
    """Log-space DP over (current region, integer coordinate vector c).

    Visiting region r adds the shift ``m[r]`` to c, and c lives in the box
    with lower corner ``lo`` and extent ``shape``.  Returns the reachable
    coordinates, one row each, and their log-probabilities."""
    mu = coarse_measure(ell)
    P = transition_matrix(ell)
    with np.errstate(divide="ignore"):
        lp = np.log(P)
    state = np.full((4,) + shape, -np.inf)
    for r in range(4):
        state[(r,) + tuple(m[r] - lo)] = np.log(mu[r])

    # per target region: the box cells its shift moves into (dst) and the
    # cells that stay inside the box (src); the rest would leave it
    moves = [
        (
            tuple(slice(k, None) if k > 0 else slice(None, k or None) for k in mr),
            tuple(slice(None, -k) if k > 0 else slice(-k, None) for k in mr),
        )
        for mr in m
    ]
    for _ in range(n - 1):
        new = np.full_like(state, -np.inf)
        for tgt, (s1, s2) in enumerate(_SOURCES):
            dst, src = moves[tgt]
            new[(tgt,) + dst] = np.logaddexp(state[s1][src] + lp[s1, tgt], state[s2][src] + lp[s2, tgt])
        state = new

    with np.errstate(invalid="ignore"):
        total = state[0]
        for r in range(1, 4):
            total = np.logaddexp(total, state[r])
    mask = total > -np.inf
    return np.argwhere(mask) + lo, total[mask]


def _generic_sums(ell: float, rates: np.ndarray, n: int):
    """Atoms of the sum for generic rates, from the visit counts.

    After A the chain stays in {C, D} until it leaves D, and after D it
    stays in {A, B} until it leaves A, so A and D alternate and
    e = n_D - n_A lies in {-1, 0, 1}: the DP tracks c = (n_A, n_B, e)."""
    m = np.array([[1, 0, -1], [0, 1, 0], [0, 0, 0], [0, 0, 1]])
    coords, log_probs = _log_dp(ell, m, np.array([0, 0, -1]), (n + 1, n + 1, 3), n)
    na, nb, e = coords.T
    nd = na + e
    nc = n - na - nb - nd
    values = na * rates[0] + nb * rates[1] + nc * rates[2] + nd * rates[3]
    # merge count vectors that land on the same sum value: an atom within
    # 1e-9 of the first value of the current group joins that group
    order = np.argsort(values, kind="stable")
    values, log_probs = values[order], log_probs[order]
    flat, starts = values.tolist(), [0]
    for i, v in enumerate(flat):
        if v - flat[starts[-1]] > 1e-9:
            starts.append(i)
    return values[starts], np.logaddexp.reduceat(log_probs, starts)


def contraction_sum_distribution(ell: float, q: float, n: int) -> ContractionDistribution:
    """Exact law of the n-step contraction sum of the stationary jump chain.

    The sum depends on the region sequence only through visit counts, which
    one log-space DP tracks as an integer coordinate vector.  On the q = 0
    and q = 1/2 - 2 ell families the counts collapse to a single signed
    difference, giving 2n+1 states per region and O(n^2) work up to
    ``MAX_N``; elsewhere the coordinates are (n_A, n_B, n_D - n_A), giving
    3(n+1)^2 states per region and O(n^3) work, and n is capped at
    ``GENERIC_MAX_N``.
    """
    _validate_ell(ell)
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > MAX_N:
        raise CapacityError(f"n={n} exceeds the limit {MAX_N}")
    rates = contraction_rates(MapParams(ell=ell, q=q))
    if np.max(np.abs(rates)) == 0.0:
        return ContractionDistribution(n=n, sums=np.zeros(1), log_probs=np.zeros(1))
    lattice = _lattice_structure(rates)
    if lattice is not None:
        m, scale = lattice
        coords, log_probs = _log_dp(ell, m[:, None], np.array([-n]), (2 * n + 1,), n)
        return ContractionDistribution(n=n, sums=scale * coords[:, 0], log_probs=log_probs)
    if n > GENERIC_MAX_N:
        raise CapacityError(
            f"n={n} exceeds the generic-parameter limit {GENERIC_MAX_N}; "
            "only the q=0 and q=1/2-2*ell families support larger n"
        )
    values, log_probs = _generic_sums(ell, rates, n)
    return ContractionDistribution(n=n, sums=values, log_probs=log_probs)
