"""Current observable, bias algebra and Green-Kubo transport estimates.

The current assigns +1 to region B, -1 to region C and 0 to A and D; it is
odd under the B/C reversal scheme and its stationary mean (1-4 ell)/(1+4 ell)
vanishes only at ell = 1/4.  The transport coefficient is estimated by the
truncated autocorrelation sum

    L = (1/N_ens) sum_j sum_{k=0}^{N_iter-1} [psi(x_k^j) psi(x_0^j) - <psi>^2]

over an ensemble of initial conditions, and checked against the exact
chain expression sum_k [psi^T diag(mu) P^k psi - <psi>^2].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError, DomainError, _in_range, _refusal, _refuse
from .ensemble import _MAX_ENSEMBLE, SimConfig, _moment_claim, lag_products
from .mapcore import MapParams, _ell_claim
from .markov import _second_eigenvalue, chain_autocovariance

__all__ = [
    "PSI",
    "GKConfig",
    "GKResult",
    "mean_current",
    "bias_of_ell",
    "ell_of_bias",
    "green_kubo_estimate",
    "green_kubo_exact",
    "bias_sweep",
]

# current observable, indexed by region
PSI = np.array([0.0, 1.0, -1.0, 0.0])
PSI.setflags(write=False)

# relative drift of the last quarter of partial sums accepted as converged
_DRIFT_TOL = 0.01
# most lags green_kubo_exact sums; its terms and partial sums hold k_max + 1
# floats each, so a larger k_max can exhaust memory
_MAX_K = 1_000_000


def mean_current(ell: float) -> float:
    """Stationary mean of the current: (1-4 ell)/(1+4 ell) = mu_B - mu_C."""
    MapParams(ell)  # range check only
    return (1.0 - 4.0 * ell) / (1.0 + 4.0 * ell)


def bias_of_ell(ell: float) -> float:
    """Effective driving strength b = 2 - 1/(1 - 2 ell); zero at ell = 1/4."""
    MapParams(ell)  # range check only
    return 2.0 - 1.0 / (1.0 - 2.0 * ell)


def ell_of_bias(b: float) -> float:
    """Inverse of ``bias_of_ell``, for b whose ell lies in the map's domain."""
    _refuse("bias", b, _bias_claim)
    return 0.5 * (1.0 - 1.0 / (2.0 - b))


def _bias_claim(b: float) -> str | None:
    """Why the bias b has no ell in the map's domain, or None; b = 1 - 2**-53 rounds its ell to 0."""
    if not 0.0 <= b < 1.0:
        return "must lie in [0, 1)"
    if _ell_claim(0.5 * (1.0 - 1.0 / (2.0 - b))) is not None:
        return "must be small enough for its ell, (1 - 1/(2 - bias))/2, to be positive"
    return None


def _equilibrium_claim(ell: float, q: float) -> str | None:
    """Why (``ell``, ``q``) is not (1/4, 0), the equilibrium mode's one point, or None."""
    if (ell, q) == (0.25, 0.0):
        return None
    return f"requires {{ell}} 0.25 and {{q}} 0, got {{ell}} {ell} and {{q}} {q}"


@dataclass(frozen=True, kw_only=True)
class GKConfig(SimConfig):
    """A ``SimConfig`` with the burn-in default and checks of one transport
    estimate.

    The ensemble starts x in its exact stationary law, and the current
    reads x alone, so the estimate needs no burn-in; ``burn_in`` steps, 0
    by default, are discarded after that start.  ``ensemble_mode`` names
    the reference ensemble.  "stationary" holds at any parameters;
    "microcanonical-equilibrium" is only a check that the parameters are
    the locally conservative point ell = 1/4, q = 0, where the stationary
    law is uniform and the mean current is exactly 0, so both modes give
    the same estimate there.
    """

    burn_in: int = 0
    ensemble_mode: str = "stationary"

    def __post_init__(self):  # the run's own bounds first: two members for a standard error, exact moments
        _refuse("n_ens", self.n_ens, _in_range(2, _MAX_ENSEMBLE))
        if (claim := _moment_claim(self.n_ens, self.n_iter)) is not None:
            raise _refusal(claim, CapacityError)
        super().__post_init__()
        if self.ensemble_mode not in ("stationary", "microcanonical-equilibrium"):
            raise DomainError(f"unknown ensemble_mode {self.ensemble_mode!r}")
        if self.ensemble_mode == "microcanonical-equilibrium":
            if (claim := _equilibrium_claim(self.params.ell, self.params.q)) is not None:
                raise _refusal(f"microcanonical-equilibrium mode {claim}")


@dataclass(frozen=True)
class GKResult:
    """Transport coefficient with its convergence record."""

    value: float
    stderr: float | None
    partial_sums: np.ndarray
    converged: bool
    psi_mean: float
    tail_bound: float | None = None
    second_eigenvalue: float | None = None


def _drift_converged(partial: np.ndarray, stderr: float | None = None) -> bool:
    """Accept when the last quarter of partial sums stays within 1% of the
    total; for sampled sums the partial-sum noise floor (3 standard errors
    of the estimate itself) is allowed on top, since drift below the
    estimate's own uncertainty carries no signal."""
    total = partial[-1]
    tail = partial[3 * len(partial) // 4 :]
    tol = _DRIFT_TOL * max(abs(total), 1e-3)
    if stderr is not None:
        tol = max(tol, 3.0 * stderr)
    return bool(np.max(np.abs(tail - total)) <= tol)


def green_kubo_estimate(config: GKConfig) -> GKResult:
    """Monte Carlo transport estimate from an ensemble of trajectories.

    The k = 0 term is included; the reported standard error is the spread
    of per-member totals.  A result whose partial sums still drift in the
    last quarter of the k range is flagged, not silently accepted.
    """
    psi_mean = mean_current(config.params.ell)
    at_step, (total, stderr) = lag_products(config, PSI)
    partial = np.cumsum(at_step / config.n_ens - psi_mean * psi_mean)
    value = float(total - config.n_iter * psi_mean * psi_mean)
    return GKResult(
        value=value,
        stderr=float(stderr),
        partial_sums=partial,
        converged=_drift_converged(partial, stderr),
        psi_mean=psi_mean,
    )


def green_kubo_exact(ell: float, k_max: int) -> GKResult:
    """Exact transport partial sums from the coarse chain.

    Correlations decay geometrically with the chain's second eigenvalue
    lambda = ``markov._second_eigenvalue(ell)`` (reported), which also gives
    the quoted bound on the neglected tail.  ``k_max`` is capped at
    ``_MAX_K``.
    """
    _refuse("k_max", k_max, _in_range(1, _MAX_K), DomainError if k_max < 1 else CapacityError)
    terms = chain_autocovariance(ell, PSI, k_max)
    partial = np.cumsum(terms)
    gamma = _second_eigenvalue(ell)
    tail = abs(terms[-1]) * gamma / (1.0 - gamma)
    return GKResult(
        value=float(partial[-1]),
        stderr=None,
        partial_sums=partial,
        converged=True,
        psi_mean=mean_current(ell),
        tail_bound=tail,
        second_eigenvalue=gamma,
    )


def bias_sweep(biases: np.ndarray, base: GKConfig) -> list[tuple[float, GKResult]]:
    """Transport estimate at each bias along the q = 1/2 - 2 ell family.

    Every entry reuses the base ensemble sizes and seed; the map parameters
    are derived from the bias.  No smoothing of any kind is applied.
    """
    biases = [float(b) for b in np.asarray(biases, dtype=float)]
    ells = [ell_of_bias(b) for b in biases]  # refuse a bad bias before any run
    configs = [replace(base, params=MapParams(ell=ell, q=0.5 - 2.0 * ell), ensemble_mode="stationary") for ell in ells]
    return [(b, green_kubo_estimate(cfg)) for b, cfg in zip(biases, configs)]
