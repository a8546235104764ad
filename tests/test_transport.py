import numpy as np
import pytest

from bakerlab import transport
from bakerlab.ensemble import SimConfig
from bakerlab.errors import CapacityError, DomainError
from bakerlab.mapcore import MapParams, MapVariant, Region, ReversalScheme, region_reverse
from bakerlab.markov import coarse_measure, transition_matrix
from bakerlab.transport import (
    GKConfig,
    PSI,
    bias_of_ell,
    bias_sweep,
    ell_of_bias,
    green_kubo_estimate,
    green_kubo_exact,
    mean_current,
)

ELL_GRID = [0.05, 0.1, 0.15, 0.2, 0.25]


class TestCurrentObservable:
    def test_values(self):
        assert np.array_equal(PSI, [0.0, 1.0, -1.0, 0.0])

    def test_odd_under_q3(self):
        for r in Region:
            assert PSI[region_reverse(r, ReversalScheme.Q3)] == -PSI[r]

    def test_zero_mean_at_quarter(self):
        mu = coarse_measure(0.25)
        assert float(mu @ PSI) == 0.0


class TestMeanCurrent:
    def test_equilibrium_zero(self):
        assert mean_current(0.25) == 0.0

    def test_value_at_015(self):
        assert mean_current(0.15) == pytest.approx(0.25, rel=1e-15)

    def test_equals_measure_difference(self):
        for ell in ELL_GRID:
            mu = coarse_measure(ell)
            assert mean_current(ell) == pytest.approx(mu[Region.B] - mu[Region.C], abs=1e-15)


class TestBias:
    def test_zero_at_quarter(self):
        assert bias_of_ell(0.25) == 0.0

    def test_value_at_015(self):
        assert bias_of_ell(0.15) == pytest.approx(2.0 - 1.0 / 0.7, rel=1e-15)

    @pytest.mark.parametrize("ell", ELL_GRID)
    def test_round_trip(self, ell):
        assert ell_of_bias(bias_of_ell(ell)) == pytest.approx(ell, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ell_of_bias(-0.1)
        with pytest.raises(DomainError):
            ell_of_bias(1.0)
        with pytest.raises(DomainError):
            bias_of_ell(0.3)

    @pytest.mark.parametrize("fn", [mean_current, bias_of_ell])
    def test_ell_below_the_floor_is_refused_as_the_map_refuses_it(self, fn):
        with pytest.raises(DomainError, match=r"^ell must be large enough for 1/\(2 ell\) to be finite, got 2e-309$"):
            fn(2e-309)

    def test_bias_whose_ell_rounds_to_zero_is_refused_naming_the_bias(self):
        # 2 - b rounds to 1 at the largest bias below 1, so ell would be 0
        with pytest.raises(DomainError, match=r"^bias must be small enough for its ell, .* got 0.9999999999999999$"):
            ell_of_bias(0.9999999999999999)
        assert ell_of_bias(0.9999999999999998) == 2.0**-53
        ((b, result),) = bias_sweep([0.9999999999999998], GKConfig(params=MapParams(0.25), n_ens=100, n_iter=2))
        assert b == 0.9999999999999998 and np.isfinite(result.value)


class TestExactTransport:
    def test_more_than_a_million_lags_are_refused_before_any_sum(self, monkeypatch):
        monkeypatch.setattr(transport, "chain_autocovariance", lambda *args: pytest.fail("a lag was summed"))
        with pytest.raises(CapacityError, match=r"^k_max must be <= 1000000, got 1000001$"):
            green_kubo_exact(0.15, 1_000_001)

    @pytest.mark.parametrize("ell", [0.05, 0.15, 0.2368])
    def test_reports_the_mean_current_the_estimate_subtracts(self, ell):
        """mu @ PSI rounds to 0.24999999999999997 at ell = 0.15, a bit off
        ``mean_current``; both results report the one value."""
        cfg = GKConfig(params=MapParams(ell, 0.5 - 2.0 * ell), n_ens=2, n_iter=1)
        assert green_kubo_exact(ell, 3).psi_mean == green_kubo_estimate(cfg).psi_mean == mean_current(ell)

    def test_quarter_point_terms_and_total(self):
        res = green_kubo_exact(0.25, 30)
        terms = np.diff(res.partial_sums, prepend=0.0)
        assert terms[0] == 0.5
        assert terms[1] == 0.25
        assert np.abs(terms[2:]).max() == 0.0
        assert abs(res.value - 0.75) < 1e-14

    def test_second_eigenvalue(self):
        # the closed form |1/2 - 2 ell|: an eigen-solve of the defective
        # matrix at ell = 1/4 returns about 4.5e-9 instead of 0
        assert green_kubo_exact(0.25, 10).second_eigenvalue == 0.0
        assert green_kubo_exact(0.15, 30).second_eigenvalue == pytest.approx(0.2, abs=1e-15)
        for ell in ELL_GRID[:-1]:
            solved = np.sort(np.abs(np.linalg.eigvals(transition_matrix(ell))))[-2]
            assert abs(green_kubo_exact(ell, 10).second_eigenvalue - solved) <= 1e-14

    def test_terms_decay_geometrically(self):
        res = green_kubo_exact(0.15, 40)
        terms = np.diff(res.partial_sums, prepend=0.0)
        gamma = res.second_eigenvalue
        # |c_k| <= C gamma^k with C calibrated at k = 1, until the bound
        # reaches the float cancellation floor of the <psi>^2 subtraction
        C = abs(terms[1]) / gamma
        for k in range(1, 41):
            bound = C * gamma**k * (1 + 1e-9)
            if bound < 1e-12:
                break
            assert abs(terms[k]) <= bound

    def test_connected_correlation_decays_to_zero(self):
        res = green_kubo_exact(0.15, 200)
        terms = np.diff(res.partial_sums, prepend=0.0)
        assert abs(terms[-1]) < 1e-15
        assert res.tail_bound < 1e-15


class TestEstimate:
    def test_equilibrium_mode_reproduces_exact(self):
        cfg = GKConfig(
            params=MapParams(0.25, 0.0),
            n_ens=40_000,
            n_iter=50,
            seed=11,
            ensemble_mode="microcanonical-equilibrium",
        )
        res = green_kubo_estimate(cfg)
        assert res.psi_mean == 0.0
        assert abs(res.value - 0.75) < 3 * res.stderr
        assert res.converged

    def test_stationary_mode_equals_equilibrium_at_quarter_point(self):
        # the equilibrium mode only checks the point, so both modes run the
        # same estimate, burn-in included
        base = dict(params=MapParams(0.25, 0.0), n_ens=20_000, n_iter=30, seed=12, burn_in=7)
        a = green_kubo_estimate(GKConfig(ensemble_mode="stationary", **base))
        b = green_kubo_estimate(GKConfig(ensemble_mode="microcanonical-equilibrium", **base))
        assert a.value == b.value
        assert a.stderr == b.stderr
        assert np.array_equal(a.partial_sums, b.partial_sums)

    @pytest.mark.parametrize("n_ens", [0, 1])
    def test_fewer_than_two_members_are_refused_before_the_base_config(self, n_ens):
        """Two members for a standard error: the transport bound, not
        ``SimConfig``'s n_ens >= 1, refuses 0 as well as 1."""
        with pytest.raises(DomainError, match=rf"^n_ens must be >= 2, got {n_ens}$"):
            GKConfig(params=MapParams(0.25, 0.0), n_ens=n_ens, n_iter=1)

    def test_count_moments_past_2_53_are_refused_when_the_config_is_built(self):
        with pytest.raises(CapacityError, match=r"^n_iter must be <= 13421 at n_ens 50000000, got 13422$"):
            GKConfig(params=MapParams(0.25, 0.0), n_ens=50_000_000, n_iter=13_422)
        assert GKConfig(params=MapParams(0.25, 0.0), n_ens=50_000_000, n_iter=13_421).n_iter == 13_421

    def test_config_is_a_sim_config(self):
        sizes = dict(n_ens=2, n_iter=1)
        cfg = GKConfig(params=MapParams(0.25, 0.0), **sizes)
        assert isinstance(cfg, SimConfig)
        assert (cfg.burn_in, cfg.seed) == (0, 0)
        with pytest.raises(DomainError):  # SimConfig's own cap
            GKConfig(params=MapParams(0.25, 0.0), n_ens=60_000_000, n_iter=1)
        with pytest.raises(DomainError):
            GKConfig(params=MapParams(0.25, 0.0), burn_in=-1, **sizes)

    @pytest.mark.parametrize("kind", [SimConfig, GKConfig])
    @pytest.mark.parametrize("missing", ["n_ens", "n_iter"])
    def test_run_sizes_have_no_default(self, kind, missing):
        sizes = {k: v for k, v in dict(n_ens=2, n_iter=1).items() if k != missing}
        with pytest.raises(TypeError, match=missing):
            kind(params=MapParams(0.25, 0.0), burn_in=0, **sizes)

    def test_equilibrium_mode_requires_quarter_point(self):
        sizes = dict(n_ens=2, n_iter=1)
        with pytest.raises(DomainError, match=r"^microcanonical-equilibrium mode requires ell 0\.25 and q 0, "
                           r"got ell 0\.15 and q 0\.0$"):
            GKConfig(params=MapParams(0.15, 0.0), ensemble_mode="microcanonical-equilibrium", **sizes)
        with pytest.raises(DomainError, match=r"^microcanonical-equilibrium mode requires ell 0\.25 and q 0, "
                           r"got ell 0\.25 and q 0\.1$"):
            GKConfig(params=MapParams(0.25, 0.1), ensemble_mode="microcanonical-equilibrium", **sizes)

    @pytest.mark.parametrize("ell", [0.15, 0.2, 0.25])
    def test_stationary_mode_matches_chain_oracle(self, ell):
        q = 0.5 - 2.0 * ell
        cfg = GKConfig(
            params=MapParams(ell, q),
            n_ens=40_000,
            n_iter=50,
            seed=13,
            ensemble_mode="stationary",
            burn_in=500,
        )
        res = green_kubo_estimate(cfg)
        exact = green_kubo_exact(ell, 50)
        assert abs(res.value - exact.value) < 3 * res.stderr

    def test_variant_swap_is_bitwise_invariant(self):
        base = dict(n_ens=20_000, n_iter=40, seed=5, ensemble_mode="stationary", burn_in=300)
        a = green_kubo_estimate(GKConfig(params=MapParams(0.15, 0.2), variant=MapVariant.REVERSIBLE, **base))
        b = green_kubo_estimate(GKConfig(params=MapParams(0.15, 0.2), variant=MapVariant.IRREVERSIBLE, **base))
        assert a.value == b.value
        assert a.stderr == b.stderr
        assert np.array_equal(a.partial_sums, b.partial_sums)

    def test_error_scaling_with_ensemble_size(self):
        base = dict(n_iter=30, seed=7, ensemble_mode="stationary", burn_in=300)
        se = {}
        for n_ens in (10_000, 20_000, 40_000, 80_000):
            res = green_kubo_estimate(GKConfig(params=MapParams(0.15, 0.2), n_ens=n_ens, **base))
            se[n_ens] = res.stderr
        # doubling the ensemble shrinks the error by ~1/sqrt(2), within 20%
        for small, big in ((10_000, 40_000), (20_000, 80_000)):
            ratio = se[big] / se[small]
            assert 0.4 <= ratio <= 0.6


class TestBiasSweep:
    def test_zero_bias_entry_reproduces_equilibrium(self):
        base = GKConfig(params=MapParams(0.25, 0.0), n_ens=30_000, n_iter=50, seed=4)
        rows = bias_sweep(np.array([0.0]), base)
        (b, res), = rows
        assert b == 0.0
        assert abs(res.value - 0.75) < 3 * res.stderr

    def test_sweep_matches_oracle_pointwise(self):
        base = GKConfig(params=MapParams(0.25, 0.0), n_ens=30_000, n_iter=50, seed=6)
        biases = np.array([0.05, 0.2, 0.5])
        rows = bias_sweep(biases, base)
        for b, res in rows:
            exact = green_kubo_exact(ell_of_bias(b), 60)
            assert abs(res.value - exact.value) < 3.5 * res.stderr, b

    def test_bad_bias_is_refused_before_any_run(self, monkeypatch):
        monkeypatch.setattr(transport, "green_kubo_estimate", lambda cfg: pytest.fail("an estimate ran"))
        with pytest.raises(DomainError):
            bias_sweep(np.array([0.1, 1.5]), GKConfig(params=MapParams(0.25, 0.0), n_ens=2, n_iter=1))

    def test_variant_sweeps_coincide(self):
        biases = np.array([0.1, 0.4])
        rows_m = bias_sweep(biases, GKConfig(params=MapParams(0.25, 0.0), variant=MapVariant.REVERSIBLE, n_ens=20_000, n_iter=40, seed=8))
        rows_k = bias_sweep(biases, GKConfig(params=MapParams(0.25, 0.0), variant=MapVariant.IRREVERSIBLE, n_ens=20_000, n_iter=40, seed=8))
        for (b1, r1), (b2, r2) in zip(rows_m, rows_k):
            assert b1 == b2
            assert r1.value == r2.value
