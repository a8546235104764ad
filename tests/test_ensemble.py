import math
import os
import signal
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sstats

from stats import markov_order_chi_square, segment_means, uniformity_chi_square, word_counts

from bakerlab import ensemble, mapcore, transport
from bakerlab.errors import CapacityError, DomainError, WorkerError
from bakerlab.mapcore import (
    MapParams,
    MapVariant,
    Region,
    ReversalScheme,
    contraction_rates,
    step_arrays,
)
from bakerlab.fluctuation import _bin_values, symmetric_grid
from bakerlab.markov import coarse_measure, mean_contraction_rate, stationary_density, transition_matrix
from bakerlab.ensemble import (
    _MAX_ENSEMBLE,
    _run,
    Histogram2D,
    SimConfig,
    empirical_density,
    lag_products,
    odd_observable_mean,
    sample_ensemble,
    segment_mean_counts,
    transition_counts,
    worker_count,
)

PARAMS_EQ = MapParams(ell=0.15, q=0.0)


class TestSampling:
    @pytest.mark.parametrize("n", [0, -3])
    def test_no_point_is_refused_naming_the_count(self, n):
        with pytest.raises(DomainError, match=rf"^n must be >= 1, got {n}$"):
            sample_ensemble(n, seed=5)

    def test_reproducible(self):
        a = sample_ensemble(1000, seed=5)
        b = sample_ensemble(1000, seed=5)
        assert np.array_equal(a, b)

    def test_prefix_stable(self):
        # growing the ensemble never changes earlier members
        a = sample_ensemble(100, seed=5)
        b = sample_ensemble(1000, seed=5)
        assert np.array_equal(a, b[:100])

    def test_quadrant_counts(self):
        pts = sample_ensemble(1_000_000, seed=1)
        left = pts[:, 0] < 0.5
        low = pts[:, 1] < 0.5
        bound = 4.0 * np.sqrt(1_000_000 * 0.25 * 0.75)
        for quad in (left & low, left & ~low, ~left & low, ~left & ~low):
            assert abs(quad.sum() - 250_000) < bound

    def test_seed_is_one_64_bit_key_word(self):
        for seed in (-1, 2**64):
            with pytest.raises(DomainError, match="seed"):
                sample_ensemble(4, seed)
        assert sample_ensemble(4, 2**64 - 1).shape == (4, 2)

    def test_different_seeds_same_law(self):
        a = sample_ensemble(20_000, seed=1)[:, 0]
        b = sample_ensemble(20_000, seed=2)[:, 0]
        stat, pvalue = sstats.ks_2samp(a, b)
        assert pvalue > 0.01


def stationary_inverse_cdf(u: np.ndarray, ell: float) -> np.ndarray:
    """Inverse CDF of the invariant x-law, density (2, 8 ell)/(1 + 4 ell)
    on the halves, written out independently of the engine."""
    c = 1.0 / (1.0 + 4.0 * ell)
    left = u * (1.0 + 4.0 * ell) / 2.0
    right = 0.5 + (u - c) * (1.0 + 4.0 * ell) / (8.0 * ell)
    return np.where(u < c, left, right)


START_ELLS = [0.01, 0.1, 0.15, 0.25]


def states(config: SimConfig, with_y: bool, members: tuple[int, int]):
    """The ``(x, y)`` of ``_run`` over the members [a, b) of ``config``."""
    return ((x, y) for x, y, _, _ in _run(config, with_y, members))


def whole(config: SimConfig, with_y: bool = True):
    """``states`` over all members of ``config``."""
    return states(config, with_y, (0, config.n_ens))


def regions(config: SimConfig):
    """The regions r that the x-only ``_run`` yields over all members."""
    return (r for _, _, r, _ in _run(config, False, (0, config.n_ens)))


def reference_run(config: SimConfig, with_y: bool) -> list:
    """The kept states of ``config`` from a loop written out independently
    of ``_run``: it steps after every state, the last one included, and at
    ell = 1/4 step k draws its dither at position k n_ens of each stream.
    It always steps y, which x never reads, and keeps it only ``with_y``."""
    pts = sample_ensemble(config.n_ens, config.seed)
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    ensemble._stationary_x(x, config.params.ell)
    keys = [np.array([config.seed, sub], dtype=np.uint64) for sub in (ensemble._DITHER_SUBKEY_X, ensemble._DITHER_SUBKEY_Y)]
    states = []
    for k in range(config.burn_in + config.n_iter):
        if k >= config.burn_in:
            states.append((x, y if with_y else None))
        x, y = step_arrays(x, y, config.params, config.variant)
        if config.params.ell == 0.25:
            x = ensemble._dither(x, ensemble._philox(keys[0], k * config.n_ens))
            y = ensemble._dither(y, ensemble._philox(keys[1], k * config.n_ens))
    return states


def exact_sums(rows: list, phi, first: bool = False) -> list[Fraction]:
    """Each member's exact sum of phi(r_k) over its region sequence, a row
    of ``rows``, times phi(r_0) with ``first``: each region's count in the
    row times its phi as a fraction."""
    f = [Fraction(v) for v in np.asarray(phi, dtype=float).tolist()]
    return [sum(f[j] * row.count(j) for j in range(4)) * (f[row[0]] if first else 1) for row in rows]


def exact_mean_se(values: list[Fraction]) -> tuple[float, float]:
    """The mean of exact member values and its standard error from their
    spread: the mean rounded once, the error the square root of the
    variance of the mean rounded once."""
    n = len(values)
    mean = sum(values, Fraction(0)) / n
    var = sum(((v - mean) ** 2 for v in values), Fraction(0)) / (n - 1)
    return float(mean), math.sqrt(var / n)


class TestStationaryStart:
    @pytest.mark.parametrize("ell", START_ELLS)
    def test_half_counts_are_exact(self, ell):
        cfg = SimConfig(params=MapParams(ell, 0.1), n_ens=100_000, n_iter=1, burn_in=0, seed=21)
        x, _ = next(whole(cfg, False))
        u = sample_ensemble(cfg.n_ens, cfg.seed)[:, 0]
        assert (x < 0.5).sum() == (u < 1.0 / (1.0 + 4.0 * ell)).sum()
        assert x.min() >= 0.0 and x.max() < 1.0

    @pytest.mark.parametrize("ell", START_ELLS)
    def test_chi_square_per_half_against_density(self, ell):
        n, bins = 200_000, 25  # bins per half
        x, _ = next(whole(SimConfig(params=MapParams(ell, 0.0), n_ens=n, n_iter=1, burn_in=0, seed=22), False))
        rho = stationary_density(ell)
        for lo, density in ((0.0, rho.rho_l), (0.5, rho.rho_r)):
            counts = np.histogram(x, bins=bins, range=(lo, lo + 0.5))[0]
            expected = n * density * 0.5 / bins
            stat = float(((counts - expected) ** 2 / expected).sum())
            assert sstats.chi2.sf(stat, bins) > 1e-3, (ell, lo)

    @pytest.mark.parametrize("ell", START_ELLS)
    def test_half_fractions_stay_stationary(self, ell):
        n = 100_000
        c = 1.0 / (1.0 + 4.0 * ell)
        sigma = np.sqrt(c * (1.0 - c) / n)
        cfg = SimConfig(params=MapParams(ell, 0.2), n_ens=n, n_iter=51, burn_in=0, seed=23)
        for k, r in enumerate(regions(cfg)):
            if k in (1, 50):
                left = float(np.mean(r <= Region.B))
                assert abs(left - c) <= 5.0 * sigma, (ell, k)

    def test_whole_run_memory_with_y(self):
        """The traced peak of a whole with-y run with burn-in: x, y and the
        32-byte gathered row are the state, stepped in place, with the
        index and the flip's masks; a step that made new x, y and rows
        would add 48 bytes a member (73 in all)."""
        n = 500_000
        cfg = SimConfig(params=PARAMS_EQ, variant=MapVariant.IRREVERSIBLE, n_ens=n, n_iter=5, burn_in=5, seed=24)
        tracemalloc.start()
        try:
            for _ in whole(cfg):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 60 * n, peak / n


class TestRun:
    def test_zero_iterations_returns_initial_ensemble(self):
        pts = sample_ensemble(500, seed=9)
        for ell in (0.15, 0.25):
            cfg = SimConfig(params=MapParams(ell, 0.0), n_ens=500, n_iter=1, burn_in=0, seed=9)
            x, y = next(whole(cfg))
            np.testing.assert_allclose(x, stationary_inverse_cdf(pts[:, 0], ell), rtol=0, atol=1e-15)
            assert np.array_equal(y, pts[:, 1])
        assert np.array_equal(x, pts[:, 0])  # at ell = 1/4 the start map is the identity

    def test_stream_layout(self):
        cfg = SimConfig(params=PARAMS_EQ, n_ens=64, n_iter=5, burn_in=3, seed=2)
        states = [(x.copy(), y.copy()) for x, y in whole(cfg)]
        assert len(states) == 5
        assert all(x.shape == y.shape == (64,) for x, y in states)
        assert all(y is None for _, y in whole(cfg, False))

    @pytest.mark.parametrize("params", [PARAMS_EQ, MapParams(ell=0.25, q=0.0)], ids=["0.15", "0.25-dither"])
    def test_x_only_run_matches_run_with_y(self, params):
        cfg = SimConfig(params=params, variant=MapVariant.IRREVERSIBLE, n_ens=128, n_iter=12, burn_in=7, seed=5)
        steps = 0
        for (x, _), (xy_x, _) in zip(whole(cfg, False), whole(cfg, True), strict=True):
            assert np.array_equal(x, xy_x)
            steps += 1
        assert steps == cfg.n_iter

    @pytest.mark.parametrize("burn_in", [0, 5])
    @pytest.mark.parametrize("n_iter", [0, -1])
    def test_a_run_that_keeps_no_state_is_refused(self, burn_in, n_iter):
        """Every reduction reads a kept state, so the config refuses a run of
        none, in the one form of a refusal that names the field."""
        with pytest.raises(DomainError, match=rf"^n_iter must be >= 1, got {n_iter}$") as refused:
            SimConfig(params=PARAMS_EQ, n_ens=40, n_iter=n_iter, burn_in=burn_in)
        assert refused.value.fields == ("n_iter",)

    @pytest.mark.parametrize("params", [PARAMS_EQ, MapParams(ell=0.25, q=0.0)], ids=["0.15", "0.25-dither"])
    @pytest.mark.parametrize("with_y", [True, False], ids=["xy", "x-only"])
    @pytest.mark.parametrize("burn_in,n_iter", [(7, 12), (0, 1)])
    def test_no_step_after_the_last_kept_state(self, monkeypatch, params, with_y, burn_in, n_iter):
        """Steps counted where the loop takes them, the one ``_advance`` of
        both modes.  x and y are copied, as the next step overwrites them."""
        calls = []
        kernel = ensemble._advance

        def counting(*args):
            calls.append(1)
            return kernel(*args)

        cfg = SimConfig(params=params, variant=MapVariant.IRREVERSIBLE, n_ens=40, n_iter=n_iter, burn_in=burn_in, seed=6)
        expected = reference_run(cfg, with_y)
        monkeypatch.setattr(ensemble, "_advance", counting)
        states = [(x.copy(), None if y is None else y.copy()) for x, y in whole(cfg, with_y)]
        assert len(calls) == burn_in + n_iter - 1
        assert len(states) == n_iter
        for (x, y), (ex, ey) in zip(states, expected, strict=True):
            assert np.array_equal(x, ex)
            assert y is None if not with_y else np.array_equal(y, ey)

    @pytest.mark.parametrize("params", [PARAMS_EQ, MapParams(ell=0.25, q=0.0)], ids=["0.15", "0.25-dither"])
    def test_with_y_run_looks_the_regions_up_once_a_state(self, monkeypatch, params):
        """As the x-only run does: once a state, after the dither, in
        ``ensemble``, and never again inside the step."""
        cfg = SimConfig(params=params, variant=MapVariant.IRREVERSIBLE, n_ens=64, n_iter=12, burn_in=4, seed=3)
        expected = [(x.copy(), y.copy()) for x, y in whole(cfg)]
        lookups = []
        lookup = ensemble.region_indices

        def counting(*args):
            lookups.append(1)
            return lookup(*args)

        def inside_the_step(*args):
            raise AssertionError("the step looked the regions up again")

        monkeypatch.setattr(ensemble, "region_indices", counting)
        monkeypatch.setattr(mapcore, "region_indices", inside_the_step)
        for (x, y), (ex, ey) in zip(whole(cfg), expected, strict=True):
            assert np.array_equal(x, ex) and np.array_equal(y, ey)
        assert len(lookups) == cfg.burn_in + cfg.n_iter

    def test_degenerate_strip_matches_reversible_bitwise(self):
        params = MapParams(ell=0.15, q=0.0, strip_x=0.2, strip_eps=0.0)
        a = SimConfig(params=params, variant=MapVariant.REVERSIBLE, n_ens=256, n_iter=20, burn_in=10, seed=3)
        b = SimConfig(params=params, variant=MapVariant.IRREVERSIBLE, n_ens=256, n_iter=20, burn_in=10, seed=3)
        for (xa, ya), (xb, yb) in zip(whole(a), whole(b), strict=True):
            assert np.array_equal(xa, xb)
            assert np.array_equal(ya, yb)

    def test_flip_never_touches_x(self):
        a = SimConfig(params=PARAMS_EQ, variant=MapVariant.REVERSIBLE, n_ens=256, n_iter=30, burn_in=5, seed=4)
        b = SimConfig(params=PARAMS_EQ, variant=MapVariant.IRREVERSIBLE, n_ens=256, n_iter=30, burn_in=5, seed=4)
        same_y = 0
        for (xa, ya), (xb, yb) in zip(whole(a), whole(b), strict=True):
            assert np.array_equal(xa, xb)
            same_y += int(np.array_equal(ya, yb))
        assert same_y < 30  # the flip does act on y


class TestRegionSequences:
    def test_empirical_transition_frequencies(self):
        cfg = SimConfig(params=PARAMS_EQ, n_ens=5_000, n_iter=201, burn_in=500, seed=7)
        counts = transition_counts(cfg)
        assert counts.sum() == 5_000 * 200
        freq = counts / counts.sum(axis=1, keepdims=True)
        P = transition_matrix(0.15)
        row_n = counts.sum(axis=1)
        for i in Region:
            for j in Region:
                se = np.sqrt(max(P[i, j] * (1 - P[i, j]), 1e-12) / row_n[i])
                assert abs(freq[i, j] - P[i, j]) < max(3 * se, 1e-9)

    # ROADMAP items 1 and 16: no orbit takes a step that the chain forbids.
    # One ulp below 1/8 this run held 11 D -> C steps while images were
    # clipped to [0, 1]: an orbit landed on x = 1 exactly, which D sends to
    # C's fixed point 1/2; the clip below 1 keeps it out of reach
    @pytest.mark.parametrize("ell", [0.15, math.nextafter(0.125, 0.0)])
    def test_no_transition_outside_the_chains_support(self, ell):
        cfg = SimConfig(params=MapParams(ell, 0.0), n_ens=20_000, n_iter=4_000, burn_in=0, seed=1)
        counts = transition_counts(cfg)
        assert counts.sum() == 20_000 * 3_999
        assert not counts[transition_matrix(ell) == 0].any()

    # ROADMAP item 16: every exact answer assumes that the region sequence is
    # the first-order chain.  At 1/8 float orbits collapse onto x = 1/2
    # (ROADMAP item 1), and the order-2 test sees it in 4,000 states
    # (chi-square 65.3, 4 dof, p = 2.3e-13; 2.8 and p = 0.59 at 0.15)
    @pytest.mark.parametrize(
        "ell", [0.15, pytest.param(0.125, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1"))]
    )
    def test_region_sequence_is_first_order_markov(self, ell):
        cfg = SimConfig(params=MapParams(ell, 0.0), n_ens=20_000, n_iter=4_000, burn_in=0, seed=1)
        counts = word_counts(cfg)
        assert counts.sum() == 20_000 * 3_998
        _, dof, pvalue = markov_order_chi_square(counts)
        assert dof == 4
        assert pvalue >= 0.01

    def test_word_counts_extend_the_transition_counts(self):
        """Over a run one state shorter, N[i, j, .] are the (i, j) counts of
        ``transition_counts``, across a chunk edge."""
        cfg = SimConfig(params=MapParams(0.2, 0.1), n_ens=ensemble._CHUNK + 5, n_iter=9, burn_in=0, seed=4)
        counts = word_counts(cfg)
        assert np.array_equal(counts.sum(axis=2), transition_counts(replace(cfg, n_iter=8)))

    def test_order_chi_square_sums_the_contingency_tests_of_each_middle_region(self):
        counts = np.random.default_rng(2).integers(0, 50, size=(4, 4, 4))
        counts[:, 1, :] = 0  # a middle region never seen
        counts[2, 2, :] = 0  # a structural zero row
        counts[:, 3, 0] = 0  # and column
        stat, dof, pvalue = markov_order_chi_square(counts)
        tables = [counts[:, j, :] for j in (0, 2, 3)]
        tables = [t[t.sum(axis=1) > 0][:, t.sum(axis=0) > 0] for t in tables]
        reference = [sstats.chi2_contingency(t, correction=False) for t in tables]
        assert stat == pytest.approx(sum(r.statistic for r in reference), rel=1e-12)
        assert dof == sum(r.dof for r in reference) == 3 * 3 + 2 * 3 + 3 * 2
        assert pvalue == pytest.approx(float(sstats.chi2.sf(stat, dof)), rel=1e-9)


class TestEmpiricalDensity:
    def test_x_marginal_matches_projected_density(self):
        cfg = SimConfig(params=PARAMS_EQ, n_ens=20_000, n_iter=50, burn_in=800, seed=42)
        hist = empirical_density(cfg, nx=100, ny=20)
        xm = hist.x_marginal(density=True)
        rho = stationary_density(0.15)
        assert xm[:50].mean() == pytest.approx(rho.rho_l, rel=0.01)
        assert xm[50:].mean() == pytest.approx(rho.rho_r, rel=0.01)

    def test_y_marginal_uniform_only_for_reversible(self):
        base = dict(n_ens=20_000, n_iter=50, burn_in=800, seed=42)
        hist_m = empirical_density(SimConfig(params=PARAMS_EQ, **base), nx=50, ny=50)
        _, _, p_m = uniformity_chi_square(hist_m.y_marginal())
        assert p_m > 0.01
        hist_k = empirical_density(
            SimConfig(params=PARAMS_EQ, variant=MapVariant.IRREVERSIBLE, **base), nx=50, ny=50
        )
        _, _, p_k = uniformity_chi_square(hist_k.y_marginal())
        assert p_k < 1e-10
        assert np.array_equal(hist_m.x_marginal(), hist_k.x_marginal())

    def test_microcanonical_point_is_uniform_2d(self):
        cfg = SimConfig(params=MapParams(0.25, 0.0), n_ens=40_000, n_iter=25, burn_in=500, seed=8)
        hist = empirical_density(cfg, nx=10, ny=10)
        stat, dof, pvalue = uniformity_chi_square(hist.counts.reshape(-1))
        assert pvalue > 0.001

    # ROADMAP item 1: one ulp below 1/4 the branch slopes are 2 to within an
    # ulp, as at 1/4, but only ell == 1/4 is dithered, so the float orbits
    # collapse onto the fixed point x = 1/2 (99.7% of x in one of ten bins);
    # at 1/4, dithered, the x-law stays uniform (at most 10.5% in a bin)
    @pytest.mark.parametrize(
        "ell",
        [pytest.param(0.24999999999999997, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")), 0.25],
    )
    def test_no_x_bin_holds_a_fifth_of_the_states(self, ell):
        cfg = SimConfig(params=MapParams(ell, 0.0), n_ens=2000, n_iter=10, burn_in=400)
        hist = empirical_density(cfg, nx=10, ny=10)
        assert hist.x_marginal().max() <= 0.2 * hist.n_samples

    @pytest.mark.parametrize("bins", [2, 10, 60, 100])
    def test_uniformity_pvalue_is_chi2_survival(self, bins):
        counts = np.random.default_rng(bins).poisson(50, size=bins)
        stat, dof, pvalue = uniformity_chi_square(counts)
        assert dof == bins - 1
        assert pvalue == float(sstats.chi2.sf(stat, dof))

    def test_bin_cap(self):
        from bakerlab.ensemble import _MAX_BINS

        assert 500 <= _MAX_BINS < 2001
        cfg = SimConfig(params=PARAMS_EQ, n_ens=1, n_iter=1, burn_in=0, seed=1)
        with pytest.raises(CapacityError, match=r"^nx must be <= 2000, got 2001$"):
            empirical_density(cfg, nx=2001, ny=2000)
        with pytest.raises(CapacityError, match=r"^ny must be <= 2000, got 4000$"):
            empirical_density(cfg, nx=1000, ny=4000)
        with pytest.raises(DomainError, match=r"^ny must be >= 1, got 0$"):
            empirical_density(cfg, nx=10, ny=0)

    def test_sample_count(self):
        cfg = SimConfig(params=PARAMS_EQ, n_ens=300, n_iter=7, burn_in=10, seed=1)
        hist = empirical_density(cfg, nx=8, ny=8)
        assert hist.counts.sum() == hist.n_samples == 300 * 7


class TestOddObservable:
    def test_contraction_rate_odd_under_q4_at_equilibrium(self):
        cfg = SimConfig(params=PARAMS_EQ, n_ens=5_000, n_iter=100, burn_in=500, seed=5)
        mean, se = odd_observable_mean(cfg, contraction_rates(PARAMS_EQ), ReversalScheme.Q4)
        assert abs(mean) < 3 * se

    def test_current_odd_under_q3_at_microcanonical_point(self):
        cfg = SimConfig(params=MapParams(0.25, 0.0), n_ens=5_000, n_iter=100, burn_in=500, seed=6)
        phi = np.array([0.0, 1.0, -1.0, 0.0])
        mean, se = odd_observable_mean(cfg, phi, ReversalScheme.Q3)
        assert abs(mean) < 3 * se

    def test_zero_observable(self):
        cfg = SimConfig(params=PARAMS_EQ, n_ens=100, n_iter=10, burn_in=10, seed=1)
        mean, se = odd_observable_mean(cfg, np.zeros(4), ReversalScheme.Q4)
        assert mean == 0.0

    @pytest.mark.parametrize(
        "phi,scheme",
        [
            (transport.PSI, ReversalScheme.Q3),
            (np.array([0.625, 0.0, 0.0, -0.625]), ReversalScheme.Q4),
            (contraction_rates(PARAMS_EQ), ReversalScheme.Q4),
        ],
        ids=["psi", "dyadic", "rates"],
    )
    def test_mean_and_stderr_equal_the_exact_member_averages(self, phi, scheme):
        cfg = SimConfig(params=PARAMS_EQ, n_ens=1001, n_iter=9, burn_in=4, seed=13)
        rows = np.stack(list(regions(cfg)), axis=1).tolist()
        averages = [total / cfg.n_iter for total in exact_sums(rows, phi)]
        assert odd_observable_mean(cfg, phi, scheme) == exact_mean_se(averages)

    @pytest.mark.parametrize(
        "params,phi,scheme",
        [
            (MapParams(0.1, 0.0), np.array([1.0, 0.0, 0.0, -1.0]), ReversalScheme.Q4),
            (MapParams(0.15, 0.1), np.array([1.0, 0.0, 0.0, -1.0]), ReversalScheme.Q4),
            (MapParams(0.2, 0.3), np.array([1.0, 0.0, 0.0, -1.0]), ReversalScheme.Q4),
            (MapParams(0.15, 0.2), np.array([0.0, 1.0, -1.0, 0.0]), ReversalScheme.Q3),
            (MapParams(0.05, 0.4), np.array([0.0, 1.0, -1.0, 0.0]), ReversalScheme.Q3),
        ],
        ids=["q4-0.1-0", "q4-0.15-0.1", "q4-0.2-0.3", "q3-0.15-0.2", "q3-0.05-0.4"],
    )
    def test_mean_is_the_coarse_measure_average(self, params, phi, scheme):
        """From the stationary start the mean estimates sum_r phi(r) mu(r)
        over the exact coarse measure: mu(A) = mu(D) at every (ell, q), so
        the Q4 means vanish off equilibrium too, while mu(B) - mu(C) =
        (1 - 4 ell)/(1 + 4 ell) is nonzero below ell = 1/4."""
        cfg = SimConfig(params=params, n_ens=5_000, n_iter=40, burn_in=0, seed=3)
        mean, se = odd_observable_mean(cfg, phi, scheme)
        assert abs(mean - phi @ coarse_measure(params.ell)) < 4 * se

    def test_a_lane_past_its_last_count_is_flushed(self, monkeypatch):
        """Member 0 stays in C for all 769 kept states, as in
        ``TestLagProducts``, on the path that sums only the count moments."""
        start = ensemble._stationary_x

        def placed(x, ell):
            start(x, ell)
            x[0] = 0.5

        monkeypatch.setattr(ensemble, "_stationary_x", placed)
        cfg = SimConfig(params=PARAMS_EQ, n_ens=3, n_iter=3 * 2**8 + 1, burn_in=0, seed=4)
        phi = np.array([0.0, 0.5, -0.5, 0.0])
        rows = np.stack(list(regions(cfg)), axis=1).tolist()
        assert rows[0] == [Region.C] * cfg.n_iter
        averages = [total / cfg.n_iter for total in exact_sums(rows, phi)]
        assert odd_observable_mean(cfg, phi, ReversalScheme.Q3) == exact_mean_se(averages)

    @pytest.mark.parametrize("params", [MapParams(0.15, 0.2), MapParams(0.25, 0.0)], ids=["0.15", "0.25-dither"])
    def test_count_moments_do_not_depend_on_phi(self, params):
        """Without phi ``_lag_sums`` sums no step, and its count moments are
        those of the run that also sums the lag products, bit for bit."""
        cfg = SimConfig(params=params, n_ens=300, n_iter=12, burn_in=3, seed=8)
        moments, at_step = ensemble._lag_sums(cfg, None)
        with_phi = ensemble._lag_sums(cfg, transport.PSI)
        assert at_step.size == 0 and with_phi[1].size == cfg.n_iter
        assert moments.tobytes() == with_phi[0].tobytes()

    def test_sums_only_the_count_moments(self, monkeypatch):
        """The mean reads only the members' count moments, so the sums it
        hands ``_split`` are those 80 alone, where ``lag_products`` also
        sums phi(r_k) phi(r_0) at each of the n_iter steps."""
        split, sizes = ensemble._split, []

        def recording(n_ens, part, start):
            sizes.append(start.size)
            return split(n_ens, part, start)

        monkeypatch.setattr(ensemble, "_split", recording)
        cfg = SimConfig(params=PARAMS_EQ, n_ens=100, n_iter=10, burn_in=0, seed=1)
        odd_observable_mean(cfg, transport.PSI, ReversalScheme.Q3)
        lag_products(cfg, transport.PSI)
        assert sizes == [80, 80 + cfg.n_iter]

    def test_rejects_non_odd(self):
        cfg = SimConfig(params=PARAMS_EQ, n_ens=10, n_iter=5, burn_in=0, seed=1)
        with pytest.raises(DomainError):
            odd_observable_mean(cfg, np.array([1.0, 0.0, 0.0, 0.0]), ReversalScheme.Q4)
        with pytest.raises(DomainError):
            odd_observable_mean(cfg, contraction_rates(MapParams(0.15, 0.1)), ReversalScheme.Q4)


class TestLagProducts:
    @pytest.mark.parametrize("phi", [transport.PSI, np.array([0.5, 1.0, -1.0, 2.0])], ids=["psi", "dyadic"])
    @pytest.mark.parametrize("params", [MapParams(0.15, 0.2), MapParams(0.25, 0.0)], ids=["0.15", "0.25-dither"])
    def test_sums_of_products_with_the_first_step(self, params, phi):
        """The step sums bit for bit, and the mean of the member totals and
        its standard error against fractions of each member's total."""
        cfg = SimConfig(params=params, n_ens=300, n_iter=12, burn_in=3, seed=8)
        at_step, pair = lag_products(cfg, phi)
        seqs = np.stack(list(regions(cfg)), axis=1)
        prods = phi[seqs] * phi[seqs[:, :1]]
        assert at_step.shape == (12,) and pair.shape == (2,)
        assert at_step.tobytes() == prods.sum(axis=0).tobytes()
        assert tuple(pair) == exact_mean_se(exact_sums(seqs.tolist(), phi, first=True))

    def test_a_lane_past_its_last_count_is_flushed(self, monkeypatch):
        """Member 0 starts on x = 1/2, the fixed point of branch C, and stays
        in C for all 769 kept states, three times more than a uint8 lane
        counts: the flushes before a lane carries keep its count."""
        start = ensemble._stationary_x

        def placed(x, ell):
            start(x, ell)
            x[0] = 0.5

        monkeypatch.setattr(ensemble, "_stationary_x", placed)
        cfg = SimConfig(params=PARAMS_EQ, n_ens=3, n_iter=3 * 2**8 + 1, burn_in=0, seed=4)
        phi = np.array([0.5, 1.0, -1.0, 2.0])
        rows = np.stack(list(regions(cfg)), axis=1).tolist()
        assert rows[0] == [Region.C] * cfg.n_iter
        assert tuple(lag_products(cfg, phi)[1]) == exact_mean_se(exact_sums(rows, phi, first=True))

    def test_rejects_phi_of_wrong_shape(self):
        cfg = SimConfig(params=PARAMS_EQ, n_ens=10, n_iter=5, burn_in=0, seed=1)
        for phi in (np.zeros(3), np.zeros((4, 1)), 1.0, np.array([0.0, np.nan, 1.0, 0.0])):
            with pytest.raises(DomainError, match="one value per region"):
                lag_products(cfg, phi)


class TestCountMoments:
    @pytest.mark.parametrize(
        "reduction",
        [
            lambda cfg: odd_observable_mean(cfg, transport.PSI, ReversalScheme.Q3),
            lambda cfg: lag_products(cfg, transport.PSI),
            transport.green_kubo_estimate,
        ],
        ids=["odd-mean", "lag-products", "green-kubo"],
    )
    def test_moments_past_2_53_are_refused_before_any_worker_starts(self, monkeypatch, reduction):
        """n_ens n_iter**2 bounds every entry of a count moment: 2**53
        exactly starts the workers, one more kept state is refused."""

        def split(*_):
            raise AssertionError("a worker started")

        monkeypatch.setattr(ensemble, "_split", split)
        n_ens, n_iter = 2**25, 2**14
        with pytest.raises(AssertionError, match="a worker started"):
            reduction(transport.GKConfig(params=PARAMS_EQ, n_ens=n_ens, n_iter=n_iter, seed=1))
        with pytest.raises(CapacityError, match=r"^n_iter must be <= 16384 at n_ens 33554432, got 16385$"):
            reduction(transport.GKConfig(params=PARAMS_EQ, n_ens=n_ens, n_iter=n_iter + 1, seed=1))


    @pytest.mark.parametrize(
        "reduction",
        [
            lambda cfg: odd_observable_mean(cfg, transport.PSI, ReversalScheme.Q3),
            lambda cfg: lag_products(cfg, transport.PSI),
        ],
        ids=["odd-mean", "lag-products"],
    )
    def test_a_sim_config_past_2_53_is_refused_before_any_worker_starts(self, monkeypatch, reduction):
        """A ``GKConfig`` refuses such a run when it is built; a plain
        ``SimConfig`` is refused by the reduction, naming both fields."""

        def split(*_):
            raise AssertionError("a worker started")

        monkeypatch.setattr(ensemble, "_split", split)
        cfg = SimConfig(params=PARAMS_EQ, n_ens=2**25, n_iter=2**14 + 1, burn_in=0, seed=1)
        with pytest.raises(CapacityError, match=r"^n_iter must be <= 16384 at n_ens 33554432, got 16385$") as refused:
            reduction(cfg)
        assert refused.value.fields == ("n_iter", "n_ens")
        assert refused.value.named(str.upper) == "N_ITER must be <= 16384 at N_ENS 33554432, got 16385"


class TestSegmentMeans:
    def test_counts_and_values(self):
        cfg = SimConfig(params=MapParams(0.15, 0.2), n_ens=50, n_iter=100, burn_in=50, seed=8)
        segs = segment_means(cfg, 25)
        assert segs.shape == (50 * 4,)
        # recompute one member's first segment from its region sequence
        seqs = np.stack(list(regions(cfg)), axis=1)
        rates = contraction_rates(cfg.params)
        manual = rates[seqs[0, :25]].mean()
        assert segs[0] == pytest.approx(manual, rel=1e-12)


def value_cells(means: np.ndarray):
    """A ``cell_of`` for ``segment_mean_counts`` with one cell per distinct
    value of ``means``, which a value enters only if it equals that value
    bit for bit, and the count of each value in ``means``."""
    values, counts = np.unique(means, return_counts=True)

    def cell_of(v):
        i = np.minimum(np.searchsorted(values, v), len(values) - 1)
        return np.where(values[i] == v, i, -1)

    return cell_of, counts


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SPLIT_PARAMS = [MapParams(0.15, 0.1), MapParams(0.25, 0.0)]
SMALL_CHUNKS = [7, 64]  # forced as ``_CHUNK``; None keeps it, one chunk a range
SPLIT_CASES = [(1003, 2, None), (1001, 3, None)] + [
    (n_ens, w, chunk) for n_ens, w in [(1003, 1), (1003, 2), (1001, 3)] for chunk in SMALL_CHUNKS
]


def chunk_ids(cases) -> list[str]:
    """``w<workers>`` per case, and ``-chunk<members>`` for a forced chunk."""
    return [f"w{w}" + (f"-chunk{chunk}" if chunk else "") for *_, w, chunk in cases]


class TestMemberSplit:
    @pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 5, 6, 7, 1002, 10**6 + 3])
    def test_positioned_stream_continues_the_fresh_one(self, start):
        for key in (np.uint64(5), np.array([5, 0xB4C3D11A], dtype=np.uint64)):
            fresh = np.random.Generator(np.random.Philox(key=key)).random(start + 11)
            assert ensemble._philox(key, start).random(11).tobytes() == fresh[start:].tobytes()

    @pytest.mark.parametrize("with_y", [True, False], ids=["xy", "x-only"])
    @pytest.mark.parametrize("params", SPLIT_PARAMS, ids=["0.15", "0.25-dither"])
    @pytest.mark.parametrize("members", [(0, 37), (37, 101), (1, 2), (98, 101)])
    def test_range_run_is_a_slice_of_the_whole_run(self, params, with_y, members):
        a, b = members
        cfg = SimConfig(params=params, variant=MapVariant.IRREVERSIBLE, n_ens=101, n_iter=6, burn_in=5, seed=7)
        steps = 0
        for (x, y), (xs, ys) in zip(whole(cfg, with_y), states(cfg, with_y, members), strict=True):
            assert np.array_equal(x[a:b], xs)
            assert ys is None if not with_y else np.array_equal(y[a:b], ys)
            steps += 1
        assert steps == cfg.n_iter

    # odd ensembles whose split points 501 and 333, 667 start the sample
    # stream inside a Philox block of four draws; chunks of 7 and 64 members
    # divide none of the ranges
    @pytest.mark.parametrize("n_ens,w,chunk", SPLIT_CASES, ids=chunk_ids(SPLIT_CASES))
    @pytest.mark.parametrize("variant", list(MapVariant), ids=lambda v: v.value)
    @pytest.mark.parametrize("params", SPLIT_PARAMS, ids=["0.15", "0.25-dither"])
    def test_split_reductions_equal_one_worker_bitwise(self, monkeypatch, force_workers, params, variant, n_ens, w, chunk):
        """w workers with chunks of ``chunk`` members (None keeps ``_CHUNK``,
        one chunk a range) against one worker with one chunk."""
        cfg = SimConfig(params=params, variant=variant, n_ens=n_ens, n_iter=9, burn_in=4, seed=13)
        gk_cfg = transport.GKConfig(**vars(cfg))
        phi = np.array([0.0, 1.0, -1.0, 0.0])
        cell_of, value_counts = value_cells(segment_means(cfg, 4))

        def reductions():
            gk = transport.green_kubo_estimate(gk_cfg)
            return [
                empirical_density(cfg, nx=7, ny=9).counts,
                transition_counts(cfg),
                segment_mean_counts(cfg, 4, 1.0, cell_of, len(value_counts)),
                np.array(odd_observable_mean(cfg, phi, ReversalScheme.Q3)),
                *lag_products(cfg, transport.PSI),
                np.array([gk.value, gk.stderr]),
                gk.partial_sums,
            ]

        force_workers(n_ens, 1)
        whole = reductions()  # one chunk on one worker
        force_workers(n_ens, w)
        monkeypatch.setattr(ensemble, "_CHUNK", chunk or ensemble._CHUNK)
        split = reductions()
        for a, b in zip(whole, split, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert whole[2].tobytes() == value_counts.tobytes()  # every mean binned, bit for bit
        assert_no_child_left()

    @pytest.mark.parametrize(
        "reduction", [lambda cfg: empirical_density(cfg, nx=8, ny=8), transition_counts], ids=["density", "transitions"]
    )
    def test_worker_memory_does_not_grow_with_its_range(self, force_workers, reduction):
        """One worker's traced peak at 4x the members: its chunks bound it,
        and the histogram's 64 cells add nothing per member."""
        n = 3 * ensemble._CHUNK
        peaks = []
        for n_ens in (n, 4 * n):
            cfg = SimConfig(params=MapParams(0.15, 0.1), variant=MapVariant.IRREVERSIBLE, n_ens=n_ens, n_iter=3, burn_in=2, seed=5)
            force_workers(n_ens, 1)
            tracemalloc.start()
            try:
                reduction(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    @pytest.mark.parametrize(
        "reduction",
        [
            lambda cfg: empirical_density(cfg, nx=4, ny=4),
            transition_counts,
            lambda cfg: segment_mean_counts(cfg, 2, 1.0, lambda v: np.zeros(len(v), dtype=np.int64), 1),
            lambda cfg: lag_products(cfg, transport.PSI),
        ],
        ids=["density", "transitions", "segment-means", "lag-products"],
    )
    def test_no_kernel_call_exceeds_a_chunk(self, monkeypatch, force_workers, reduction):
        """The chunks of ``_split`` are the one cache-sized cut: on one
        worker over three chunks and five members, every call of the step
        of both modes, ``_advance``, gets the rows of one chunk."""
        n_ens = 3 * ensemble._CHUNK + 5
        cfg = SimConfig(params=MapParams(0.15, 0.1), variant=MapVariant.IRREVERSIBLE, n_ens=n_ens, n_iter=4, burn_in=2, seed=5)
        force_workers(n_ens, 1)
        sizes = []
        kernel = ensemble._advance

        def recording(rows, *args):
            sizes.append(len(rows))
            return kernel(rows, *args)

        monkeypatch.setattr(ensemble, "_advance", recording)
        reduction(cfg)
        assert set(sizes) == {ensemble._CHUNK, 5}

    @pytest.mark.parametrize(
        "reduction",
        [
            lambda cfg: odd_observable_mean(cfg, transport.PSI, ReversalScheme.Q3),
            lambda cfg: lag_products(cfg, transport.PSI),
        ],
        ids=["odd-mean", "lag-products"],
    )
    def test_parent_memory_does_not_grow_with_the_ensemble(self, force_workers, reduction):
        """The parent's traced peak over two workers at 4x the members: only
        sums leave a chunk or a worker, so the peak is one chunk's state at
        either size, where per-member rows would grow with the members."""
        n = 2 * ensemble._CHUNK
        peaks = []
        for n_ens in (n, 4 * n):
            cfg = SimConfig(params=MapParams(0.15, 0.1), variant=MapVariant.IRREVERSIBLE, n_ens=n_ens, n_iter=4, burn_in=1, seed=5)
            force_workers(n_ens, 2)
            tracemalloc.start()
            try:
                reduction(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_parent_holds_the_sums_once(self, force_workers):
        """The parent's traced peak over two workers, less the 8 MB of
        counts of a 1000 x 1000 histogram, is one chunk's state: about 16
        arrays of ``_CHUNK`` floats, where a second counts array would add
        61.  The parent adds into the caller's counts and reads a child's
        through one piece."""
        n_ens = 4 * ensemble._CHUNK
        cfg = SimConfig(params=MapParams(0.15, 0.1), variant=MapVariant.IRREVERSIBLE, n_ens=n_ens, n_iter=2, burn_in=1, seed=5)
        force_workers(n_ens, 2)
        tracemalloc.start()
        try:
            hist = empirical_density(cfg, nx=1000, ny=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.counts.nbytes == 8_000_000 and hist.counts.sum() == 2 * n_ens
        assert peak - hist.counts.nbytes <= 20 * ensemble._CHUNK * 8, (peak - hist.counts.nbytes) / (ensemble._CHUNK * 8)

    # sums of several pieces whose length no piece divides: 10,000 histogram
    # cells (int64) and _PIECE + 5 float step sums of the lag products
    @pytest.mark.parametrize("w", [2, 3])
    def test_sums_of_several_pieces_equal_one_worker_bitwise(self, force_workers, w):
        cfg = SimConfig(params=MapParams(0.15, 0.1), variant=MapVariant.IRREVERSIBLE, n_ens=30, n_iter=3, burn_in=2, seed=5)
        lag_cfg = replace(cfg, n_iter=ensemble._PIECE + 5)

        def reductions():
            return [empirical_density(cfg, nx=100, ny=100).counts, *lag_products(lag_cfg, transport.PSI)]

        force_workers(cfg.n_ens, 1)
        whole = reductions()
        force_workers(cfg.n_ens, w)
        split = reductions()
        for a in whole[:2]:
            assert a.size > ensemble._PIECE and a.size % ensemble._PIECE != 0
        assert whole[1].dtype == np.float64
        for a, b in zip(whole, split, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert_no_child_left()

    def test_worker_count_follows_ensemble_size(self, monkeypatch):
        monkeypatch.setattr(ensemble.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 4)
        m = ensemble._MIN_SPLIT_MEMBERS
        assert [worker_count(n) for n in (1, m - 1, m, 2 * m - 1, 2 * m, 3 * m, 100 * m)] == [1, 1, 1, 1, 2, 3, 4]
        monkeypatch.delattr(ensemble.os, "fork")
        assert worker_count(100 * m) == 1

    def test_failed_child_raises_and_is_reaped(self, monkeypatch, force_workers):
        cfg = SimConfig(params=PARAMS_EQ, n_ens=1001, n_iter=3, burn_in=2, seed=1)
        force_workers(cfg.n_ens, 3)
        parent = os.getpid()
        step = ensemble._advance

        def failing_in_children(*args):
            if os.getpid() != parent:
                raise FloatingPointError("injected")
            return step(*args)

        monkeypatch.setattr(ensemble, "_advance", failing_in_children)
        with pytest.raises(WorkerError, match=r"members \[333, 667\) failed: FloatingPointError: injected"):
            empirical_density(cfg, nx=4, ny=4)
        assert_no_child_left()

    def test_failed_child_reason_with_sums_of_several_pieces(self, force_workers):
        """A failed child's reason is its first bytes, which land in the
        first of the three pieces its sums would fill."""
        force_workers(10, 2)
        parent = os.getpid()

        def part(a, b, sums):
            if os.getpid() != parent:
                raise ValueError("injected")
            sums += 1.0

        with pytest.raises(WorkerError, match=r"members \[5, 10\) failed: ValueError: injected$"):
            ensemble._split(10, part, np.zeros(2 * ensemble._PIECE + 5))
        assert_no_child_left()

    def test_failed_child_reason_longer_than_the_sums(self, force_workers):
        """A reason longer than the sums' bytes is read on past them."""
        force_workers(10, 2)
        parent = os.getpid()

        def part(a, b, sums):
            if os.getpid() != parent:
                raise ValueError("injected, in more bytes than one float64 holds")

        with pytest.raises(WorkerError, match=r"failed: ValueError: injected, in more bytes than one float64 holds$"):
            ensemble._split(10, part, np.zeros(1))
        assert_no_child_left()

    def test_killed_child_raises(self, force_workers):
        force_workers(10, 2)
        parent = os.getpid()

        def part(a, b, sums):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(WorkerError, match=r"members \[5, 10\) failed: killed by signal 9"):
            ensemble._split(10, part, np.zeros(3))
        assert_no_child_left()

    # a part adds into the sums whose size the caller fixes, so only the
    # pipe can carry the wrong byte count: the child's write is skewed by
    # one byte, short or long, and it still exits 0
    @pytest.mark.parametrize("size", [3, 2 * ensemble._PIECE + 5], ids=["one-piece", "three-pieces"])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_payload_size_raises(self, monkeypatch, force_workers, extra, size):
        force_workers(10, 2)

        class Skewed:
            def __init__(self, pipe):
                self.pipe = pipe

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.pipe.close()

            def write(self, chunk):
                data = bytes(chunk)
                self.pipe.write(data[:-1] if extra < 0 else data + b"\0")

        def skewed_open(fd, mode):
            pipe = open(fd, mode)
            return Skewed(pipe) if mode == "wb" else pipe  # "wb" is the child's end

        def part(a, b, sums):
            sums += 1.0

        monkeypatch.setattr(ensemble, "open", skewed_open, raising=False)
        with pytest.raises(WorkerError, match=r"members \[5, 10\) sent"):
            ensemble._split(10, part, np.zeros(size))
        assert_no_child_left()

    def test_failed_parent_range_kills_children(self, force_workers):
        force_workers(12, 3)
        parent = os.getpid()

        def part(a, b, sums):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            signal.pause()  # a child that would never finish on its own

        with pytest.raises(KeyboardInterrupt):
            ensemble._split(12, part, np.zeros(3))
        assert_no_child_left()


COUNT_CASES = [(1003, 1, None), (1003, 1, 7)] + SPLIT_CASES


class TestSegmentMeanCounts:
    GRID = symmetric_grid(2.0, 0.1)

    def cells(self, values):
        return _bin_values(values, self.GRID, 0.05)

    @pytest.mark.parametrize("n_ens,w,chunk", COUNT_CASES, ids=chunk_ids(COUNT_CASES))
    @pytest.mark.parametrize("variant", list(MapVariant), ids=lambda v: v.value)
    @pytest.mark.parametrize("params", [MapParams(0.15, 0.2), MapParams(0.25, 0.1)], ids=["0.15", "0.25-dither"])
    def test_counts_equal_a_bincount_of_the_segment_means(self, monkeypatch, force_workers, params, variant, n_ens, w, chunk):
        """The counts against one bincount of the kept means, each over the
        mean rate, on w workers and chunks of ``chunk`` members (None keeps
        ``_CHUNK``)."""
        cfg = SimConfig(params=params, variant=variant, n_ens=n_ens, n_iter=13, burn_in=0, seed=19)
        scale = mean_contraction_rate(params.ell, params.q)
        force_workers(n_ens, 1)
        idx = self.cells(segment_means(cfg, 4) / scale)
        assert (idx < 0).any() and (idx >= 0).sum() > n_ens  # some means fall outside every cell
        expected = np.bincount(idx[idx >= 0], minlength=len(self.GRID))
        force_workers(n_ens, w)
        monkeypatch.setattr(ensemble, "_CHUNK", chunk or ensemble._CHUNK)
        counts = segment_mean_counts(cfg, 4, scale, self.cells, len(self.GRID))
        assert counts.dtype == np.int64 and counts.tobytes() == expected.tobytes()
        assert_no_child_left()

    def test_too_short_a_run_is_refused_before_any_worker_starts(self, monkeypatch):
        def split(*_):
            raise AssertionError("a worker started")

        monkeypatch.setattr(ensemble, "_split", split)
        cfg = SimConfig(params=MapParams(0.15, 0.2), n_ens=_MAX_ENSEMBLE, n_iter=9, burn_in=0, seed=1)
        with pytest.raises(DomainError, match=r"^n_iter must be >= seg_len \(10\) for one segment, got 9$"):
            segment_mean_counts(cfg, 10, 1.0, self.cells, len(self.GRID))
        with pytest.raises(DomainError, match=r"^seg_len must be >= 1, got 0$"):
            segment_mean_counts(cfg, 0, 1.0, self.cells, len(self.GRID))

    def test_no_kept_state_is_refused_as_by_every_reduction(self):
        """``n_iter = 0`` makes no segment, but is refused as a run of no
        kept state, in the terms ``empirical_density`` and the lag sums use."""
        with pytest.raises(DomainError, match=r"^n_iter must be >= 1, got 0$"):
            cfg = SimConfig(params=MapParams(0.15, 0.2), n_ens=10, n_iter=0, burn_in=0, seed=1)
            segment_mean_counts(cfg, 10, 1.0, self.cells, len(self.GRID))

    def test_fewer_segments_than_min_count_are_refused_before_any_worker_starts(self, monkeypatch):
        def split(*_):
            raise AssertionError("a worker started")

        monkeypatch.setattr(ensemble, "_split", split)
        cfg = SimConfig(params=MapParams(0.15, 0.2), n_ens=3, n_iter=39, burn_in=0, seed=1)
        message = r"^n_ens x \(n_iter // seg_len\) segments must be >= min_count \(10\), got 3 x \(39 // 10\) = 9$"
        with pytest.raises(DomainError, match=message):
            segment_mean_counts(cfg, 10, 1.0, self.cells, len(self.GRID), min_count=10)
        with pytest.raises(AssertionError, match="a worker started"):
            segment_mean_counts(cfg, 10, 1.0, self.cells, len(self.GRID), min_count=9)


def place_on_the_edges(monkeypatch, ell: float) -> None:
    """Make every start in [0, 0.04) sit exactly on a region edge: those in
    [i/100, (i+1)/100) go to the i-th of ell, 1/2, 3/4 and 1.  The choice
    depends on a member's start alone, so a range run places the same
    members as the whole run."""
    start = ensemble._stationary_x

    def placed(x, ell_):
        start(x, ell_)
        cell = np.floor(x * 100.0)
        for i, edge in enumerate((ell, 0.5, 0.75, 1.0)):
            x[cell == i] = edge

    monkeypatch.setattr(ensemble, "_stationary_x", placed)


XONLY_CASES = [
    (MapParams(0.25, 0.0), 0, 9),
    (MapParams(0.25, 0.0), 3, 1),
    (MapParams(0.15, 0.2), 5, 9),
    (MapParams(0.15, 0.2), 0, 1),
]


XONLY_SPLITS = [(w, chunk) for chunk in [None, *SMALL_CHUNKS] for w in (1, 3)]


class TestXOnlyPath:
    """The x-only reductions against a loop written from ``step_arrays``
    (which looks the regions up itself), ``region_indices`` and ``phi[r]``."""

    PHI = np.array([0.3, -1.7, 2.9, 0.1])  # products that are not integer-valued
    PHI_ODD = np.array([0.37, 0.0, 0.0, -0.37])  # odd under Q4

    @pytest.mark.parametrize("w,chunk", XONLY_SPLITS, ids=chunk_ids(XONLY_SPLITS))
    @pytest.mark.parametrize(
        "params,burn_in,n_iter", XONLY_CASES, ids=["0.25-dither", "0.25-dither-1", "0.15-burn-in", "0.15-1"]
    )
    def test_reductions_match_the_reference_loop_bitwise(self, monkeypatch, force_workers, params, burn_in, n_iter, w, chunk):
        cfg = SimConfig(params=params, variant=MapVariant.IRREVERSIBLE, n_ens=1001, n_iter=n_iter, burn_in=burn_in, seed=17)
        place_on_the_edges(monkeypatch, params.ell)
        seqs = [ensemble.region_indices(x, params.ell) for x, _ in reference_run(cfg, False)]
        on_edges = np.isin(next(whole(replace(cfg, burn_in=0, n_iter=1), False))[0], (params.ell, 0.5, 0.75, 1.0))
        assert 20 <= on_edges.sum() <= 100
        force_workers(cfg.n_ens, w)
        chunk = chunk or ensemble._CHUNK
        monkeypatch.setattr(ensemble, "_CHUNK", chunk)
        cuts = [cfg.n_ens * i // w for i in range(w + 1)]

        seg_len = min(n_iter, 4)
        rates = contraction_rates(params)
        sums, acc = np.zeros((cfg.n_ens, n_iter // seg_len)), np.zeros(cfg.n_ens)
        for k, r in enumerate(seqs[: n_iter // seg_len * seg_len]):
            acc += rates[r]
            if (k + 1) % seg_len == 0:
                sums[:, k // seg_len] = acc
                acc[:] = 0.0
        cell_of, value_counts = value_cells(sums / seg_len)
        assert segment_mean_counts(cfg, seg_len, 1.0, cell_of, len(value_counts)).tobytes() == value_counts.tobytes()

        counts = np.zeros((4, 4), dtype=np.int64)
        for prev, r in zip(seqs, seqs[1:]):
            np.add.at(counts, (prev, r), 1)
        assert np.array_equal(transition_counts(cfg), counts)

        at_step = np.empty(n_iter)
        for k, r in enumerate(seqs):
            prod = self.PHI[r] * self.PHI[seqs[0]]
            worker_sums = []
            for a, b in zip(cuts, cuts[1:]):  # each worker adds its chunk sums in member order
                total = prod[a : min(a + chunk, b)].sum()
                for c in range(a + chunk, b, chunk):
                    total += prod[c : min(c + chunk, b)].sum()
                worker_sums.append(total)
            at_step[k] = worker_sums[0]
            for total in worker_sums[1:]:  # then the worker sums, in member order
                at_step[k] += total
        got_at_step, got_pair = lag_products(cfg, self.PHI)
        assert got_at_step.tobytes() == at_step.tobytes()
        rows = np.stack(seqs, axis=1).tolist()
        assert tuple(got_pair) == exact_mean_se(exact_sums(rows, self.PHI, first=True))

        averages = [total / n_iter for total in exact_sums(rows, self.PHI_ODD)]
        assert odd_observable_mean(cfg, self.PHI_ODD, ReversalScheme.Q4) == exact_mean_se(averages)
        assert_no_child_left()

    @pytest.mark.parametrize("params", [PARAMS_EQ, MapParams(0.25, 0.0)], ids=["0.15", "0.25-dither"])
    def test_one_region_lookup_per_state(self, monkeypatch, params):
        cfg = SimConfig(params=params, n_ens=64, n_iter=12, burn_in=4, seed=3)
        expected = segment_means(cfg, 3)
        lookups = []
        lookup = ensemble.region_indices

        def counting(*args):
            lookups.append(1)
            return lookup(*args)

        def inside_the_step(*args):
            raise AssertionError("step_arrays looked the regions up again")

        monkeypatch.setattr(ensemble, "region_indices", counting)
        monkeypatch.setattr(mapcore, "region_indices", inside_the_step)
        assert segment_means(cfg, 3).tobytes() == expected.tobytes()
        assert len(lookups) == cfg.burn_in + cfg.n_iter

    @pytest.mark.parametrize("n", [1, 7, ensemble._CHUNK, ensemble._CHUNK + 1, 3 * ensemble._CHUNK + 7])
    @pytest.mark.parametrize(
        "params",
        [
            MapParams(0.15, 0.2),
            MapParams(0.1, 0.0, strip_x=0.3, strip_eps=0.2),
            MapParams(0.2, 0.1, strip_x=0.5, strip_eps=0.0),
            MapParams(0.25, 0.0),
        ],
        ids=["default-strip", "custom-strip", "zero-width-strip", "ell-quarter"],
    )
    def test_step_matches_unblocked_expression(self, monkeypatch, params, n):
        """The x-only loop from starts on the partition and strip edges, where
        a tie decides the branch, against ``clip(ax[r] x + bx[r], 0, 1 - 2**-53)``
        with r from whole-array comparisons (then the dither at ell = 1/4):
        its regions and the phi and count word that its one gather fetches."""
        x0 = np.random.default_rng(n).random(n)
        edges = [0.0, params.ell, 0.5, 0.75, 1.0, params.strip_x, params.strip_x + params.strip_eps,
                 np.nextafter(params.ell, 0.0)]
        x0[: len(edges)] = edges[:n]

        def start(x, ell):
            x[:] = x0

        monkeypatch.setattr(ensemble, "_stationary_x", start)
        phi = np.array([0.5, -1.0, 2.5, 3.0])
        ax, bx, _, _ = mapcore.branch_coefficients(params)
        key = np.array([5, ensemble._DITHER_SUBKEY_X], dtype=np.uint64)
        cfg = SimConfig(params=params, n_ens=n, n_iter=7, burn_in=0, seed=5)
        xr = x0.copy()
        for k, (x, _, r, rows) in enumerate(_run(cfg, False, (0, n), phi)):
            rr = (xr >= params.ell).astype(np.int8) + (xr >= 0.5).astype(np.int8) + (xr >= 0.75).astype(np.int8)
            assert np.array_equal(x, xr)
            assert np.array_equal(r, rr)
            assert np.array_equal(rows[:, 2], phi[rr])
            assert np.array_equal(rows[:, 3], ensemble._LANES[rr])
            xr = np.clip(ax[rr] * xr + bx[rr], 0.0, np.nextafter(1.0, 0.0))
            if params.ell == 0.25:
                xr = ensemble._dither(xr, ensemble._philox(key, k * n))

    def test_dither_clips_as_the_step_does(self):
        """Into [0, 1 - 2**-53], in place: a dithered x is never 1 (ROADMAP item 1)."""
        v = np.full(1000, mapcore._TOP)
        v[:500] = 0.0
        key = np.array([5, ensemble._DITHER_SUBKEY_X], dtype=np.uint64)
        assert ensemble._dither(v, ensemble._philox(key, 0)) is v
        assert v.min() == 0.0 and v.max() == mapcore._TOP == np.nextafter(1.0, 0.0)
        assert 100 < (v[:500] == 0.0).sum() < 400 and 100 < (v[500:] == mapcore._TOP).sum() < 400

    def test_x_table(self):
        """Row r is (ax[r], bx[r], phi[r], _LANES[r]), phi 0 where None, and
        the count word comes back exactly from float64."""
        params = MapParams(0.15, 0.2)
        ax, bx, _, _ = mapcore.branch_coefficients(params)
        for given, column in ((self.PHI, self.PHI), (None, np.zeros(4))):
            table = ensemble._x_table(params, given)
            assert table.shape == (4, 4) and table.dtype == np.float64
            assert np.array_equal(table, np.stack([ax, bx, column, ensemble._LANES], axis=1))
            assert np.array_equal(table[:, 3].astype(np.uint32), ensemble._LANES)
