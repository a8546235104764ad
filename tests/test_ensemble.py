import os
import signal
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy import stats as sstats

from stats import segment_means, uniformity_chi_square

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
    RectSet,
    SimConfig,
    empirical_density,
    lag_products,
    measure_estimate,
    odd_observable_mean,
    reflect_rect,
    sample_ensemble,
    segment_mean_counts,
    transition_counts,
    worker_count,
)

PARAMS_EQ = MapParams(ell=0.15, q=0.0)


class TestSampling:
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
    ell = 1/4 step k draws its dither at position k n_ens of each stream."""
    pts = sample_ensemble(config.n_ens, config.seed)
    x, y = pts[:, 0].copy(), pts[:, 1].copy() if with_y else None
    ensemble._stationary_x(x, config.params.ell)
    keys = [np.array([config.seed, sub], dtype=np.uint64) for sub in (ensemble._DITHER_SUBKEY_X, ensemble._DITHER_SUBKEY_Y)]
    states = []
    for k in range(config.burn_in + config.n_iter):
        if k >= config.burn_in:
            states.append((x, y))
        x, y = step_arrays(x, y, config.params, config.variant)
        if config.params.ell == 0.25:
            x = ensemble._dither(x, ensemble._philox(keys[0], k * config.n_ens))
            y = None if y is None else ensemble._dither(y, ensemble._philox(keys[1], k * config.n_ens))
    return states


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

    def test_first_yield_memory_with_y(self):
        n = 500_000
        cfg = SimConfig(params=PARAMS_EQ, n_ens=n, n_iter=1, burn_in=0, seed=24)
        tracemalloc.start()
        try:
            run = whole(cfg)
            next(run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (n, 2) sample and its two column copies, plus a little
        assert peak <= 33 * n


class TestRun:
    def test_zero_iterations_returns_initial_ensemble(self):
        pts = sample_ensemble(500, seed=9)
        for ell in (0.15, 0.25):
            cfg = SimConfig(params=MapParams(ell, 0.0), n_ens=500, n_iter=0, burn_in=0, seed=9)
            x, y = next(whole(replace(cfg, n_iter=1)))
            np.testing.assert_allclose(x, stationary_inverse_cdf(pts[:, 0], ell), rtol=0, atol=1e-15)
            assert np.array_equal(y, pts[:, 1])
            assert list(whole(cfg)) == []
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

    @pytest.mark.parametrize("params", [PARAMS_EQ, MapParams(ell=0.25, q=0.0)], ids=["0.15", "0.25-dither"])
    @pytest.mark.parametrize("with_y", [True, False], ids=["xy", "x-only"])
    @pytest.mark.parametrize("burn_in,n_iter", [(7, 12), (0, 1), (5, 0), (0, 0)])
    def test_no_step_after_the_last_kept_state(self, monkeypatch, params, with_y, burn_in, n_iter):
        calls = []
        step = ensemble.step_arrays

        def counting(*args):
            calls.append(1)
            return step(*args)

        cfg = SimConfig(params=params, variant=MapVariant.IRREVERSIBLE, n_ens=40, n_iter=n_iter, burn_in=burn_in, seed=6)
        expected = reference_run(cfg, with_y)
        monkeypatch.setattr(ensemble, "step_arrays", counting)
        states = list(whole(cfg, with_y))
        assert len(calls) == (burn_in + n_iter - 1 if n_iter else 0)
        assert len(states) == n_iter
        for (x, y), (ex, ey) in zip(states, expected, strict=True):
            assert np.array_equal(x, ex)
            assert y is None if not with_y else np.array_equal(y, ey)

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

    @pytest.mark.parametrize("bins", [2, 10, 60, 100])
    def test_uniformity_pvalue_is_chi2_survival(self, bins):
        counts = np.random.default_rng(bins).poisson(50, size=bins)
        stat, dof, pvalue = uniformity_chi_square(counts)
        assert dof == bins - 1
        assert pvalue == float(sstats.chi2.sf(stat, dof))

    def test_cell_cap(self):
        from bakerlab.ensemble import _MAX_HIST_CELLS

        assert 500 * 500 <= _MAX_HIST_CELLS < 2001 * 2000
        cfg = SimConfig(params=PARAMS_EQ, n_ens=1, n_iter=1, burn_in=0, seed=1)
        with pytest.raises(CapacityError, match="2001 x 2000"):
            empirical_density(cfg, nx=2001, ny=2000)

    def test_sample_count(self):
        cfg = SimConfig(params=PARAMS_EQ, n_ens=300, n_iter=7, burn_in=10, seed=1)
        hist = empirical_density(cfg, nx=8, ny=8)
        assert hist.counts.sum() == hist.n_samples == 300 * 7


class TestMeasureEstimate:
    def test_unit_square(self):
        cfg = SimConfig(params=PARAMS_EQ, n_ens=500, n_iter=10, burn_in=100, seed=2)
        est = measure_estimate(cfg, RectSet(0, 1, 0, 1))
        assert est.fraction == 1.0

    def test_left_half(self):
        cfg = SimConfig(params=PARAMS_EQ, n_ens=5_000, n_iter=40, burn_in=800, seed=3)
        est = measure_estimate(cfg, RectSet(0, 0.5, 0, 1))
        assert abs(est.fraction - 0.625) < 4 * est.stderr

    def test_reversal_invariance_battery(self):
        # at q = 0 the invariant measure is reversal-invariant: mu(W) = mu(GW)
        cfg = SimConfig(params=PARAMS_EQ, n_ens=4_000, n_iter=40, burn_in=800, seed=11)
        rects = [
            RectSet(0.0, 0.25, 0.0, 1.0),
            RectSet(0.0, 0.5, 0.0, 0.25),
            RectSet(0.3, 0.8, 0.2, 0.7),
            RectSet(0.55, 0.9, 0.5, 0.75),
            RectSet(0.1, 0.4, 0.6, 0.95),
        ]
        for rect in rects:
            w = measure_estimate(cfg, rect)
            pieces = reflect_rect(rect)
            gw_frac = 0.0
            gw_var = 0.0
            for piece in pieces:
                est = measure_estimate(cfg, piece)
                gw_frac += est.fraction
                gw_var += est.stderr**2
            joint_se = np.sqrt(w.stderr**2 + gw_var)
            assert abs(w.fraction - gw_frac) < 3.5 * joint_se, rect


class TestReflectRect:
    def test_left_piece(self):
        out = reflect_rect(RectSet(0.1, 0.3, 0.2, 0.8))
        assert out == [RectSet(0.1, 0.4, 0.2, 0.6)]

    def test_right_piece(self):
        (out,) = reflect_rect(RectSet(0.6, 0.9, 0.0, 0.5))
        assert (out.x_min, out.x_max) == (0.5, 0.75)
        assert (out.y_min, out.y_max) == pytest.approx((0.2, 0.8), rel=1e-15)

    def test_straddling_rect_splits_at_seam(self):
        out = reflect_rect(RectSet(0.2, 0.7, 0.1, 0.6))
        assert len(out) == 2
        assert out[0] == RectSet(0.05, 0.3, 0.4, 1.0)
        assert out[1].x_min == 0.55 and out[1].x_max == 0.8
        assert out[1].y_min == 0.0

    def test_preserves_total_area(self):
        for rect in (RectSet(0.2, 0.7, 0.1, 0.6), RectSet(0.0, 1.0, 0.0, 1.0), RectSet(0.45, 0.55, 0.9, 1.0)):
            assert sum(p.area for p in reflect_rect(rect)) == pytest.approx(rect.area, rel=1e-12)

    def test_rect_validation(self):
        with pytest.raises(DomainError):
            RectSet(0.5, 0.5, 0, 1)
        with pytest.raises(DomainError):
            RectSet(0, 1.2, 0, 1)


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

    def test_rejects_non_odd(self):
        cfg = SimConfig(params=PARAMS_EQ, n_ens=10, n_iter=5, burn_in=0, seed=1)
        with pytest.raises(DomainError):
            odd_observable_mean(cfg, np.array([1.0, 0.0, 0.0, 0.0]), ReversalScheme.Q4)
        with pytest.raises(DomainError):
            odd_observable_mean(cfg, contraction_rates(MapParams(0.15, 0.1)), ReversalScheme.Q4)


class TestLagProducts:
    @pytest.mark.parametrize("params", [MapParams(0.15, 0.2), MapParams(0.25, 0.0)], ids=["0.15", "0.25-dither"])
    def test_sums_of_products_with_the_first_step(self, params):
        cfg = SimConfig(params=params, n_ens=300, n_iter=12, burn_in=3, seed=8)
        phi = np.array([0.5, 1.0, -1.0, 2.0])
        at_step, per_member = lag_products(cfg, phi)
        seqs = np.stack(list(regions(cfg)), axis=1)
        prods = phi[seqs] * phi[seqs[:, :1]]
        assert at_step.shape == (12,) and per_member.shape == (300,)
        assert at_step.tobytes() == prods.sum(axis=0).tobytes()
        assert per_member.tobytes() == prods.sum(axis=1).tobytes()

    def test_rejects_phi_of_wrong_shape(self):
        cfg = SimConfig(params=PARAMS_EQ, n_ens=10, n_iter=5, burn_in=0, seed=1)
        for phi in (np.zeros(3), np.zeros((4, 1)), 1.0):
            with pytest.raises(DomainError, match="one value per region"):
                lag_products(cfg, phi)


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
                np.array(astuple(measure_estimate(cfg, RectSet(0.1, 0.6, 0.2, 0.9)))),
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
        the histogram's 64 cells and the empty rows add nothing per member."""
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

    def test_parent_holds_the_rows_once(self, force_workers):
        """The parent's traced peak over two workers, less the per-member
        rows that ``lag_products`` returns (32 arrays of ``_CHUNK`` floats),
        is one chunk's state: about 10 such arrays.  Each child's rows are
        read straight into their slice (a buffer of the child's 16 arrays
        made it about 16), and each chunk writes its rows straight into
        theirs."""
        n_ens = 32 * ensemble._CHUNK
        cfg = SimConfig(params=MapParams(0.15, 0.1), variant=MapVariant.IRREVERSIBLE, n_ens=n_ens, n_iter=24, burn_in=0, seed=5)
        force_workers(n_ens, 2)
        tracemalloc.start()
        try:
            _, per_member = lag_products(cfg, transport.PSI)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert per_member.nbytes == n_ens * 8
        assert peak - per_member.nbytes <= 12 * ensemble._CHUNK * 8, (peak - per_member.nbytes) / (ensemble._CHUNK * 8)

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
        step = ensemble.step_arrays

        def failing_in_children(*args):
            if os.getpid() != parent:
                raise FloatingPointError("injected")
            return step(*args)

        monkeypatch.setattr(ensemble, "step_arrays", failing_in_children)
        with pytest.raises(WorkerError, match=r"members \[333, 667\) failed: FloatingPointError: injected"):
            empirical_density(cfg, nx=4, ny=4)
        assert_no_child_left()

    def test_killed_child_raises(self, force_workers):
        force_workers(10, 2)
        parent = os.getpid()

        def part(a, b, sums, rows):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(WorkerError, match=r"members \[5, 10\) failed: killed by signal 9"):
            ensemble._split(10, part, np.zeros(3))
        assert_no_child_left()

    # a part writes into arrays of the size its range fixes, so only the
    # pipe can carry the wrong byte count: the child's writes are skewed
    # by one byte each, short or long, and it still exits 0
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_payload_size_raises(self, monkeypatch, force_workers, extra):
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

        def part(a, b, sums, rows):
            rows[:] = 1.0

        monkeypatch.setattr(ensemble, "open", skewed_open, raising=False)
        with pytest.raises(WorkerError, match=r"members \[5, 10\) sent"):
            ensemble._split(10, part, np.zeros(3), (2,))
        assert_no_child_left()

    def test_failed_parent_range_kills_children(self, force_workers):
        force_workers(12, 3)
        parent = os.getpid()

        def part(a, b, sums, rows):
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
        with pytest.raises(DomainError, match="n_iter too small for one segment"):
            segment_mean_counts(cfg, 10, 1.0, self.cells, len(self.GRID))
        with pytest.raises(DomainError, match="seg_len must be >= 1"):
            segment_mean_counts(cfg, 0, 1.0, self.cells, len(self.GRID))


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

        at_step, per_member = np.empty(n_iter), np.zeros(cfg.n_ens)
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
            per_member += prod
        got_at_step, got_per_member = lag_products(cfg, self.PHI)
        assert got_at_step.tobytes() == at_step.tobytes()
        assert got_per_member.tobytes() == per_member.tobytes()

        averages = np.zeros(cfg.n_ens)
        for r in seqs:
            averages += self.PHI_ODD[r]
        averages /= n_iter
        mean, se = odd_observable_mean(cfg, self.PHI_ODD, ReversalScheme.Q4)
        assert mean == float(averages.mean())
        assert se == float(averages.std(ddof=1) / np.sqrt(cfg.n_ens))
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
