import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats
from scipy.special import logsumexp

from stats import variant_equivalence_test

from bakerlab.errors import (
    CapacityError,
    DomainError,
    FitError,
    InsufficientFluctuationsError,
    NormalizationError,
)
from bakerlab.mapcore import MapParams, MapVariant, Region, ReversalScheme, contraction_rates, region_reverse
from bakerlab.markov import contraction_sum_distribution, mean_contraction_rate
from bakerlab import ensemble
from bakerlab.ensemble import SimConfig
from bakerlab.fluctuation import (
    FRConfig,
    _bin_values,
    _logsumexp,
    estimate_pi,
    fit_parabola,
    fr_check,
    rate_function,
    symmetric_grid,
)

ELL, Q = 0.15, 0.2
MEAN_RATE = mean_contraction_rate(ELL, Q)


def fr_config(n, p_max=2.0, delta=0.05, min_count=25):
    return FRConfig(n=n, p_grid=symmetric_grid(p_max, 2 * delta), delta=delta, min_count=min_count)


class TestTimeAverage:
    """The contraction-rate time average of a symbolic segment is
    ``contraction_rates(params)[segment].mean()``."""

    def test_constant_b_sequence(self):
        rates = contraction_rates(MapParams(ELL, Q))
        assert rates[[Region.B] * 10].mean() == pytest.approx(np.log(1.4), rel=1e-12)

    def test_balanced_a_d_at_equilibrium(self):
        rates = contraction_rates(MapParams(0.15, 0.0))
        seq = [Region.A, Region.D, Region.D, Region.A]
        assert abs(rates[seq].mean()) < 1e-15

    def test_reversed_sequence_negates(self):
        rates = contraction_rates(MapParams(ELL, Q))
        gen = np.random.Generator(np.random.Philox(key=np.uint64(3)))
        seq = [Region(int(r)) for r in gen.integers(0, 4, size=40)]
        rev = [region_reverse(r, ReversalScheme.Q3) for r in reversed(seq)]
        assert rates[rev].mean() == pytest.approx(-rates[seq].mean(), abs=1e-12)
        rates0 = contraction_rates(MapParams(0.15, 0.0))
        rev4 = [region_reverse(r, ReversalScheme.Q4) for r in reversed(seq)]
        assert rates0[rev4].mean() == pytest.approx(-rates0[seq].mean(), abs=1e-12)


class TestFRConfig:
    def test_grid_must_be_symmetric(self):
        with pytest.raises(DomainError):
            FRConfig(n=10, p_grid=np.array([-0.1, 0.0, 0.2]))

    def test_cells_must_not_overlap(self):
        with pytest.raises(DomainError):
            FRConfig(n=10, p_grid=symmetric_grid(1.0, 0.1), delta=0.2)

    def test_cells_may_touch_but_not_overlap_by_an_ulp(self):
        """2 delta is compared with the grid's exact spacing, with no tolerance."""
        grid = symmetric_grid(1.0, 0.1)
        assert FRConfig(n=10, p_grid=grid, delta=0.05).delta == 0.05
        with pytest.raises(DomainError, match=r"^cells overlap: need 2\*delta <= grid spacing$"):
            FRConfig(n=10, p_grid=grid, delta=np.nextafter(0.05, 1.0))

    # linspace's points are within 1 ulp of symmetric_grid(2.0, 0.1)'s but not
    # equal; the even grid is symmetric and uniform but has no cell at p = 0
    @pytest.mark.parametrize(
        "grid",
        [np.linspace(-2, 2, 41), (np.arange(-20, 20) + 0.5) * 0.1, np.array([0.0]), symmetric_grid(2.0, 0.1)[::-1]],
        ids=["linspace", "even", "one cell", "decreasing"],
    )
    def test_only_a_grid_of_symmetric_grid_is_accepted(self, grid):
        claim = r"p_grid must be symmetric_grid's \(-k\.\.k\) x spacing, with k >= 1 and spacing > 0"
        with pytest.raises(DomainError, match=rf"^{claim}$"):
            FRConfig(n=10, p_grid=grid)

    @pytest.mark.parametrize("p_max, spacing", [(2.0, 0.1), (7.0, 0.2), (8.0, 0.05), (0.1, 0.1), (5000.0, 1.0)])
    def test_every_grid_of_symmetric_grid_is_accepted(self, p_max, spacing):
        grid = symmetric_grid(p_max, spacing)
        assert FRConfig(n=10, p_grid=list(grid), delta=spacing / 2).p_grid.tobytes() == grid.tobytes()

    def test_symmetric_grid_exact(self):
        g = symmetric_grid(2.0, 0.1)
        assert len(g) == 41
        assert np.abs(g + g[::-1]).max() == 0.0

    @pytest.mark.parametrize("delta", [0.0, np.nan, np.inf])
    def test_delta_must_be_positive_and_finite(self, delta):
        with pytest.raises(DomainError, match=rf"^delta must be positive and finite, got {delta}$"):
            FRConfig(n=10, p_grid=symmetric_grid(1.0, 0.1), delta=delta)

    @pytest.mark.parametrize("min_count", [0, -5])
    def test_min_count_must_be_positive(self, min_count):
        with pytest.raises(DomainError, match="min_count"):
            FRConfig(n=10, p_grid=symmetric_grid(1.0, 0.1), min_count=min_count)

    @pytest.mark.parametrize("p_max, spacing", [(1e9, 0.1), (2.0, 2e-300), (1e308, 1e-300)])
    def test_symmetric_grid_cell_cap(self, p_max, spacing):
        with pytest.raises(CapacityError):
            symmetric_grid(p_max, spacing)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spacing", [np.inf, np.nan, 0.0, -0.1])
    def test_symmetric_grid_refuses_a_spacing_before_using_it(self, spacing):
        with pytest.raises(DomainError, match=rf"^spacing must be positive and finite, got {spacing}$"):
            symmetric_grid(2.0, spacing)


class TestEstimatePi:
    def test_exact_one_step_atoms(self):
        dist = contraction_sum_distribution(ELL, Q, 1)
        cfg = fr_config(1, p_max=5.0)
        pi = estimate_pi(cfg, dist)
        # e_1 atoms sit at -4, 0, +4 with the stationary cell masses
        assert pi.mass[np.argmin(np.abs(pi.p - 4.0))] == pytest.approx(0.4375, abs=1e-14)
        assert pi.mass[np.argmin(np.abs(pi.p + 4.0))] == pytest.approx(0.1875, abs=1e-14)
        assert pi.mass[np.argmin(np.abs(pi.p))] == pytest.approx(0.375, abs=1e-14)
        assert pi.mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_exact_peaks_near_one_for_large_n(self):
        dist = contraction_sum_distribution(ELL, Q, 400)
        pi = estimate_pi(fr_config(400), dist)
        assert pi.p[np.argmax(pi.mass)] == pytest.approx(1.0, abs=0.11)

    def test_normalization_error_at_equilibrium(self):
        dist = contraction_sum_distribution(0.15, 0.0, 50)
        with pytest.raises(NormalizationError):
            estimate_pi(fr_config(50), dist)

    def test_mc_normalization_error_at_equilibrium(self):
        # the stationary mean at (0.15, 0) is a rounding residue (-3e-19), not 0.0
        sim = SimConfig(params=MapParams(0.15, 0.0), n_ens=200, n_iter=500, burn_in=50, seed=3)
        with pytest.raises(NormalizationError):
            estimate_pi(fr_config(50), sim)

    def test_exact_pour_matches_per_cell_logsumexp(self):
        # cells with gaps between them (2 delta < spacing) and atoms off the
        # grid: each cell's mass is logsumexp over its atoms in their order
        n = 40
        dist = contraction_sum_distribution(0.1, 0.1, n)
        cfg = FRConfig(n=n, p_grid=symmetric_grid(7.0, 0.2), delta=0.08)
        idx = _bin_values(dist.sums / (n * dist.mean_time_average()), cfg.p_grid, cfg.delta)
        assert (idx == -1).any() and np.bincount(idx[idx >= 0]).max() > 20
        expected = np.full(len(cfg.p_grid), -np.inf)
        for i in range(len(cfg.p_grid)):
            if (idx == i).any():
                expected[i] = logsumexp(dist.log_probs[idx == i])
        got = estimate_pi(cfg, dist).log_mass
        assert np.array_equal(got, expected)
        assert np.isinf(got).any()

    @pytest.mark.parametrize(
        "a",
        [
            [0.3],
            [-np.inf],
            [-np.inf] * 5,
            [1.5, 1.5, 1.5],
            [2.0, -1.0, 2.0, 0.5, 2.0],
            [-np.inf, 2.0, -np.inf, 1.0],
            [700.0, 700.0],
            [710.0, 709.0, -np.inf],
            [800.0, 799.5],
            [-700.0, -701.0, -700.0],
            [-800.0, -801.0],
            [-745.0, -746.0, -745.5],
            [0.0, -1e-300],
        ],
    )
    def test_logsumexp_matches_scipy_bitwise(self, a):
        a = np.array(a)
        assert np.array_equal(_logsumexp(a), logsumexp(a))

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 17, 129, 4001])
    @pytest.mark.parametrize("offset", [0.0, 700.0, -700.0, 800.0, -800.0])
    def test_logsumexp_matches_scipy_bitwise_on_random_arrays(self, n, offset):
        rng = np.random.default_rng(n)
        a = rng.normal(offset, 5.0, n)
        ties = a.copy()
        ties[rng.integers(0, n, max(1, n // 4))] = a.max()
        holes = a.copy()
        holes[rng.integers(0, n, max(1, n // 3))] = -np.inf
        for v in (a, ties, holes, np.round(a)):
            assert np.array_equal(_logsumexp(v), logsumexp(v))

    @pytest.mark.parametrize("p_max,spacing,delta", [(2.0, 0.1, 0.05), (7.0, 0.2, 0.08), (8.0, 0.1, 0.025)])
    def test_bin_values_match_the_formula_bitwise(self, p_max, spacing, delta):
        """The in-place binning against the folded rule written out with
        fresh arrays: round |value| / spacing half to even to j, give the
        index k + j or k - j the value's sign, and keep it when the value
        lies within delta + 1e-12 of that grid point."""
        grid = symmetric_grid(p_max, spacing)
        rng = np.random.default_rng(int(p_max))
        edges = np.concatenate([grid + s * (delta + e) for s in (-1, 1) for e in (0.0, 1e-12, -1e-12, 2e-12)])
        values = np.concatenate([rng.uniform(-1.5 * p_max, 1.5 * p_max, 10_000), grid, grid + spacing / 2, edges])
        kept = values.copy()
        k = len(grid) // 2
        j = np.round(np.abs(values) / spacing).astype(np.int64)
        idx = k + np.where(values < 0, -j, j)
        clipped = np.clip(idx, 0, len(grid) - 1)
        inside = (j <= k) & (np.abs(values - grid[clipped]) < delta + 1e-12)
        got = _bin_values(values, grid, delta)
        assert got.dtype == np.int64 and got.tobytes() == np.where(inside, clipped, -1).tobytes()
        assert values.tobytes() == kept.tobytes()  # the input is left as it was
        assert (got == -1).any() and len(np.unique(got)) == len(grid) + 1

    # a value on the edge two cells share goes where rounding |v| / spacing
    # half to even sends it, and -v to the mirror of that cell, as the
    # per-cell ratio pi(p) / pi(-p) of fr_check needs
    @pytest.mark.parametrize("v", [0.05, 0.15, 0.25])
    def test_cells_are_mirror_symmetric_at_shared_edges(self, v):
        grid = symmetric_grid(2.0, 0.1)
        plus, minus = _bin_values(np.array([v, -v]), grid, 0.05)
        assert minus == len(grid) - 1 - plus

    @pytest.mark.parametrize("half_width", [0.5, 0.4, 0.25], ids=["touching", "gapped", "half"])
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 200),
        spacing=st.floats(1e-3, 10.0),
        extra=st.lists(st.floats(-2e3, 2e3), max_size=20),
    )
    def test_a_value_and_its_negation_land_in_mirror_cells(self, half_width, k, spacing, extra):
        """``_bin_values(-v)`` is the mirror cell of ``_bin_values(v)``, or
        both are -1, on grids with 2 delta = spacing and 2 delta < spacing,
        at every cell edge j spacing +- delta +- 1e-12 and elsewhere."""
        grid = symmetric_grid(k * spacing, spacing)
        assert len(grid) == 2 * k + 1
        delta = half_width * spacing
        j = np.arange(k + 2)[:, None] * spacing
        edges = (j + np.array([-delta, delta])[:, None, None] + np.array([-1e-12, 0.0, 1e-12])).ravel()
        values = np.concatenate([edges, j.ravel(), np.array(extra)])
        plus, minus = _bin_values(values, grid, delta), _bin_values(-values, grid, delta)
        assert np.array_equal(minus, np.where(plus >= 0, 2 * k - plus, -1))

    @pytest.mark.parametrize("n", [200, 1000, 2000])
    def test_exact_atoms_and_their_mirrors_land_in_mirror_cells(self, n):
        """The law at (1/8, 1/4) is a lattice whose atoms come in mirror
        pairs, some of them on edges that two cells share; each atom lands
        in the mirror of its partner's cell."""
        dist = contraction_sum_distribution(0.125, 0.25, n)
        e = dist.sums / (n * dist.mean_time_average())
        assert np.array_equal(np.sort(e), np.sort(-e))
        grid = symmetric_grid(2.0, 0.1)
        plus, minus = _bin_values(e, grid, 0.05), _bin_values(-e, grid, 0.05)
        assert np.array_equal(minus, np.where(plus >= 0, len(grid) - 1 - plus, -1))

    def test_mc_matches_exact_cell_by_cell(self):
        n = 50
        dist = contraction_sum_distribution(ELL, Q, n)
        cfg = fr_config(n)
        pi_exact = estimate_pi(cfg, dist)
        sim = SimConfig(
            params=MapParams(ELL, Q), n_ens=2_000, n_iter=2_500, burn_in=500, seed=17
        )
        pi_mc = estimate_pi(cfg, sim)
        assert pi_mc.n_segments == 2_000 * 50
        total = pi_mc.n_segments
        for i in range(len(cfg.p_grid)):
            m = pi_exact.mass[i]
            se = np.sqrt(max(m * (1 - m), 1e-12) / total)
            assert abs(pi_mc.mass[i] - m) < max(4 * se, 5e-5), cfg.p_grid[i]

    def test_mc_convergence_rate(self):
        # quadrupling the segment count roughly halves the L2 cell error
        n = 25
        dist = contraction_sum_distribution(ELL, Q, n)
        cfg = fr_config(n)
        ref = estimate_pi(cfg, dist).mass
        errs = []
        for n_ens, seed in ((500, 3), (8_000, 4)):
            sim = SimConfig(params=MapParams(ELL, Q), n_ens=n_ens, n_iter=n * 10, burn_in=300, seed=seed)
            got = estimate_pi(cfg, sim).mass
            errs.append(np.linalg.norm(got - ref))
        assert errs[1] < errs[0] / 2.0

    def test_source_n_mismatch(self):
        dist = contraction_sum_distribution(ELL, Q, 10)
        with pytest.raises(DomainError):
            estimate_pi(fr_config(20), dist)

    def test_mc_too_short_a_run_is_refused_before_any_worker_starts(self, monkeypatch):
        def split(*_):
            raise AssertionError("a worker started")

        monkeypatch.setattr(ensemble, "_split", split)
        sim = SimConfig(params=MapParams(ELL, Q), n_ens=10_000_000, n_iter=19, burn_in=0, seed=1)
        with pytest.raises(DomainError, match=r"^n_iter must be >= seg_len \(20\) for one segment, got 19$"):
            estimate_pi(fr_config(20), sim)
        # a run of fewer segments than min_count leaves no cell admissible
        sim = SimConfig(params=MapParams(ELL, Q), n_ens=24, n_iter=20, burn_in=0, seed=1)
        with pytest.raises(DomainError, match=r"segments must be >= min_count \(25\), got 24 x \(20 // 20\) = 24$"):
            estimate_pi(fr_config(20), sim)

    def test_mc_memory_does_not_grow_with_the_ensemble(self, force_workers):
        """One worker's traced peak at 4x the members: each chunk bins its
        segment means as each segment ends, so no (n_ens, n_segs) array is
        made (one would be 1.5 MB, then 6 MB here)."""
        n = 3 * ensemble._CHUNK
        peaks = []
        for n_ens in (n, 4 * n):
            sim = SimConfig(params=MapParams(ELL, Q), n_ens=n_ens, n_iter=8, burn_in=0, seed=6)
            force_workers(n_ens, 1)
            tracemalloc.start()
            try:
                pi = estimate_pi(fr_config(2), sim)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert pi.n_segments == 4 * n_ens and 0 < pi.counts.sum() <= pi.n_segments
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestRateFunction:
    def test_minimum_in_cell_containing_one(self):
        for n in (50, 200):
            dist = contraction_sum_distribution(ELL, Q, n)
            rf = rate_function(estimate_pi(fr_config(n), dist))
            finite = np.isfinite(rf.zeta)
            assert rf.p[finite][np.nanargmin(rf.zeta[finite])] == pytest.approx(1.0, abs=1e-12)

    def test_curves_descend_with_n_near_peak(self):
        cfgs = {n: estimate_pi(fr_config(n), contraction_sum_distribution(ELL, Q, n)) for n in (50, 100, 200)}
        zetas = {n: rate_function(pi).zeta for n, pi in cfgs.items()}
        grid = fr_config(50).p_grid
        sel = (grid >= 0.5) & (grid <= 1.5)
        assert np.all(zetas[100][sel] < zetas[50][sel])
        assert np.all(zetas[200][sel] < zetas[100][sel])

    def test_pointwise_gap_shrinks(self):
        z = {}
        for n in (50, 100, 200):
            pi = estimate_pi(fr_config(n), contraction_sum_distribution(ELL, Q, n))
            z[n] = rate_function(pi).zeta
        common = np.isfinite(z[50]) & np.isfinite(z[100]) & np.isfinite(z[200])
        gap1 = np.nanmax(np.abs(z[100][common] - z[50][common]))
        gap2 = np.nanmax(np.abs(z[200][common] - z[100][common]))
        assert gap2 < gap1


class TestFRCheck:
    def test_one_step_ratio_matches_hand_value(self):
        dist = contraction_sum_distribution(ELL, Q, 1)
        pi = estimate_pi(fr_config(1, p_max=5.0), dist)
        chk = fr_check(pi)
        i = int(np.argmin(np.abs(chk.p - 4.0)))
        # log(0.4375/0.1875)/(1 * mean * 4) ~ 2.52: far from 1 at n = 1
        assert chk.ratio[i] == pytest.approx(2.5181806, rel=1e-6)
        assert chk.value[i] == pytest.approx(4.0 * 2.5181806, rel=1e-6)

    def test_exact_slope_near_one_at_n500(self):
        dist = contraction_sum_distribution(ELL, Q, 500)
        pi = estimate_pi(fr_config(500), dist)
        chk = fr_check(pi)
        assert 0.9 <= chk.slope <= 1.1

    def test_insufficient_negative_fluctuations(self):
        # a short run at n = 100 leaves every negative cell under min_count
        sim = SimConfig(params=MapParams(ELL, Q), n_ens=50, n_iter=400, burn_in=200, seed=2)
        pi = estimate_pi(fr_config(100), sim)
        with pytest.raises(InsufficientFluctuationsError, match="negative fluctuations"):
            fr_check(pi)

    def test_mc_has_stderr_exact_does_not(self):
        dist = contraction_sum_distribution(ELL, Q, 50)
        chk = fr_check(estimate_pi(fr_config(50), dist))
        assert chk.stderr is None
        sim = SimConfig(params=MapParams(ELL, Q), n_ens=4_000, n_iter=1_000, burn_in=300, seed=19)
        chk_mc = fr_check(estimate_pi(fr_config(20), sim))
        assert chk_mc.stderr is not None and np.all(chk_mc.stderr > 0)


class TestFitParabola:
    def test_exact_quadratic_recovery(self):
        p = symmetric_grid(2.0, 0.1)
        zeta = 0.3 * (p - 1.0) ** 2 + 0.02
        from bakerlab.fluctuation import RateFunction

        fit = fit_parabola(RateFunction(p=p, zeta=zeta, n=100, source="exact"))
        assert fit.a == pytest.approx(0.3, rel=1e-12)
        assert fit.b == pytest.approx(0.02, rel=1e-10)
        assert fit.residual < 1e-12

    def test_offset_shrinks_with_n(self):
        fits = {}
        for n in (100, 200):
            pi = estimate_pi(fr_config(n), contraction_sum_distribution(ELL, Q, n))
            fits[n] = fit_parabola(rate_function(pi))
        assert 0 < fits[200].b < fits[100].b

    @staticmethod
    def _lstsq_fit(rf):
        """The fit by LAPACK least squares on the design [(p-1)^2, 1]:
        (a, b, residual) and the design's numerical rank."""
        mask = np.isfinite(rf.zeta)
        p, z = rf.p[mask], rf.zeta[mask]
        design = np.column_stack([(p - 1.0) ** 2, np.ones(len(p))])
        coef = np.linalg.lstsq(design, z, rcond=None)[0]
        resid = float(np.sqrt(np.mean((design @ coef - z) ** 2)))
        return (float(coef[0]), float(coef[1]), resid), int(np.linalg.matrix_rank(design))

    # the n = 100 and 200 fits above, the benchmark's ratefunc (n = 2000 on the
    # lattice family) and the generic law at the benchmark's n = 64 and 96
    LSTSQ_CASES = [(ELL, Q, 100, 2.0), (ELL, Q, 200, 2.0), (ELL, Q, 2000, 2.0), (0.1, 0.1, 64, 8.0), (0.1, 0.1, 96, 8.0)]

    @pytest.mark.parametrize("ell, q, n, p_max", LSTSQ_CASES, ids=[f"{c[0]}-{c[1]}-n{c[2]}" for c in LSTSQ_CASES])
    def test_closed_form_matches_lstsq(self, ell, q, n, p_max):
        rf = rate_function(estimate_pi(fr_config(n, p_max=p_max), contraction_sum_distribution(ell, q, n)))
        fit = fit_parabola(rf)
        (a, b, resid), rank = self._lstsq_fit(rf)
        assert rank == 2
        assert fit.n_points == int(np.isfinite(rf.zeta).sum())
        assert fit.a == pytest.approx(a, rel=1e-12)
        assert fit.b == pytest.approx(b, rel=1e-12)
        assert fit.residual == pytest.approx(resid, rel=1e-12)

    def test_closed_form_matches_lstsq_on_an_exact_parabola(self):
        from bakerlab.fluctuation import RateFunction

        p = symmetric_grid(2.0, 0.1)
        rf = RateFunction(p=p, zeta=0.3 * (p - 1.0) ** 2 + 0.02, n=100, source="exact")
        fit = fit_parabola(rf)
        (a, b, resid), _ = self._lstsq_fit(rf)
        assert fit.a == pytest.approx(a, rel=1e-12)
        assert fit.b == pytest.approx(b, rel=1e-12)
        assert abs(fit.residual - resid) < 1e-15  # both are rounding noise

    @pytest.mark.parametrize(
        "p",
        [[0.0, 2.0, 0.0, 2.0], [3.0, -1.0, 3.0], list(1.0 + 1e-9 * np.arange(1, 5))],
        ids=["equal", "mirrored", "equal-to-rounding"],
    )
    def test_rank_one_design_is_refused(self, p):
        """(p-1)^2 equal in every cell, exactly or to rounding, leaves the
        design [(p-1)^2, 1] of numerical rank 1, as matrix_rank counts it."""
        from bakerlab.fluctuation import RateFunction

        rf = RateFunction(p=np.array(p), zeta=np.linspace(0.1, 0.4, len(p)), n=10, source="exact")
        assert self._lstsq_fit(rf)[1] == 1
        with pytest.raises(FitError, match="degenerate fit"):
            fit_parabola(rf)

    def test_degenerate_input(self):
        from bakerlab.fluctuation import RateFunction

        with pytest.raises(FitError):
            fit_parabola(RateFunction(p=np.array([0.0, 1.0, 2.0]), zeta=np.array([np.nan, 0.1, np.nan]), n=10, source="exact"))


class TestVariantEquivalence:
    def test_same_seed_is_identical(self):
        base = dict(n_ens=500, n_iter=500, burn_in=100)
        a = SimConfig(params=MapParams(ELL, Q), variant=MapVariant.REVERSIBLE, seed=5, **base)
        b = SimConfig(params=MapParams(ELL, Q), variant=MapVariant.IRREVERSIBLE, seed=5, **base)
        rep = variant_equivalence_test(a, b, seg_len=50)
        assert rep.identical
        assert rep.statistic == 0.0
        assert rep.passed

    def test_independent_seeds_same_law(self):
        base = dict(n_ens=2_000, n_iter=1_000, burn_in=300)
        a = SimConfig(params=MapParams(ELL, Q), variant=MapVariant.REVERSIBLE, seed=21, **base)
        b = SimConfig(params=MapParams(ELL, Q), variant=MapVariant.IRREVERSIBLE, seed=22, **base)
        rep = variant_equivalence_test(a, b, seg_len=50)
        assert not rep.identical
        assert rep.passed, (rep.statistic, rep.pvalue)

    def test_pvalue_is_chi2_survival(self):
        base = dict(n_ens=500, n_iter=500, burn_in=100)
        a = SimConfig(params=MapParams(ELL, Q), seed=31, **base)
        b = SimConfig(params=MapParams(ELL, Q), seed=32, **base)
        rep = variant_equivalence_test(a, b, seg_len=50)
        assert rep.dof > 1
        assert rep.pvalue == float(sstats.chi2.sf(rep.statistic, rep.dof))

    def test_different_parameters_fail(self):
        base = dict(n_ens=2_000, n_iter=1_000, burn_in=300)
        a = SimConfig(params=MapParams(0.15, 0.2), seed=23, **base)
        b = SimConfig(params=MapParams(0.20, 0.1), seed=24, **base)
        rep = variant_equivalence_test(a, b, seg_len=50)
        assert not rep.passed
