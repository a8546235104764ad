import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_distribution,
    chain_autocovariance_rational,
    log_dp_long_double,
    scaled_dp_by_visit,
    stationary_by_eigensolve,
)

from bakerlab import markov
from bakerlab.errors import CapacityError, DomainError
from bakerlab.mapcore import MapParams, Region, ReversalScheme, contraction_rates
from bakerlab.markov import (
    MAX_N,
    _DP_BLOCK,
    _generic_sums,
    _lattice_structure,
    _log_dp,
    _log_factorials,
    chain_autocovariance,
    coarse_measure,
    contraction_c2,
    contraction_sum_distribution,
    db_report,
    mean_contraction_rate,
    mean_contraction_rate_grid,
    stationary_density,
    transfer_matrix,
    transition_matrix,
)

ELL_GRID = [0.05, 0.1, 0.15, 0.2, 0.25]


class TestTransferMatrix:
    def test_values(self):
        assert np.array_equal(transfer_matrix(0.25), [[0.5, 0.5], [0.5, 0.5]])
        assert transfer_matrix(0.15) == pytest.approx(np.array([[0.7, 0.5], [0.3, 0.5]]))

    def test_columns_sum_to_one(self):
        for ell in ELL_GRID:
            assert transfer_matrix(ell).sum(axis=0) == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_leading_eigenvector_is_stationary_density(self):
        for ell in ELL_GRID:
            v = stationary_by_eigensolve(transfer_matrix(ell), left=False)
            rho = np.array(stationary_density(ell))
            assert v * 2.0 == pytest.approx(rho, rel=1e-12)

    def test_range(self):
        with pytest.raises(DomainError):
            transfer_matrix(0.3)


class TestDomain:
    """The single-ell functions refuse what ``MapParams`` refuses, in its
    words, and the point whose J_A once cancelled to 0 runs."""

    @pytest.mark.parametrize("fn", [transfer_matrix, stationary_density, transition_matrix, coarse_measure])
    @pytest.mark.parametrize(
        "ell, claim", [(0.3, "must lie in (0, 1/4]"), (2e-309, "must be large enough for 1/(2 ell) to be finite")]
    )
    def test_single_ell_functions_refuse_off_the_domain(self, fn, ell, claim):
        with pytest.raises(DomainError, match=re.escape(f"ell {claim}, got {ell}")):
            fn(ell)

    def test_point_next_to_one_half_runs(self):
        ell, q = 0.0103, 0.49999999999999994
        assert db_report(ell, q, ReversalScheme.Q4).max_mismatch == 0.0
        assert np.isfinite(mean_contraction_rate(ell, q))
        assert abs(contraction_sum_distribution(ell, q, 20).probs.sum() - 1.0) <= 1e-12


class TestStationaryDensity:
    def test_uniform_at_quarter(self):
        assert stationary_density(0.25) == pytest.approx((1.0, 1.0), rel=1e-15)

    def test_value_at_015(self):
        rho = stationary_density(0.15)
        assert rho.rho_l == pytest.approx(1.25, rel=1e-15)
        assert rho.rho_r == pytest.approx(0.75, rel=1e-15)

    def test_fixed_point_and_normalization(self):
        for ell in ELL_GRID:
            rho = np.array(stationary_density(ell))
            assert transfer_matrix(ell) @ rho == pytest.approx(rho, abs=1e-15)
            assert rho.sum() / 2.0 == pytest.approx(1.0, abs=1e-15)


class TestTransitionMatrix:
    def test_rows(self):
        P = transition_matrix(0.25)
        assert np.array_equal(P[Region.B], [0.5, 0.5, 0.0, 0.0])
        P = transition_matrix(0.15)
        assert P[Region.A] == pytest.approx([0.0, 0.0, 0.5, 0.5])
        assert P[Region.B] == pytest.approx([0.3, 0.7, 0.0, 0.0])
        assert np.array_equal(P[Region.A], P[Region.C])
        assert np.array_equal(P[Region.B], P[Region.D])

    def test_row_sums_and_zero_pattern(self):
        mask = np.array(
            [[0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0]], dtype=bool
        )
        for ell in ELL_GRID:
            P = transition_matrix(ell)
            assert P.sum(axis=1) == pytest.approx([1.0] * 4, abs=1e-15)
            assert np.array_equal(P > 0, mask)

    def test_entries_are_inverse_target_expansion(self):
        for ell in ELL_GRID:
            P = transition_matrix(ell)
            expansion = np.array([1 / (2 * ell), 1 / (1 - 2 * ell), 2.0, 2.0])
            for i in Region:
                for j in Region:
                    if P[i, j] > 0:
                        assert P[i, j] == pytest.approx(1.0 / expansion[j], rel=1e-14)


class TestCoarseMeasure:
    def test_uniform_at_quarter(self):
        assert coarse_measure(0.25) == pytest.approx([0.25] * 4, rel=1e-15)

    def test_value_at_015(self):
        assert coarse_measure(0.15) == pytest.approx([0.1875, 0.4375, 0.1875, 0.1875], rel=1e-15)

    def test_stationarity_exact(self):
        for ell in ELL_GRID:
            mu = coarse_measure(ell)
            assert np.abs(mu @ transition_matrix(ell) - mu).max() == 0.0
            assert mu.sum() == pytest.approx(1.0, abs=1e-15)

    def test_matches_eigensolve(self):
        for ell in ELL_GRID:
            mu = stationary_by_eigensolve(transition_matrix(ell), left=True)
            assert mu == pytest.approx(coarse_measure(ell), rel=1e-12)

    def test_relation_to_density(self):
        for ell in ELL_GRID:
            mu = coarse_measure(ell)
            rho = stationary_density(ell)
            expected = [rho.rho_l * ell, rho.rho_l * (0.5 - ell), rho.rho_r / 4, rho.rho_r / 4]
            assert mu == pytest.approx(expected, rel=1e-14)


class TestMeanContractionRate:
    @pytest.mark.parametrize("ell", ELL_GRID)
    def test_vanishes_at_equilibrium(self, ell):
        assert abs(mean_contraction_rate(ell, 0.0)) < 1e-14

    def test_biased_family_closed_form(self):
        # on the q = 1/2 - 2 ell family the generic sum reduces to
        # (1-4 ell)/(1+4 ell) * log(2 (1-2 ell))
        for ell in (0.05, 0.15, 0.2):
            q = 0.5 - 2.0 * ell
            closed = (1 - 4 * ell) / (1 + 4 * ell) * np.log(2 * (1 - 2 * ell))
            assert mean_contraction_rate(ell, q) == pytest.approx(closed, rel=1e-12)
        assert mean_contraction_rate(0.15, 0.2) == pytest.approx(0.0841180591553, rel=1e-10)

    def test_positive_off_equilibrium(self):
        # all four log-volume terms enter; at ell=1/4, q=0.2 two branches
        # contract (J=0.6) and two expand (J=1.4)
        v = mean_contraction_rate(0.25, 0.2)
        assert v == pytest.approx(-0.25 * (2 * np.log(0.6) + 2 * np.log(1.4)), rel=1e-12)
        assert v > 0
        for ell in ELL_GRID:
            for q in (0.05, 0.2, 0.4):
                assert mean_contraction_rate(ell, q) > 0


class TestMeanContractionRateGrid:
    """The grid is ``mu @ contraction_rates`` at every cell, bit for bit,
    and fails as the first invalid cell in row-major order fails."""

    @pytest.mark.parametrize("steps", [(1, 1), (5, 1), (21, 21), (101, 101), (37, 53)])
    def test_equals_per_cell_dot_bitwise(self, steps):
        ells, qs = np.linspace(0.05, 0.25, steps[0]), np.linspace(0.0, 0.4, steps[1])
        expected = [
            [float(coarse_measure(ell) @ contraction_rates(MapParams(ell=ell, q=q))) for q in qs.tolist()]
            for ell in ells.tolist()
        ]
        assert np.array_equal(mean_contraction_rate_grid(ells, qs), expected)
        assert mean_contraction_rate(ells[-1], qs[-1]) == expected[-1][-1]

    @pytest.mark.parametrize(
        "ells, qs",
        [
            ([0.0, 0.1], [0.0, 0.2]),
            ([0.1, 0.3], [0.0, 0.6]),
            ([0.1, 0.3], [0.6, 0.0]),
            ([0.05, 0.1], [0.3, 0.5]),
            ([0.1, np.nan], [0.1]),
            ([0.25], [-0.1, 0.5]),
            ([0.1, 5e-324], [0.0, 0.1]),
            ([0.1, 2e-309], [0.0, 0.1]),
            ([2e-309, 0.1], [0.5, 0.1]),
        ],
    )
    def test_first_invalid_cell_raises_its_error(self, ells, qs):
        with pytest.raises(DomainError) as per_cell:
            for ell in ells:
                for q in qs:
                    MapParams(ell=ell, q=q)
        with pytest.raises(DomainError) as grid:
            mean_contraction_rate_grid(np.array(ells), np.array(qs))
        assert str(grid.value) == str(per_cell.value)

    @pytest.mark.parametrize("steps", [(2001, 2000), (1, 4_000_001)])
    def test_more_than_four_million_cells_are_refused_before_any_work(self, monkeypatch, steps):
        monkeypatch.setattr(markov, "_jacobians", lambda *args: pytest.fail("the grid was computed"))
        message = rf"^len\(ells\) x len\(qs\) must be <= 4000000 cells, got {steps[0]} x {steps[1]}$"
        with pytest.raises(CapacityError, match=message):
            mean_contraction_rate_grid(np.full(steps[0], 0.1), np.full(steps[1], 0.1))

    def test_an_empty_grid_is_refused(self):
        with pytest.raises(DomainError, match=r"^len\(qs\) must be >= 1, got 0$"):
            mean_contraction_rate_grid(np.full(3, 0.1), np.array([]))


class TestDBReport:
    @pytest.mark.parametrize("ell", ELL_GRID)
    def test_equilibrium_q4_mismatch_exactly_zero(self, ell):
        rep = db_report(ell, 0.0, ReversalScheme.Q4)
        assert rep.max_mismatch == 0.0
        assert len(rep.pairs) == 8

    def test_equilibrium_forward_weight_value(self):
        rep = db_report(0.15, 0.0, ReversalScheme.Q4)
        pair = rep.pair(Region.A, Region.C)
        assert pair.forward_weight == pytest.approx(0.09375, abs=1e-14)
        assert pair.reverse_source is Region.C and pair.reverse_target is Region.D
        assert pair.reverse_weight == pytest.approx(0.09375, abs=1e-14)

    def test_q3_violation_values(self):
        rep = db_report(0.15, 0.2, ReversalScheme.Q3)
        assert rep.max_mismatch > 0
        # the self-loop pair carries the 0.09375 vs 0.30625 violation
        cc = rep.pair(Region.C, Region.C)
        assert cc.forward_weight == pytest.approx(0.09375, abs=1e-14)
        assert cc.reverse_weight == pytest.approx(0.30625, abs=1e-14)
        # time reverse of A->C is B->A, whose joint weight is mu_B p_BA
        ac = rep.pair(Region.A, Region.C)
        assert ac.forward_weight == pytest.approx(0.09375, abs=1e-14)
        assert (ac.reverse_source, ac.reverse_target) == (Region.B, Region.A)
        assert ac.reverse_weight == pytest.approx(0.13125, abs=1e-14)

    def test_q3_clean_at_quarter(self):
        rep = db_report(0.25, 0.0, ReversalScheme.Q3)
        assert rep.max_mismatch == 0.0

    def test_q3_violated_off_quarter(self):
        for ell in (0.05, 0.1, 0.15, 0.2):
            rep = db_report(ell, 0.5 - 2 * ell, ReversalScheme.Q3)
            assert rep.max_mismatch > 1e-3


class TestContractionSumDistribution:
    @pytest.mark.parametrize(
        "ell,q",
        [(0.15, 0.2), (0.15, 0.0), (0.2, 0.1), (0.2, 0.05), (0.25, 0.0), (0.22, 0.07)],
    )
    def test_matches_brute_force(self, ell, q):
        for n in range(1, 9):
            values, probs = brute_force_distribution(ell, q, n)
            dist = contraction_sum_distribution(ell, q, n)
            assert len(values) == len(dist.sums)
            assert np.abs(values - dist.sums).max() < 1e-12
            assert np.abs(probs - dist.probs).max() < 1e-12

    def test_one_step_atoms(self):
        dist = contraction_sum_distribution(0.15, 0.2, 1)
        c = np.log(1.4)
        assert dist.sums == pytest.approx([-c, 0.0, c], rel=1e-12)
        assert dist.probs == pytest.approx([0.1875, 0.375, 0.4375], abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 50, 200])
    def test_equilibrium_symmetry(self, n):
        dist = contraction_sum_distribution(0.15, 0.0, n)
        assert np.abs(dist.sums + dist.sums[::-1]).max() < 1e-12
        assert np.abs(dist.probs - dist.probs[::-1]).max() < 1e-12

    @pytest.mark.parametrize(
        "ell,q,n",
        [
            pytest.param(0.15, 0.2, 500, id="lattice-500"),
            pytest.param(0.2, 0.05, 64, id="generic-64"),
            pytest.param(0.2, 0.05, MAX_N, id="generic-max"),
        ],
    )
    def test_normalization_deep(self, ell, q, n):
        dist = contraction_sum_distribution(ell, q, n)
        assert abs(dist.probs.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "ell,q,n",
        [
            pytest.param(0.15, 0.2, 1, id="1"),
            pytest.param(0.15, 0.2, 7, id="7"),
            pytest.param(0.15, 0.2, 64, id="64"),
            pytest.param(0.15, 0.2, 500, id="500"),
            pytest.param(0.2, 0.05, 64, id="generic-64"),
            pytest.param(0.2, 0.05, MAX_N, id="generic-max"),
        ],
    )
    def test_mean_is_stationary(self, ell, q, n):
        dist = contraction_sum_distribution(ell, q, n)
        assert dist.mean_time_average() == pytest.approx(
            mean_contraction_rate(ell, q), abs=5e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(ell=st.floats(0.01, 0.25), q=st.floats(0.01, 0.45), n=st.integers(1, 6))
    def test_closed_form_matches_brute_force(self, ell, q, n):
        assume(abs(q - (0.5 - 2.0 * ell)) > 1e-3)  # off the lattice family
        values, probs = brute_force_distribution(ell, q, n)
        dist = contraction_sum_distribution(ell, q, n)
        assert len(values) == len(dist.sums)
        assert np.abs(values - dist.sums).max() < 1e-12
        assert np.abs(probs - dist.probs).max() < 1e-12

    @pytest.mark.parametrize("ell,q", [(0.15, 0.2), (0.15, 0.0), (0.05, 0.4)])
    def test_closed_form_on_lattice_rates(self, ell, q):
        # the closed form holds for any rates; on a lattice family it must
        # reproduce the lattice DP's atoms
        dist = contraction_sum_distribution(ell, q, MAX_N)
        sums, log_probs = _generic_sums(ell, contraction_rates(MapParams(ell, q)), MAX_N)
        assert len(sums) == len(dist.sums)
        assert np.abs(sums - dist.sums).max() < 1e-12
        assert np.abs(np.exp(log_probs) - dist.probs).max() < 1e-11
        # relative, so that atoms far below 1e-11 are compared too; the two
        # kernels differ by at most 4.5e-12 here (7.2e-11 with the log-space DP)
        assert np.abs(np.expm1(log_probs - dist.log_probs)).max() < 1e-11

    def test_equilibrium_support_is_three_atoms(self):
        # on the q = 0 line the sum is (n_D - n_A) log(1/(4 ell)) with
        # |n_D - n_A| <= 1
        dist = contraction_sum_distribution(0.15, 0.0, 50)
        c = np.log(1.0 / 0.6)
        assert dist.sums == pytest.approx([-c, 0.0, c], rel=1e-12)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_at_conservative_point(self):
        dist = contraction_sum_distribution(0.25, 0.0, 100)
        assert np.array_equal(dist.sums, [0.0])
        assert np.array_equal(dist.probs, [1.0])

    def test_generic_parameters_use_count_dp(self):
        # off both special families: values need three independent counts
        dist = contraction_sum_distribution(0.2, 0.05, 12)
        assert len(dist.sums) > 2 * 12 + 1
        assert abs(dist.probs.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("q", [0.0, 0.1])
    def test_ell_whose_branch_slope_is_not_finite_is_refused(self, q):
        for ell in (5e-324, 2e-309):
            with pytest.raises(DomainError, match=r"1/\(2 ell\) to be finite"):
                contraction_sum_distribution(ell, q, 20)

    @pytest.mark.parametrize("ell,q", [(1e-300, 0.0), (1e-6, 0.5 - 2e-6), (0.15, 0.2)])
    def test_smallest_ells_keep_unit_mass(self, ell, q):
        dist = contraction_sum_distribution(ell, q, MAX_N)
        assert abs(dist.probs.sum() - 1.0) <= 1e-12

    def test_capacity_limits(self):
        with pytest.raises(CapacityError):
            contraction_sum_distribution(0.15, 0.2, 2001)
        with pytest.raises(CapacityError):
            contraction_sum_distribution(0.2, 0.05, MAX_N + 1)
        with pytest.raises(DomainError):
            contraction_sum_distribution(0.15, 0.2, 0)

    def test_e_mean_is_one_on_biased_family(self):
        for n in (10, 100, 400):
            dist = contraction_sum_distribution(0.15, 0.2, n)
            mean_rate = mean_contraction_rate(0.15, 0.2)
            e_mean = float(dist.probs @ (dist.sums / (n * mean_rate)))
            assert e_mean == pytest.approx(1.0, abs=1e-12)



class TestLatticeLawMemo:
    """Lattice laws are held per process, read-only, and handed out as
    fresh copies; generic laws are built on every call, and every call is
    validated."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        markov._lattice_law.cache_clear()
        yield
        markov._lattice_law.cache_clear()

    @pytest.mark.parametrize("ell,q,n", [(0.15, 0.2, 500), (0.15, 0.0, 64)])
    def test_a_repeated_lattice_key_runs_no_dp(self, monkeypatch, ell, q, n):
        first = contraction_sum_distribution(ell, q, n)
        monkeypatch.setattr(markov, "_log_dp", lambda *args: pytest.fail("the DP ran again"))
        second = contraction_sum_distribution(ell, q, n)
        for a, b in ((first.sums, second.sums), (first.log_probs, second.log_probs)):
            assert a.tobytes() == b.tobytes()
            assert b.flags.writeable and not np.shares_memory(a, b)
        second.sums[:] = 0.0  # a caller's writes do not reach the held law
        assert contraction_sum_distribution(ell, q, n).sums.tobytes() == first.sums.tobytes()

    def test_a_generic_key_is_built_on_every_call(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[2])
            return _generic_sums(*args)

        monkeypatch.setattr(markov, "_generic_sums", counted)
        laws = [contraction_sum_distribution(0.1, 0.1, 64) for _ in range(2)]
        assert calls == [64, 64]
        assert laws[0].log_probs.tobytes() == laws[1].log_probs.tobytes()
        assert markov._lattice_law.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "ell,q,n,error",
        [(0.15, 0.2, 0, DomainError), (0.15, 0.2, MAX_N + 1, CapacityError), (0.3, 0.2, 500, DomainError)],
    )
    def test_bad_arguments_raise_on_every_call(self, ell, q, n, error):
        contraction_sum_distribution(0.15, 0.2, 500)
        for _ in range(2):
            with pytest.raises(error):
                contraction_sum_distribution(ell, q, n)

    def test_the_memo_holds_at_most_its_size(self):
        size = markov._LAWS_HELD
        for n in range(1, size + 2):
            contraction_sum_distribution(0.15, 0.2, n)
        info = markov._lattice_law.cache_info()
        assert (info.currsize, info.maxsize, info.misses) == (size, size, size + 1)

def _generic_sums_both_starts(ell, rates, n):
    """Reference for ``_generic_sums``: the same closed form, with both start
    cases evaluated on every atom and masked by np.where."""
    from scipy.special import gammaln

    h = (n + 1) // 2
    a, b, e = np.arange(h + 1)[:, None, None], np.arange(n + 1)[:, None], np.arange(-1, 2)
    reachable = (2 * a + b + e <= n) & (a + e >= 0) & ((a > 0) | (e != 0) | (b == 0) | (b == n))
    na, nb, e = np.nonzero(reachable)
    e -= 1
    nd = na + e
    nc = n - na - nb - nd
    log_fact = gammaln(np.arange(1.0, n + 2))

    def log_ways(stays, segments):
        ways = log_fact[stays + segments - 1] - log_fact[stays] - log_fact[segments - 1]
        return np.where(segments > 0, ways, np.log(stays == 0))

    with np.errstate(divide="ignore"):
        left = np.where(e <= 0, log_ways(nb, nd + 1) + log_ways(nc, na), -np.inf)
        right = np.where(e >= 0, log_ways(nb, nd) + log_ways(nc, na + 1) + np.log(4.0 * ell), -np.inf)
    log_probs = np.logaddexp(left, right) + (
        na * np.log(2.0 * ell) + nb * np.log(1.0 - 2.0 * ell) - (nc + nd) * np.log(2.0) - np.log(1.0 + 4.0 * ell)
    )
    values = na * rates[0] + nb * rates[1] + nc * rates[2] + nd * rates[3]
    order = np.argsort(values, kind="stable")
    values, log_probs = values[order], log_probs[order]
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > 1e-9)
    return values[starts], np.logaddexp.reduceat(log_probs, starts)


# every (ell, q) at small n and 300; n = 1000 and MAX_N take log k! up to the
# largest k the law allows
_START_CASES = [
    (ell, q, n) for ell, q in [(0.2, 0.05), (0.1, 0.1), (0.22, 0.07)] for n in [*range(1, 13), 300]
] + [(0.1, 0.1, 1000), (0.1, 0.1, MAX_N)]


class TestGenericSumsStartCases:
    @pytest.mark.parametrize("ell,q,n", _START_CASES)
    def test_bitwise_equal_to_both_starts_everywhere(self, ell, q, n):
        rates = contraction_rates(MapParams(ell, q))
        sums, log_probs = _generic_sums(ell, rates, n)
        ref_sums, ref_log_probs = _generic_sums_both_starts(ell, rates, n)
        assert sums.tobytes() == ref_sums.tobytes()
        assert log_probs.tobytes() == ref_log_probs.tobytes()


# both lattice families: q = 0 and q = 1/2 - 2 ell
_LATTICE_CASES = [(ell, q) for ell in (0.05, 0.15, 0.24) for q in (0.0, 0.5 - 2.0 * ell)]
# the smallest ells tested on each family; at ell = 1e-300, p_A = 2 ell is about 2**-996
_EXTREME_CASES = [(1e-300, 0.0), (1e-12, 0.0), (1e-12, 0.5 - 2e-12)]


def _lattice_dp(ell, q, n):
    m, _ = _lattice_structure(ell, contraction_rates(MapParams(ell, q)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts, log_probs = _log_dp(ell, m, n)
    return m, counts, log_probs


class TestLatticeDP:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 500, MAX_N])
    @pytest.mark.parametrize(
        "ell,q", _LATTICE_CASES + _EXTREME_CASES, ids=[f"{ell}-{q:.2f}" for ell, q in _LATTICE_CASES + _EXTREME_CASES]
    )
    def test_matches_long_double_reference(self, ell, q, n):
        # every atom within 1e-12 relative of the long-double law; the
        # largest error is 4.0e-13, at (1e-12, 0) and MAX_N
        m, counts, log_probs = _lattice_dp(ell, q, n)
        ref_counts, ref_log_probs = log_dp_long_double(ell, m, n)
        assert np.array_equal(counts, ref_counts)
        assert np.abs(np.expm1(log_probs - ref_log_probs)).max() <= 1e-12
        if q == 0.0:  # A and D alternate, so |n_D - n_A| <= 1
            assert counts.tolist() == [-1, 0, 1]

    # both families, two ells on each, at n on both sides of a block of visits
    _BLOCK_CASES = [(0.15, 0.2), (0.1, 0.3), (0.05, 0.4), (0.15, 0.0), (0.2, 0.0)]

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 18, _DP_BLOCK, _DP_BLOCK + 1, _DP_BLOCK + 2, 200, 500, MAX_N])
    @pytest.mark.parametrize("ell,q", _BLOCK_CASES, ids=[f"{ell}-{q}" for ell, q in _BLOCK_CASES])
    def test_matches_the_per_visit_scaled_dp_bitwise(self, ell, q, n):
        # paired reads, band views and exponents rebased once a block change
        # no cell's arithmetic
        m, counts, log_probs = _lattice_dp(ell, q, n)
        ref_counts, ref_log_probs = scaled_dp_by_visit(ell, m, n)
        assert np.array_equal(counts, ref_counts)
        assert log_probs.tobytes() == ref_log_probs.tobytes()

    @pytest.mark.parametrize("n", [65, MAX_N])
    @pytest.mark.parametrize("ell,q", _BLOCK_CASES + _EXTREME_CASES, ids=[f"{ell}-{q}" for ell, q in _BLOCK_CASES + _EXTREME_CASES])
    def test_output_does_not_depend_on_the_block_length(self, ell, q, n, monkeypatch):
        _, counts, log_probs = _lattice_dp(ell, q, n)
        for block in (1, 7):
            monkeypatch.setattr(markov, "_DP_BLOCK", block)
            _, block_counts, block_log_probs = _lattice_dp(ell, q, n)
            assert np.array_equal(block_counts, counts)
            assert block_log_probs.tobytes() == log_probs.tobytes()


class TestLatticeStructure:
    """Family points take the lattice DP and points off both families the
    generic law, with tolerances scaled to the rounding of the rates."""

    @staticmethod
    def _families(ells, q_of):
        return [_lattice_structure(ell, contraction_rates(MapParams(ell, q_of(ell)))) for ell in ells]

    def test_biased_family_is_a_lattice_on_a_dense_grid(self):
        # q = 1/2 - 2 ell is rounded, so J_A = (1 - 2q)/(4 ell) misses 1 by
        # up to half a spacing of 1/(4 ell): rate A is 1.8e-13, 827 spacings
        # of 1, at ell = 1.36e-5
        ells = [*np.geomspace(1e-12, 0.25, 4001)[:-1].tolist(), 1.36e-5]
        found = self._families(ells, lambda ell: 0.5 - 2.0 * ell)
        assert [ell for ell, f in zip(ells, found) if f is None or f[0].tolist() != [0, 1, -1, 0]] == []

    def test_equilibrium_line_is_a_lattice_on_a_dense_grid(self):
        ells = np.geomspace(2.79e-309, 0.25, 4001).tolist()
        found = self._families(ells, lambda ell: 0.0)
        assert [ell for ell, f in zip(ells, found) if f is None or f[0].tolist() != [-1, 0, 0, 1]] == []

    # within 1e-12 of a family, and generic points at ell so small that a
    # tolerance of a few spacings of 1/(4 ell) would take every rate
    @pytest.mark.parametrize(
        "ell,q", [(0.15, 0.2 + 1e-13), (0.15, 0.2 - 1e-13), (0.15, 1e-13), (0.05, 1e-13), (1e-300, 0.1), (1e-100, 0.1)]
    )
    def test_points_off_both_families_are_not(self, ell, q):
        assert _lattice_structure(ell, contraction_rates(MapParams(ell, q))) is None


class TestLogFactorials:
    def test_bitwise_equal_to_gammaln_at_every_k_the_law_uses(self):
        from scipy.special import gammaln

        assert _log_factorials(MAX_N).tobytes() == gammaln(np.arange(1.0, MAX_N + 2)).tobytes()


class TestAutocovariance:
    def test_variance_and_geometric_decay(self):
        cov = chain_autocovariance(0.15, contraction_rates(MapParams(0.15, 0.2)), 10)
        c = np.log(1.4)
        # var = c^2 (mu_B + mu_C) - mean^2
        mean = mean_contraction_rate(0.15, 0.2)
        assert cov[0] == pytest.approx(c * c * 0.625 - mean * mean, rel=1e-12)
        # lag covariances decay with the subdominant eigenvalue 0.2
        ratios = cov[2:8] / cov[1:7]
        assert ratios == pytest.approx([0.2] * 6, rel=1e-9)

    def test_chain_autocovariance_backs_both_callers(self):
        from bakerlab.transport import PSI, green_kubo_exact

        cov = chain_autocovariance(0.15, contraction_rates(MapParams(0.15, 0.2)), 200)
        assert contraction_c2(0.15, 0.2) == float(cov[0] + 2.0 * cov[1:].sum())
        terms = chain_autocovariance(0.15, PSI, 10)
        assert np.array_equal(np.cumsum(terms), green_kubo_exact(0.15, 10).partial_sums)
        with pytest.raises(DomainError):
            chain_autocovariance(0.15, PSI, -1)

    # cov_0 and cov_1 each subtract (mu @ phi)^2, which rounds them by a few
    # eps (mu @ |phi|)^2; the closed form carries cov_1's error down with
    # lambda^(k - 1), and its largest error besides is 2.9e-11 relative
    # (ell = 1e-6).  A per-lag loop of P @ u kept that error at every lag: it
    # read 4.4e-16 at lag 60 and ell = 0.05, where the exact value is 9.05e-25
    @pytest.mark.parametrize("ell", [1e-6, 0.05, 0.15, 0.2368, 0.25])
    @pytest.mark.parametrize("phi", ["psi", "rates at q = 0", "rates at q = 0.2"])
    def test_lag_covariances_match_exact_rationals(self, ell, phi):
        """Every lag k = 0..60 lies within 1e-9 relative of its exact
        rational value, plus 8 eps (mu @ |phi|)^2 lambda^(k - 1) for the
        rounding of the subtraction, and the Green-Kubo sum and C2 within
        1e-9 of the sum of their terms' magnitudes (C2 nearly cancels on the
        q = 0 line)."""
        from bakerlab.transport import PSI, green_kubo_exact

        rates = {"psi": PSI, "rates at q = 0": 0.0, "rates at q = 0.2": 0.2}[phi]
        phi = rates if phi == "psi" else contraction_rates(MapParams(ell, rates))
        exact = chain_autocovariance_rational(ell, phi, 60)
        got = chain_autocovariance(ell, phi, 60)
        rounding = 8 * Fraction(2.0**-52) * Fraction(float(coarse_measure(ell) @ np.abs(phi))) ** 2
        lam = Fraction(1, 2) - 2 * Fraction(ell)
        for k, (g, e) in enumerate(zip(got.tolist(), exact)):
            assert abs(Fraction(g) - e) <= abs(e) / 10**9 + rounding * lam ** max(k - 1, 0), k
        if phi is PSI:
            got, total, scale = green_kubo_exact(ell, 60).value, sum(exact), sum(map(abs, exact))
        else:  # past lag 60 the terms fall below lambda^60 <= 2^-60 of cov_1
            got, total = contraction_c2(ell, rates), exact[0] + 2 * sum(exact[1:])
            scale = abs(exact[0]) + 2 * sum(map(abs, exact[1:]))
        assert abs(Fraction(got) - total) <= scale / 10**9

    def test_a_negative_lag_count_is_refused_naming_the_value(self):
        with pytest.raises(DomainError, match=r"^k_max must be >= 0, got -1$"):
            chain_autocovariance(0.15, contraction_rates(MapParams(0.15, 0.2)), -1)

    def test_c2_closed_form(self):
        c = np.log(1.4)
        psi_var = 0.625 - 0.0625
        psi_cov1 = 0.4 - 0.0625
        expected = c * c * (psi_var + 2.0 * psi_cov1 / (1.0 - 0.2))
        assert contraction_c2(0.15, 0.2) == pytest.approx(expected, rel=1e-10)

    def test_gaussian_sum_rule_ratio(self):
        # 2 <rate>/C2 is close to but not exactly 1; report-style bound
        ratio = 2.0 * mean_contraction_rate(0.15, 0.2) / contraction_c2(0.15, 0.2)
        assert 0.9 < ratio < 1.2


class TestPerronStructure:
    def test_unit_eigenvalue_is_simple_with_gap(self):
        # uniqueness of the stationary objects, probed numerically on a grid
        for ell in np.linspace(0.02, 0.25, 12):
            for M in (transfer_matrix(ell), transition_matrix(ell).T):
                vals = np.sort(np.abs(np.linalg.eigvals(M)))[::-1]
                assert abs(vals[0] - 1.0) < 1e-12
                assert vals[1] < 1.0 - 1e-9
