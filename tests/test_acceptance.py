"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Budgeted runtimes are asserted where stated.
"""

import time

import numpy as np
import pytest
from scipy import stats as sstats

from oracles import brute_force_distribution
from stats import segment_means, uniformity_chi_square, variant_equivalence_test

from bakerlab.mapcore import (
    MapParams,
    MapVariant,
    Region,
    ReversalScheme,
    check_reversibility,
    contraction_rates,
)
from bakerlab.markov import (
    coarse_measure,
    contraction_sum_distribution,
    db_report,
    mean_contraction_rate,
    stationary_density,
    transition_matrix,
)
from bakerlab.ensemble import SimConfig, empirical_density, odd_observable_mean, transition_counts
from bakerlab.fluctuation import (
    FRConfig,
    estimate_pi,
    fit_parabola,
    fr_check,
    rate_function,
    symmetric_grid,
)
from bakerlab.transport import GKConfig, green_kubo_estimate, green_kubo_exact

ELL_GRID = [0.05, 0.10, 0.15, 0.20, 0.25]

# paper-reported parabola parameters, kept as qualitative anchors only: the
# generating configuration is ambiguous at the source
PAPER_FIT_A = 0.266
PAPER_FIT_B = 0.0268


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_projected_density():
    t0 = time.time()
    cfg = SimConfig(
        params=MapParams(ell=0.15, q=0.0), n_ens=50_000, n_iter=20, burn_in=1_000, seed=101
    )
    hist = empirical_density(cfg, nx=100, ny=20)
    xm = hist.x_marginal(density=True)
    rho_l_hat = float(xm[:50].mean())
    rho_r_hat = float(xm[50:].mean())
    elapsed = time.time() - t0
    ok = (
        hist.n_samples >= 1_000_000
        and abs(rho_l_hat - 1.25) / 1.25 < 0.01
        and abs(rho_r_hat - 0.75) / 0.75 < 0.01
        and elapsed < 10.0
    )
    _report(1, ok, f"x-marginal ({rho_l_hat:.4f}, {rho_r_hat:.4f}) vs (1.25, 0.75), "
                   f"{hist.n_samples} samples in {elapsed:.1f}s")
    assert abs(rho_l_hat - 1.25) / 1.25 < 0.01
    assert abs(rho_r_hat - 0.75) / 0.75 < 0.01
    assert elapsed < 10.0


def test_criterion_02_equilibrium_line():
    worst = max(abs(mean_contraction_rate(ell, 0.0)) for ell in ELL_GRID)
    params = MapParams(ell=0.15, q=0.0)
    cfg = SimConfig(params=params, n_ens=2_000, n_iter=500, burn_in=500, seed=102)
    # the member time averages of the contraction rate, odd under Q4 at q = 0
    mc_mean, mc_se = odd_observable_mean(cfg, contraction_rates(params), ReversalScheme.Q4)
    ok = worst < 1e-14 and abs(mc_mean) < 3 * mc_se
    _report(2, ok, f"closed form |mean|<= {worst:.2e}; MC {mc_mean:.2e} +- {mc_se:.2e}")
    assert worst < 1e-14
    assert abs(mc_mean) < 3 * mc_se


def test_criterion_03_detailed_balance():
    worst_eq = max(db_report(ell, 0.0, ReversalScheme.Q4).max_mismatch for ell in ELL_GRID)
    rep = db_report(0.15, 0.2, ReversalScheme.Q3)
    hits = [
        p
        for p in rep.pairs
        if abs(p.forward_weight - 0.09375) < 1e-14 and abs(p.reverse_weight - 0.30625) < 1e-14
    ]
    ok = worst_eq == 0.0 and len(hits) > 0 and rep.max_mismatch > 0
    names = ",".join(f"{p.source.name}->{p.target.name}" for p in hits)
    _report(3, ok, f"q=0/Q4 mismatch exactly {worst_eq}; Q3 pair(s) [{names}] "
                   f"carry weights 0.09375 vs 0.30625")
    assert worst_eq == 0.0
    assert hits, "no Q3 pair reproduces the 0.09375 / 0.30625 violation"
    assert rep.max_mismatch > 0


def test_criterion_04_exact_dp_oracle():
    worst_p = 0.0
    for ell, q in ((0.15, 0.2), (0.15, 0.0), (0.22, 0.07)):
        for n in range(1, 9):
            values, probs = brute_force_distribution(ell, q, n)
            dist = contraction_sum_distribution(ell, q, n)
            assert len(values) == len(dist.sums)
            assert np.abs(values - dist.sums).max() < 1e-12
            worst_p = max(worst_p, float(np.abs(probs - dist.probs).max()))
    worst_sym = 0.0
    for n in list(range(1, 9)) + [50, 200]:
        dist = contraction_sum_distribution(0.15, 0.0, n)
        assert np.abs(dist.sums + dist.sums[::-1]).max() < 1e-12
        worst_sym = max(worst_sym, float(np.abs(dist.probs - dist.probs[::-1]).max()))
    ok = worst_p < 1e-12 and worst_sym < 1e-12
    _report(4, ok, f"brute-force atom error {worst_p:.2e}; q=0 symmetry error {worst_sym:.2e}")
    assert worst_p < 1e-12
    assert worst_sym < 1e-12


def _dp_slope(n: int, delta: float) -> float:
    cfg = FRConfig(n=n, p_grid=symmetric_grid(2.0, 2 * delta), delta=delta)
    dist = contraction_sum_distribution(0.15, 0.2, n)
    return fr_check(estimate_pi(cfg, dist)).slope


def test_criterion_05_fluctuation_relation():
    t0 = time.time()
    # exact oracle: convergence of the slope to 1 (fine cells keep the
    # finite-width bias below the finite-n effect under test)
    slopes = {n: _dp_slope(n, delta=0.01) for n in (50, 100, 200, 500)}
    devs = [abs(slopes[n] - 1.0) for n in (50, 100, 200, 500)]
    monotone = all(a > b for a, b in zip(devs, devs[1:]))
    slope_default = _dp_slope(500, delta=0.05)
    dp_time = time.time() - t0

    # Monte Carlo at n = 200 with 10^6 segments against the exact curve
    t1 = time.time()
    n = 200
    cfg = FRConfig(n=n, p_grid=symmetric_grid(2.0, 0.1), delta=0.05)
    dist = contraction_sum_distribution(0.15, 0.2, n)
    chk_dp = fr_check(estimate_pi(cfg, dist))
    sim = SimConfig(params=MapParams(0.15, 0.2), n_ens=50_000, n_iter=4_000, burn_in=1_000, seed=105)
    pi_mc = estimate_pi(cfg, sim)
    chk_mc = fr_check(pi_mc)
    dp_by_p = dict(zip(chk_dp.p.round(10), chk_dp.value))
    agree = []
    for i, p in enumerate(chk_mc.p):
        z = abs(chk_mc.value[i] - dp_by_p[round(p, 10)]) / chk_mc.stderr[i]
        agree.append(z < 3.0)
    mc_time = time.time() - t1

    ok = (
        0.9 <= slopes[500] <= 1.1
        and 0.9 <= slope_default <= 1.1
        and monotone
        and pi_mc.n_segments >= 1_000_000
        and all(agree)
        and dp_time < 60.0
        and mc_time < 300.0
    )
    _report(5, ok, f"DP slopes {dict((k, round(v, 5)) for k, v in slopes.items())} "
                   f"(monotone={monotone}); default-cell slope(500)={slope_default:.4f}; "
                   f"MC vs DP agreement on {len(agree)} admissible p "
                   f"({pi_mc.n_segments} segments); DP {dp_time:.1f}s MC {mc_time:.1f}s")
    assert 0.9 <= slopes[500] <= 1.1
    assert 0.9 <= slope_default <= 1.1
    assert monotone, devs
    assert pi_mc.n_segments >= 1_000_000
    assert all(agree)
    assert dp_time < 60.0
    assert mc_time < 300.0


def test_criterion_06_rate_function_shape():
    convex_ok = True
    argmin_ok = True
    for n in (50, 100, 200, 500):
        cfg = FRConfig(n=n, p_grid=symmetric_grid(2.0, 0.1), delta=0.05)
        pi = estimate_pi(cfg, contraction_sum_distribution(0.15, 0.2, n))
        rf = rate_function(pi)
        finite = np.isfinite(rf.zeta)
        z = rf.zeta[finite]
        p = rf.p[finite]
        second = z[2:] - 2 * z[1:-1] + z[:-2]
        # finite-n prefactor wiggles scale like 1/n
        convex_ok &= bool(second.min() >= -2.0 / n)
        argmin_ok &= abs(p[np.argmin(z)] - 1.0) < 1e-12
    fits = {}
    for n in (100, 200, 500, 1000):
        cfg = FRConfig(n=n, p_grid=symmetric_grid(2.0, 0.1), delta=0.05)
        pi = estimate_pi(cfg, contraction_sum_distribution(0.15, 0.2, n))
        fits[n] = fit_parabola(rate_function(pi))
    bs = [fits[n].b for n in (100, 200, 500, 1000)]
    b_monotone = all(a > b > 0 for a, b in zip(bs, bs[1:]))
    ok = convex_ok and argmin_ok and b_monotone
    _report(6, ok, f"convex(tol 2/n)={convex_ok}, min at p=1 cell={argmin_ok}, "
                   f"b sequence {['%.4f' % b for b in bs]} decreasing; "
                   f"n=200 fit a={fits[200].a:.3f}, b={fits[200].b:.4f} vs paper anchors "
                   f"a={PAPER_FIT_A}, b={PAPER_FIT_B} (qualitative only)")
    assert convex_ok
    assert argmin_ok
    assert b_monotone, bs
    assert fits[200].a > 0 and fits[200].b > 0


def test_criterion_07_transport_coefficient():
    t0 = time.time()
    exact = green_kubo_exact(0.25, 30)
    cfg = GKConfig(
        params=MapParams(0.25, 0.0),
        n_ens=100_000,
        n_iter=50,
        seed=107,
        ensemble_mode="microcanonical-equilibrium",
    )
    res = green_kubo_estimate(cfg)
    elapsed = time.time() - t0
    z = abs(res.value - 0.75) / res.stderr
    ok = abs(exact.value - 0.75) < 1e-14 and z < 3.0 and elapsed < 30.0
    _report(7, ok, f"exact {exact.value!r}; MC {res.value:.4f} +- {res.stderr:.4f} "
                   f"(z={z:.2f}) in {elapsed:.1f}s")
    assert abs(exact.value - 0.75) < 1e-14
    assert np.abs(exact.partial_sums[1:] - 0.75).max() < 1e-14  # cutoff at k = 2
    assert z < 3.0
    assert elapsed < 30.0


def test_criterion_08_irreversibility_invariance():
    params = MapParams(ell=0.15, q=0.2)
    base = dict(n_ens=20_000, n_iter=200, burn_in=500)
    cfg_m = SimConfig(params=params, variant=MapVariant.REVERSIBLE, seed=108, **base)
    cfg_k = SimConfig(params=params, variant=MapVariant.IRREVERSIBLE, seed=108, **base)

    # fixed seed: every x-projected statistic is identical member by member
    hist_m = empirical_density(cfg_m, nx=50, ny=10)
    hist_k = empirical_density(cfg_k, nx=50, ny=10)
    same_xmarg = np.array_equal(hist_m.x_marginal(), hist_k.x_marginal())
    same_trans = np.array_equal(transition_counts(cfg_m), transition_counts(cfg_k))
    segs_m = segment_means(cfg_m, 50)
    segs_k = segment_means(cfg_k, 50)
    same_segs = np.array_equal(segs_m, segs_k)
    fr_cfg = FRConfig(n=50, p_grid=symmetric_grid(2.0, 0.1), delta=0.05)
    pi_m = estimate_pi(fr_cfg, cfg_m)
    pi_k = estimate_pi(fr_cfg, cfg_k)
    same_pi = np.array_equal(pi_m.counts, pi_k.counts)
    same_fr = np.array_equal(fr_check(pi_m).value, fr_check(pi_k).value)
    gk_m = green_kubo_estimate(GKConfig(params=params, variant=MapVariant.REVERSIBLE, n_ens=20_000, n_iter=40, seed=108))
    gk_k = green_kubo_estimate(GKConfig(params=params, variant=MapVariant.IRREVERSIBLE, n_ens=20_000, n_iter=40, seed=108))
    same_gk = gk_m.value == gk_k.value and np.array_equal(gk_m.partial_sums, gk_k.partial_sums)

    # independent seeds: same law at alpha = 0.01
    cfg_k2 = SimConfig(params=params, variant=MapVariant.IRREVERSIBLE, seed=208, **base)
    equiv = variant_equivalence_test(cfg_m, cfg_k2, seg_len=50)
    hist_k2 = empirical_density(cfg_k2, nx=50, ny=10)
    o1 = hist_m.x_marginal()
    o2 = hist_k2.x_marginal()
    n1, n2 = o1.sum(), o2.sum()
    stat = float(((np.sqrt(n2 / n1) * o1 - np.sqrt(n1 / n2) * o2) ** 2 / (o1 + o2)).sum())
    x_p = float(sstats.chi2.sf(stat, len(o1) - 1))
    gk_k2 = green_kubo_estimate(GKConfig(params=params, variant=MapVariant.IRREVERSIBLE, n_ens=20_000, n_iter=40, seed=208))
    gk_joint = abs(gk_m.value - gk_k2.value) / np.hypot(gk_m.stderr, gk_k2.stderr)

    identical = same_xmarg and same_trans and same_segs and same_pi and same_fr and same_gk
    independent = equiv.passed and x_p >= 0.01 and gk_joint < 3.0
    ok = identical and independent
    _report(8, ok, f"fixed-seed bitwise identity={identical}; independent seeds: "
                   f"segment-law p={equiv.pvalue:.3f}, x-marginal p={x_p:.3f}, "
                   f"transport z={gk_joint:.2f}")
    assert identical
    assert equiv.passed
    assert x_p >= 0.01
    assert gk_joint < 3.0


def test_criterion_09_y_structure_discrimination():
    base = dict(n_ens=50_000, n_iter=20, burn_in=1_000)
    params = MapParams(ell=0.15, q=0.0)
    hist_m = empirical_density(SimConfig(params=params, variant=MapVariant.REVERSIBLE, seed=109, **base), nx=20, ny=50)
    hist_k = empirical_density(SimConfig(params=params, variant=MapVariant.IRREVERSIBLE, seed=109, **base), nx=20, ny=50)
    assert hist_m.n_samples >= 1_000_000
    _, _, p_m = uniformity_chi_square(hist_m.y_marginal())
    _, _, p_k = uniformity_chi_square(hist_k.y_marginal())
    ok = p_m >= 0.01 and p_k < 0.01
    _report(9, ok, f"y-marginal uniformity: reversible p={p_m:.3f} (passes), "
                   f"irreversible p={p_k:.2e} (fails), {hist_m.n_samples} samples each")
    assert p_m >= 0.01
    assert p_k < 0.01


def test_criterion_10_reversibility_identity():
    devs = {}
    pair_worst = 0.0
    for ell in (0.15, 0.25):
        rep = check_reversibility(MapParams(ell=ell, q=0.0), 10_000, seed=110)
        devs[ell] = rep.max_deviation
        pair_worst = max(pair_worst, rep.max_pairing_deviation)
    ok = max(devs.values()) < 1e-12 and pair_worst < 1e-12
    _report(10, ok, f"max |MGM - G| = {max(devs.values()):.2e} over 10^4 points; "
                    f"max |J J' - 1| = {pair_worst:.2e}")
    assert max(devs.values()) < 1e-12
    assert pair_worst < 1e-12
