import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bakerlab import mapcore
from bakerlab.errors import DomainError
from bakerlab.mapcore import (
    MapParams,
    MapVariant,
    Region,
    ReversalScheme,
    branch_coefficients,
    check_reversibility,
    contraction_rates,
    jacobians,
    region_indices,
    region_reverse,
    step_arrays,
    time_reversal_arrays,
)

ELL_GRID = [0.05, 0.1, 0.15, 0.2, 0.25]


def _step1(x, y, params, variant=MapVariant.REVERSIBLE):
    """The image of one point under ``step_arrays``, as floats."""
    xn, yn = step_arrays(np.array([x]), np.array([y]), params, variant)
    return float(xn[0]), float(yn[0])


def _both_variants(x, y, params):
    """Images of one point under the bare map and with the flip after it."""
    return _step1(x, y, params), _step1(x, y, params, MapVariant.IRREVERSIBLE)


def _in_strip(x, y, params):
    return params.strip_x <= x <= params.strip_x + params.strip_eps and y < 0.5


class TestParams:
    def test_defaults_cover_the_b_slab(self):
        p = MapParams(ell=0.15)
        assert p.strip_x == 0.15
        assert p.strip_eps == 0.35

    @pytest.mark.parametrize("ell", [-0.1, 0.0, 0.26, 1.0])
    def test_ell_range(self, ell):
        with pytest.raises(DomainError):
            MapParams(ell=ell)

    def test_q_half_collapses_region_a(self):
        with pytest.raises(DomainError):
            MapParams(ell=0.15, q=0.5)

    def test_strip_must_fit_in_square(self):
        with pytest.raises(DomainError):
            MapParams(ell=0.15, strip_x=0.8, strip_eps=0.3)
        with pytest.raises(DomainError):
            MapParams(ell=0.15, strip_x=-0.1, strip_eps=0.2)

    @pytest.mark.parametrize("strip_x, strip_eps", [(0.3, np.nan), (np.nan, 0.1), (0.3, -0.1), (0.3, np.inf)])
    def test_strip_that_is_not_a_number_or_negative_is_refused(self, strip_x, strip_eps):
        with pytest.raises(DomainError, match="strip"):
            MapParams(ell=0.15, strip_x=strip_x, strip_eps=strip_eps)

    @pytest.mark.parametrize("strip_x, strip_eps", [(0.3, 0.0), (0.0, 1.0), (0.5, 0.5), (0.99, 0.01)])
    def test_strip_on_the_square_edges_is_accepted(self, strip_x, strip_eps):
        p = MapParams(ell=0.15, strip_x=strip_x, strip_eps=strip_eps)
        assert (p.strip_x, p.strip_eps) == (strip_x, strip_eps)

    def test_jacobians_positive_on_valid_range(self):
        for ell in ELL_GRID:
            for q in (0.0, 0.2, 0.4, 0.49):
                assert jacobians(MapParams(ell=ell, q=q)).min() > 0


class TestClassify:
    def test_interval_lookup(self):
        r = region_indices(np.array([0.10, 0.5, 1.0, 0.15, 0.75]), 0.15)
        assert r.tolist() == [Region.A, Region.C, Region.D, Region.B, Region.D]

    @given(
        x=st.floats(0.0, 1.0, allow_nan=False),
        ell=st.floats(0.01, 0.25, allow_nan=False),
    )
    def test_total(self, x, ell):
        r = Region(int(region_indices(np.array([x]), ell)[0]))
        bounds = {
            Region.A: (0.0, ell),
            Region.B: (ell, 0.5),
            Region.C: (0.5, 0.75),
            Region.D: (0.75, np.nextafter(1.0, 2.0)),
        }[r]
        assert bounds[0] <= x < bounds[1] or (r is Region.D and x == 1.0)


class TestBakerStep:
    def test_branch_a_example(self):
        assert _step1(0.1, 0.2, MapParams(0.25, 0.0)) == (0.7, 0.6)

    def test_branch_c_fixes_y_zero(self):
        for q in (0.0, 0.2, 0.3):
            assert _step1(0.6, 0.0, MapParams(0.15, q)) == (0.7, 0.0)

    @pytest.mark.parametrize("q", [0.0, 0.2])
    def test_branch_a_y_image(self, q):
        params = MapParams(0.15, q)
        _, lo = _step1(0.05, 0.0, params)
        _, hi = _step1(0.05, 1.0, params)
        assert lo == pytest.approx(0.5 + q, abs=1e-15)
        assert hi == pytest.approx(1.0, abs=1e-15)

    def test_branch_volume_equals_jacobian(self):
        # each branch is affine, so its volume ratio is ax*ay exactly
        for ell in ELL_GRID:
            for q in (0.0, 0.1, 0.3):
                params = MapParams(ell=ell, q=q)
                ax, _, ay, _ = branch_coefficients(params)
                assert np.allclose(ax * ay, jacobians(params), rtol=1e-14)

    def test_branch_x_images(self):
        params = MapParams(0.15, 0.1)
        eps = 1e-12
        x = np.array([0.0, 0.15 - eps, 0.15, 0.5 - eps, 0.5, 0.75, 1.0])
        xn, _ = step_arrays(x, None, params)
        assert xn == pytest.approx([0.5, 1.0, 0.0, 0.5, 0.5, 0.0, 0.5], abs=1e-9)

    @given(
        x=st.floats(0.0, 1.0, allow_nan=False),
        y=st.floats(0.0, 1.0, allow_nan=False),
        ell=st.floats(0.01, 0.25, allow_nan=False),
        q=st.floats(0.0, 0.45, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_image_stays_in_square(self, x, y, ell, q):
        xn, yn = _step1(x, y, MapParams(ell, q))
        assert 0.0 <= xn <= 1.0
        assert 0.0 <= yn <= 1.0


class TestJacobians:
    def test_locally_conservative_point(self):
        assert np.allclose(jacobians(MapParams(0.25, 0.0)), 1.0, rtol=0, atol=0)

    def test_values_at_q02(self):
        J = jacobians(MapParams(0.15, 0.2))
        assert J == pytest.approx([1.0, 5.0 / 7.0, 1.4, 1.0], rel=1e-14)

    def test_values_at_q0(self):
        J = jacobians(MapParams(0.15, 0.0))
        assert J == pytest.approx([5.0 / 3.0, 1.0, 1.0, 0.6], rel=1e-14)

    def test_bc_product_is_one_on_biased_family(self):
        for ell in (0.05, 0.15, 0.2):
            J = jacobians(MapParams(ell, 0.5 - 2.0 * ell))
            assert J[0] == pytest.approx(1.0, abs=1e-14)
            assert J[3] == pytest.approx(1.0, abs=1e-14)
            assert J[1] * J[2] == pytest.approx(1.0, rel=1e-14)


class TestContractionRate:
    def test_zero_at_unit_jacobian(self):
        assert contraction_rates(MapParams(0.25, 0.0)).tolist() == [0.0] * 4

    def test_b_and_c_are_opposite(self):
        rates = contraction_rates(MapParams(0.15, 0.2))
        assert rates[Region.B] == pytest.approx(np.log(1.4), rel=1e-12)
        assert rates[Region.C] == pytest.approx(-np.log(1.4), rel=1e-12)

    def test_a_d_sum(self):
        for ell in ELL_GRID:
            for q in (0.0, 0.1):
                params = MapParams(ell, q)
                rates = contraction_rates(params)
                J = jacobians(params)
                assert rates[0] + rates[3] == pytest.approx(-np.log(J[0] * J[3]), abs=1e-12)
                if q == 0.0:
                    assert abs(rates[0] + rates[3]) < 1e-14


class TestStripFlip:
    """The flip, seen as the difference between the irreversible and the
    reversible step of the same point."""

    def test_flips_lower_strip_half(self):
        params = MapParams(0.15)  # strip [0.15, 0.5]
        rev, irr = _both_variants(0.85, 0.5, params)  # D image (0.2, 0.15)
        assert _in_strip(*rev, params)
        assert irr == (rev[0], 1.0 - rev[1])

    def test_identity_upper_half_and_outside(self):
        params = MapParams(0.15)
        for x, y in ((0.3, 0.9), (0.6, 0.2)):  # images (0.21, 0.93), (0.7, 0.1)
            rev, irr = _both_variants(x, y, params)
            assert not _in_strip(*rev, params)
            assert irr == rev

    def test_zero_width_strip_is_identity(self):
        gen = np.random.default_rng(5)
        x, y = gen.random(1_000), gen.random(1_000)
        y[0] = 0.1  # the first image lies in the lower half, on the strip
        for x0 in (0.2, 0.45, 0.6, 0.85):  # branches B, B, C, D
            x[0] = x0
            strip_x = _step1(x0, y[0], MapParams(0.15, 0.1))[0]
            params = MapParams(0.15, 0.1, strip_x=strip_x, strip_eps=0.0)
            rev = step_arrays(x, y, params)
            irr = step_arrays(x, y, params, MapVariant.IRREVERSIBLE)
            assert _in_strip(rev[0][0], rev[1][0], params)
            for a, b in zip(rev, irr):
                assert np.array_equal(a, b)

    @given(
        x=st.floats(0.0, 1.0, allow_nan=False),
        y=st.floats(0.0, 1.0, allow_nan=False),
        ell=st.floats(0.01, 0.25, allow_nan=False),
        q=st.floats(0.0, 0.45, allow_nan=False),
        strip_x=st.floats(0.0, 0.99, allow_nan=False),
        strip_eps=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_preserves_x_exactly_and_stays_in_square(self, x, y, ell, q, strip_x, strip_eps):
        params = MapParams(ell, q, strip_x=strip_x, strip_eps=min(strip_eps, 1.0 - strip_x))
        (xr, yr), (xi, yi) = _both_variants(x, y, params)
        assert xi == xr  # bitwise
        assert 0.0 <= yi <= 1.0
        if params.strip_eps > 0.0 and _in_strip(xr, yr, params):
            assert yi == 1.0 - yr
        else:
            assert yi == yr

    def test_preserves_horizontal_widths(self):
        # two D-branch images at the same height in the lower strip half,
        # (0.2, 0.15) and (0.45, 0.15), keep their horizontal distance
        params = MapParams(0.15)
        rev_a, irr_a = _both_variants(0.85, 0.5, params)
        rev_b, irr_b = _both_variants(0.975, 0.5, params)
        assert irr_b[0] - irr_a[0] == rev_b[0] - rev_a[0]
        assert irr_a[1] == irr_b[1] == 1.0 - rev_a[1]


class TestStep:
    def test_degenerate_strip_is_reversible(self):
        params = MapParams(0.15, 0.1, strip_x=0.2, strip_eps=0.0)
        for x, y in ((0.1, 0.1), (0.2, 0.3), (0.8, 0.9)):
            rev, irr = _both_variants(x, y, params)
            assert irr == rev
        # baker image (0.5, 0.12) lies on the zero-width strip itself
        params = MapParams(0.15, 0.1, strip_x=0.5, strip_eps=0.0)
        rev, irr = _both_variants(0.5, 0.2, params)
        assert irr == rev

    def test_composition_order_flip_after_map(self):
        params = MapParams(0.25, 0.0, strip_x=0.5, strip_eps=0.5)
        # baker image (0.7, 0.6) has y >= 1/2, so the flip is the identity
        assert _step1(0.1, 0.2, params, MapVariant.IRREVERSIBLE) == (0.7, 0.6)
        # baker image (0.7, 0.1) lands in the lower strip half and flips
        assert _step1(0.6, 0.2, params, MapVariant.IRREVERSIBLE) == (0.7, 0.9)


def _unblocked_step(x, y, params, variant):
    """The whole-array expression ``step_arrays`` must reproduce bit for bit."""
    ax, bx, ay, by = branch_coefficients(params)
    r = (x >= params.ell).astype(np.int8) + (x >= 0.5).astype(np.int8) + (x >= 0.75).astype(np.int8)
    xn = np.clip(ax[r] * x + bx[r], 0.0, 1.0)
    if y is None:
        return xn, None
    yn = np.clip(ay[r] * y + by[r], 0.0, 1.0)
    if variant is MapVariant.IRREVERSIBLE and params.strip_eps > 0.0:
        hi = params.strip_x + params.strip_eps
        flip = (xn >= params.strip_x) & (xn <= hi) & (yn < 0.5)
        yn = np.where(flip, 1.0 - yn, yn)
    return xn, yn


class TestBlockedKernel:
    B = mapcore._BLOCK

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7])
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
    def test_matches_unblocked_expression(self, params, n):
        gen = np.random.default_rng(n)
        # partition and strip edges, where a tie decides the branch or the flip
        edges = [0.0, params.ell, 0.5, 0.75, 1.0, params.strip_x, params.strip_x + params.strip_eps]
        x0 = gen.random(n)
        x0[: len(edges)] = edges[:n]
        y0 = gen.random(n)
        y0[: 3] = [0.0, 0.5, np.nextafter(0.5, 0.0)][:n]
        phi = np.array([0.5, -1.0, 2.5, 3.0])
        table = mapcore._x_step_table(params, phi)
        for variant in MapVariant:
            for with_y in (True, False):
                x, y = x0, (y0 if with_y else None)
                xr, yr, xg = x, y, x
                for _ in range(6):
                    x, y = step_arrays(x, y, params, variant)
                    xr, yr = _unblocked_step(xr, yr, params, variant)
                    assert np.array_equal(x, xr)
                    assert (y is None) == (yr is None)
                    if with_y:
                        assert np.array_equal(y, yr)
                    else:  # given regions, whose one gather also writes phi at them
                        r = region_indices(xg, params.ell)
                        values = np.full(n, np.nan)
                        xg, none = step_arrays(xg, None, params, variant, r, table, values)
                        assert none is None and np.array_equal(xg, xr)
                        assert np.array_equal(values, phi[r])

    def test_x_step_table(self):
        params = MapParams(0.15, 0.2)
        phi = np.array([0.5, -1.0, 2.5, 3.0])
        ax, bx, _, _ = branch_coefficients(params)
        for given, column in ((phi, phi), (None, np.zeros(4))):
            table = mapcore._x_step_table(params, given)
            assert table.shape == (4, 4) and not table.flags.writeable
            assert np.array_equal(table, np.stack([ax, bx, column, np.zeros(4)], axis=1))
        x = np.array([0.1, 0.2, 0.6])
        r = region_indices(x, params.ell)
        for extra in ((r,), (None, table), (None, None, np.empty(3))):
            with pytest.raises(ValueError, match="y must be None"):
                step_arrays(x, x, params, MapVariant.REVERSIBLE, *extra)
        values = np.full(3, np.nan)
        mapcore._x_gather(r, mapcore._x_step_table(params, phi), values)  # phi alone, no step
        assert np.array_equal(values, phi[r])

    def test_outputs_are_new_float64_arrays(self):
        params = MapParams(0.15, 0.2)
        pts = np.random.default_rng(3).random((self.B + 5, 2))
        x, y = pts[:, 0], pts[:, 1]  # strided views: the kernel reads any layout
        before = pts.copy()
        for variant in MapVariant:
            xn, yn = step_arrays(x, y, params, variant)
            assert np.array_equal(pts, before)
            assert xn.dtype == yn.dtype == np.float64
            assert xn.shape == yn.shape == (self.B + 5,)
            for out in (xn, yn):
                assert not np.shares_memory(out, pts)
            assert not np.shares_memory(xn, yn)
        xn, none = step_arrays(x.astype(np.float32), None, params)
        assert none is None and xn.dtype == np.float64


def _reverse1(x, y):
    gx, gy = time_reversal_arrays(np.array([x]), np.array([y]))
    return float(gx[0]), float(gy[0])


class TestTimeReversal:
    def test_reflects_left_half_onto_bottom(self):
        assert _reverse1(0.3, 0.4) == (0.2, 0.6)

    def test_fixes_right_diagonal_points(self):
        assert _reverse1(0.75, 0.5) == (0.75, 0.5)

    @given(
        x=st.floats(0.0, 1.0, allow_nan=False),
        y=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_involution(self, x, y):
        # the image of {x < 1/2, y = 1} sits exactly on the x = 1/2 branch
        # seam, the one (measure-zero) set where the piecewise inverse flips
        assume(not (x < 0.5 and y == 1.0))
        xx, yy = _reverse1(*_reverse1(x, y))
        assert xx == pytest.approx(x, abs=1e-15)
        assert yy == pytest.approx(y, abs=1e-15)


class TestReversibility:
    @pytest.mark.parametrize("ell", [0.15, 0.25])
    def test_identity_holds_at_equilibrium(self, ell):
        rep = check_reversibility(MapParams(ell=ell, q=0.0), 10_000, seed=3)
        assert rep.max_deviation < 1e-12

    def test_identity_fails_off_equilibrium(self):
        # regression baseline: observed max ~0.86, mean ~0.24 at these settings
        rep = check_reversibility(MapParams(ell=0.15, q=0.2), 10_000, seed=3)
        assert 0.1 < rep.max_deviation < 1.0
        assert 0.05 < rep.mean_deviation < 0.5

    def test_flip_breaks_identity_inside_strip(self):
        rep = check_reversibility(
            MapParams(ell=0.15, q=0.0), 10_000, variant=MapVariant.IRREVERSIBLE, seed=3
        )
        assert rep.max_deviation > 0.1

    def test_jacobian_pairing_at_equilibrium(self):
        for ell in (0.15, 0.25):
            rep = check_reversibility(MapParams(ell=ell, q=0.0), 10_000, seed=7)
            assert rep.max_pairing_deviation < 1e-12


class TestRegionReverse:
    def test_q4_table(self):
        assert region_reverse(Region.A, ReversalScheme.Q4) is Region.D
        assert region_reverse(Region.D, ReversalScheme.Q4) is Region.A
        assert region_reverse(Region.B, ReversalScheme.Q4) is Region.B
        assert region_reverse(Region.C, ReversalScheme.Q4) is Region.C

    def test_q3_table(self):
        assert region_reverse(Region.A, ReversalScheme.Q3) is Region.A
        assert region_reverse(Region.B, ReversalScheme.Q3) is Region.C
        assert region_reverse(Region.C, ReversalScheme.Q3) is Region.B
        assert region_reverse(Region.D, ReversalScheme.Q3) is Region.D

    @pytest.mark.parametrize("scheme", list(ReversalScheme))
    def test_involution(self, scheme):
        for r in Region:
            assert region_reverse(region_reverse(r, scheme), scheme) is r

    def test_q4_matches_reversal_after_step(self):
        # region of G(M(p)) is the Q4 image of the region of p (q = 0)
        params = MapParams(0.15, 0.0)
        gen = np.random.Generator(np.random.Philox(key=np.uint64(11)))
        pts = gen.random((5_000, 2))
        r0 = region_indices(pts[:, 0], params.ell)
        fx, fy = step_arrays(pts[:, 0], pts[:, 1], params)
        gx, _ = time_reversal_arrays(fx, fy)
        r1 = region_indices(gx, params.ell)
        expected = np.array([region_reverse(Region(int(r)), ReversalScheme.Q4) for r in r0])
        assert np.array_equal(r1, expected)
