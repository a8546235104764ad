import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bakerlab import mapcore
from bakerlab.errors import DomainError
from bakerlab.mapcore import (
    MapParams,
    MapVariant,
    Point,
    Region,
    ReversalScheme,
    baker_step,
    branch_coefficients,
    check_reversibility,
    classify_region,
    contraction_rate,
    contraction_rates,
    jacobian,
    jacobians,
    region_indices,
    region_reverse,
    step,
    step_arrays,
    strip_flip,
    time_reversal,
    time_reversal_arrays,
)

ELL_GRID = [0.05, 0.1, 0.15, 0.2, 0.25]


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

    def test_jacobians_positive_on_valid_range(self):
        for ell in ELL_GRID:
            for q in (0.0, 0.2, 0.4, 0.49):
                assert jacobians(MapParams(ell=ell, q=q)).min() > 0


class TestClassify:
    def test_interval_lookup(self):
        assert classify_region(0.10, 0.15) is Region.A
        assert classify_region(0.5, 0.15) is Region.C
        assert classify_region(1.0, 0.15) is Region.D
        assert classify_region(0.15, 0.15) is Region.B
        assert classify_region(0.75, 0.15) is Region.D

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            classify_region(-0.01, 0.15)
        with pytest.raises(DomainError):
            classify_region(1.01, 0.15)

    @given(
        x=st.floats(0.0, 1.0, allow_nan=False),
        ell=st.floats(0.01, 0.25, allow_nan=False),
    )
    def test_total_and_consistent_with_vector_path(self, x, ell):
        r = classify_region(x, ell)
        assert r == Region(int(region_indices(np.array([x]), ell)[0]))
        bounds = {
            Region.A: (0.0, ell),
            Region.B: (ell, 0.5),
            Region.C: (0.5, 0.75),
            Region.D: (0.75, np.nextafter(1.0, 2.0)),
        }[r]
        assert bounds[0] <= x < bounds[1] or (r is Region.D and x == 1.0)


class TestBakerStep:
    def test_branch_a_example(self):
        assert baker_step(Point(0.1, 0.2), MapParams(0.25, 0.0)) == Point(0.7, 0.6)

    def test_branch_c_fixes_y_zero(self):
        for q in (0.0, 0.2, 0.3):
            out = baker_step(Point(0.6, 0.0), MapParams(0.15, q))
            assert out == Point(0.7, 0.0)

    @pytest.mark.parametrize("q", [0.0, 0.2])
    def test_branch_a_y_image(self, q):
        params = MapParams(0.15, q)
        lo = baker_step(Point(0.05, 0.0), params).y
        hi = baker_step(Point(0.05, 1.0), params).y
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
        assert baker_step(Point(0.0, 0.5), params).x == pytest.approx(0.5)
        assert baker_step(Point(0.15 - eps, 0.5), params).x == pytest.approx(1.0, abs=1e-9)
        assert baker_step(Point(0.15, 0.5), params).x == pytest.approx(0.0)
        assert baker_step(Point(0.5 - eps, 0.5), params).x == pytest.approx(0.5, abs=1e-9)
        assert baker_step(Point(0.5, 0.5), params).x == pytest.approx(0.5)
        assert baker_step(Point(0.75, 0.5), params).x == pytest.approx(0.0)
        assert baker_step(Point(1.0, 0.5), params).x == pytest.approx(0.5)

    @given(
        x=st.floats(0.0, 1.0, allow_nan=False),
        y=st.floats(0.0, 1.0, allow_nan=False),
        ell=st.floats(0.01, 0.25, allow_nan=False),
        q=st.floats(0.0, 0.45, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_image_stays_in_square(self, x, y, ell, q):
        out = baker_step(Point(x, y), MapParams(ell, q))
        assert 0.0 <= out.x <= 1.0
        assert 0.0 <= out.y <= 1.0


class TestJacobians:
    def test_locally_conservative_point(self):
        assert np.allclose(jacobians(MapParams(0.25, 0.0)), 1.0, rtol=0, atol=0)

    def test_values_at_q02(self):
        J = jacobians(MapParams(0.15, 0.2))
        assert J == pytest.approx([1.0, 5.0 / 7.0, 1.4, 1.0], rel=1e-14)

    def test_values_at_q0(self):
        J = jacobians(MapParams(0.15, 0.0))
        assert J == pytest.approx([5.0 / 3.0, 1.0, 1.0, 0.6], rel=1e-14)

    def test_scalar_matches_vector(self):
        params = MapParams(0.12, 0.07)
        for r in Region:
            assert jacobian(r, params) == jacobians(params)[r]

    def test_bc_product_is_one_on_biased_family(self):
        for ell in (0.05, 0.15, 0.2):
            J = jacobians(MapParams(ell, 0.5 - 2.0 * ell))
            assert J[0] == pytest.approx(1.0, abs=1e-14)
            assert J[3] == pytest.approx(1.0, abs=1e-14)
            assert J[1] * J[2] == pytest.approx(1.0, rel=1e-14)


class TestContractionRate:
    def test_zero_at_unit_jacobian(self):
        for r in Region:
            assert contraction_rate(r, MapParams(0.25, 0.0)) == 0.0

    def test_b_and_c_are_opposite(self):
        params = MapParams(0.15, 0.2)
        assert contraction_rate(Region.B, params) == pytest.approx(np.log(1.4), rel=1e-12)
        assert contraction_rate(Region.C, params) == pytest.approx(-np.log(1.4), rel=1e-12)

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
    def test_flips_lower_strip_half(self):
        params = MapParams(0.15)  # strip [0.15, 0.5]
        assert strip_flip(Point(0.2, 0.1), params) == Point(0.2, 0.9)

    def test_identity_upper_half_and_outside(self):
        params = MapParams(0.15)
        assert strip_flip(Point(0.2, 0.7), params) == Point(0.2, 0.7)
        assert strip_flip(Point(0.9, 0.1), params) == Point(0.9, 0.1)

    def test_zero_width_strip_is_identity(self):
        params = MapParams(0.15, 0.1, strip_x=0.5, strip_eps=0.0)
        assert strip_flip(Point(0.5, 0.12), params) == Point(0.5, 0.12)

    @given(
        x=st.floats(0.0, 1.0, allow_nan=False),
        y=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_preserves_x_exactly_and_stays_in_square(self, x, y):
        out = strip_flip(Point(x, y), MapParams(0.15))
        assert out.x == x
        assert 0.0 <= out.y <= 1.0

    def test_preserves_horizontal_widths(self):
        # image of [a, b] x {y0} in the lower strip half keeps its width
        a, b, y0 = 0.2, 0.45, 0.3
        params = MapParams(0.15)
        pa = strip_flip(Point(a, y0), params)
        pb = strip_flip(Point(b, y0), params)
        assert pb.x - pa.x == pytest.approx(b - a, abs=0)
        assert pa.y == pb.y == 1.0 - y0


class TestStep:
    def test_reversible_equals_baker(self):
        params = MapParams(0.15, 0.1)
        p = Point(0.3, 0.8)
        assert step(p, params, MapVariant.REVERSIBLE) == baker_step(p, params)

    def test_degenerate_strip_is_reversible(self):
        params = MapParams(0.15, 0.1, strip_x=0.2, strip_eps=0.0)
        for p in (Point(0.1, 0.1), Point(0.2, 0.3), Point(0.8, 0.9)):
            assert step(p, params, MapVariant.IRREVERSIBLE) == baker_step(p, params)
        # baker image (0.5, 0.12) lies on the zero-width strip itself
        params = MapParams(0.15, 0.1, strip_x=0.5, strip_eps=0.0)
        p = Point(0.5, 0.2)
        assert step(p, params, MapVariant.IRREVERSIBLE) == baker_step(p, params)

    def test_composition_order_flip_after_map(self):
        params = MapParams(0.25, 0.0, strip_x=0.5, strip_eps=0.5)
        # baker image (0.7, 0.6) has y >= 1/2, so the flip is the identity
        assert step(Point(0.1, 0.2), params, MapVariant.IRREVERSIBLE) == Point(0.7, 0.6)
        # baker image (0.7, 0.1) lands in the lower strip half and flips
        assert step(Point(0.6, 0.2), params, MapVariant.IRREVERSIBLE) == Point(0.7, 0.9)

    def test_arrays_match_scalar(self):
        params = MapParams(0.15, 0.2)
        gen = np.random.Generator(np.random.Philox(key=np.uint64(1)))
        pts = gen.random((256, 2))
        for variant in MapVariant:
            xs, ys, rs = step_arrays(pts[:, 0].copy(), pts[:, 1].copy(), params, variant)
            for i in range(len(pts)):
                out = step(Point(pts[i, 0], pts[i, 1]), params, variant)
                assert (xs[i], ys[i]) == out
                assert rs[i] == classify_region(pts[i, 0], params.ell)


def _unblocked_step(x, y, params, variant):
    """The whole-array expression ``step_arrays`` must reproduce bit for bit."""
    ax, bx, ay, by = branch_coefficients(params)
    r = (x >= params.ell).astype(np.int8) + (x >= 0.5).astype(np.int8) + (x >= 0.75).astype(np.int8)
    xn = np.clip(ax[r] * x + bx[r], 0.0, 1.0)
    if y is None:
        return xn, None, r
    yn = np.clip(ay[r] * y + by[r], 0.0, 1.0)
    if variant is MapVariant.IRREVERSIBLE and params.strip_eps > 0.0:
        hi = params.strip_x + params.strip_eps
        flip = (xn >= params.strip_x) & (xn <= hi) & (yn < 0.5)
        yn = np.where(flip, 1.0 - yn, yn)
    return xn, yn, r


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
        for variant in MapVariant:
            for with_y in (True, False):
                x, y = x0, (y0 if with_y else None)
                xr, yr = x, y
                for _ in range(6):
                    x, y, r = step_arrays(x, y, params, variant)
                    xr, yr, rr = _unblocked_step(xr, yr, params, variant)
                    assert np.array_equal(x, xr) and np.array_equal(r, rr)
                    assert r.dtype == np.int8
                    assert (y is None) == (yr is None)
                    if with_y:
                        assert np.array_equal(y, yr)

    def test_outputs_are_new_float64_arrays(self):
        params = MapParams(0.15, 0.2)
        pts = np.random.default_rng(3).random((self.B + 5, 2))
        x, y = pts[:, 0], pts[:, 1]  # strided views: the kernel reads any layout
        before = pts.copy()
        for variant in MapVariant:
            xn, yn, r = step_arrays(x, y, params, variant)
            assert np.array_equal(pts, before)
            assert xn.dtype == yn.dtype == np.float64 and r.dtype == np.int8
            assert xn.shape == yn.shape == r.shape == (self.B + 5,)
            for out in (xn, yn, r):
                assert not np.shares_memory(out, pts)
            assert not np.shares_memory(xn, yn)
        xn, none, r = step_arrays(x.astype(np.float32), None, params)
        assert none is None and xn.dtype == np.float64


class TestTimeReversal:
    def test_reflects_left_half_onto_bottom(self):
        assert time_reversal(Point(0.3, 0.4)) == Point(0.2, 0.6)

    def test_fixes_right_diagonal_points(self):
        assert time_reversal(Point(0.75, 0.5)) == Point(0.75, 0.5)

    @given(
        x=st.floats(0.0, 1.0, allow_nan=False),
        y=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_involution(self, x, y):
        # the image of {x < 1/2, y = 1} sits exactly on the x = 1/2 branch
        # seam, the one (measure-zero) set where the piecewise inverse flips
        assume(not (x < 0.5 and y == 1.0))
        p = Point(x, y)
        pp = time_reversal(time_reversal(p))
        assert pp.x == pytest.approx(x, abs=1e-15)
        assert pp.y == pytest.approx(y, abs=1e-15)

    def test_array_variant_matches(self):
        gen = np.random.Generator(np.random.Philox(key=np.uint64(2)))
        pts = gen.random((128, 2))
        gx, gy = time_reversal_arrays(pts[:, 0], pts[:, 1])
        for i in range(len(pts)):
            assert time_reversal(Point(pts[i, 0], pts[i, 1])) == (gx[i], gy[i])


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
            params = MapParams(ell=ell, q=0.0)
            gen = np.random.Generator(np.random.Philox(key=np.uint64(7)))
            pts = gen.random((10_000, 2))
            J = jacobians(params)
            r0 = region_indices(pts[:, 0], ell)
            fx, fy, _ = step_arrays(pts[:, 0], pts[:, 1], params)
            gx, _ = time_reversal_arrays(fx, fy)
            r1 = region_indices(gx, ell)
            assert np.abs(J[r0] * J[r1] - 1.0).max() < 1e-12


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
        fx, fy, _ = step_arrays(pts[:, 0], pts[:, 1], params)
        gx, _ = time_reversal_arrays(fx, fy)
        r1 = region_indices(gx, params.ell)
        expected = np.array([region_reverse(Region(int(r)), ReversalScheme.Q4) for r in r0])
        assert np.array_equal(r1, expected)
