import math

import numpy as np
import pytest

from vmlkit.phase_grid import (
    SpatialGrid,
    VelocityGrid,
    WeightParams,
    fd_gradient_matrix,
    fd_gradient_matrix_o4,
)


class TestMaxwellian:
    """The global Maxwellian is ``VelocityGrid.mu``, the field every module reads."""

    def test_origin_value(self):
        grid = VelocityGrid(6.0, 24)
        assert grid.nodes_1d[12] == 0.0
        mu0 = grid.mu()[12, 12, 12]
        assert mu0 == pytest.approx((2 * math.pi) ** -1.5)
        assert mu0 == pytest.approx(0.0634936, abs=1e-7)

    def test_even_symmetry(self):
        # v -> -v maps the nodes past the unpaired -v_max layer onto themselves
        for n_v in (8, 24):
            inner = VelocityGrid(6.0, n_v).mu()[1:, 1:, 1:]
            assert np.array_equal(inner, inner[::-1, ::-1, ::-1])
            assert np.array_equal(inner, inner[::-1])

    def test_grid_quadrature_unit_mass(self):
        grid = VelocityGrid(6.0, 24)
        fine = VelocityGrid(6.0, 96)
        coarse = grid.integrate(grid.mu())
        ref = fine.integrate(fine.mu())
        assert abs(coarse - 1.0) < 1e-6
        assert abs(coarse - ref) < 1e-6

    @pytest.mark.parametrize("moment,exact", [
        ("one", 1.0),
        ("v1sq", 1.0),
        ("v1v2", 0.0),
        ("v1_4", 3.0),
        ("vsq_sq", 15.0),
    ])
    def test_polynomial_moments_degree_four(self, moment, exact):
        grid = VelocityGrid(6.0, 24)
        fine = VelocityGrid(6.0, 96)

        def value(g):
            v1, v2, _ = g.axes()
            vsq = g.vsq()
            polys = {
                "one": 1.0 + 0 * vsq,
                "v1sq": v1 ** 2 + 0 * vsq,
                "v1v2": v1 * v2 + 0 * vsq,
                "v1_4": v1 ** 4 + 0 * vsq,
                "vsq_sq": vsq ** 2,
            }
            return g.integrate(polys[moment] * g.mu())

        got, ref = value(grid), value(fine)
        assert got == pytest.approx(ref, rel=1e-5, abs=1e-8)
        assert got == pytest.approx(exact, rel=1e-5, abs=1e-7)


class TestWeight:
    # n_v = 12 on [-6, 6) puts a node at v = 0 (index 6) and spans |v| up
    # to 6 sqrt(3)
    grid = VelocityGrid(6.0, 12)

    def test_degenerate_parameters_give_one(self):
        p = WeightParams(gamma=-3.0, ell=0.0, q=0.0)
        assert np.allclose(self.grid.weight_field(p, 0.0), 1.0)
        assert np.allclose(self.grid.weight_field(p, 7.3), 1.0)

    def test_origin_value(self):
        p = WeightParams(gamma=-3.0, ell=0.0, q=0.05, theta=0.25)
        assert self.grid.nodes_1d[6] == 0.0
        for t in (0.0, 1.0, 9.0):
            expect = math.exp(0.05 / (1 + t) ** 0.25)
            assert self.grid.weight_field(p, t)[6, 6, 6] == pytest.approx(expect)

    def test_strictly_decreasing_in_time(self):
        p = WeightParams(gamma=-2.5, ell=1.0, q=0.05, theta=0.25)
        ts = np.linspace(0.0, 10.0, 30)
        vals = np.array([self.grid.weight_field(p, t) for t in ts])
        assert np.all(np.diff(vals, axis=0) < 0)

    def test_at_least_one_for_nonnegative_ell(self):
        # gamma + 2 < 0 makes the polynomial factor <v>^{-(gamma+2) ell}
        # grow with <v> exactly when ell >= 0 (the range the weighted
        # energy family uses)
        for ell in (0.0, 1.0, 3.5):
            p = WeightParams(gamma=-3.0, ell=ell, q=0.02, theta=0.2)
            for t in (0.0, 2.0, 50.0):
                assert np.all(self.grid.weight_field(p, t) >= 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            self.grid.weight_field(WeightParams(), -1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WeightParams(gamma=-1.5)
        with pytest.raises(ValueError):
            WeightParams(q=0.5)
        with pytest.raises(ValueError):
            WeightParams(q=0.05, theta=0.3).validate_for_s(0.5)  # theta > s/2
        WeightParams(q=0.05, theta=0.25).validate_for_s(0.5)
        WeightParams(q=0.05, theta=0.1).validate_for_s(1.25)
        with pytest.raises(ValueError):
            WeightParams(q=0.05, theta=0.2).validate_for_s(1.25)  # > s/2 - 1/2

    def test_weightless_limit_has_no_theta_bracket(self):
        # q = 0 is the weightless limit: theta weighs nothing, so any theta passes
        WeightParams(q=0.0, theta=5.0).validate_for_s(0.5)
        with pytest.raises(ValueError):
            WeightParams(q=0.01, theta=5.0).validate_for_s(0.5)


class TestVelocityGrid:
    def test_spacing_and_offset_convention(self):
        grid = VelocityGrid(6.0, 24)
        assert grid.spacing == pytest.approx(0.5)
        nodes = grid.nodes_1d
        assert nodes[0] == -6.0
        assert nodes[-1] == pytest.approx(6.0 - grid.spacing)
        # symmetric up to the one-cell offset: interior nodes mirror exactly
        assert np.allclose(nodes[1:], -nodes[1:][::-1])
        assert 0.0 in nodes

    def test_refusal_on_bad_params(self):
        with pytest.raises(ValueError):
            VelocityGrid(6.0, 2)
        with pytest.raises(ValueError):
            VelocityGrid(-1.0, 16)


class TestTransforms:
    def test_constant_field_all_energy_in_zero_mode(self, sgrid32):
        f = np.full(sgrid32.shape, 2.5)
        spec = sgrid32.forward(f)
        others = spec.copy()
        others[0] = 0.0
        assert np.abs(others).max() < 1e-13 * abs(spec[0])

    def test_plane_wave_single_coefficient(self, sgrid32):
        x = sgrid32.coords()[0]
        xi = sgrid32.xi_1d()[3]
        f = np.cos(xi * x)
        spec = sgrid32.forward(f)
        mask = np.ones(sgrid32.shape, dtype=bool)
        mask[3] = mask[-3] = False
        assert np.abs(spec[mask]).max() < 1e-12 * np.abs(spec[3])

    def test_plancherel(self, sgrid32):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(sgrid32.shape)
        spec = sgrid32.forward(f)
        assert float(np.sum(np.abs(spec) ** 2)) == pytest.approx(
            sgrid32.norm2(f), rel=1e-12)

    def test_round_trip_identity_and_reality(self, sgrid32):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((2,) + sgrid32.shape + (4,))
        back = sgrid32.inverse(sgrid32.forward(f, (1,)), (1,))
        assert np.abs(back.imag).max() < 1e-12
        assert np.abs(back.real - f).max() < 1e-12

    def test_inactive_axis_derivative_is_zero(self, sgrid32):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(sgrid32.shape)
        assert np.abs(sgrid32.derivative(f, 1)).max() == 0.0
        assert np.abs(sgrid32.derivative(f, 2)).max() == 0.0

    def test_multi_axis_grid(self):
        grid = SpatialGrid(box_length=2 * math.pi, n_x=8, active_axes=(0, 1))
        rng = np.random.default_rng(6)
        f = rng.standard_normal(grid.shape)
        assert float(np.sum(np.abs(grid.forward(f)) ** 2)) == pytest.approx(
            grid.norm2(f), rel=1e-12)


    @pytest.mark.parametrize("n_x, axes", [(6, (0, 2)), (7, (1,)), (4, (0, 1, 2))])
    def test_half_spectrum_pair(self, n_x, axes):
        # forward_half is the half of forward, inverse_half undoes it,
        # hermitian_half reads the half spectrum of a real part, and
        # full_spectrum is forward(inverse_half(.)) without a transform,
        # the Hermitian part on the self-conjugate planes included
        grid = SpatialGrid(box_length=3.0, n_x=n_x, active_axes=axes)
        rng = np.random.default_rng(7)
        f = rng.standard_normal((2,) + grid.shape)
        half = grid.forward_half(f)
        assert half.shape == (2,) + grid.half_shape
        full = grid.forward(f)
        assert np.abs(half - full[..., : n_x // 2 + 1]).max() < 1e-13
        assert np.abs(grid.inverse_half(half) - f).max() < 1e-13
        z = full + 1j * rng.standard_normal(full.shape)
        assert np.abs(grid.hermitian_half(z)
                      - grid.forward_half(grid.inverse(z).real)).max() < 1e-13
        h = half + 1j * rng.standard_normal(half.shape)
        assert np.abs(grid.full_spectrum(h)
                      - grid.forward(grid.inverse_half(h))).max() < 1e-13

class TestLambda:
    def test_identity_at_zero_exponent(self, sgrid32):
        rng = np.random.default_rng(7)
        f = rng.standard_normal(sgrid32.shape)
        g = f - f.mean()
        assert np.abs(sgrid32.lambda_s_apply(g, 0.0) - g).max() < 1e-13

    def test_single_mode_scaling(self, sgrid32):
        x = sgrid32.coords()[0]
        xi = sgrid32.xi_1d()[4]
        f = np.cos(xi * x)
        for s in (-0.5, 0.75, 1.5):
            out = sgrid32.lambda_s_apply(f, s)
            assert np.allclose(out, abs(xi) ** s * f, rtol=1e-12, atol=1e-14)

    def test_composition_inverse_on_zero_mean(self, sgrid32):
        rng = np.random.default_rng(8)
        f = rng.standard_normal(sgrid32.shape)
        g = f - f.mean()
        comp = sgrid32.lambda_s_apply(sgrid32.lambda_s_apply(g, -0.6), 0.6)
        assert np.abs(comp - g).max() < 1e-12 * np.abs(g).max()

    def test_zero_mode_policy(self, sgrid32):
        f = np.full(sgrid32.shape, 3.0)
        # negative exponent zeroes the mean; positive exponent kills it too
        assert np.abs(sgrid32.lambda_s_apply(f, -0.5)).max() < 1e-14
        assert np.abs(sgrid32.lambda_s_apply(f, 0.5)).max() < 1e-14
        assert np.abs(sgrid32.lambda_s_apply(f, 0.0) - f).max() < 1e-13

    def test_commutes_with_derivative(self, sgrid32):
        rng = np.random.default_rng(9)
        f = rng.standard_normal(sgrid32.shape)
        g = f - f.mean()
        a = sgrid32.derivative(sgrid32.lambda_s_apply(g, -0.5), 0)
        b = sgrid32.lambda_s_apply(sgrid32.derivative(g, 0), -0.5)
        assert np.abs(a - b).max() < 1e-12 * max(np.abs(a).max(), 1.0)


def sobolev_norms(grid, f, s_exp, n):
    """(homogeneous H^-s norm, full H^n norm) of a field, from its spectrum."""
    spec = grid.forward(f)
    return (math.sqrt(grid.spec_weighted_norm2(spec, grid.lambda_multiplier(-s_exp) ** 2)),
            math.sqrt(grid.spec_weighted_norm2(spec, grid.band_multiplier(0, n))))


class TestSobolevNorms:
    def test_zero_field(self, sgrid32):
        hneg, hn = sobolev_norms(sgrid32, np.zeros(sgrid32.shape), 0.5, 2)
        assert hneg == 0.0 and hn == 0.0

    def test_single_mode_values(self, sgrid32):
        x = sgrid32.coords()[0]
        xi = sgrid32.xi_1d()[5]
        f = np.cos(xi * x)
        norm = math.sqrt(sgrid32.norm2(f))
        hneg, hn = sobolev_norms(sgrid32, f, 0.5, 1)
        assert hneg == pytest.approx(abs(xi) ** -0.5 * norm, rel=1e-12)
        assert hn == pytest.approx(math.sqrt(1 + xi ** 2) * norm, rel=1e-12)

    def test_multipliers_are_kept_read_only(self, sgrid32):
        # run constants: a repeated call returns the same table, which no
        # caller can change
        for first, again in ((sgrid32.band_multiplier(1, 2, frac_top=2.5),
                              sgrid32.band_multiplier(1, 2, frac_top=2.5)),
                             (sgrid32.lambda_multiplier(-0.5),
                              sgrid32.lambda_multiplier(-0.5))):
            assert again is first and not first.flags.writeable
        assert sgrid32.band_multiplier(0, 2) is not sgrid32.band_multiplier(0, 3)

    def test_band_multiplier_terms(self, sgrid32):
        xin = sgrid32.xi_norm()
        mult = sgrid32.band_multiplier(1, 2, frac_top=2.5)
        assert np.allclose(mult, xin ** 2 + xin ** 4 + xin ** 5, rtol=1e-14, atol=0.0)
        assert mult[0] == 0.0
        assert np.array_equal(sgrid32.band_multiplier(0, 0), np.ones(sgrid32.shape))

    def test_interpolation_inequality_on_bump(self):
        # || grad^k u || <= ||Lambda^{-s} u||^(1/(k+s+1)) ||grad^{k+1} u||^((k+s)/(k+s+1))
        grid = SpatialGrid(box_length=2 * math.pi * 10.0, n_x=64, active_axes=(0,))
        x = grid.coords()[0]
        u = np.exp(-0.5 * (x - 30.0) ** 2 / 4.0)
        u = u - u.mean()
        s, k = 0.5, 1
        spec = grid.forward(u)
        def gnorm(j):
            return math.sqrt(grid.spec_weighted_norm2(spec, grid.xi_norm() ** (2 * j)))
        hneg = math.sqrt(grid.spec_weighted_norm2(
            spec, grid.lambda_multiplier(-s) ** 2))
        lhs = gnorm(k)
        rhs = hneg ** (1.0 / (k + s + 1)) * gnorm(k + 1) ** ((k + s) / (k + s + 1))
        assert lhs <= rhs * (1 + 1e-12)


class TestStencils:
    def test_second_order_exact_on_quadratics(self):
        nodes = VelocityGrid(6.0, 12).nodes_1d
        m = fd_gradient_matrix(nodes)
        for coeffs in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
            c0, c1, c2 = coeffs
            f = c0 + c1 * nodes + c2 * nodes ** 2
            df = c1 + 2 * c2 * nodes
            assert np.abs(m @ f - df).max() < 1e-12 * max(np.abs(df).max(), 1.0)

    def test_fourth_order_interior_accuracy(self):
        nodes = VelocityGrid(6.0, 48).nodes_1d
        m2 = fd_gradient_matrix(nodes)
        m4 = fd_gradient_matrix_o4(nodes)
        f = np.exp(-0.25 * nodes ** 2)
        df = -0.5 * nodes * f
        inner = slice(4, -4)
        e2 = np.abs((m2 @ f - df)[inner]).max()
        e4 = np.abs((m4 @ f - df)[inner]).max()
        assert e4 < e2 / 5.0
