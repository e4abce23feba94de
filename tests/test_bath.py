from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad, simpson

import xferopt as xo
from xferopt.bath import kernel_product, sample_noise_block


class TestCorrelation:
    def test_peak_value(self):
        b = xo.BathModel(gamma=0.4, t_c=2.0)
        assert xo.correlation(b, 0.0) == pytest.approx(b.corr_norm * 0.4 / 2.0, rel=1e-15)

    def test_symmetry(self):
        b = xo.BathModel(gamma=0.4, t_c=2.0)
        dts = np.linspace(0.1, 12.0, 20)
        np.testing.assert_array_equal(xo.correlation(b, dts), xo.correlation(b, -dts))

    def test_total_weight_is_gamma(self):
        # Integral of the kernel over the whole line equals 2 * corr_norm * gamma.
        b = xo.BathModel(gamma=0.7, t_c=1.3)
        val, _ = quad(lambda t: xo.correlation(b, t), -80 * b.t_c, 80 * b.t_c, limit=400)
        assert val == pytest.approx(2 * b.corr_norm * b.gamma, rel=1e-9)
        assert val == pytest.approx(b.gamma, rel=1e-9)  # default corr_norm = 1/2

    def test_markovian_rejected(self):
        b = xo.BathModel(gamma=0.4, t_c=0.0)
        with pytest.raises(ValueError):
            xo.correlation(b, 0.1)


class TestSpectrum:
    def test_markovian_flat(self):
        b = xo.BathModel(gamma=0.8, t_c=0.0)
        omegas = np.array([-40.0, -1.0, 0.0, 3.0, 500.0])
        np.testing.assert_allclose(xo.spectrum(b, omegas), 0.8 / (2 * np.pi), rtol=1e-15)

    def test_symmetry(self):
        b = xo.BathModel(gamma=0.8, t_c=0.7)
        w = np.linspace(0.1, 30, 17)
        np.testing.assert_array_equal(xo.spectrum(b, w), xo.spectrum(b, -w))

    def test_half_width(self):
        b = xo.BathModel(gamma=0.8, t_c=0.7)
        assert xo.spectrum(b, 1.0 / b.t_c) == pytest.approx(0.5 * xo.spectrum(b, 0.0), rel=1e-14)

    def test_nonnegative(self):
        b = xo.BathModel(gamma=0.8, t_c=5.0)
        w = np.linspace(-100, 100, 2001)
        assert np.all(xo.spectrum(b, w) >= 0.0)

    def test_matches_numerical_fourier_transform(self):
        b = xo.BathModel(gamma=0.5, t_c=1.7)
        t = np.linspace(-80 * b.t_c, 80 * b.t_c, 400001)
        phi = xo.correlation(b, t)
        for w in np.linspace(0.0, 20.0 / b.t_c, 9):
            ft = simpson(phi * np.cos(w * t), x=t) / (2 * np.pi)
            assert ft == pytest.approx(xo.spectrum(b, w), rel=1e-6)

    def test_markovian_limit_pointwise(self):
        gamma = 0.9
        b = xo.BathModel(gamma=gamma, t_c=1e-4)
        for w in (0.0, 0.5, 2.0, 10.0):
            assert xo.spectrum(b, w) == pytest.approx(gamma / (2 * np.pi), rel=1e-6)


class TestNoiseSampling:
    def test_deterministic(self):
        b = xo.BathModel(gamma=0.4, t_c=2.0)
        grid = np.arange(50) * 0.2
        s1 = xo.sample_noise_trajectory(b, grid, seed=9, trajectory_index=4)
        s2 = xo.sample_noise_trajectory(b, grid, seed=9, trajectory_index=4)
        np.testing.assert_array_equal(s1, s2)
        s3 = xo.sample_noise_trajectory(b, grid, seed=9, trajectory_index=5)
        assert not np.array_equal(s1, s3)

    def test_coarse_grid_rejected(self):
        b = xo.BathModel(gamma=0.4, t_c=1.0)
        with pytest.raises(ValueError, match="coarse"):
            xo.sample_noise_trajectory(b, np.arange(10) * 0.5, seed=0)

    def test_markovian_rejected(self):
        b = xo.BathModel(gamma=0.4, t_c=0.0)
        with pytest.raises(ValueError):
            xo.sample_noise_trajectory(b, np.arange(10) * 0.01, seed=0)

    def test_ensemble_statistics(self):
        # Stationary variance and lag-1 covariance against the kernel, three
        # standard errors of the per-trajectory estimates.
        b = xo.BathModel(gamma=0.4, t_c=2.0)
        n_traj = 100_000
        grid = np.arange(16) * (b.t_c / 10.0)
        var_hat = np.empty(n_traj)
        lag_hat = np.empty(n_traj)
        for j in range(n_traj):
            s = xo.sample_noise_trajectory(b, grid, seed=123, trajectory_index=j)
            var_hat[j] = np.mean(s * s)
            lag_hat[j] = np.mean(s[:-1] * s[1:])
        sigma2 = b.corr_norm * b.gamma / b.t_c
        rho = np.exp(-(grid[1] - grid[0]) / b.t_c)
        se_var = var_hat.std(ddof=1) / np.sqrt(n_traj)
        se_lag = lag_hat.std(ddof=1) / np.sqrt(n_traj)
        assert abs(var_hat.mean() - sigma2) < 3 * se_var
        assert abs(lag_hat.mean() - rho * sigma2) < 3 * se_lag

    def test_equals_scalar_recursion(self):
        # b_0 = sigma xi_0, b_{k+1} = rho b_k + sigma sqrt(1 - rho^2) xi_{k+1},
        # with the same Philox normals keyed by (seed, trajectory_index).
        b = xo.BathModel(gamma=0.035, t_c=1.0)
        grid = (np.arange(512) + 0.5) * 0.01
        got = xo.sample_noise_trajectory(b, grid, seed=3, trajectory_index=11)
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 11], dtype=np.uint64)))
        xi = rng.standard_normal(grid.size)
        rho = np.exp(-0.01 / b.t_c)
        sigma = np.sqrt(b.corr_norm * b.gamma / b.t_c)
        want = np.empty(grid.size)
        want[0] = sigma * xi[0]
        for k in range(1, grid.size):
            want[k] = rho * want[k - 1] + sigma * np.sqrt(1.0 - rho * rho) * xi[k]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_matches_kernel_at_grid_lags(self):
        # Exact recursion: lag-m ensemble covariance equals the kernel at m*dt.
        b = xo.BathModel(gamma=1.0, t_c=1.0)
        grid = np.arange(8) * 0.1
        n_traj = 60_000
        samples = np.stack([
            xo.sample_noise_trajectory(b, grid, seed=77, trajectory_index=j) for j in range(n_traj)
        ])
        for m in (2, 5):
            cov = np.mean(samples[:, :-m] * samples[:, m:])
            expected = xo.correlation(b, m * 0.1)
            se = np.std(samples[:, :-m] * samples[:, m:], ddof=1) / np.sqrt(samples[:, :-m].size)
            assert abs(cov - expected) < 4 * se


def fused_multiply_add(a, b, c):
    """``a * b + c`` rounded once, as an FMA instruction computes it."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


class TestNoiseBlock:
    """Each column of a block against a fresh Philox stream and the written-out noise."""

    @staticmethod
    def fresh_normals(seed, index, m):
        return np.random.Generator(np.random.Philox(key=[seed, index])).standard_normal(m)

    @pytest.mark.parametrize("first", [0, 5])
    def test_ou_columns_bitwise(self, first):
        b = xo.BathModel(gamma=0.035, t_c=1.0)
        dt, m, seed, count = 0.01, 64, 3, 4
        block = sample_noise_block(b, dt, m, seed, first, count)
        assert block.shape == (m, count)
        rho = np.exp(-dt / b.t_c)
        sigma = np.sqrt(b.corr_norm * b.gamma / b.t_c)
        innovation = sigma * np.sqrt(1.0 - rho * rho)
        for j in range(count):
            d = innovation * self.fresh_normals(seed, first + j, m)
            d[0] = sigma * self.fresh_normals(seed, first + j, 1)[0]
            # x_k = rho x_{k-1} + d_k.  The LAPACK substitution may fuse the
            # multiply-add or not, depending on the BLAS kernel; the column
            # must equal one of the two roundings bit for bit.
            plain, fused = d.copy(), d.copy()
            for k in range(1, m):
                plain[k] = rho * plain[k - 1] + d[k]
                fused[k] = fused_multiply_add(rho, fused[k - 1], d[k])
            col = block[:, j]
            assert np.array_equal(col, plain) or np.array_equal(col, fused), j

    @pytest.mark.parametrize("first", [0, 5])
    def test_white_columns_bitwise(self, first):
        b = xo.BathModel(gamma=0.04, t_c=0.0)
        dt, m, seed, count = 0.01, 64, 3, 4
        block = sample_noise_block(b, dt, m, seed, first, count)
        scale = np.sqrt(2.0 * b.corr_norm * b.gamma / dt)
        for j in range(count):
            assert np.array_equal(block[:, j], scale * self.fresh_normals(seed, first + j, m)), j

    def test_one_column_is_a_trajectory(self):
        b = xo.BathModel(gamma=0.035, t_c=1.0)
        grid = (np.arange(512) + 0.5) * 0.01
        block = sample_noise_block(b, 0.01, 512, 3, 9, 4)
        assert np.array_equal(block[:, 2], xo.sample_noise_trajectory(b, grid, seed=3, trajectory_index=11))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sample_noise_block(xo.BathModel(gamma=0.1, t_c=1.0), 0.01, 8, 0, -1, 2)


def dense_kernel(b, n, dt):
    """O(N^2) reference: the kernel matrix Phi(|t_j - t_k|) on the grid.

    Lags are taken as |j - k| dt, exact integers times dt, so the reference
    carries no rounding from differences of large times.
    """
    j = np.arange(n)
    return xo.correlation(b, np.abs(j[:, None] - j[None, :]) * dt)


class TestKernelProduct:
    # t_c / dt from 1e-3 (rho = exp(-1000) underflows to 0) to 1e4 (rho -> 1).
    @pytest.mark.parametrize("ratio", [1e-3, 0.3, 1.0, 40.0, 1e4])
    @pytest.mark.parametrize("n", [2, 3, 321, 2049])
    def test_matches_dense_reference(self, n, ratio):
        rng = np.random.default_rng(n)
        dt = 0.01
        b = xo.BathModel(gamma=0.3, t_c=ratio * dt)
        k = dense_kernel(b, n, dt)
        y2 = np.column_stack((rng.uniform(0.0, 1.0, n), rng.standard_normal(n)))
        got2 = kernel_product(b, dt, y2)
        for j in range(2):
            want = k @ y2[:, j]
            assert got2.shape == y2.shape
            assert np.max(np.abs(got2[:, j] - want)) <= 1e-12 * np.max(np.abs(want))
            got1 = kernel_product(b, dt, y2[:, j])
            assert got1.shape == (n,)
            assert np.max(np.abs(got1 - want)) <= 1e-12 * np.max(np.abs(want))

    def test_markovian_rejected(self):
        with pytest.raises(ValueError, match="t_c = 0"):
            kernel_product(xo.BathModel(gamma=0.3, t_c=0.0), 0.1, np.ones(4))


def test_bath_validation():
    with pytest.raises(ValueError):
        xo.BathModel(gamma=-0.1, t_c=1.0)
    with pytest.raises(ValueError):
        xo.BathModel(gamma=0.1, t_c=-1.0)
    with pytest.raises(ValueError):
        xo.BathModel(gamma=0.1, t_c=1.0, corr_norm=0.0)
    assert xo.BathModel(gamma=0.0, t_c=0.0).is_markovian
