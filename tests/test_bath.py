import tracemalloc

import numpy as np
import pytest

import xferopt as xo
from xferopt import bath
from xferopt.bath import _ExpFactor, sample_noise_block
from conftest import dense_kernel


class TestCorrelation:
    """The kernel (gamma / (2 t_c)) exp(-|t| / t_c) as the grid's exponential factor holds it."""

    def test_peak_value(self):
        b = xo.BathModel(gamma=0.4, t_c=2.0)
        factor = _ExpFactor(b, 0.1, 8)
        assert factor.c0 == pytest.approx(0.5 * 0.4 / 2.0, rel=1e-15)
        assert factor.rho == np.exp(-0.1 / 2.0)

    def test_total_weight_is_gamma(self):
        # The trapezoid sum of the samples c0 rho^|m| over all lags m dt,
        # c0 dt (1 + rho) / (1 - rho), is the kernel's area gamma up to
        # (dt / t_c)^2 / 12.
        b = xo.BathModel(gamma=0.7, t_c=1.3)
        dt = 1e-3 * b.t_c
        factor = _ExpFactor(b, dt, 2)
        area = factor.c0 * dt * (1.0 + factor.rho) / (1.0 - factor.rho)
        assert area == pytest.approx(b.gamma, rel=1e-6)


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
        # Row j is sample_noise_trajectory(b, grid, seed=123, trajectory_index=j),
        # bit for bit (TestNoiseBlock), drawn in one call.
        s = sample_noise_block(b, grid[1] - grid[0], grid.size, 123, 0, n_traj).T
        var_hat = np.mean(s * s, axis=1)
        lag_hat = np.mean(s[:, :-1] * s[:, 1:], axis=1)
        sigma2 = 0.5 * b.gamma / b.t_c
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
        sigma = np.sqrt(0.5 * b.gamma / b.t_c)
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
        # Row j is sample_noise_trajectory(b, grid, seed=77, trajectory_index=j).
        samples = sample_noise_block(b, grid[1] - grid[0], grid.size, 77, 0, n_traj).T
        for m in (2, 5):
            cov = np.mean(samples[:, :-m] * samples[:, m:])
            expected = (0.5 * b.gamma / b.t_c) * np.exp(-m * 0.1 / b.t_c)
            se = np.std(samples[:, :-m] * samples[:, m:], ddof=1) / np.sqrt(samples[:, :-m].size)
            assert abs(cov - expected) < 4 * se


class TestNoiseBlock:
    """Each column of a block against a fresh Philox stream and the written-out noise."""

    @staticmethod
    def fresh_normals(seed, index, m):
        return np.random.Generator(np.random.Philox(key=[seed, index])).standard_normal(m)

    @pytest.mark.parametrize("first", [0, 5])
    def test_ou_columns_bitwise(self, first):
        # Narrow and wide blocks: the row-by-row recursion serves every width.
        b = xo.BathModel(gamma=0.035, t_c=1.0)
        dt, m, seed = 0.01, 64, 3
        rho = np.exp(-dt / b.t_c)
        sigma = np.sqrt(0.5 * b.gamma / b.t_c)
        innovation = sigma * np.sqrt(1.0 - rho * rho)
        for count in (4, 11, 12, 40):
            block = sample_noise_block(b, dt, m, seed, first, count)
            assert block.shape == (m, count)
            for j in range(count):
                d = innovation * self.fresh_normals(seed, first + j, m)
                d[0] = sigma * self.fresh_normals(seed, first + j, 1)[0]
                # x_k = rho x_{k-1} + d_k, the product and the sum each rounded.
                x = d.copy()
                for k in range(1, m):
                    x[k] = rho * x[k - 1] + d[k]
                assert np.array_equal(block[:, j], x), (count, j)

    @pytest.mark.parametrize("first", [0, 5])
    def test_white_columns_bitwise(self, first):
        b = xo.BathModel(gamma=0.04, t_c=0.0)
        dt, m, seed, count = 0.01, 64, 3, 4
        block = sample_noise_block(b, dt, m, seed, first, count)
        scale = np.sqrt(b.gamma / dt)
        for j in range(count):
            assert np.array_equal(block[:, j], scale * self.fresh_normals(seed, first + j, m)), j

    def test_one_column_is_a_trajectory(self):
        b = xo.BathModel(gamma=0.035, t_c=1.0)
        grid = (np.arange(512) + 0.5) * 0.01
        block = sample_noise_block(b, 0.01, 512, 3, 9, 4)
        assert np.array_equal(block[:, 2], xo.sample_noise_trajectory(b, grid, seed=3, trajectory_index=11))

    @pytest.mark.parametrize("b", [
        xo.BathModel(gamma=0.035, t_c=1.0), xo.BathModel(gamma=0.04, t_c=0.0), xo.BathModel(gamma=0.0, t_c=1.0),
    ])
    def test_reused_dirty_buffer(self, b):
        # A buffer holding an earlier, larger block's noise and NaNs; the
        # smaller block goes into its leading columns, and that view is
        # what comes back.
        dt, m, seed = 0.01, 64, 3
        buffer = np.empty((m, 6))
        assert sample_noise_block(b, dt, m, seed, 20, 6, out=buffer) is buffer
        buffer[:, 1:3] = np.nan
        out = buffer[:, :4]
        assert sample_noise_block(b, dt, m, seed, 2, 4, out=out) is out
        assert np.array_equal(out, sample_noise_block(b, dt, m, seed, 2, 4))

    @pytest.mark.parametrize("b", [
        xo.BathModel(gamma=0.035, t_c=1.0), xo.BathModel(gamma=0.04, t_c=0.0), xo.BathModel(gamma=0.0, t_c=1.0),
    ])
    def test_columns_across_tile_edges(self, b):
        # Narrow counts, and counts on both sides of the 256-trajectory
        # sampling tile of 512 steps.  Each column is its trajectory alone:
        # sample_noise_trajectory (a block of one column), or for white noise
        # the scaled fresh normals.
        dt, m, seed, first = 0.01, 512, 5, 3
        assert bath._NOISE_TILE_BYTES // (8 * m) == 256
        grid = np.arange(m) * dt
        for count in (1, 11, 12, 255, 256, 257, 513):
            block = sample_noise_block(b, dt, m, seed, first, count)
            assert block.shape == (m, count)
            for j in range(count):
                if b.is_markovian:
                    want = np.sqrt(b.gamma / dt) * self.fresh_normals(seed, first + j, m)
                else:
                    want = xo.sample_noise_trajectory(b, grid, seed=seed, trajectory_index=first + j)
                assert np.array_equal(block[:, j], want), (count, j)

    @pytest.mark.parametrize("b", [xo.BathModel(gamma=0.035, t_c=1.0), xo.BathModel(gamma=0.04, t_c=0.0)])
    def test_scratch_bounded_on_long_step_grids(self, b):
        # At 16384 steps the 1 MiB scratch tile holds 8 trajectories; the
        # block of 257 (33 MiB) is returned, and little else is held with it.
        tracemalloc.start()
        try:
            block = sample_noise_block(b, 0.01, 16384, 3, 0, 257)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - block.nbytes <= 2 * 2 ** 20

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sample_noise_block(xo.BathModel(gamma=0.1, t_c=1.0), 0.01, 8, 0, -1, 2)


class TestKernelProduct:
    """The factor's kernel product against the dense kernel matrix."""

    # t_c / dt from 1e-3 (rho = exp(-1000) underflows to 0) to 1e4 (rho -> 1).
    @pytest.mark.parametrize("ratio", [1e-3, 0.3, 1.0, 40.0, 1e4])
    @pytest.mark.parametrize("n", [2, 3, 321, 2049])
    def test_matches_dense_reference(self, n, ratio):
        rng = np.random.default_rng(n)
        dt = 0.01
        b = xo.BathModel(gamma=0.3, t_c=ratio * dt)
        k = dense_kernel(b, n, dt)
        y2 = np.column_stack((rng.uniform(0.0, 1.0, n), rng.standard_normal(n)))
        factor = _ExpFactor(b, dt, n)
        got2 = factor.product(y2)
        for j in range(2):
            want = k @ y2[:, j]
            assert got2.shape == y2.shape
            assert np.max(np.abs(got2[:, j] - want)) <= 1e-12 * np.max(np.abs(want))
            got1 = factor.product(y2[:, j])
            assert got1.shape == (n,)
            assert np.max(np.abs(got1 - want)) <= 1e-12 * np.max(np.abs(want))


def test_bath_validation():
    with pytest.raises(ValueError):
        xo.BathModel(gamma=-0.1, t_c=1.0)
    with pytest.raises(ValueError):
        xo.BathModel(gamma=0.1, t_c=-1.0)
    assert xo.BathModel(gamma=0.0, t_c=0.0).is_markovian


def test_gamma_is_the_only_strength():
    # The kernel has no separate normalisation: its area is gamma.
    with pytest.raises(TypeError):
        xo.BathModel(gamma=0.1, t_c=1.0, corr_norm=0.5)
    assert not hasattr(xo, "DEFAULT_CORR_NORM")
