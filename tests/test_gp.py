import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from gpmd.gp import (
    GpModel,
    LinearKernel,
    Normalizer,
    ProductKernel,
    RbfKernel,
    SumKernel,
    kernel_from_dict,
)

LAM = 0.25


def make_model(lam=LAM, **kwargs) -> GpModel:
    return GpModel(kernel=RbfKernel(lengthscale=1.0), lam=lam, **kwargs)


def dense_posterior(kernel, lam, X, y, Xq):
    K = kernel(X, X) + lam * np.eye(len(y))
    cf = cho_factor(K, lower=True)
    kq = kernel(X, Xq)
    mean = kq.T @ cho_solve(cf, y)
    var = kernel.diag(Xq) - np.einsum("ij,ij->j", kq, cho_solve(cf, kq))
    return mean, np.sqrt(np.maximum(var, 0.0))


class TestPosterior:
    def test_prior_before_data(self):
        model = make_model()
        mean, std = model.posterior([[0.3]])
        assert mean[0] == 0.0
        assert std[0] == pytest.approx(1.0)

    def test_single_observation_closed_form(self):
        model = make_model().update([[0.0]], [2.0])
        mean, std = model.posterior([[0.0]])
        assert mean[0] == pytest.approx(2.0 / (1.0 + LAM), abs=1e-12)
        assert std[0] ** 2 == pytest.approx(1.0 - 1.0 / (1.0 + LAM), abs=1e-12)

    def test_duplicate_inputs_closed_form(self):
        y = 1.7
        model = make_model().update([[0.5], [0.5]], [y, y])
        mean, _ = model.posterior([[0.5]])
        assert mean[0] == pytest.approx(2.0 * y / (2.0 + LAM), abs=1e-12)

    def test_matches_dense_solve(self, rng):
        kernel = RbfKernel(lengthscale=0.7, outputscale=0.9)
        model = GpModel(kernel=kernel, lam=0.1)
        X = rng.uniform(-2, 2, size=(120, 2))
        y = np.sin(X[:, 0]) + rng.normal(0, 0.1, 120)
        model = model.update(X, y)
        Xq = rng.uniform(-2, 2, size=(40, 2))
        mean, std = model.posterior(Xq)
        dmean, dstd = dense_posterior(kernel, 0.1, X, y, Xq)
        assert np.abs(mean - dmean).max() <= 1e-8
        assert np.abs(std - dstd).max() <= 1e-8

    def test_rejects_nonfinite_query(self):
        model = make_model().update([[0.0]], [1.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                model.posterior([[0.2], [bad]])

    def test_variance_never_above_prior(self, rng):
        model = make_model()
        X = rng.uniform(0, 1, size=(30, 1))
        model = model.update(X, rng.normal(size=30))
        _, std = model.posterior(rng.uniform(0, 1, size=(50, 1)))
        assert np.all(std**2 <= 1.0 + 1e-12)


class TestUpdate:
    def test_empty_batch_is_identity(self):
        model = make_model().update([[0.1]], [1.0])
        assert model.update(np.zeros((0, 1)), []) is model

    def test_rejects_nonfinite(self):
        model = make_model()
        with pytest.raises(ValueError, match="finite"):
            model.update([[0.0]], [np.nan])

    def test_incremental_equals_batch(self, rng):
        X = rng.uniform(-1, 1, size=(25, 2))
        y = rng.normal(size=25)
        one_shot = make_model().update(X, y)
        stepwise = make_model()
        for i in range(25):
            stepwise = stepwise.update(X[i : i + 1], y[i : i + 1])
        Xq = rng.uniform(-1, 1, size=(10, 2))
        m1, s1 = one_shot.posterior(Xq)
        m2, s2 = stepwise.posterior(Xq)
        assert np.abs(m1 - m2).max() <= 1e-8
        assert np.abs(s1 - s2).max() <= 1e-8

    def test_snapshots_are_independent(self, rng):
        base = make_model().update([[0.0]], [1.0])
        grown = base.update([[0.5]], [2.0])
        # branch from the older snapshot: must not see the newer data
        branched = base.update([[0.9]], [-1.0])
        assert base.n == 1 and grown.n == 2 and branched.n == 2
        m_base, _ = base.posterior([[0.5]])
        m_grown, _ = grown.posterior([[0.5]])
        assert m_base[0] != pytest.approx(m_grown[0])

    def test_branch_from_older_snapshot_matches_fresh_build(self, rng):
        X = rng.uniform(-1, 1, size=(40, 2))
        y = rng.normal(size=40)

        def grow(model, rows):
            for i in rows:
                model = model.update(X[i : i + 1], y[i : i + 1])
            return model

        base = grow(make_model(), range(20))
        tip = grow(base, range(20, 30))
        branch = grow(base, range(30, 40))  # taken after the tip has grown
        fresh = grow(make_model(), [*range(20), *range(30, 40)])
        Xq = rng.uniform(-1, 1, size=(15, 2))
        m_branch, s_branch = branch.posterior(Xq)
        m_fresh, s_fresh = fresh.posterior(Xq)
        assert np.array_equal(m_branch, m_fresh) and np.array_equal(s_branch, s_fresh)
        # the tip is untouched by the branch
        m_tip, _ = tip.posterior(Xq)
        tip_fresh = make_model().update(X[:30], y[:30])
        assert np.abs(m_tip - tip_fresh.posterior(Xq)[0]).max() <= 1e-8

    def test_variance_monotone_along_trace(self, rng):
        model = make_model(lam=0.05)
        Xq = rng.uniform(0, 1, size=(20, 1))
        _, prev_std = model.posterior(Xq)
        for _ in range(30):
            x = rng.uniform(0, 1, size=(1, 1))
            model = model.update(x, rng.normal(size=1))
            _, std = model.posterior(Xq)
            assert np.all(std**2 <= prev_std**2 + 1e-9)
            prev_std = std


class TestInfoGain:
    def test_zero_before_data(self):
        assert make_model().info_gain() == 0.0

    def test_single_point(self):
        model = make_model().update([[0.0]], [1.0])
        assert model.info_gain() == pytest.approx(0.5 * math.log(1.0 + 1.0 / LAM), abs=1e-12)

    def test_duplicate_two_points(self):
        model = make_model().update([[0.0], [0.0]], [1.0, 1.0])
        M = np.array([[1 + 1 / LAM, 1 / LAM], [1 / LAM, 1 + 1 / LAM]])
        expected = 0.5 * math.log(np.linalg.det(M))
        assert model.info_gain() == pytest.approx(expected, abs=1e-10)

    def test_matches_direct_logdet(self, rng):
        kernel = RbfKernel(lengthscale=0.4)
        model = GpModel(kernel=kernel, lam=0.3)
        X = rng.uniform(0, 1, size=(60, 2))
        model = model.update(X, rng.normal(size=60))
        K = kernel(X, X)
        direct = 0.5 * np.linalg.slogdet(np.eye(60) + K / 0.3)[1]
        assert model.info_gain() == pytest.approx(direct, abs=1e-8)

    def test_nondecreasing(self, rng):
        model = make_model()
        prev = 0.0
        for _ in range(15):
            model = model.update(rng.uniform(0, 1, size=(1, 1)), rng.normal(size=1))
            gain = model.info_gain()
            assert gain >= prev - 1e-12
            prev = gain


class TestBeta:
    def test_constant_mode(self):
        model = make_model(beta_mode="constant", beta_value=2.0)
        assert model.beta_t() == 2.0

    def test_theory_reduces_to_rkhs_bound(self):
        # gamma = 0 and delta -> 1 kill both terms under the square root.
        model = GpModel(
            kernel=RbfKernel(),
            lam=0.25,
            noise_sigma=0.5,
            rkhs_bound=3.0,
            delta=1.0 - 1e-12,
            beta_mode="theory",
        )
        assert model.beta_t() == pytest.approx(3.0, abs=1e-5)

    def test_theory_formula_value(self):
        # sigma = sqrt(lam), ln(1/delta) = 2, gamma = 0, B = 1 -> 2 + 1.
        model = GpModel(
            kernel=RbfKernel(),
            lam=0.25,
            noise_sigma=0.5,
            rkhs_bound=1.0,
            delta=math.exp(-2.0),
            beta_mode="theory",
        )
        assert model.beta_t() == pytest.approx(3.0, abs=1e-12)

    def test_lcb_zero_beta_is_mean(self, rng):
        model = make_model().update(rng.uniform(0, 1, (5, 1)), rng.normal(size=5))
        Xq = rng.uniform(0, 1, (7, 1))
        mean, _ = model.posterior(Xq)
        assert np.allclose(model.lcb(Xq, beta=0.0), mean)

    def test_lcb_prior_with_beta_two(self):
        assert make_model().lcb([[0.0]], beta=2.0)[0] == pytest.approx(-2.0)

    def test_lcb_converges_to_truth_noiseless(self):
        model = make_model(lam=1e-10)
        y = 0.8
        for _ in range(4):
            model = model.update([[0.2]], [y])
        lcb = model.lcb([[0.2]], beta=2.0)[0]
        assert abs(lcb - y) <= 1e-4

    def test_monotone_in_t_theory_mode(self, rng):
        model = GpModel(kernel=RbfKernel(), lam=0.25, beta_mode="theory", delta=0.1)
        prev = model.beta_t()
        for _ in range(10):
            model = model.update(rng.uniform(0, 1, (1, 1)), rng.normal(size=1))
            cur = model.beta_t()
            assert cur >= prev - 1e-12
            prev = cur


class TestKernels:
    def test_rbf_bounded_by_one_when_outputscale_one(self, rng):
        k = RbfKernel(lengthscale=0.5, outputscale=1.0)
        A = rng.uniform(-3, 3, size=(20, 3))
        K = k(A, A)
        assert K.max() <= 1.0 + 1e-12
        assert np.allclose(np.diag(K), 1.0)

    def test_psd_via_cholesky(self, rng):
        A = rng.uniform(-1, 1, size=(40, 2))
        for k in (
            RbfKernel(lengthscale=0.3),
            LinearKernel(),
            SumKernel(RbfKernel(), LinearKernel()),
            ProductKernel(RbfKernel(), RbfKernel(lengthscale=2.0)),
        ):
            K = k(A, A) + 1e-9 * np.eye(40)
            np.linalg.cholesky(K)  # raises if not PSD

    def test_normalizer_affine(self):
        norm = Normalizer(offset=np.array([1.0, 2.0]), scale=np.array([2.0, 4.0]))
        out = norm(np.array([[3.0, 10.0]]))
        assert np.allclose(out, [[1.0, 2.0]])

    def test_serialization_roundtrip(self, rng):
        k = SumKernel(
            RbfKernel(lengthscale=0.3, outputscale=0.5, normalizer=Normalizer.from_data(rng.uniform(0, 5, (10, 2)))),
            ProductKernel(LinearKernel(outputscale=0.1), RbfKernel(lengthscale=2.0)),
        )
        k2 = kernel_from_dict(k.to_dict())
        A = rng.uniform(0, 5, size=(6, 2))
        B = rng.uniform(0, 5, size=(4, 2))
        assert np.allclose(k(A, B), k2(A, B))


class TestModelSerialization:
    def test_json_roundtrip(self, tmp_path, rng):
        model = make_model().update(rng.uniform(0, 1, (12, 1)), rng.normal(size=12))
        path = tmp_path / "gp.json"
        model.dump_json(path)
        loaded = GpModel.load_json(path)
        Xq = rng.uniform(0, 1, (5, 1))
        m1, s1 = model.posterior(Xq)
        m2, s2 = loaded.posterior(Xq)
        assert np.abs(m1 - m2).max() <= 1e-8
        assert np.abs(s1 - s2).max() <= 1e-8


class TestConfidenceCoverage:
    def test_prior_samples_covered_statistically(self, rng):
        # Draw functions from the prior on a small grid, run a noisy
        # observation loop with the analytic width, and demand full-grid
        # coverage in at least a 1-delta fraction of trials.
        grid = np.linspace(0.0, 1.0, 15)[:, None]
        kernel = RbfKernel(lengthscale=0.3)
        K = kernel(grid, grid) + 1e-10 * np.eye(15)
        L = np.linalg.cholesky(K)
        delta = 0.1
        sigma = 0.1
        trials = 200
        hits = 0
        for _ in range(trials):
            g = rng.standard_normal(15)
            f = L @ g
            bound = math.sqrt(g @ g)  # norm of the sample on the grid
            model = GpModel(
                kernel=kernel,
                lam=sigma**2,
                noise_sigma=sigma,
                rkhs_bound=bound,
                delta=delta,
                beta_mode="theory",
            )
            ok = True
            for _step in range(10):
                i = int(rng.integers(0, 15))
                y = f[i] + rng.normal(0, sigma)
                model = model.update(grid[i : i + 1], [y])
                mean, std = model.posterior(grid)
                if np.any(np.abs(mean - f) > model.beta_t() * std + 1e-9):
                    ok = False
                    break
            hits += ok
        assert hits >= (1.0 - delta) * trials


def test_cholesky_reconstructs_regularized_kernel(rng):
    kernel = RbfKernel(lengthscale=0.6)
    model = GpModel(kernel=kernel, lam=0.2)
    X = rng.uniform(0, 1, size=(50, 2))
    for i in range(50):  # incremental path, no refactor below 256
        model = model.update(X[i : i + 1], rng.normal(size=1))
    L = np.tril(model._factor)
    K = kernel(X, X) + 0.2 * np.eye(50)
    rel = np.abs(L @ L.T - K).max() / np.abs(K).max()
    assert rel <= 1e-8
