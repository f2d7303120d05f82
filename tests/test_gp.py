import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from gpmd.gp import GpModel, Normalizer, RbfKernel
from gpmd.policies import GpServiceModel

LAM = 0.25


def make_model(lam=LAM, **kwargs) -> GpModel:
    return GpModel(kernel=RbfKernel(lengthscale=1.0), lam=lam, **kwargs)


def lcb_costs(model, Xq):
    """The default cost bounds of a service model whose one context queries ``Xq``."""
    return GpServiceModel(model, lambda _: Xq, n_actions=len(Xq)).lcb_costs(0)


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

    def test_refilled_query_array_is_read_afresh(self, rng):
        X, y = rng.uniform(-1, 1, size=(10, 2)), rng.normal(size=11)
        model = make_model().update(X, y[:10])
        buf = rng.uniform(-1, 1, size=(5, 2))
        model.posterior(buf)
        buf[2] = [0.3, -0.4]  # the caller refills its query array, then learns a new row of it
        model = model.update(buf[2:3], y[10:])
        mean, std = model.posterior(buf)
        dmean, dstd = dense_posterior(model.kernel, LAM, np.concatenate([X, buf[2:3]]), y, buf)
        assert np.abs(mean - dmean).max() <= 1e-8
        assert np.abs(std - dstd).max() <= 1e-8

    def test_two_rows_learned_after_one_query(self, rng):
        # After the first append the query's columns miss the new row, so
        # the second update must solve its own border.
        X, y = rng.uniform(-1, 1, size=(10, 2)), rng.normal(size=12)
        model = make_model().update(X, y[:10])
        block = rng.uniform(-1, 1, size=(5, 2))
        model.posterior(block)
        model.update(block[1:2], y[10:11]).update(block[3:4], y[11:])
        mean, std = model.posterior(block)
        dmean, dstd = dense_posterior(model.kernel, LAM, np.concatenate([X, block[[1, 3]]]), y, block)
        assert np.abs(mean - dmean).max() <= 1e-8
        assert np.abs(std - dstd).max() <= 1e-8

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

    def test_negative_beta_value_rejected(self):
        with pytest.raises(ValueError, match="beta_value"):
            make_model(beta_value=-0.5)

    def test_lcb_zero_beta_is_mean(self, rng):
        model = make_model(beta_value=0.0).update(rng.uniform(0, 1, (5, 1)), rng.normal(size=5))
        Xq = rng.uniform(0, 1, (7, 1))
        mean, _ = model.posterior(Xq)
        assert np.allclose(lcb_costs(model, Xq), mean)

    def test_lcb_prior_with_beta_two(self):
        assert lcb_costs(make_model(beta_value=2.0), [[0.0]])[0] == pytest.approx(-2.0)

    def test_lcb_converges_to_truth_noiseless(self):
        model = make_model(lam=1e-10, beta_value=2.0)
        y = 0.8
        for _ in range(4):
            model = model.update([[0.2]], [y])
        lcb = lcb_costs(model, [[0.2]])[0]
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
            RbfKernel(lengthscale=(0.3, 2.0), normalizer=Normalizer.from_data(A)),
        ):
            K = k(A, A) + 1e-9 * np.eye(40)
            np.linalg.cholesky(K)  # raises if not PSD

    def test_normalizer_affine(self):
        norm = Normalizer(offset=np.array([1.0, 2.0]), scale=np.array([2.0, 4.0]))
        out = norm(np.array([[3.0, 10.0]]))
        assert np.allclose(out, [[1.0, 2.0]])


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
    for i in range(50):  # distinct inputs, so the factor holds one row per observation
        model = model.update(X[i : i + 1], rng.normal(size=1))
    L = np.tril(model._L[:50, :50])  # only the lower triangle is kept
    K = kernel(X, X) + 0.2 * np.eye(50)
    rel = np.abs(L @ L.T - K).max() / np.abs(K).max()
    assert rel <= 1e-8


# A coarse grid of inputs, so that duplicate training and query rows are common.
GRID_POINTS = np.array([[a, b] for a in np.linspace(-1, 1, 5) for b in np.linspace(-1, 1, 5)])
OPS = ("row", "batch", "step", "query", "first", "zero")


def _draw_rows(rng, b):
    """b inputs, mostly grid points (so mostly repeats), else fresh uniform draws."""
    fresh = rng.uniform(-1, 1, size=(b, 2))
    on_grid = GRID_POINTS[rng.integers(len(GRID_POINTS), size=b)]
    return np.where(rng.random((b, 1)) < 0.9, on_grid, fresh)


def _signed_zero_pair(rng):
    """A grid point with a zero coordinate, once as +0.0 and once as -0.0."""
    p = GRID_POINTS[rng.choice(np.flatnonzero((GRID_POINTS == 0.0).any(axis=1)))]
    return np.stack([p, np.where(p == 0.0, -0.0, p)])


def _check_against_dense(model, X, y, Xq):
    mean, std = model.posterior(Xq)
    if len(y):
        dmean, dstd = dense_posterior(model.kernel, model.lam, X, y, Xq)
        K = model.kernel(X, X)
        gain = 0.5 * np.linalg.slogdet(np.eye(len(y)) + K / model.lam)[1]
    else:
        dmean, dstd, gain = np.zeros(len(Xq)), np.sqrt(model.kernel.diag(Xq)), 0.0
    assert np.abs(mean - dmean).max() <= 1e-8
    assert np.abs(std - dstd).max() <= 1e-8
    assert abs(model.info_gain() - gain) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_engine_interleavings_match_dense(data):
    """Random interleavings of single-row and batch updates, mostly repeats of
    grid inputs (a batch repeats inputs within itself too), of repeats of the
    first stored input, of inputs that differ only in the sign of a zero, and
    of repeated and fresh query blocks (some holding the next update's input),
    checked against a dense solve."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kernel = RbfKernel(lengthscale=data.draw(st.sampled_from([0.3, 0.8])), outputscale=1.3)
    lam = data.draw(st.sampled_from([0.01, 0.1, 1.0]), label="lam")
    blocks = [GRID_POINTS[rng.integers(len(GRID_POINTS), size=k)] for k in (1, 7, 25)]
    model, X, y = GpModel(kernel=kernel, lam=lam), np.zeros((0, 2)), np.zeros(0)
    ops = data.draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=30), label="ops")
    for op in ops:
        if op != "query" and len(y) > 300:
            op = "query"
        if op == "query":
            pick = data.draw(st.integers(0, len(blocks)), label="block")
            Xq = blocks[pick] if pick < len(blocks) else _draw_rows(rng, 9)
            _check_against_dense(model, X, y, Xq)
            continue
        if op == "step":  # query a block, then learn one of its rows
            block = blocks[data.draw(st.integers(0, 2), label="block")]
            _check_against_dense(model, X, y, block)
            Xn = block[data.draw(st.integers(0, len(block) - 1), label="row")][None, :]
        elif op == "batch":
            Xn = _draw_rows(rng, data.draw(st.integers(1, 60), label="rows"))
        elif op == "first" and len(y):  # a repeat of stored row 0 refactors from row 0
            Xn = X[:1]
        elif op == "zero":
            Xn = _signed_zero_pair(rng)
        else:
            Xn = _draw_rows(rng, 1)
        yn = rng.normal(size=len(Xn))
        model = model.update(Xn, yn)
        X, y = np.concatenate([X, Xn]), np.concatenate([y, yn])
    _check_against_dense(model, X, y, blocks[2])


def test_engine_long_repeat_trace():
    """3,000 per-step updates over the 25 grid inputs, each step querying a
    block that holds its input: storage stays near the distinct-input count
    and the posterior stays on the dense solve."""
    rng = np.random.default_rng(7)
    kernel = RbfKernel(lengthscale=0.5)
    model = GpModel(kernel=kernel, lam=0.1)
    blocks = [GRID_POINTS[rng.permutation(len(GRID_POINTS))[:10]] for _ in range(4)]
    X, y = np.empty((3000, 2)), rng.normal(size=3000)
    for t in range(3000):
        block = blocks[t % 4]
        model.posterior(block)
        if t == 1000:
            _check_against_dense(model, X[:t], y[:t], block)
        X[t] = block[int(rng.integers(10))]
        model = model.update(X[t : t + 1], y[t : t + 1])
    assert model.n == 3000
    assert model._L.shape[0] <= 64
    _check_against_dense(model, X, y, GRID_POINTS)
