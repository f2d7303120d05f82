import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from gpmd.bench import synth_instance
from gpmd.gp import GpModel
from gpmd.harness import RunConfig, build_synthetic_env, build_wind_env, rng_stream
from gpmd.metric import grid_metric
from gpmd.policies import GpServiceModel
from gpmd.wind import default_altitudes

from conftest import Normalizer, RbfKernel, table_gp

LAM = 0.25


def make_model(points, lam=LAM, **kwargs) -> GpModel:
    return table_gp(RbfKernel(lengthscale=1.0), points, lam, **kwargs)


def lcb_costs(model):
    """The default cost bounds of a service model at context 0."""
    return GpServiceModel(model).lcb_costs(0)


def dense_posterior(kernel, lam, X, y, Xq):
    K = kernel(X, X) + lam * np.eye(len(y))
    cf = cho_factor(K, lower=True)
    kq = kernel(X, Xq)
    mean = kq.T @ cho_solve(cf, y)
    var = kernel.diag(Xq) - np.einsum("ij,ij->j", kq, cho_solve(cf, kq))
    return mean, np.sqrt(np.maximum(var, 0.0))


class Domain:
    """Action points and scalar context values: the model's tables are the
    RBF kernel over each, the dense oracle's kernel the same RBF on the joint
    feature rows (action point, context value)."""

    def __init__(self, kernel, points, contexts=(0.0,)):
        self.kernel = kernel
        self.points = np.asarray(points, dtype=float)
        self.contexts = np.asarray(contexts, dtype=float)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def model(self, lam, **kwargs) -> GpModel:
        ka = self.kernel(self.points, self.points)
        kc = RbfKernel(self.kernel.lengthscale)(self.contexts[:, None], self.contexts[:, None])
        return GpModel(ka, kc, lam, **kwargs)

    def rows(self, actions, contexts):
        return np.column_stack([self.points[actions], self.contexts[contexts]])


def check_against_dense(model, dom, a, c, y, context):
    """The model's posterior at ``context`` and its information gain against
    a dense solve on the joint rows of the learned (a, c) pairs."""
    mean, std = model.posterior(context)
    Xq = dom.rows(np.arange(dom.n), np.full(dom.n, context))
    if len(y):
        X = dom.rows(a, c)
        dmean, dstd = dense_posterior(dom.kernel, model.lam, X, y, Xq)
        gain = 0.5 * np.linalg.slogdet(np.eye(len(y)) + dom.kernel(X, X) / model.lam)[1]
    else:
        dmean, dstd, gain = np.zeros(dom.n), np.sqrt(dom.kernel.diag(Xq)), 0.0
    assert np.abs(mean - dmean).max() <= 1e-8
    assert np.abs(std - dstd).max() <= 1e-8
    assert abs(model.info_gain() - gain) <= 1e-8


class TestPosterior:
    def test_prior_before_data(self):
        mean, std = make_model([[0.3]]).posterior(0)
        assert mean[0] == 0.0
        assert std[0] == pytest.approx(1.0)

    def test_single_observation_closed_form(self):
        model = make_model([[0.0]]).update([0], [0], [2.0])
        mean, std = model.posterior(0)
        assert mean[0] == pytest.approx(2.0 / (1.0 + LAM), abs=1e-12)
        assert std[0] ** 2 == pytest.approx(1.0 - 1.0 / (1.0 + LAM), abs=1e-12)

    def test_duplicate_inputs_closed_form(self):
        y = 1.7
        model = make_model([[0.5]]).update([0, 0], [0, 0], [y, y])
        mean, _ = model.posterior(0)
        assert mean[0] == pytest.approx(2.0 * y / (2.0 + LAM), abs=1e-12)

    def test_matches_dense_solve(self, rng):
        kernel = RbfKernel(lengthscale=0.7, outputscale=0.9)
        X = rng.uniform(-2, 2, size=(120, 2))
        y = np.sin(X[:, 0]) + rng.normal(0, 0.1, 120)
        P = np.concatenate([X, rng.uniform(-2, 2, size=(40, 2))])
        model = table_gp(kernel, P, 0.1).update(np.arange(120), np.zeros(120, int), y)
        mean, std = model.posterior(0)
        dmean, dstd = dense_posterior(kernel, 0.1, X, y, P)
        assert np.abs(mean - dmean).max() <= 1e-8
        assert np.abs(std - dstd).max() <= 1e-8

    def test_product_tables_match_joint_dense(self, rng):
        # Inputs at several contexts, with repeats, read both with fewer
        # inputs than actions (the inverse multiply) and with more (the solve).
        dom = Domain(RbfKernel(lengthscale=0.5, outputscale=1.4), rng.uniform(-1, 1, (30, 2)),
                     rng.uniform(-1, 1, 5))
        model = dom.model(0.1)
        a, c, y = np.zeros(0, int), np.zeros(0, int), np.zeros(0)
        for b in (20, 40, 60):
            an, cn, yn = rng.integers(30, size=b), rng.integers(5, size=b), rng.normal(size=b)
            model.update(an, cn, yn)
            a, c, y = np.r_[a, an], np.r_[c, cn], np.r_[y, yn]
            for context in range(5):
                check_against_dense(model, dom, a, c, y, context)

    def test_rejects_nonfinite_query(self):
        model = make_model([[0.0], [0.2]]).update([0], [0], [1.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=r"context id (nan|inf) is not an integer in \[0, 1\)"):
                model.posterior(bad)

    @pytest.mark.parametrize("bad", [1, -1, 0.0, np.float64(0.0), True, "0", [0], None])
    def test_rejects_a_bad_context_id(self, bad):
        model = make_model([[0.0], [0.2]])
        with pytest.raises(ValueError, match=r"context id .* is not an integer in \[0, 1\)"):
            model.posterior(bad)
        assert model.posterior(np.int64(0))[0].shape == (2,)

    def test_variance_never_above_prior(self, rng):
        P = rng.uniform(0, 1, size=(80, 1))
        model = make_model(P).update(np.arange(30), np.zeros(30, int), rng.normal(size=30))
        _, std = model.posterior(0)
        assert np.all(std**2 <= 1.0 + 1e-12)


class TestUpdate:
    def test_empty_batch_is_identity(self):
        model = make_model([[0.1]]).update([0], [0], [1.0])
        assert model.update([], [], []) is model

    def test_rejects_nonfinite(self):
        model = make_model([[0.0]])
        with pytest.raises(ValueError, match="finite"):
            model.update([0], [0], [np.nan])

    @pytest.mark.parametrize(
        "actions, contexts, message",
        [
            ([3], [0], r"action id 3 is not an integer in \[0, 3\)"),
            ([0, -1], [0, 0], r"action id -1 is not an integer in \[0, 3\)"),
            ([0.0], [0], r"action id 0.0 is not an integer in \[0, 3\)"),
            ([True], [0], r"action id True is not an integer in \[0, 3\)"),
            ([1], [2], r"context id 2 is not an integer in \[0, 2\)"),
            ([1], [np.nan], r"context id nan is not an integer in \[0, 2\)"),
        ],
    )
    def test_rejects_a_bad_id(self, actions, contexts, message):
        dom = Domain(RbfKernel(), [[0.0], [0.5], [1.0]], (0.0, 1.0))
        model = dom.model(LAM).update([0], [1], [0.3])
        with pytest.raises(ValueError, match=message):
            model.update(actions, contexts, np.ones(len(actions)))
        assert model.n == 1 and model._u == 1  # the model is left as it was
        check_against_dense(model, dom, [0], [1], [0.3], 0)

    def test_update_drops_kept_posteriors_first(self):
        # Even an update that raises drops the kept arrays, so no query can
        # read a posterior of a state the model has left.
        dom = Domain(RbfKernel(), [[0.0], [0.5], [1.0]], (0.0, 1.0))
        model = dom.model(LAM).update([0], [1], [0.3])
        kept = model.posterior(0)
        assert model.posterior(0) is kept
        with pytest.raises(ValueError, match="finite"):
            model.update([1], [0], [np.inf])
        again = model.posterior(0)
        assert again is not kept
        assert all(np.array_equal(x, k) for x, k in zip(again, kept))

    def test_one_id_pair_per_observation(self):
        with pytest.raises(ValueError, match="one action and one context id per observation"):
            make_model([[0.0], [1.0]]).update([0, 1], [0], [1.0, 2.0])

    def test_incremental_equals_batch(self, rng):
        P = rng.uniform(-1, 1, size=(35, 2))
        y = rng.normal(size=25)
        one_shot = make_model(P).update(np.arange(25), np.zeros(25, int), y)
        stepwise = make_model(P)
        for i in range(25):
            stepwise = stepwise.update([i], [0], y[i : i + 1])
        m1, s1 = one_shot.posterior(0)
        m2, s2 = stepwise.posterior(0)
        assert np.abs(m1 - m2).max() <= 1e-8
        assert np.abs(s1 - s2).max() <= 1e-8

    def test_refilled_query_array_is_read_afresh(self, rng):
        # The caller refills its id arrays in place between two updates: the
        # model keeps no reference to them.
        kernel = RbfKernel(lengthscale=1.0)
        P, y = rng.uniform(-1, 1, size=(12, 2)), rng.normal(size=10)
        model = table_gp(kernel, P, LAM)
        ids, contexts = np.arange(5), np.zeros(5, int)
        model.update(ids, contexts, y[:5])
        model.posterior(0)
        ids += 5
        model = model.update(ids, contexts, y[5:])
        mean, std = model.posterior(0)
        dmean, dstd = dense_posterior(kernel, LAM, P[:10], y, P)
        assert np.abs(mean - dmean).max() <= 1e-8
        assert np.abs(std - dstd).max() <= 1e-8

    def test_two_rows_learned_after_one_query(self, rng):
        # After the first append the query's columns miss the new row, so
        # the second update must solve its own border.
        kernel = RbfKernel(lengthscale=1.0)
        P, y = rng.uniform(-1, 1, size=(15, 2)), rng.normal(size=12)
        model = table_gp(kernel, P, LAM).update(np.arange(10), np.zeros(10, int), y[:10])
        model.posterior(0)
        model.update([11], [0], y[10:11]).update([13], [0], y[11:])
        mean, std = model.posterior(0)
        dmean, dstd = dense_posterior(kernel, LAM, P[[*range(10), 11, 13]], y, P)
        assert np.abs(mean - dmean).max() <= 1e-8
        assert np.abs(std - dstd).max() <= 1e-8

    def test_variance_monotone_along_trace(self, rng):
        P = rng.uniform(0, 1, size=(50, 1))  # 20 query points, then 30 learned ones
        model = make_model(P, lam=0.05)
        _, prev_std = model.posterior(0)
        for i in range(20, 50):
            model = model.update([i], [0], rng.normal(size=1))
            _, std = model.posterior(0)
            assert np.all(std**2 <= prev_std**2 + 1e-9)
            prev_std = std


class TestInfoGain:
    def test_zero_before_data(self):
        assert make_model([[0.0]]).info_gain() == 0.0

    def test_single_point(self):
        model = make_model([[0.0]]).update([0], [0], [1.0])
        assert model.info_gain() == pytest.approx(0.5 * math.log(1.0 + 1.0 / LAM), abs=1e-12)

    def test_duplicate_two_points(self):
        model = make_model([[0.0]]).update([0, 0], [0, 0], [1.0, 1.0])
        M = np.array([[1 + 1 / LAM, 1 / LAM], [1 / LAM, 1 + 1 / LAM]])
        expected = 0.5 * math.log(np.linalg.det(M))
        assert model.info_gain() == pytest.approx(expected, abs=1e-10)

    def test_matches_direct_logdet(self, rng):
        kernel = RbfKernel(lengthscale=0.4)
        X = rng.uniform(0, 1, size=(60, 2))
        model = table_gp(kernel, X, 0.3).update(np.arange(60), np.zeros(60, int), rng.normal(size=60))
        K = kernel(X, X)
        direct = 0.5 * np.linalg.slogdet(np.eye(60) + K / 0.3)[1]
        assert model.info_gain() == pytest.approx(direct, abs=1e-8)

    def test_nondecreasing(self, rng):
        model = make_model(rng.uniform(0, 1, size=(15, 1)))
        prev = 0.0
        for i in range(15):
            model = model.update([i], [0], rng.normal(size=1))
            gain = model.info_gain()
            assert gain >= prev - 1e-12
            prev = gain


class TestBeta:
    def test_constant_mode(self):
        model = make_model([[0.0]], beta_mode="constant", beta_value=2.0)
        assert model.beta_t() == 2.0

    def test_theory_reduces_to_rkhs_bound(self):
        # gamma = 0 and delta -> 1 kill both terms under the square root.
        model = make_model(
            [[0.0]],
            lam=0.25,
            noise_sigma=0.5,
            rkhs_bound=3.0,
            delta=1.0 - 1e-12,
            beta_mode="theory",
        )
        assert model.beta_t() == pytest.approx(3.0, abs=1e-5)

    def test_theory_formula_value(self):
        # sigma = sqrt(lam), ln(1/delta) = 2, gamma = 0, B = 1 -> 2 + 1.
        model = make_model(
            [[0.0]],
            lam=0.25,
            noise_sigma=0.5,
            rkhs_bound=1.0,
            delta=math.exp(-2.0),
            beta_mode="theory",
        )
        assert model.beta_t() == pytest.approx(3.0, abs=1e-12)

    def test_negative_beta_value_rejected(self):
        with pytest.raises(ValueError, match="beta_value"):
            make_model([[0.0]], beta_value=-0.5)

    def test_lcb_zero_beta_is_mean(self, rng):
        model = make_model(rng.uniform(0, 1, (12, 1)), beta_value=0.0)
        model.update(np.arange(5), np.zeros(5, int), rng.normal(size=5))
        mean, _ = model.posterior(0)
        assert np.allclose(lcb_costs(model), mean)

    def test_lcb_prior_with_beta_two(self):
        assert lcb_costs(make_model([[0.0]], beta_value=2.0))[0] == pytest.approx(-2.0)

    def test_lcb_converges_to_truth_noiseless(self):
        model = make_model([[0.2]], lam=1e-10, beta_value=2.0)
        y = 0.8
        for _ in range(4):
            model = model.update([0], [0], [y])
        lcb = lcb_costs(model)[0]
        assert abs(lcb - y) <= 1e-4

    def test_monotone_in_t_theory_mode(self, rng):
        model = make_model(rng.uniform(0, 1, (10, 1)), beta_mode="theory", delta=0.1)
        prev = model.beta_t()
        for i in range(10):
            model = model.update([i], [0], rng.normal(size=1))
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
            model = table_gp(
                kernel,
                grid,
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
                model = model.update([i], [0], [y])
                mean, std = model.posterior(0)
                if np.any(np.abs(mean - f) > model.beta_t() * std + 1e-9):
                    ok = False
                    break
            hits += ok
        assert hits >= (1.0 - delta) * trials


def test_cholesky_reconstructs_regularized_kernel(rng):
    kernel = RbfKernel(lengthscale=0.6)
    X = rng.uniform(0, 1, size=(50, 2))
    model = table_gp(kernel, X, 0.2)
    for i in range(50):  # distinct inputs, so the factor holds one row per observation
        model = model.update([i], [0], rng.normal(size=1))
    L = np.tril(model._L[:50, :50])  # only the lower triangle is kept
    K = kernel(X, X) + 0.2 * np.eye(50)
    rel = np.abs(L @ L.T - K).max() / np.abs(K).max()
    assert rel <= 1e-8


# A coarse grid of action points, so that duplicate training inputs are common.
GRID_POINTS = np.array([[a, b] for a in np.linspace(-1, 1, 5) for b in np.linspace(-1, 1, 5)])
# Each grid point with a zero coordinate again, with that zero's sign flipped:
# a second action id at the same point.
TWINS = np.flatnonzero((GRID_POINTS == 0.0).any(axis=1))
OPS = ("row", "batch", "step", "query", "first", "zero")
FRESH = 16  # actions at uniform points, after the grid and its twins


def _interleaving_domain(rng, lengthscale):
    twins = np.where(GRID_POINTS[TWINS] == 0.0, -0.0, GRID_POINTS[TWINS])
    points = np.concatenate([GRID_POINTS, twins, rng.uniform(-1, 1, size=(FRESH, 2))])
    return Domain(RbfKernel(lengthscale=lengthscale, outputscale=1.3), points, (0.0, 0.6))


def _draw_ids(rng, b):
    """b actions, mostly grid points (so mostly repeats), else uniform
    points, each at a random one of the two contexts."""
    fresh = len(GRID_POINTS) + len(TWINS) + rng.integers(FRESH, size=b)
    on_grid = rng.integers(len(GRID_POINTS), size=b)
    return np.where(rng.random(b) < 0.9, on_grid, fresh), rng.integers(2, size=b)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_engine_interleavings_match_dense(data):
    """Random interleavings of single-row and batch updates, mostly repeats of
    grid inputs (a batch repeats inputs within itself too), of repeats of the
    first stored input, of two action ids at one point (a grid point and its
    twin), and of queries (some at the context the next update learns at),
    checked against a dense solve on the joint feature rows. The stored
    inputs outnumber the 50 actions once most grid inputs are learned, so
    both the inverse multiply and the solve are read."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    dom = _interleaving_domain(rng, data.draw(st.sampled_from([0.3, 0.8])))
    lam = data.draw(st.sampled_from([0.01, 0.1, 1.0]), label="lam")
    model = dom.model(lam)
    a, c, y = np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    ops = data.draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=30), label="ops")
    for op in ops:
        if op != "query" and len(y) > 300:
            op = "query"
        if op == "query":
            check_against_dense(model, dom, a, c, y, data.draw(st.integers(0, 1), label="context"))
            continue
        if op == "step":  # query a context, then learn an action at it
            context = data.draw(st.integers(0, 1), label="context")
            check_against_dense(model, dom, a, c, y, context)
            an, cn = np.array([data.draw(st.integers(0, dom.n - 1), label="action")]), np.array([context])
        elif op == "batch":
            an, cn = _draw_ids(rng, data.draw(st.integers(1, 60), label="rows"))
        elif op == "first" and len(y):  # a repeat of stored row 0 refactors from row 0
            an, cn = a[:1], c[:1]
        elif op == "zero":
            k = int(rng.integers(len(TWINS)))
            an, cn = np.array([TWINS[k], len(GRID_POINTS) + k]), np.full(2, rng.integers(2))
        else:
            an, cn = _draw_ids(rng, 1)
        yn = rng.normal(size=len(an))
        model = model.update(an, cn, yn)
        a, c, y = np.r_[a, an], np.r_[c, cn], np.r_[y, yn]
    check_against_dense(model, dom, a, c, y, 0)


def test_engine_long_repeat_trace():
    """3,000 per-step updates over the 25 grid actions at two contexts, each
    step querying the context of its input: storage stays near the
    distinct-input count and the posterior stays on the dense solve, by the
    inverse multiply while the stored inputs are at most 25 and by the solve
    after."""
    rng = np.random.default_rng(7)
    dom = Domain(RbfKernel(lengthscale=0.5), GRID_POINTS, (0.0, 0.4))
    model = dom.model(0.1)
    a, c, y = np.empty(3000, int), np.arange(3000) % 2, rng.normal(size=3000)
    for t in range(3000):
        model.posterior(int(c[t]))
        if t == 1000:
            check_against_dense(model, dom, a[:t], c[:t], y[:t], int(c[t]))
        a[t] = rng.integers(25)
        model = model.update(a[t : t + 1], c[t : t + 1], y[t : t + 1])
    assert model.n == 3000
    assert model._L.shape[0] <= 64
    for context in (0, 1):
        check_against_dense(model, dom, a, c, y, context)


def test_inverse_and_solve_paths_match_dense(rng):
    """A model with at least as many actions as stored inputs reads the
    posterior through the kept inverse W = L^-1, one with fewer through the
    triangular solve. Both are checked against the dense solve across a
    storage doubling (which copies W), a repeat of stored row 0 (which
    refreshes W from row 0), and a batch update after which the model is
    read on the inverse path and then, once its inputs outnumber its 12
    actions, on the solve path."""
    dom = Domain(RbfKernel(lengthscale=0.6), rng.uniform(-1, 1, size=(12, 2)), (0.0, 0.5))
    pairs = [(i % 12, i // 12) for i in rng.permutation(24)]
    # A learner whose inputs outnumber its actions never allocates W.
    solo = dom.model(0.05)
    a13, c13 = np.array(pairs[:13]).T
    y13 = rng.normal(size=13)
    solo.update(a13, c13, y13)
    check_against_dense(solo, dom, a13, c13, y13, 1)
    assert solo._W is None

    model = dom.model(0.05)
    a, c, y = np.zeros(0, int), np.zeros(0, int), np.zeros(0)

    def learn(an, cn):
        nonlocal a, c, y
        yn = rng.normal(size=len(an))
        model.update(an, cn, yn)
        a, c, y = np.r_[a, an], np.r_[c, cn], np.r_[y, yn]

    for an, cn in pairs[:8]:
        learn([an], [cn])
    assert model._W is None  # no query has taken the inverse path yet
    check_against_dense(model, dom, a, c, y, 0)
    assert model._W.shape == model._L.shape == (8, 8) and model._w == 8
    learn(*np.array(pairs[8:9]).T)  # u 8 -> 9 doubles the storage
    assert model._L.shape == (16, 16) and model._w == 8
    check_against_dense(model, dom, a, c, y, 1)
    learn(a[:1], c[:1])  # a repeat of stored row 0
    assert model._w == 0
    check_against_dense(model, dom, a, c, y, 0)
    check_against_dense(model, dom, a, c, y, 1)
    learn(*np.array(pairs[9:12] + pairs[4:5]).T)  # u 9 -> 12
    assert model._u == 12 and model._w == 4
    check_against_dense(model, dom, a, c, y, 0)  # 12 actions: the inverse path
    learn(*np.array(pairs[12:14]).T)  # u 12 -> 14
    check_against_dense(model, dom, a, c, y, 1)  # 12 actions: the solve path
    assert model._w == 12


@pytest.mark.parametrize("kind", ["synthetic", "wind"])
def test_env_tables_reproduce_the_joint_rbf(kind):
    """ka[a, a'] * kc[c, c'] of an env's GP is the RBF kernel of the old
    joint feature rows: (grid coordinates, context value) on the 20x20 grid
    at 40 contexts, and wind's (altitude, hour of day) on 25 altitudes and
    24 hours, normalized per dimension over that grid."""
    if kind == "synthetic":
        cfg = RunConfig(kind=kind, grid=[20, 20], n_contexts=40, steps=1)
        inst = synth_instance(
            int(rng_stream(0, "instance").integers(2**31)), metric=grid_metric(20, 20), n_contexts=40
        )
        points, contexts = inst.metric.coords, inst.contexts
        kernel = RbfKernel(lengthscale=inst.lengthscale, outputscale=inst.scale**2)
        gp = build_synthetic_env(cfg, 0).make_gp()
    else:
        cfg = RunConfig(kind=kind, steps=1, wind_hours=24)
        points, contexts = default_altitudes(), np.arange(24.0)
        grid = np.column_stack([np.repeat(points, 24), np.tile(contexts, points.size)])
        kernel = RbfKernel(lengthscale=3.67, outputscale=6.85, normalizer=Normalizer.from_data(grid))
        gp = build_wind_env(cfg, 0).make_gp()
    n, C = len(points), len(contexts)
    assert gp.ka.shape == (n, n) and gp.kc.shape == (C, C)
    worst = 0.0
    for c in range(C):  # every context against a second one, every action pair
        other = (7 * c + 3) % C
        joint = kernel(
            np.column_stack([points, np.full(n, contexts[c])]),
            np.column_stack([points, np.full(n, contexts[other])]),
        )
        worst = max(worst, float(np.abs(gp.ka * gp.kc[c, other] - joint).max()))
    assert worst <= 1e-15 * kernel.outputscale
