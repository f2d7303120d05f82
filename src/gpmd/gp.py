"""Exact Gaussian-process regression over action-context feature vectors.

The model keeps a lower Cholesky factor L of (K_t + lam*I), extended by
border updates as observations arrive and rebuilt from scratch every
``REFACTOR_EVERY`` points to keep rounding drift in check. Snapshots are
immutable: ``update`` returns a new model that owns its own contiguous
inputs, targets and factor, so appending costs one O(t^2) copy of the factor
plus the O(t^2) border solve, and any snapshot can be updated again without
affecting the others. Each snapshot counts the points added since its last
refactor, so a branch taken from an older snapshot follows its own refactor
schedule; the harness only ever extends the newest snapshot.

The factor is stored mirrored: L in the lower triangle and L^T in the upper.
LAPACK then reads either triangle in the memory order it expects, and every
triangular solve runs on the stored array without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky as sp_cholesky
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

REFACTOR_EVERY = 256
VAR_CLAMP = 1e-12


@dataclass(frozen=True)
class Normalizer:
    """Affine map applied to inputs before kernel evaluation: (x - offset) / scale."""

    offset: np.ndarray
    scale: np.ndarray

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return (X - self.offset) / self.scale

    @classmethod
    def from_data(cls, X: np.ndarray) -> "Normalizer":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        scale = X.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        return cls(offset=X.mean(axis=0), scale=scale)


@dataclass(frozen=True)
class RbfKernel:
    """Squared-exponential kernel with optional per-dimension lengthscales."""

    lengthscale: float | tuple = 1.0
    outputscale: float = 1.0
    normalizer: Normalizer | None = None

    def _prep(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.normalizer is not None:
            X = self.normalizer(X)
        return X / np.asarray(self.lengthscale, dtype=float)

    def __call__(self, A, B) -> np.ndarray:
        sq = cdist(self._prep(A), self._prep(B), "sqeuclidean")
        return self.outputscale * np.exp(-0.5 * sq)

    def diag(self, A) -> np.ndarray:
        A = np.atleast_2d(np.asarray(A, dtype=float))
        return np.full(A.shape[0], float(self.outputscale))


def _mirrored(L: np.ndarray) -> np.ndarray:
    """L in the lower triangle and L^T in the upper; L must be lower triangular."""
    out = L + L.T
    np.fill_diagonal(out, L.diagonal())
    return out


class GpModel:
    """GP posterior state with confidence-bound helpers.

    ``lam`` is the regularization added to the kernel matrix (by default the
    observation noise variance; the theory-faithful alternative sets it to
    the episode length). ``beta_mode`` selects between the analytic
    confidence width ("theory") and a fixed exploration constant
    ("constant").
    """

    def __init__(
        self,
        kernel,
        lam: float,
        noise_sigma: float | None = None,
        rkhs_bound: float = 1.0,
        delta: float = 0.1,
        beta_mode: str = "constant",
        beta_value: float = 2.0,
        _X: np.ndarray | None = None,
        _y: np.ndarray | None = None,
        _factor: np.ndarray | None = None,
        _since_refactor: int = 0,
    ):
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        if beta_mode not in ("constant", "theory"):
            raise ValueError(f"unknown beta_mode {beta_mode!r}")
        if not (0.0 < delta < 1.0) and beta_mode == "theory":
            raise ValueError("delta must lie in (0, 1)")
        self.kernel = kernel
        self.lam = float(lam)
        self.noise_sigma = float(noise_sigma) if noise_sigma is not None else math.sqrt(lam)
        self.rkhs_bound = float(rkhs_bound)
        self.delta = float(delta)
        self.beta_mode = beta_mode
        self.beta_value = float(beta_value)
        self._X, self._y, self._factor = _X, _y, _factor
        self._since_refactor = _since_refactor
        self._n = 0 if _y is None else _y.shape[0]
        self._alpha = None
        if self._n:
            z = solve_triangular(_factor, _y, lower=True, check_finite=False)
            # the upper triangle holds L^T
            self._alpha = solve_triangular(_factor, z, lower=False, check_finite=False)

    @property
    def n(self) -> int:
        return self._n

    def _config(self):
        return dict(
            kernel=self.kernel,
            lam=self.lam,
            noise_sigma=self.noise_sigma,
            rkhs_bound=self.rkhs_bound,
            delta=self.delta,
            beta_mode=self.beta_mode,
            beta_value=self.beta_value,
        )

    # -- updates ---------------------------------------------------------

    def update(self, X_new, y_new) -> "GpModel":
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        y_new = np.atleast_1d(np.asarray(y_new, dtype=float))
        if y_new.size == 0:
            return self
        if X_new.shape[0] != y_new.shape[0]:
            raise ValueError("one observation per input row is required")
        if not np.all(np.isfinite(y_new)) or not np.all(np.isfinite(X_new)):
            raise ValueError("observations must be finite")

        t, b = self._n, y_new.shape[0]
        if t:
            X = np.concatenate([self._X, X_new])
            y = np.concatenate([self._y, y_new])
        else:
            X, y = X_new.copy(), y_new.copy()
        since = self._since_refactor + b
        factor = self._extend_cholesky(X, t) if t and since < REFACTOR_EVERY else None
        if factor is None:
            factor, since = self._factorize(X), 0
        return GpModel(_X=X, _y=y, _factor=factor, _since_refactor=since, **self._config())

    def _factorize(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        K = self.kernel(X, X)
        K[np.diag_indices(n)] += self.lam
        try:
            return _mirrored(sp_cholesky(K, lower=True))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"kernel matrix is not positive definite: {exc}") from None

    def _extend_cholesky(self, X: np.ndarray, t: int) -> np.ndarray | None:
        """The factor of all of ``X`` from this snapshot's factor of ``X[:t]``,
        or None if the border block is not numerically positive definite."""
        b = X.shape[0] - t
        C = self.kernel(X[:t], X[t:])
        S = self.kernel(X[t:], X[t:])
        S[np.diag_indices(b)] += self.lam
        Bk = solve_triangular(self._factor, C, lower=True, check_finite=False)
        S_cond = S - Bk.T @ Bk
        try:
            Lb = sp_cholesky(S_cond, lower=True)
        except np.linalg.LinAlgError:
            # Conditional block lost positive definiteness to rounding; the
            # caller falls back to a clean factorization of the full matrix.
            return None
        factor = np.empty((t + b, t + b))
        factor[:t, :t] = self._factor
        factor[t:, :t] = Bk.T
        factor[:t, t:] = Bk
        factor[t:, t:] = _mirrored(Lb)
        return factor

    # -- queries -----------------------------------------------------------

    def posterior(self, Xq) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at the query rows."""
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        if not np.isfinite(Xq).all():
            raise ValueError("query rows must be finite")
        kdiag = self.kernel.diag(Xq)
        if self._n == 0:
            return np.zeros(Xq.shape[0]), np.sqrt(kdiag)
        k_cross = self.kernel(self._X, Xq)
        mean = k_cross.T @ self._alpha
        v = solve_triangular(self._factor, k_cross, lower=True, check_finite=False)
        var = kdiag - (v * v).sum(axis=0)
        low = var.min()
        if low < -VAR_CLAMP:
            raise FloatingPointError(f"posterior variance fell below zero: {low:.3e}")
        return mean, np.sqrt(np.maximum(var, 0.0))

    def info_gain(self) -> float:
        """Realized information gain 0.5 * log det(I + K_t / lam)."""
        if self._n == 0:
            return 0.0
        diag = np.diag(self._factor)
        return float(np.log(diag).sum() - 0.5 * self._n * math.log(self.lam))

    def beta_t(self) -> float:
        if self.beta_mode == "constant":
            return self.beta_value
        gamma = self.info_gain()
        return (
            self.noise_sigma
            / math.sqrt(self.lam)
            * math.sqrt(2.0 * math.log(1.0 / self.delta) + 2.0 * gamma)
            + self.rkhs_bound
        )

    def lcb(self, Xq, beta: float | None = None) -> np.ndarray:
        if beta is None:
            beta = self.beta_t()
        if beta < 0:
            raise ValueError("beta must be non-negative")
        mean, std = self.posterior(Xq)
        return mean - beta * std
