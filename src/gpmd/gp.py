"""Exact Gaussian-process regression over action-context feature vectors.

The model keeps a lower Cholesky factor L of (K_t + lam*I) and z = L^-1 y.
With V = L^-1 K(X, Xq), the posterior at query rows Xq has mean V^T z and
variance k(x, x) - colsum(V^2), so no update solves for weights.

One model serves one learner: ``update`` extends it in place and returns
it. Rows only ever append. X, y, z and L live in storage sized, at each
refactor, to hold every row until the next one, and a new row's factor
row is [v^T, l] with v = L^-1 k(X, x) and l = sqrt(var(x) + lam). A
per-step update reads v from the column of the step's own query whose row
is x, so it solves nothing; any other update solves its border like a
query. The factor is rebuilt from scratch every ``REFACTOR_EVERY`` points
to keep rounding drift in check, and a refactor starts new storage.

Query cache: the model keeps V per distinct query block, keyed by the
block's content, and extends a block only by the rows added since it was
last read: V[s:t] = L[s:t,s:t]^-1 (K(X[s:t], Xq) - L[s:t,:s] V[:s]). A miss
is the same extension from s = 0. The solve runs in row chunks, so only a
chunk-sized diagonal block of L is ever copied. Blocks are admitted while
their total column count stays within the storage's row capacity, so the
cache never holds more floats than the factor; they are never evicted and
go with their storage at a refactor.
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
SOLVE_ROWS = 128  # rows per chunk of a triangular solve against the growing factor


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
        k = cdist(self._prep(A), self._prep(B), "sqeuclidean")
        k *= -0.5
        np.exp(k, out=k)
        k *= self.outputscale
        return k

    def diag(self, A) -> np.ndarray:
        A = np.atleast_2d(np.asarray(A, dtype=float))
        return np.full(A.shape[0], float(self.outputscale))


class GpModel:
    """GP posterior state with its confidence width.

    ``lam`` is the regularization added to the kernel matrix (by default the
    observation noise variance; the theory-faithful alternative sets it to
    the episode length). ``beta_mode`` selects between the analytic
    confidence width ("theory") and a fixed exploration constant
    ("constant").

    Only rows ``[:n]`` of the storage buffers are valid, and only the lower
    triangle of ``_L``. Their row capacity is fixed at each refactor.
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
    ):
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        if beta_mode not in ("constant", "theory"):
            raise ValueError(f"unknown beta_mode {beta_mode!r}")
        if not (0.0 < delta < 1.0) and beta_mode == "theory":
            raise ValueError("delta must lie in (0, 1)")
        if beta_value < 0:
            raise ValueError(f"beta_value must be non-negative, got {beta_value}")
        self.kernel = kernel
        self.lam = float(lam)
        self.noise_sigma = float(noise_sigma) if noise_sigma is not None else math.sqrt(lam)
        self.rkhs_bound = float(rkhs_bound)
        self.delta = float(delta)
        self.beta_mode = beta_mode
        self.beta_value = float(beta_value)
        self.n = 0
        self._since_refactor = 0
        self._X = self._y = self._z = self._L = None
        self._blocks: dict = {}  # query content -> V, one row per solved training row
        self._cached_cols = 0
        self._last = None  # (Xq, V) of the latest query, cached or not

    # -- updates ---------------------------------------------------------

    def update(self, X_new, y_new) -> "GpModel":
        """Learn the new rows in place and return the model."""
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        y_new = np.atleast_1d(np.asarray(y_new, dtype=float))
        if y_new.size == 0:
            return self
        if X_new.shape[0] != y_new.shape[0]:
            raise ValueError("one observation per input row is required")
        if not np.all(np.isfinite(y_new)) or not np.all(np.isfinite(X_new)):
            raise ValueError("observations must be finite")

        self._since_refactor += y_new.shape[0]
        if not (self.n and self._since_refactor < REFACTOR_EVERY and self._append(X_new, y_new)):
            # Refactor on schedule, or when the new block lost positive
            # definiteness to rounding.
            self._refactor(X_new, y_new)
        return self

    def _append(self, X_new, y_new) -> bool:
        """Append rows; False, leaving the storage as it was, if the new
        diagonal block is not numerically positive definite."""
        t, b = self.n, y_new.shape[0]
        v = self._border(X_new[0]) if b == 1 else None
        B = self._extend(X_new, None) if v is None else v[:, None]
        S = self.kernel(X_new, X_new) - B.T @ B  # conditional covariance of the new rows
        S[np.diag_indices(b)] += self.lam
        if b == 1:
            if not S[0, 0] > 0.0:
                return False
            Lb = np.sqrt(S)
        else:
            try:
                Lb = sp_cholesky(S, lower=True, overwrite_a=True, check_finite=False)
            except np.linalg.LinAlgError:
                return False
        r = y_new - B.T @ self._z[:t]
        end = t + b
        self._X[t:end], self._y[t:end] = X_new, y_new
        self._L[t:end, :t], self._L[t:end, t:end] = B.T, Lb
        self._z[t:end] = r / Lb[0, 0] if b == 1 else solve_triangular(
            Lb, r, lower=True, check_finite=False
        )
        self.n = end
        return True

    def _refactor(self, X_new, y_new) -> None:
        """Factor the model's rows plus the new ones from scratch, into new storage."""
        t = self.n
        X = np.concatenate([self._X[:t], X_new]) if t else X_new
        y = np.concatenate([self._y[:t], y_new]) if t else y_new
        K = self.kernel(X, X)
        K[np.diag_indices(X.shape[0])] += self.lam
        try:
            # K is symmetric, so K.T is the same matrix in the column order
            # LAPACK factors in place.
            L = sp_cholesky(K.T, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"kernel matrix is not positive definite: {exc}") from None
        z = solve_triangular(L, y, lower=True, check_finite=False)
        end = X.shape[0]
        capacity = end + REFACTOR_EVERY
        self._X = np.empty((capacity, X.shape[1]))
        self._y = np.empty(capacity)
        self._z = np.empty(capacity)
        self._L = np.empty((capacity, capacity))
        self._X[:end], self._y[:end], self._z[:end], self._L[:end, :end] = X, y, z, L
        self.n, self._since_refactor = end, 0
        self._blocks, self._cached_cols, self._last = {}, 0, None

    def _extend(self, Xq, V) -> np.ndarray:
        """L^-1 K(X, Xq), given its first s rows ``V`` (None: s = 0).

        Solves V[s:t] = L[s:t,s:t]^-1 (K(X[s:t], Xq) - L[s:t,:s] V[:s]) in row
        chunks, so only a chunk of L is ever copied.
        """
        s, t = 0 if V is None else V.shape[0], self.n
        R = self.kernel(self._X[s:t], Xq)
        if s:
            R -= self._L[s:t, :s] @ V
        for a in range(0, t - s, SOLVE_ROWS):
            b = min(a + SOLVE_ROWS, t - s)
            lo, hi = s + a, s + b
            if a:
                R[a:b] -= self._L[lo:hi, s:lo] @ R[:a]
            R[a:b] = solve_triangular(self._L[lo:hi, lo:hi], R[a:b], lower=True, check_finite=False)
        return np.concatenate([V, R]) if s else R

    def _solve(self, Xq) -> np.ndarray:
        """L^-1 K(X, Xq), extending the cached block of ``Xq`` if there is one."""
        key = (Xq.shape, Xq.tobytes())
        V = self._blocks.get(key)
        if V is None:
            V = self._extend(Xq, None)
            if self._cached_cols + Xq.shape[0] <= self._L.shape[0]:
                self._blocks[key] = V
                self._cached_cols += Xq.shape[0]
        elif V.shape[0] < self.n:
            V = self._blocks[key] = self._extend(Xq, V)
        self._last = (Xq.copy(), V)  # the caller may reuse its query array
        return V

    def _border(self, x) -> np.ndarray | None:
        """L^-1 k(X, x) from the latest query if one of its rows is ``x`` and
        it covers every row; None otherwise."""
        if self._last is None:
            return None
        Xq, V = self._last
        if V.shape[0] != self.n:
            return None
        hit = np.flatnonzero((Xq == x).all(axis=1))
        return V[:, hit[0]] if hit.size else None

    # -- queries -----------------------------------------------------------

    def posterior(self, Xq) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at the query rows."""
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        if not np.isfinite(Xq).all():
            raise ValueError("query rows must be finite")
        kdiag = self.kernel.diag(Xq)
        if self.n == 0:
            return np.zeros(Xq.shape[0]), np.sqrt(kdiag)
        V = self._solve(Xq)
        mean = V.T @ self._z[: self.n]
        var = kdiag - np.einsum("ij,ij->j", V, V)
        low = var.min()
        if low < -VAR_CLAMP:
            raise FloatingPointError(f"posterior variance fell below zero: {low:.3e}")
        return mean, np.sqrt(np.maximum(var, 0.0))

    def info_gain(self) -> float:
        """Realized information gain 0.5 * log det(I + K_t / lam)."""
        if self.n == 0:
            return 0.0
        diag = self._L.diagonal()[: self.n]
        return float(np.log(diag).sum() - 0.5 * self.n * math.log(self.lam))

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
