"""Exact Gaussian-process regression over action-context feature vectors.

The model keeps a lower Cholesky factor L of (K_t + lam*I) and z = L^-1 y.
With V = L^-1 K(X, Xq), the posterior at query rows Xq has mean V^T z and
variance k(x, x) - colsum(V^2), so no snapshot solves for weights.

Rows only ever append. X, y, z and L live in storage sized, when it is
created, to hold every row until the next refactor, and a new row's factor
row is [v^T, l] with v = L^-1 k(X, x) and l = sqrt(var(x) + lam). A
per-step update reads v from the column of the step's own query whose row
is x, so it solves nothing; any other update solves its border like a
query. The factor is rebuilt from scratch every ``REFACTOR_EVERY`` points
to keep rounding drift in check, and a refactor starts new storage.

Query cache: each storage keeps V per distinct query block, keyed by the
block's content, and extends a block only by the rows added since it was
last read: V[s:t] = L[s:t,s:t]^-1 (K(X[s:t], Xq) - L[s:t,:s] V[:s]). A miss
is the same extension from s = 0. The solve runs in row chunks, so only a
chunk-sized diagonal block of L is ever copied. Blocks are admitted while
their total column count stays within the storage's row capacity, so the
cache never holds more floats than the factor; they are never evicted and
go with their storage at a refactor.

Snapshots are immutable: ``update`` returns a new model. An update on the
newest snapshot of a storage appends in place; older snapshots keep reading
their own leading rows, which never change. An update on an older snapshot
copies its rows into new storage with its own cache, so any snapshot can be
extended without affecting the others. Each snapshot counts the points
added since its last refactor, so a branch follows its own refactor
schedule; the harness only ever extends the newest snapshot.
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


class _Rows:
    """Append-only storage of one factorization: the training rows, z, the
    factor, and the query blocks solved against them.

    Only rows ``[:n]`` of each buffer are valid, and only the lower triangle
    of ``L``. The row capacity is fixed when the storage is created.
    """

    __slots__ = ("X", "y", "z", "L", "n", "blocks", "cached_cols", "last")

    def __init__(self, capacity: int, X, y, z, L):
        t = y.shape[0]
        self.X = np.empty((capacity, X.shape[1]))
        self.y = np.empty(capacity)
        self.z = np.empty(capacity)
        self.L = np.empty((capacity, capacity))
        self.X[:t], self.y[:t], self.z[:t], self.L[:t, :t] = X, y, z, L
        self.n = t
        self.blocks: dict = {}  # query content -> V, one row per solved training row
        self.cached_cols = 0
        self.last = None  # (Xq, V) of the latest query, cached or not

    def extend(self, kernel, Xq, V, t: int) -> np.ndarray:
        """L^-1 K(X[:t], Xq), given its first s rows ``V`` (None: s = 0).

        Solves V[s:t] = L[s:t,s:t]^-1 (K(X[s:t], Xq) - L[s:t,:s] V[:s]) in row
        chunks, so only a chunk of L is ever copied.
        """
        s = 0 if V is None else V.shape[0]
        R = kernel(self.X[s:t], Xq)
        if s:
            R -= self.L[s:t, :s] @ V
        for a in range(0, t - s, SOLVE_ROWS):
            b = min(a + SOLVE_ROWS, t - s)
            lo, hi = s + a, s + b
            if a:
                R[a:b] -= self.L[lo:hi, s:lo] @ R[:a]
            R[a:b] = solve_triangular(self.L[lo:hi, lo:hi], R[a:b], lower=True, check_finite=False)
        return np.concatenate([V, R]) if s else R

    def query(self, kernel, Xq, t: int) -> np.ndarray:
        """L^-1 K(X[:t], Xq), extending the cached block of ``Xq`` if there is one."""
        self.last = None
        key = (Xq.shape, Xq.tobytes())
        V = self.blocks.get(key)
        if V is None:
            V = self.extend(kernel, Xq, None, t)
            if self.cached_cols + Xq.shape[0] <= self.L.shape[0]:
                self.blocks[key] = V
                self.cached_cols += Xq.shape[0]
        elif V.shape[0] < t:
            V = self.blocks[key] = self.extend(kernel, Xq, V, t)
        if t == self.n:
            self.last = (Xq.copy(), V)  # the caller may reuse its query array
        return V[:t]

    def border(self, x) -> np.ndarray | None:
        """L^-1 k(X, x) from the latest query if one of its rows is ``x`` and
        it covers every row; None otherwise."""
        if self.last is None:
            return None
        Xq, V = self.last
        if V.shape[0] != self.n:
            return None
        hit = np.flatnonzero((Xq == x).all(axis=1))
        return V[:, hit[0]] if hit.size else None

    def append(self, kernel, lam: float, X_new, y_new) -> bool:
        """Append rows; False, leaving the storage as it was, if the new
        diagonal block is not numerically positive definite."""
        t, b = self.n, y_new.shape[0]
        v = self.border(X_new[0]) if b == 1 else None
        B = self.extend(kernel, X_new, None, t) if v is None else v[:, None]
        S = kernel(X_new, X_new) - B.T @ B  # conditional covariance of the new rows
        S[np.diag_indices(b)] += lam
        if b == 1:
            if not S[0, 0] > 0.0:
                return False
            Lb = np.sqrt(S)
        else:
            try:
                Lb = sp_cholesky(S, lower=True, overwrite_a=True, check_finite=False)
            except np.linalg.LinAlgError:
                return False
        r = y_new - B.T @ self.z[:t]
        end = t + b
        self.X[t:end], self.y[t:end] = X_new, y_new
        self.L[t:end, :t], self.L[t:end, t:end] = B.T, Lb
        self.z[t:end] = r / Lb[0, 0] if b == 1 else solve_triangular(
            Lb, r, lower=True, check_finite=False
        )
        self.n = end
        return True


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
        _rows: _Rows | None = None,
        _n: int = 0,
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
        self._rows = _rows
        self._n = _n
        self._since_refactor = _since_refactor

    @property
    def n(self) -> int:
        return self._n

    def _snapshot(self, rows: _Rows, n: int, since: int) -> "GpModel":
        return GpModel(
            kernel=self.kernel,
            lam=self.lam,
            noise_sigma=self.noise_sigma,
            rkhs_bound=self.rkhs_bound,
            delta=self.delta,
            beta_mode=self.beta_mode,
            beta_value=self.beta_value,
            _rows=rows,
            _n=n,
            _since_refactor=since,
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
        since = self._since_refactor + b
        if t and since < REFACTOR_EVERY:
            rows = self._rows
            if rows.n != t:  # an older snapshot: its rows move to storage of its own
                capacity = t + REFACTOR_EVERY - self._since_refactor
                rows = _Rows(capacity, rows.X[:t], rows.y[:t], rows.z[:t], rows.L[:t, :t])
            if rows.append(self.kernel, self.lam, X_new, y_new):
                return self._snapshot(rows, t + b, since)
            # The new block lost positive definiteness to rounding: refactor.
        return self._snapshot(self._refactor(X_new, y_new), t + b, 0)

    def _refactor(self, X_new, y_new) -> _Rows:
        """New storage for this snapshot's rows plus the new ones, factored from scratch."""
        t = self._n
        X = np.concatenate([self._rows.X[:t], X_new]) if t else X_new
        y = np.concatenate([self._rows.y[:t], y_new]) if t else y_new
        K = self.kernel(X, X)
        K[np.diag_indices(X.shape[0])] += self.lam
        try:
            # K is symmetric, so K.T is the same matrix in the column order
            # LAPACK factors in place.
            L = sp_cholesky(K.T, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"kernel matrix is not positive definite: {exc}") from None
        z = solve_triangular(L, y, lower=True, check_finite=False)
        return _Rows(X.shape[0] + REFACTOR_EVERY, X, y, z, L)

    # -- queries -----------------------------------------------------------

    def posterior(self, Xq) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at the query rows."""
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        if not np.isfinite(Xq).all():
            raise ValueError("query rows must be finite")
        kdiag = self.kernel.diag(Xq)
        t = self._n
        if t == 0:
            return np.zeros(Xq.shape[0]), np.sqrt(kdiag)
        V = self._rows.query(self.kernel, Xq, t)
        mean = V.T @ self._rows.z[:t]
        var = kdiag - np.einsum("ij,ij->j", V, V)
        low = var.min()
        if low < -VAR_CLAMP:
            raise FloatingPointError(f"posterior variance fell below zero: {low:.3e}")
        return mean, np.sqrt(np.maximum(var, 0.0))

    def info_gain(self) -> float:
        """Realized information gain 0.5 * log det(I + K_t / lam)."""
        if self._n == 0:
            return 0.0
        diag = self._rows.L.diagonal()[: self._n]
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
