"""Exact Gaussian-process regression over action-context feature vectors.

The model stores one row per distinct input. With one noise variance lam,
c observations of input x with mean ybar give the same posterior as the
single row (x, ybar) with noise lam / c (the replicate trick of Binois,
Gramacy & Ludkovski, JCGS 2018). So for the u distinct inputs U with
counts c, the model keeps the lower Cholesky factor L of
K_U + lam*diag(1/c) and z = L^-1 ybar. With V = L^-1 K(U, Xq), the
posterior at query rows Xq has mean V^T z and variance k(x, x) - colsum(V^2).

A query block of at least u rows reads V as one triangular multiply
V = W K(U, Xq) against the kept inverse W = L^-1, whose rows [:w] are valid.
An update lowers w to its earliest touched row, and the next such query
brings W up to date from row w: W[w:, w:] = L[w:, w:]^-1 and
W[w:, :w] = -W[w:, w:] L[w:, :w] W[:w, :w]. With one BLAS thread the
multiply takes about a third of the solve's time (u = 140, 400 rows), but
the refresh costs about 20 us a step, so on the wind learner's 25-row
blocks at u near 50 it costs more than the multiply saves (a wind sweep
took about 8% longer with the multiply on every block). Smaller blocks keep the
triangular solve against L, and W is allocated on the first multiply.

An update refactors L and z only from its earliest touched row i0: a
repeated input changes only its own row's noise, so the rows of L above
i0 stay, and so does L[i0:, :i0], which depends only on those rows and on
off-diagonal kernel entries. A new input's part of L[:, :i0] is one solve against L[:i0, :i0].
The trailing block L[i0:, i0:] is the Cholesky factor of the conditional
covariance K(U[i0:], U[i0:]) - L[i0:, :i0] L[i0:, :i0]^T + lam*diag(1/c[i0:]).
The factor is rebuilt from row 0 only on the first update, or when that
block is not numerically positive definite. Storage grows by doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf, dtrtri, dtrtrs
from scipy.spatial.distance import cdist

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

    ``n`` counts observations. Storage row i holds the i-th distinct input
    ``_X[i]``, its observation count ``_c[i]`` and sum ``_s[i]``; only rows
    ``[:_u]`` are valid, and only the lower triangle of ``_L``. ``_W`` holds
    L^-1 in rows ``[:_w]``, with zeros above the diagonal. Inputs match by
    exact content.
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
        self.n = self._u = self._w = 0
        self._rows: dict[bytes, int] = {}  # input content -> storage row
        self._X = self._L = self._z = self._W = None
        self._c = self._s = np.zeros(0)

    # -- updates ---------------------------------------------------------

    def update(self, X_new, y_new) -> "GpModel":
        """Learn the new rows in place and return the model.

        A ValueError for a kernel matrix that is not numerically positive
        definite leaves the model unusable."""
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        y_new = np.atleast_1d(np.asarray(y_new, dtype=float))
        if y_new.size == 0:
            return self
        if X_new.shape[0] != y_new.shape[0]:
            raise ValueError("one observation per input row is required")
        if not np.all(np.isfinite(y_new)) or not np.all(np.isfinite(X_new)):
            raise ValueError("observations must be finite")

        u0 = self._u
        rows = [self._rows.setdefault(x.tobytes(), len(self._rows)) for x in X_new]
        self._reserve(len(self._rows), X_new.shape[1])
        self._X[rows] = X_new  # a repeat rewrites its own content
        np.add.at(self._c, rows, 1.0)
        np.add.at(self._s, rows, y_new)
        self.n += y_new.shape[0]
        self._u = len(self._rows)
        i0 = min(rows)
        if not self._factor(i0, u0):
            # The trailing block lost positive definiteness to rounding.
            if not (i0 and self._factor(0, u0)):
                raise ValueError("kernel matrix is not positive definite")
        return self

    def _reserve(self, u: int, d: int) -> None:
        """Grow the storage by doubling until it holds u rows."""
        cap = self._c.shape[0]
        if u <= cap:
            return
        cap, k = max(u, 2 * cap), self._u
        X, L, z = np.empty((cap, d)), np.empty((cap, cap)), np.empty(cap)
        c, s = np.zeros(cap), np.zeros(cap)
        if k:
            X[:k], L[:k, :k], z[:k] = self._X[:k], self._L[:k, :k], self._z[:k]
            c[:k], s[:k] = self._c[:k], self._s[:k]
        self._X, self._L, self._z, self._c, self._s = X, L, z, c, s
        if self._W is not None:
            W, w = np.zeros((cap, cap)), self._w
            W[:w, :w] = self._W[:w, :w]
            self._W = W

    def _factor(self, i0: int, u0: int) -> bool:
        """Refactor rows [i0:u] of L and z, given rows [:i0] and, for the
        rows stored before the update, L[:u0, :i0]. False, leaving L[:i0]
        and z[:i0] as they were, if the trailing block is not numerically
        positive definite."""
        u, U, L = self._u, self._X[: self._u], self._L
        self._w = min(self._w, i0)
        if i0 and u > u0:  # the new rows' border against the kept rows
            L[u0:u, :i0] = _solve_lower(L[:i0, :i0], self.kernel(U[:i0], U[u0:])).T
        M = L[i0:u, :i0]
        S = self.kernel(U[i0:], U[i0:]) - M @ M.T
        S[np.diag_indices(u - i0)] += self.lam / self._c[i0:u]
        # S is symmetric, so S.T is the same matrix in the column order
        # LAPACK factors in place.
        Lb, info = dpotrf(S.T, lower=1, clean=1, overwrite_a=1)
        if info:
            return False
        L[i0:u, i0:u] = Lb
        self._z[i0:u] = _solve_lower(Lb, self._s[i0:u] / self._c[i0:u] - M @ self._z[:i0])
        return True

    # -- queries -----------------------------------------------------------

    def posterior(self, Xq) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at the query rows."""
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        if not np.isfinite(Xq).all():
            raise ValueError("query rows must be finite")
        kdiag = self.kernel.diag(Xq)
        if self.n == 0:
            return np.zeros(Xq.shape[0]), np.sqrt(kdiag)
        u = self._u
        # The multiply pays for W's refresh only on a block of at least u rows
        # (the module docstring gives the measurement).
        if Xq.shape[0] >= u:
            self._refresh_inverse()
            # W is stored by rows, so W.T and K(Xq, U).T are W and K(U, Xq)
            # in the column order BLAS reads.
            K = self.kernel(Xq, self._X[:u])
            V = dtrmm(1.0, self._W[:u, :u].T, K.T, trans_a=1, overwrite_b=1)
        else:
            V = _solve_lower(self._L[:u, :u], self.kernel(self._X[:u], Xq))
        mean = V.T @ self._z[:u]
        var = kdiag - np.einsum("ij,ij->j", V, V)
        low = var.min()
        if low < -VAR_CLAMP:
            raise FloatingPointError(f"posterior variance fell below zero: {low:.3e}")
        return mean, np.sqrt(np.maximum(var, 0.0))

    def _refresh_inverse(self) -> None:
        """Bring rows [w:u] of W = L^-1 up to date from the valid rows [:w]."""
        w, u, L = self._w, self._u, self._L
        if self._W is None:
            self._W = np.zeros(L.shape)
        if w == u:
            return
        Wb, info = dtrtri(L[w:u, w:u], lower=1)
        if info:
            raise np.linalg.LinAlgError(f"triangular inverse failed: info {info}")
        Wb = np.tril(Wb)  # dtrtri leaves L's unread upper triangle in place
        W = self._W
        W[w:u, w:u] = Wb
        W[w:u, :w] = -Wb @ (L[w:u, :w] @ W[:w, :w])
        self._w = u

    def info_gain(self) -> float:
        """Realized information gain 0.5 * log det(I + K_t / lam) over all t
        observations, which equals 0.5 * [log det(K_U + lam*diag(1/c))
        + sum(log c) - u * log(lam)]."""
        if self.n == 0:
            return 0.0
        u = self._u
        return float(
            np.log(self._L.diagonal()[:u]).sum()
            + 0.5 * np.log(self._c[:u]).sum()
            - 0.5 * u * math.log(self.lam)
        )

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


def _solve_lower(L, B) -> np.ndarray:
    """L^-1 B for a lower-triangular L with a nonzero diagonal."""
    # L is stored by rows, which is the column order of the upper factor L^T:
    # LAPACK solves with that factor transposed.
    X, info = dtrtrs(L.T, B, lower=0, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"triangular solve failed: info {info}")
    return X
