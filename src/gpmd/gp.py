"""Exact Gaussian-process regression on a finite (action, context) domain.

The kernel is the product K((a, c), (a', c')) = ka[a, a'] * kc[c, c'] of an
n x n action table ka (with the output scale) and a C x C context table kc,
the product kernel of contextual GP bandits (Krause & Ong, NeurIPS 2011).
The model learns from (action id, context id) pairs, and a query block is
every action at one context.

The model stores one row per distinct input. With one noise variance lam,
c observations of input x with mean ybar give the same posterior as the
single row (x, ybar) with noise lam / c (the replicate trick of Binois,
Gramacy & Ludkovski, JCGS 2018). So for the u distinct inputs U with
counts c, the model keeps the lower Cholesky factor L of
K_U + lam*diag(1/c) and z = L^-1 ybar. With V = L^-1 K(U, Q) for the query
block Q, the posterior has mean V^T z and variance k(x, x) - colsum(V^2).
Each stored input also keeps its ka row and its kc row, u x (n + C)
doubles, so K(U, every action at c) is one scaling KA * KC[:, c], and the
update's kernel blocks are gathers from the same rows.

A block of at least u rows (n >= u) reads V as one triangular multiply
V = W K(U, Q) against the kept inverse W = L^-1, whose rows [:w] are valid.
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

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf, dtrtri, dtrtrs

from .metric import sq_dists

VAR_CLAMP = 1e-12


def rbf_table(points, lengthscale: float, outputscale: float = 1.0) -> np.ndarray:
    """outputscale * exp(-|x - x'|^2 / (2 lengthscale^2)) between every pair of
    ``points`` (one per row, or scalars): the squared-exponential kernel of both
    the synthetic objective's draw and the GP's tables."""
    k = sq_dists(np.asarray(points, dtype=float).reshape(len(points), -1))
    k /= -2.0 * lengthscale**2
    return np.multiply(np.exp(k, out=k), outputscale, out=k)


def _ids(name: str, ids, size: int) -> np.ndarray:
    """``ids`` as a 1-d integer array; a ValueError names the first id that
    is not an integer in [0, size)."""
    ids = np.asarray(ids).ravel()
    for value in ids.tolist():  # a per-step update's one id is cheaper read in Python
        if ids.dtype.kind not in "iu" or not 0 <= value < size:
            raise _id_error(name, value, size)
    return ids


def _id_error(name: str, value, size: int) -> ValueError:
    value = np.asarray(value).tolist()  # a numpy scalar as the Python value it holds
    return ValueError(f"{name} id {value!r} is not an integer in [0, {size})")


class GpModel:
    """GP posterior state with its confidence width.

    ``ka`` (n x n, with the output scale) and ``kc`` (C x C) are the kernel
    tables over the action and context ids, which the model never writes.
    ``lam`` is the regularization added to the kernel matrix: synthetic runs
    pass the observation noise variance (at least 1e-8), wind runs the
    windspeed GP's ``lam``. ``beta_mode`` selects between the analytic
    confidence width ("theory") and a fixed exploration constant ("constant").

    ``n`` counts observations. Storage row i holds the i-th distinct input,
    action ``_A[i]`` at context ``_C[i]``, its table rows ``_KA[i]`` and
    ``_KC[i]``, its observation count ``_c[i]`` and sum ``_s[i]``; only rows
    ``[:_u]`` are valid, and only the lower triangle of ``_L``. ``_W`` holds
    L^-1 in rows ``[:_w]``, with zeros above the diagonal.

    ``posterior`` keeps each context id's read-only arrays until the next
    ``update``, which drops them before anything in it can raise.
    """

    def __init__(
        self,
        ka,
        kc,
        lam: float,
        noise_sigma: float | None = None,
        rkhs_bound: float = 1.0,
        delta: float = 0.1,
        beta_mode: str = "constant",
        beta_value: float = 2.0,
    ):
        ka, kc = np.asarray(ka, dtype=float), np.asarray(kc, dtype=float)
        if not all(t.ndim == 2 and t.shape[0] == t.shape[1] > 0 for t in (ka, kc)):
            raise ValueError(f"ka and kc must be square tables, got {ka.shape} and {kc.shape}")
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        if beta_mode not in ("constant", "theory"):
            raise ValueError(f"unknown beta_mode {beta_mode!r}")
        if not (0.0 < delta < 1.0) and beta_mode == "theory":
            raise ValueError("delta must lie in (0, 1)")
        if beta_value < 0:
            raise ValueError(f"beta_value must be non-negative, got {beta_value}")
        self.ka, self.kc = ka, kc
        self.n_actions, self.n_contexts = ka.shape[0], kc.shape[0]
        self.lam = float(lam)
        self.noise_sigma = float(noise_sigma) if noise_sigma is not None else math.sqrt(lam)
        self.rkhs_bound = float(rkhs_bound)
        self.delta = float(delta)
        self.beta_mode = beta_mode
        self.beta_value = float(beta_value)
        self.n = self._u = self._w = 0
        self._rows: dict[int, int] = {}  # action * C + context -> storage row
        self._A = self._C = np.zeros(0, dtype=np.intp)
        self._KA, self._KC = np.zeros((0, self.n_actions)), np.zeros((0, self.n_contexts))
        self._L, self._W = np.zeros((0, 0)), None
        self._z = self._c = self._s = np.zeros(0)
        self._posteriors: dict[int, tuple] = {}  # context id -> (mean, std) at this state

    # -- updates ---------------------------------------------------------

    def update(self, actions, contexts, y_new) -> "GpModel":
        """Learn y_new[i] at (actions[i], contexts[i]) in place and return the model.

        A ValueError for a kernel matrix that is not numerically positive
        definite leaves the model unusable."""
        self._posteriors.clear()
        y_new = np.atleast_1d(np.asarray(y_new, dtype=float))
        if y_new.size == 0:
            return self
        a = _ids("action", actions, self.n_actions)
        c = _ids("context", contexts, self.n_contexts)
        if not a.size == c.size == y_new.size:
            raise ValueError("one action and one context id per observation are required")
        if not np.all(np.isfinite(y_new)):
            raise ValueError("observations must be finite")

        u0, rows = self._u, self._rows
        at = np.array([rows.setdefault(k, len(rows)) for k in (a * self.n_contexts + c).tolist()])
        u = len(rows)
        self._reserve(u)
        self._A[at], self._C[at] = a, c  # a repeat rewrites its own ids
        self._KA[u0:u], self._KC[u0:u] = self.ka[self._A[u0:u]], self.kc[self._C[u0:u]]
        np.add.at(self._c, at, 1.0)
        np.add.at(self._s, at, y_new)
        self.n += y_new.size
        self._u = u
        i0 = int(at.min())
        if not self._factor(i0, u0):
            # The trailing block lost positive definiteness to rounding.
            if not (i0 and self._factor(0, u0)):
                raise ValueError("kernel matrix is not positive definite")
        return self

    def _reserve(self, u: int) -> None:
        """Grow the storage by doubling until it holds u rows."""
        cap, k = self._c.shape[0], self._u
        if u <= cap:
            return
        cap = max(u, 2 * cap)
        for name in ("_A", "_C", "_KA", "_KC", "_z", "_c", "_s"):
            old = getattr(self, name)
            setattr(self, name, np.zeros((cap, *old.shape[1:]), old.dtype))
            getattr(self, name)[:k] = old[:k]
        for name, rows in (("_L", k), ("_W", self._w)):
            old = getattr(self, name)
            if old is not None:
                setattr(self, name, np.zeros((cap, cap)))
                getattr(self, name)[:rows, :rows] = old[:rows, :rows]

    def _kernel(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """K between stored inputs [r0:r1] and [c0:c1], from the kept rows of [r0:r1]."""
        return self._KA[r0:r1][:, self._A[c0:c1]] * self._KC[r0:r1][:, self._C[c0:c1]]

    def _factor(self, i0: int, u0: int) -> bool:
        """Refactor rows [i0:u] of L and z, given rows [:i0] and, for the
        rows stored before the update, L[:u0, :i0]. False, leaving L[:i0]
        and z[:i0] as they were, if the trailing block is not numerically
        positive definite."""
        u, L = self._u, self._L
        self._w = min(self._w, i0)
        if i0 and u > u0:  # the new rows' border against the kept rows
            L[u0:u, :i0] = _solve_lower(L[:i0, :i0], self._kernel(u0, u, 0, i0).T).T
        M = L[i0:u, :i0]
        S = self._kernel(i0, u, i0, u) - M @ M.T
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

    def posterior(self, c) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation of every action at context id ``c``."""
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or not 0 <= c < self.n_contexts:
            raise _id_error("context", c, self.n_contexts)
        served = self._posteriors.get(c)
        if served is None:
            served = self._posteriors[int(c)] = self._compute_posterior(c)
            for array in served:
                array.flags.writeable = False
        return served

    def _compute_posterior(self, c) -> tuple[np.ndarray, np.ndarray]:
        kdiag = self.ka.diagonal() * self.kc[c, c]
        if self.n == 0:
            return np.zeros(self.n_actions), np.sqrt(kdiag)
        u = self._u
        K = self._KA[:u] * self._KC[:u, c, None]  # K(U, every action at c)
        # Only a block of n >= u rows pays for W's refresh (see the module docstring).
        if self.n_actions >= u:
            self._refresh_inverse()
            # W and K are stored by rows, so BLAS reads W^T and K^T, and
            # K^T W^T = (W K)^T comes back as V by rows.
            V = dtrmm(1.0, self._W[:u, :u].T, K.T, side=1, overwrite_b=1).T
        else:
            V = _solve_lower(self._L[:u, :u], K)
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
