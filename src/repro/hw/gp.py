"""Gaussian-process regression, from scratch (paper Sec. 3.5.1).

The paper's hardware cost model is a Gaussian process with a Matérn
kernel and a constant mean function, trained once on (hardware
configuration -> latency) pairs and reused across searches.  This module
implements exact GP regression with:

* Matérn-5/2 and RBF kernels with per-dimension (ARD) lengthscales,
* a constant (learned) mean function,
* Cholesky-based posterior inference,
* type-II maximum likelihood hyperparameter fitting (L-BFGS-B on the
  negative log marginal likelihood and its exact gradient) with
  multi-restart.
"""

from __future__ import annotations

import math
import zlib
from typing import Optional, Tuple

import numpy as np
from scipy import linalg, optimize

from repro.utils.rng import SeedLike, derive_seed, new_rng

_JITTER = 1e-8
_LOG_BOUNDS = (-8.0, 8.0)


def _scaled_sq_dists(xa: np.ndarray, xb: np.ndarray,
                     lengthscales: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances after per-dimension lengthscale
    division."""
    a = xa / lengthscales
    b = xb / lengthscales
    d2 = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
          - 2.0 * a @ b.T)
    return np.maximum(d2, 0.0)


def _dimension_sq_dists(x: np.ndarray) -> np.ndarray:
    """Squared differences of the rows of ``x`` per dimension, shape
    ``(d, n, n)``: what every lengthscale scales and differentiates."""
    diffs = x.T[:, :, None] - x.T[:, None, :]
    return np.square(diffs, out=diffs)


def _matern52_profile(r2: np.ndarray, variance: float
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Matérn-5/2 kernel values at squared scaled distances ``r2``, and
    ``-2 dk/d(r2)``, the factor every lengthscale derivative shares."""
    s = math.sqrt(5.0) * np.sqrt(r2)
    decay = np.exp(-s)
    return (variance * (1.0 + s + s * s / 3.0) * decay,
            (5.0 / 3.0) * variance * (1.0 + s) * decay)


def _rbf_profile(r2: np.ndarray, variance: float
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Squared-exponential kernel values, and ``-2 dk/d(r2)``."""
    k = variance * np.exp(-0.5 * r2)
    return k, k


def matern52(xa: np.ndarray, xb: np.ndarray, variance: float,
             lengthscales: np.ndarray) -> np.ndarray:
    """Matérn-5/2 kernel matrix between row sets ``xa`` and ``xb``."""
    return _matern52_profile(_scaled_sq_dists(xa, xb, lengthscales),
                             variance)[0]


def rbf(xa: np.ndarray, xb: np.ndarray, variance: float,
        lengthscales: np.ndarray) -> np.ndarray:
    """Squared-exponential kernel matrix."""
    return _rbf_profile(_scaled_sq_dists(xa, xb, lengthscales), variance)[0]

_KERNELS = {"matern52": (matern52, _matern52_profile),
            "rbf": (rbf, _rbf_profile)}


class GaussianProcessRegressor:
    """Exact GP regression with constant mean and ARD kernel.

    Args:
        kernel: ``'matern52'`` (paper's choice) or ``'rbf'``.
        noise: initial observation-noise standard deviation.
        optimize_hyperparams: fit kernel hyperparameters by maximizing
            the marginal likelihood (recommended; disable for tests
            needing fixed kernels).
        n_restarts: extra random restarts for the optimizer.
        rng: seed or generator for restart initialization.
    """

    def __init__(self, kernel: str = "matern52", *, noise: float = 1e-2,
                 optimize_hyperparams: bool = True, n_restarts: int = 2,
                 rng: SeedLike = None) -> None:
        if kernel not in _KERNELS:
            raise KeyError(
                f"unknown kernel {kernel!r}; known: {sorted(_KERNELS)}")
        if noise <= 0:
            raise ValueError(f"noise must be positive, got {noise}")
        self.kernel_name = kernel
        self._kernel, self._profile = _KERNELS[kernel]
        self.init_noise = float(noise)
        self.optimize_hyperparams = bool(optimize_hyperparams)
        self.n_restarts = int(n_restarts)
        self.rng = new_rng(rng)
        # Restart initializations must not depend on how many fits ran
        # before (surrogate-guided searches refit on growing data and
        # resumed runs refit on identical data): one seed is drawn at
        # construction and every fit() derives its restart stream from
        # (this seed, data fingerprint), so refitting the same data
        # always reproduces the same hyperparameters.
        self._restart_seed = int(self.rng.integers(2 ** 31 - 1))

        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._x_mean: Optional[np.ndarray] = None
        self._x_scale: Optional[np.ndarray] = None
        self.mean_const: float = 0.0
        self.variance: float = 1.0
        self.lengthscales: Optional[np.ndarray] = None
        self.noise: float = float(noise)
        self._chol: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has run."""
        return self._alpha is not None

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self._x_mean) / self._x_scale

    def _pack(self, variance: float, lengthscales: np.ndarray,
              noise: float) -> np.ndarray:
        return np.log(np.concatenate(
            [[variance], np.atleast_1d(lengthscales), [noise]]))

    def _unpack(self, theta: np.ndarray) -> Tuple[float, np.ndarray, float]:
        values = np.exp(np.clip(theta, *_LOG_BOUNDS))
        return float(values[0]), values[1:-1], float(values[-1])

    def _nlml_and_grad(self, theta: np.ndarray, sq_dists: np.ndarray,
                       y_centered: np.ndarray) -> Tuple[float, np.ndarray]:
        """Negative log marginal likelihood and its gradient in ``theta``.

        ``sq_dists`` is :func:`_dimension_sq_dists` of the standardized
        inputs.  One Cholesky factor of ``K`` gives ``alpha = K^-1 y``
        and ``W = K^-1 - alpha alpha^T``; the derivative in each
        log-hyperparameter is ``tr(W dK/dtheta) / 2``.
        """
        variance, lengthscales, noise = self._unpack(theta)
        n = y_centered.shape[0]
        weights = 1.0 / (lengthscales * lengthscales)
        signal, slope = self._profile(
            np.tensordot(weights, sq_dists, axes=1), variance)
        k = signal.copy()
        k.flat[::n + 1] += noise ** 2 + _JITTER
        try:
            factor = linalg.cho_factor(k, lower=True, overwrite_a=True,
                                       check_finite=False)
        except np.linalg.LinAlgError:
            return 1e25, np.zeros_like(theta)
        alpha = linalg.cho_solve(factor, y_centered, check_finite=False)
        nlml = (0.5 * y_centered @ alpha
                + np.sum(np.log(np.diag(factor[0])))
                + 0.5 * n * math.log(2.0 * math.pi))
        w = linalg.cho_solve(factor, np.eye(n), overwrite_b=True,
                             check_finite=False)
        w -= np.outer(alpha, alpha)
        grad = np.empty_like(theta)
        # dK/dlog(variance) = signal; dK/dlog(noise) = 2 noise^2 I;
        # dK/dlog(l_d) = slope * sq_dists[d] / l_d^2.
        grad[0] = 0.5 * np.vdot(w, signal)
        grad[1:-1] = 0.5 * weights * (
            sq_dists.reshape(len(weights), -1) @ (w * slope).ravel())
        grad[-1] = noise ** 2 * np.trace(w)
        return float(nlml), grad

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        """Fit the GP to observations ``(x, y)``.

        Args:
            x: inputs, shape ``(n, d)``.
            y: targets, shape ``(n,)``.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.ndim != 2:
            raise ValueError(f"x must be (n, d), got shape {x.shape}")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x has {x.shape[0]} rows but y has {y.shape[0]} entries")
        if x.shape[0] < 2:
            raise ValueError("GP regression needs at least two points")

        self._x_mean = x.mean(axis=0)
        self._x_scale = np.where(x.std(axis=0) > 1e-12, x.std(axis=0), 1.0)
        xs = self._standardize(x)
        self.mean_const = float(y.mean())
        yc = y - self.mean_const
        d = x.shape[1]

        y_std = float(yc.std()) or 1.0
        theta0 = self._pack(y_std ** 2, np.ones(d), max(self.init_noise, 1e-3))
        candidates = [theta0]
        restart_rng = np.random.default_rng(derive_seed(
            self._restart_seed, zlib.crc32(x.tobytes()),
            zlib.crc32(y.tobytes())))
        for _ in range(self.n_restarts if self.optimize_hyperparams else 0):
            candidates.append(
                theta0 + restart_rng.normal(0.0, 1.0, theta0.shape))

        sq_dists = _dimension_sq_dists(xs)
        best_theta = theta0
        best_val = self._nlml_and_grad(theta0, sq_dists, yc)[0]
        if self.optimize_hyperparams:
            for start in candidates:
                res = optimize.minimize(
                    self._nlml_and_grad, start, args=(sq_dists, yc),
                    jac=True, method="L-BFGS-B",
                    bounds=[_LOG_BOUNDS] * len(start))
                if res.fun < best_val:
                    best_theta, best_val = res.x, float(res.fun)

        self.variance, self.lengthscales, self.noise = self._unpack(best_theta)
        k = self._kernel(xs, xs, self.variance, self.lengthscales)
        k[np.diag_indices_from(k)] += self.noise ** 2 + _JITTER
        self._chol = np.linalg.cholesky(k)
        self._alpha = linalg.cho_solve((self._chol, True), yc,
                                       check_finite=False)
        self._x = xs
        self._y = y
        return self

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray,
                return_std: bool = False):
        """Posterior mean (and optionally standard deviation) at ``x``.

        Args:
            x: query inputs, shape ``(m, d)``.
            return_std: also return the predictive standard deviation
                (including observation noise).
        """
        if not self.is_fitted:
            raise RuntimeError("predict() called before fit()")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        xs = self._standardize(x)
        ks = self._kernel(xs, self._x, self.variance, self.lengthscales)
        mean = self.mean_const + ks @ self._alpha
        if not return_std:
            return mean
        v = np.linalg.solve(self._chol, ks.T)
        var = self._kernel(xs, xs, self.variance, self.lengthscales).diagonal()
        var = np.maximum(var - np.sum(v * v, axis=0), 0.0) + self.noise ** 2
        return mean, np.sqrt(var)

    def log_marginal_likelihood(self) -> float:
        """Log marginal likelihood at the fitted hyperparameters."""
        if not self.is_fitted:
            raise RuntimeError("model is not fitted")
        yc = self._y - self.mean_const
        n = len(yc)
        return float(-(0.5 * yc @ self._alpha
                       + np.sum(np.log(np.diag(self._chol)))
                       + 0.5 * n * math.log(2.0 * math.pi)))
