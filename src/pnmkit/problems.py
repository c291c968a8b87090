"""Gradient oracles with known analytic structure.

Quadratics and Rosenbrock give closed-form gradients for the optimizer
identity and convergence checks, optionally with additive Gaussian noise;
linear regression and a one-hidden-layer tanh MLP over finite datasets
supply minibatch gradients with hand-derived backprop (no autodiff
anywhere). The tests check every analytic gradient against central finite
differences.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatchError,
    GradientOracle,
    RngStream,
    as_param_vector,
)


# ---------------------------------------------------------------------------
# Analytic problems
# ---------------------------------------------------------------------------

def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A @ x`` for each row of a ``(..., dim)`` ``x``. Matmul over a
    trailing unit axis equals row-by-row ``A @ x`` bit for bit;
    ``x @ A.T`` and ``einsum`` do not."""
    return np.matmul(A, x[..., None])[..., 0]


def gaussian_factor(cov, dim: int):
    """The scale of N(0, C) noise in ``dim`` coordinates: sigma with
    sigma^2 = C for a scalar C >= 0 (isotropic noise), else the matrix L
    with L L^T = C for a symmetric positive semidefinite ``(dim, dim)`` C."""
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim == 0:
        if cov < 0:
            raise ValueError("scalar covariance must be >= 0")
        return float(np.sqrt(cov))
    if cov.shape != (dim, dim):
        raise DimensionMismatchError("covariance shape mismatch")
    if not np.allclose(cov, cov.T, atol=1e-12, rtol=0.0):
        raise ValueError("covariance must be symmetric")
    w, V = np.linalg.eigh(cov)
    if w[0] < -1e-10:
        raise ValueError("covariance must be positive semidefinite")
    return V * np.sqrt(np.clip(w, 0.0, None))


class QuadraticModel(GradientOracle):
    """f(theta) = f0 + 0.5 (theta - theta*)^T H (theta - theta*).

    H must be symmetric positive definite. The gradient H(theta - theta*)
    vanishes exactly at theta*.
    """

    def __init__(self, theta_star, hessian, f0: float = 0.0):
        self.theta_star = as_param_vector(theta_star, name="theta_star")
        H = np.asarray(hessian, dtype=np.float64)
        n = self.theta_star.shape[0]
        if H.shape != (n, n):
            raise DimensionMismatchError(
                f"Hessian shape {H.shape} does not match dimension {n}"
            )
        if not np.allclose(H, H.T, atol=1e-12, rtol=0.0):
            raise ValueError("Hessian must be symmetric to 1e-12")
        eigvals = np.linalg.eigvalsh(H)
        if eigvals[0] <= 0.0:
            raise ValueError(f"Hessian must be positive definite (min eig {eigvals[0]:g})")
        self.H = H
        self.f0 = float(f0)
        self.dim = n
        self._eigvals = eigvals

    @property
    def lambda_max(self) -> float:
        return float(self._eigvals[-1])

    def full_gradient(self, theta):
        d = self._check_stack(theta) - self.theta_star
        Hd = _matvec(self.H, d)
        return self.f0 + 0.5 * np.vecdot(d, Hd), Hd

    def gradient(self, theta):
        return _matvec(self.H, self._check_stack(theta) - self.theta_star)


class RosenbrockProblem(GradientOracle):
    """Deterministic Rosenbrock oracle (smooth, nonconvex, 2-D)."""

    dim = 2

    def full_gradient(self, theta):
        # float_power calls libm pow on every element, as a Python float's
        # ``** 2`` does; an array's ``** 2`` squares instead, which differs
        # in the last bit on some inputs.
        theta = self._check_stack(theta)
        x, y = theta[..., 0], theta[..., 1]
        r = y - x * x
        loss = np.float_power(1.0 - x, 2.0) + 100.0 * np.float_power(r, 2.0)
        return loss, np.stack([-2.0 * (1.0 - x) - 400.0 * x * r, 200.0 * r], axis=-1)


# ---------------------------------------------------------------------------
# Noise wrapper
# ---------------------------------------------------------------------------

class AdditiveNoiseOracle(GradientOracle):
    """Deterministic base oracle plus zero-mean Gaussian gradient noise.

    ``covariance`` is either a scalar sigma^2 (isotropic) or a full PSD
    matrix, read by :func:`gaussian_factor`. Noise is drawn from the
    RngStream passed at call time; the base oracle must take the same
    theta shape.
    """

    def __init__(self, base: GradientOracle, covariance):
        self.base = base
        self.dim = base.dim
        self._factor = gaussian_factor(covariance, self.dim)

    def full_gradient(self, theta):
        return self.base.full_gradient(theta)

    def gradient(self, theta):
        return self.base.gradient(theta)

    def noise(self, z: np.ndarray) -> np.ndarray:
        """The gradient noise for standard normals ``z`` of shape ``(..., dim)``."""
        if isinstance(self._factor, float):
            return self._factor * z
        return _matvec(self._factor, z)


# ---------------------------------------------------------------------------
# Finite datasets
# ---------------------------------------------------------------------------

@dataclass
class FiniteDataset:
    """N samples with d features each; labels are real or class indices."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be an N x d matrix")
        if self.labels.shape[0] != self.features.shape[0]:
            raise DimensionMismatchError("labels length must match feature rows")
        if self.features.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "FiniteDataset":
        return FiniteDataset(self.features[idx], self.labels[idx])


def load_csv_dataset(path) -> FiniteDataset:
    """Read a classification dataset from CSV: numeric feature columns,
    then an integer class label in [0, number of data rows).

    A single header row is allowed and detected by non-numeric cells.
    Malformed rows, ``inf``/``nan`` cells and labels that are not such an
    integer raise ValueError with the 1-based line number.
    """
    rows, linenos = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                values = [float(c) for c in row]
            except ValueError:
                if lineno == 1 and not rows:
                    continue  # header
                raise ValueError(f"{path}: malformed row at line {lineno}: {row!r}")
            if rows and len(values) != len(rows[0]):
                raise ValueError(
                    f"{path}: row at line {lineno} has {len(values)} columns, "
                    f"expected {len(rows[0])}"
                )
            rows.append(values)
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: need at least one feature column plus a label")
    bad = ~np.isfinite(data).all(axis=1)  # float() parses 'inf' and 'nan'
    if bad.any():
        raise ValueError(f"{path}: non-finite value at line {linenos[bad.argmax()]}")
    features, labels = data[:, :-1], data[:, -1]
    rounded = np.rint(labels)
    bad = ~np.isclose(labels, rounded, atol=1e-9) | (rounded < 0) | (rounded >= len(rows))
    if bad.any():
        i = bad.argmax()
        raise ValueError(f"{path}: class label {labels[i]} at line {linenos[i]} must be an "
                         f"integer in [0, {len(rows)}), the number of data rows")
    return FiniteDataset(features, rounded.astype(np.int64))


def make_two_moons(n: int, noise: float, rng: RngStream) -> FiniteDataset:
    """Two interleaving half circles with Gaussian feature noise.

    Classes are balanced to within one sample; the angular positions are
    deterministic, only the added noise consumes random state.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    n_out = n // 2
    n_in = n - n_out
    t_out = np.linspace(0.0, np.pi, n_out)
    t_in = np.linspace(0.0, np.pi, n_in)
    X = np.empty((n, 2))
    X[:n_out, 0] = np.cos(t_out)
    X[:n_out, 1] = np.sin(t_out)
    X[n_out:, 0] = 1.0 - np.cos(t_in)
    X[n_out:, 1] = 0.5 - np.sin(t_in)
    X += noise * rng.standard_normal((n, 2))
    y = np.concatenate([np.zeros(n_out, dtype=np.int64), np.ones(n_in, dtype=np.int64)])
    perm = rng.permutation(n)
    return FiniteDataset(X[perm], y[perm])


def apply_label_noise(
    dataset: FiniteDataset, kind: str, rate: float, rng: RngStream
) -> tuple[FiniteDataset, np.ndarray]:
    """Flip each label with probability ``rate``, to a uniformly random other
    class ('symmetric' ``kind``) or from class i to (i+1) mod K ('asymmetric');
    return the new dataset and a mask that is True where a label changed."""
    if kind not in ("symmetric", "asymmetric"):
        raise ValueError(f"unknown label-noise kind {kind!r}")
    if not (0.0 <= rate < 1.0):
        raise ValueError("rate must lie in [0, 1)")
    labels = np.asarray(dataset.labels)
    if labels.dtype.kind not in "iu":
        raise ValueError("label noise requires integer class labels")
    labels = labels.astype(np.int64).copy()
    n_classes = int(labels.max()) + 1
    n = labels.shape[0]
    flip = rng.uniform(size=n) < rate
    if kind == "symmetric":
        # Uniform draw over the other K-1 classes via an offset in [1, K-1].
        offsets = rng.integers(1, n_classes, size=n)
        labels[flip] = (labels[flip] + offsets[flip]) % n_classes
    else:
        labels[flip] = (labels[flip] + 1) % n_classes
    return FiniteDataset(dataset.features, labels), flip


# ---------------------------------------------------------------------------
# Dataset-backed problems
# ---------------------------------------------------------------------------

class DatasetProblem(GradientOracle):
    """Common machinery for mean-loss problems over a finite dataset.

    Subclasses implement :meth:`batch_loss_gradient` on an index set; the
    full gradient is the batch over all samples. Only :meth:`minibatch_gradient`
    samples (the inherited ``stochastic_gradient`` is the full gradient): a
    float64 ``(dim,)`` array for the batch size given per call. Minibatches are
    drawn uniformly without replacement within a batch and independently
    across steps.
    """

    def __init__(self, dataset: FiniteDataset):
        self.dataset = dataset
        self.dataset_size = dataset.n_samples
        self._all_rows = np.arange(self.dataset_size)  # full_gradient's index
        self._all_rows.flags.writeable = False

    def _validate_batch(self, b: int) -> None:
        if not (1 <= b <= self.dataset_size):
            raise ValueError(
                f"batch size must lie in [1, {self.dataset_size}], got {b}"
            )

    def batch_loss_gradient(self, theta, idx) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def full_gradient(self, theta):
        return self.batch_loss_gradient(theta, self._all_rows)

    def minibatch_gradient(self, theta, batch_size: int, rng: RngStream) -> np.ndarray:
        self._validate_batch(batch_size)
        if batch_size == self.dataset_size:
            return self.full_gradient(theta)[1]
        idx = rng.choice_without_replacement(self.dataset_size, batch_size)
        return self.batch_loss_gradient(theta, idx)[1]


class LinearRegressionProblem(DatasetProblem):
    """Mean squared-error regression, per-sample loss 0.5 (x^T theta - y)^2.

    The Hessian of the mean loss is X^T X / N, independent of theta.
    """

    def __init__(self, dataset: FiniteDataset):
        super().__init__(dataset)
        self.dim = dataset.n_features
        self._H = dataset.features.T @ dataset.features / dataset.n_samples

    def batch_loss_gradient(self, theta, idx):
        theta = self._check_dim(theta)
        X = self.dataset.features[idx]
        y = np.asarray(self.dataset.labels, dtype=np.float64)[idx]
        r = X @ theta - y
        loss = 0.5 * float(r @ r) / len(r)
        grad = X.T @ r / len(r)
        return loss, grad

    def hessian(self, theta=None):
        return self._H


#: Hidden activations one predict block holds. A floor of 3 rows keeps every near-equal block
#: of a multi-row X above one row: OpenBLAS hands one-row products to gemv, which sums otherwise.
_PREDICT_BLOCK = 1 << 16


class TinyMlpProblem(DatasetProblem):
    """One-hidden-layer tanh network with softmax cross-entropy.

    Weights live in a single flat vector laid out as
    ``[W1 (d*h), b1 (h), W2 (h*k), b2 (k)]``, so ``[W1; b1]`` is one
    ``(d+1, h)`` block. The problem copies the features when it is built,
    as ``[X | 1]``, so b1 rides in the matmuls ``[X|1] @ [W1; b1]`` and
    ``[X|1]^T dZ1``. The backward pass is written out by hand so the
    gradients stay independently checkable against finite differences.

    The passes run in scratch arrays that the instance owns, grown to the
    largest minibatch or :meth:`predict` block seen and used as ``[:n]``
    views: the full gradient reads ``[X | 1]`` in place, and ``predict``
    runs in near-equal blocks of at most ``max(3, _PREDICT_BLOCK // hidden)``
    rows. A problem is therefore single-owner, like :class:`RngStream`:
    give each task its own, and never call one concurrently. Returned
    gradients and predictions are fresh arrays that later calls leave alone.
    """

    def __init__(
        self,
        dataset: FiniteDataset,
        hidden: int = 16,
    ):
        labels = np.asarray(dataset.labels)
        if labels.dtype.kind not in "iu":
            raise ValueError("MLP requires integer class labels")
        if labels.min() < 0:
            i = int(np.argmax(labels < 0))
            raise ValueError(f"class label {labels[i]} at row {i} must be >= 0")
        super().__init__(dataset)
        self.hidden = int(hidden)
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {hidden}")
        self.n_classes = int(labels.max() + 1)
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        self.in_dim = dataset.n_features
        d, h, k = self.in_dim, self.hidden, self.n_classes
        self.dim = d * h + h + h * k + k
        self._labels = labels.astype(np.int64)
        self._X1 = np.concatenate([dataset.features, np.ones((dataset.n_samples, 1))], axis=1)
        self._scratch: dict[str, np.ndarray] = {}

    def _rows(self, name: str, n: int, cols: int) -> np.ndarray:
        """The first ``n`` rows of scratch array ``name``, regrown when
        a larger ``n`` arrives."""
        buf = self._scratch.get(name)
        if buf is None or buf.shape[0] < n:
            buf = self._scratch[name] = np.empty((n, cols))
        return buf[:n]

    def _unpack(self, theta):
        d, h, k = self.in_dim, self.hidden, self.n_classes
        i = (d + 1) * h
        return theta[:i].reshape(d + 1, h), theta[i : i + h * k].reshape(h, k), theta[i + h * k :]

    def init_params(self, rng: RngStream, scale: float = 0.5) -> np.ndarray:
        """Gaussian init scaled by 1/sqrt(fan-in); biases start at zero."""
        d, h, k = self.in_dim, self.hidden, self.n_classes
        W1 = scale / np.sqrt(d) * rng.standard_normal((d, h))
        W2 = scale / np.sqrt(h) * rng.standard_normal((h, k))
        return np.concatenate([W1.ravel(), np.zeros(h), W2.ravel(), np.zeros(k)])

    def _forward(self, weights, X):
        """Hidden activations ``A1`` of the ``[X | 1]`` rows ``X``, then
        the max-shifted logits ``Z``, their softmax ``P`` and its exp sums
        ``s`` over the classes, all scratch views. ``Z`` and ``P`` are
        class-major ``(k, n)``: row j holds class j for every sample.
        ``weights`` is ``_unpack(theta)``. Reductions call ``ufunc.reduce``
        directly, as ``np.sum``/``np.max``/``mean`` do after their wrappers.

        Class-major, numpy runs each class-axis step as one inner loop
        per class over the samples, not one per sample over the short
        class axis; the number of ufunc calls does not grow with k. The
        max is exact in any order; the sum over several samples adds the
        classes left to right, which is numpy's row-reduce order for
        fewer than 8 classes (from 8 on its row reduce is pairwise, so
        the last bits of ``s`` may differ)."""
        W1, W2, b2 = weights
        n, h, k = X.shape[0], self.hidden, self.n_classes
        A1 = np.matmul(X, W1, out=self._rows("A1", n, h))
        np.tanh(A1, out=A1)
        Z2 = np.matmul(A1, W2, out=self._rows("Z2", n, k))
        Z = np.add(Z2.T, b2[:, None], out=self._rows("Z", n, k).reshape(k, n))
        s = np.maximum.reduce(Z, axis=0, out=self._rows("s", n, 1)[:, 0])
        np.subtract(Z, s, out=Z)
        P = np.exp(Z, out=self._rows("P", n, k).reshape(k, n))
        np.add.reduce(P, axis=0, out=s)
        np.divide(P, s, out=P)
        return A1, Z, P, s

    def batch_loss_gradient(self, theta, idx):
        theta = self._check_dim(theta)
        y = self._labels if idx is self._all_rows else self._labels[idx]
        n = len(y)
        X = self._X1 if idx is self._all_rows else np.take(
            self._X1, idx, axis=0, out=self._rows("X", n, self.in_dim + 1))
        weights = self._unpack(theta)
        A1, Z, P, s = self._forward(weights, X)
        # Flat indices of each sample's label entry in the (k, n) views.
        flat = y * n + np.arange(n)
        loss = -float(np.add.reduce(np.take(Z, flat) - np.log(s)) / n)

        grad = np.empty(self.dim)
        dW1, dW2, db2 = self._unpack(grad)
        P.reshape(-1)[flat] -= 1.0
        dZ2 = np.divide(P.T, n, out=self._rows("dZ2", n, self.n_classes))
        np.matmul(A1.T, dZ2, out=dW2)
        np.add.reduce(dZ2, axis=0, out=db2)
        dZ1 = np.matmul(dZ2, weights[1].T, out=self._rows("dZ1", n, self.hidden))
        # A1 is spent after dW2: it becomes tanh' = 1 - A1^2 in place.
        np.multiply(A1, A1, out=A1)
        np.subtract(1.0, A1, out=A1)
        np.multiply(dZ1, A1, out=dZ1)
        np.matmul(X.T, dZ1, out=dW1)
        return loss, grad

    def predict(self, theta, X) -> np.ndarray:
        theta, X = self._check_dim(theta), np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.in_dim:
            raise DimensionMismatchError(f"X must be (n, {self.in_dim}), got shape {X.shape}")
        weights, n = self._unpack(theta), X.shape[0]
        blocks = max(1, -(-n // max(3, _PREDICT_BLOCK // self.hidden)))
        edges = np.arange(blocks + 1) * n // blocks
        pred = np.empty(n, dtype=np.intp)
        for a, b in zip(edges, edges[1:]):
            X1 = self._rows("X", b - a, self.in_dim + 1)
            X1[:, :-1], X1[:, -1] = X[a:b], 1.0
            np.argmax(self._forward(weights, X1)[2], axis=0, out=pred[a:b])
        return pred

    def error_rate(self, theta, dataset: FiniteDataset) -> float:
        pred = self.predict(theta, dataset.features)
        return float(np.mean(pred != np.asarray(dataset.labels)))

