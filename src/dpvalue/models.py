"""Analytic-gradient models and utility functions.

Two loss kinds are supported, both with closed-form gradients:

* ``mse_linear`` -- linear regression scored by negated mean squared error,
  ``V(theta) = -(1/l) * sum_i (theta.x_i - y_i)^2``.
* ``logistic_l2`` -- binary logistic regression with an l2 penalty, scored by
  the negated regularized cross-entropy,
  ``V(theta) = (1/l) * sum_i [y_i log s_i + (1-y_i) log(1-s_i)] - lam*|theta|^2``
  with ``s_i = sigmoid(theta.x_i)``.

Bias terms are handled by appending a constant-1 feature so the parameter
vector stays flat and clipping acts on the full gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import LOSS_LOGISTIC, LOSS_MSE, UTIL_ACCURACY, UTIL_NEG_LOSS

LOSS_CODES = {"mse_linear": LOSS_MSE, "logistic_l2": LOSS_LOGISTIC}
UTILITY_CODES = {"neg_test_loss": UTIL_NEG_LOSS, "test_accuracy": UTIL_ACCURACY}


@dataclass(frozen=True)
class InitSpec:
    kind: str = "zeros"  # zeros | gaussian
    scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("zeros", "gaussian"):
            raise ValueError(f"unknown init kind {self.kind!r}")
        if self.kind == "gaussian" and self.scale <= 0:
            raise ValueError("gaussian init needs scale > 0")


@dataclass(frozen=True)
class ModelSpec:
    loss_kind: str
    learning_rate: float
    init: InitSpec = field(default_factory=InitSpec)
    l2: float = 0.0
    add_bias: bool = True

    def __post_init__(self):
        if self.loss_kind not in LOSS_CODES:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.loss_kind == "logistic_l2" and self.l2 <= 0:
            raise ValueError("logistic_l2 requires a positive l2 penalty")
        if self.loss_kind == "mse_linear" and self.l2 != 0:
            raise ValueError("l2 penalty only applies to logistic_l2")

    @property
    def loss_code(self) -> int:
        return LOSS_CODES[self.loss_kind]


@dataclass(frozen=True)
class UtilitySpec:
    """Utility kind plus the held-out test split it is scored on."""

    kind: str
    test_features: np.ndarray
    test_labels: np.ndarray

    def __post_init__(self):
        if self.kind not in UTILITY_CODES:
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if len(self.test_labels) == 0:
            raise ValueError("utility needs a non-empty test set")
        if self.test_features.shape[0] != self.test_labels.shape[0]:
            raise ValueError("test features/labels length mismatch")

    @property
    def util_code(self) -> int:
        return UTILITY_CODES[self.kind]


def with_bias(features: np.ndarray) -> np.ndarray:
    ones = np.ones((features.shape[0], 1))
    return np.ascontiguousarray(np.hstack([features, ones]))


def design_matrix(features: np.ndarray, spec: ModelSpec) -> np.ndarray:
    if spec.add_bias:
        return with_bias(features)
    return np.ascontiguousarray(features, dtype=np.float64)


def grad(spec: ModelSpec, theta: np.ndarray, batch_x: np.ndarray, batch_y: np.ndarray) -> np.ndarray:
    """Analytic gradient of the loss on a batch (already bias-augmented)."""
    if batch_x.shape[0] == 0:
        raise ValueError("empty batch")
    if batch_x.shape[1] != theta.shape[0]:
        raise ValueError(f"dimension mismatch: batch d={batch_x.shape[1]}, theta d={theta.shape[0]}")
    return _kernels.party_grad_np(
        theta, batch_x, batch_y, 0, batch_x.shape[0], spec.loss_code, spec.l2
    )


def loss(spec: ModelSpec, theta: np.ndarray, batch_x: np.ndarray, batch_y: np.ndarray) -> float:
    """Scalar loss matching ``grad`` (used by the finite-difference checks)."""
    if spec.loss_code == LOSS_MSE:
        return float(_kernels.mse_quadratic(theta, _kernels.mse_stats(batch_x, batch_y)))
    ce = _kernels.log_loss(batch_x @ theta, batch_y)
    return float(ce.sum()) / batch_y.shape[0] + spec.l2 * float(theta @ theta)


def utility(uspec: UtilitySpec, mspec: ModelSpec, theta: np.ndarray) -> float:
    xt = design_matrix(uspec.test_features, mspec)
    if xt.shape[1] != theta.shape[0]:
        raise ValueError("dimension mismatch between theta and test features")
    return _kernels.utility_np(
        theta, xt, uspec.test_labels, mspec.loss_code, uspec.util_code, mspec.l2
    )


def init_params(spec: ModelSpec, d: int, seed: int | None = None) -> np.ndarray:
    if d < 1:
        raise ValueError("model dimension must be >= 1")
    if spec.init.kind == "zeros":
        return np.zeros(d)
    rng = np.random.default_rng(spec.init.seed if seed is None else seed)
    return spec.init.scale * rng.standard_normal(d)


def train_one_pass(
    spec: ModelSpec,
    features: np.ndarray,
    labels: np.ndarray,
    party_of: np.ndarray,
    include_parties: np.ndarray,
    seed: int,
) -> np.ndarray:
    """One pass of party-wise gradient descent, no clipping, no noise.

    Parties are visited once each in a seeded random order; used for the
    removal/addition retraining protocol and the synthetic-data sanity checks.
    """
    x = design_matrix(features, spec)
    rng = np.random.default_rng(seed)
    order = np.asarray(include_parties)[rng.permutation(len(include_parties))]
    theta = init_params(spec, x.shape[1], seed=seed)
    for party in order:
        idx = np.nonzero(party_of == party)[0]
        if idx.size == 0:
            continue
        theta = theta - spec.learning_rate * grad(spec, theta, x[idx], labels[idx])
    return theta


def grid_search_lr(
    spec: ModelSpec,
    features: np.ndarray,
    labels: np.ndarray,
    party_of: np.ndarray,
    uspec: UtilitySpec,
    candidates,
    seed: int = 0,
) -> float:
    """Pick the learning rate whose one-pass model scores best on the test set."""
    parties = np.unique(party_of)
    best_lr, best_v = None, -np.inf
    for lr in candidates:
        trial = ModelSpec(spec.loss_kind, lr, spec.init, spec.l2, spec.add_bias)
        theta = train_one_pass(trial, features, labels, party_of, parties, seed)
        v = utility(uspec, trial, theta)
        if v > best_v:
            best_lr, best_v = lr, v
    return best_lr
