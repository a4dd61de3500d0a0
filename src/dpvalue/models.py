"""Model specification, utility kinds, parameter init and one-pass retraining.

Two loss kinds are supported, both with closed-form gradients
(``_kernels.party_grad_np``) and scored by ``_kernels.utility_np``:

* ``mse_linear`` -- linear regression scored by negated mean squared error,
  ``V(theta) = -(1/l) * sum_i (theta.x_i - y_i)^2``.
* ``logistic_l2`` -- binary logistic regression with an l2 penalty, scored by
  the negated regularized cross-entropy,
  ``V(theta) = (1/l) * sum_i [y_i log s_i + (1-y_i) log(1-s_i)] - lam*|theta|^2``
  with ``s_i = sigmoid(theta.x_i)``.

A utility is named by its kind and scored on the run's own dataset's test
split. Bias terms are handled by appending a constant-1 feature so the
parameter vector stays flat and clipping acts on the full gradient.
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


def check_labels(spec: ModelSpec, labels: np.ndarray) -> None:
    """Labels a model of ``spec`` trains or is scored on: the binary
    cross-entropy of ``logistic_l2`` needs labels in {0, 1}."""
    if spec.loss_kind == "logistic_l2":
        other = np.setdiff1d(labels, (0.0, 1.0))
        if other.size:
            raise ValueError(f"logistic_l2 needs labels in {{0, 1}}, got {other.tolist()}")


def utility_kind(kind: str) -> str:
    if kind not in UTILITY_CODES:
        raise ValueError(f"unknown utility kind {kind!r}")
    return kind


def check_test_split(features: np.ndarray, labels: np.ndarray) -> None:
    """The held-out split a utility is scored on: non-empty, one label per row."""
    if len(labels) == 0:
        raise ValueError("utility needs a non-empty test set")
    if features.shape[0] != labels.shape[0]:
        raise ValueError("test features/labels length mismatch")


def design_matrix(features: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """C-contiguous float64 rows, with a constant-1 column appended when the
    model has a bias."""
    if spec.add_bias:
        features = np.hstack([features, np.ones((features.shape[0], 1))])
    return np.ascontiguousarray(features, dtype=np.float64)


def init_params(spec: ModelSpec, shape, seed) -> np.ndarray:
    """Initial parameters of ``shape``: ``d``, or ``(k, d)`` for one row per
    chain iteration. A gaussian init draws them from ``seed``, an int or a
    ``SeedSequence``."""
    if min(np.atleast_1d(shape)) < 1:
        raise ValueError("model dimension must be >= 1")
    if spec.init.kind == "zeros":
        return np.zeros(shape)
    return spec.init.scale * np.random.default_rng(seed).standard_normal(shape)


def train_one_pass(spec: ModelSpec, task: _kernels.Task, include_parties: np.ndarray,
                   seed: int) -> np.ndarray:
    """One pass of party-wise gradient descent, no clipping, no noise.

    Parties of the prepared ``task`` are visited once each in a seeded random
    order, each taking one step on its own rows; used for the removal/addition
    retraining protocol and the synthetic-data sanity checks.
    """
    rng = np.random.default_rng(seed)
    order = np.asarray(include_parties)[rng.permutation(len(include_parties))]
    theta = init_params(spec, task.x.shape[1], seed=seed)
    ptr = task.ptr
    with np.errstate(over="ignore", invalid="ignore"):
        for party in order:
            g = _kernels.party_grad_np(theta, task.x, task.y, ptr[party], ptr[party + 1],
                                       task.loss_code, task.lam)
            theta = theta - spec.learning_rate * g
    if not np.isfinite(theta).all():  # NaN is absorbing: one check per retraining
        raise RuntimeError(f"retraining on {len(order)} parties (seed {seed}) diverged: its "
                           f"unclipped steps at learning rate {spec.learning_rate} overflowed")
    return theta
