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

LOSS_KINDS = ("mse_linear", "logistic_l2")
UTILITY_KINDS = ("neg_test_loss", "test_accuracy")


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
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.loss_kind == "logistic_l2" and self.l2 <= 0:
            raise ValueError("logistic_l2 requires a positive l2 penalty")
        if self.loss_kind == "mse_linear" and self.l2 != 0:
            raise ValueError("l2 penalty only applies to logistic_l2")


def check_labels(kind: str, labels: np.ndarray) -> None:
    """Labels a loss or utility of ``kind`` trains or is scored on: the binary
    cross-entropy of ``logistic_l2`` and the thresholded scores of
    ``test_accuracy`` need labels in {0, 1}."""
    if kind in ("logistic_l2", "test_accuracy"):
        other = np.setdiff1d(labels, (0.0, 1.0))
        if other.size:  # named in full up to five, then counted
            got = f"{other.size} others, first " if other.size > 5 else ""
            raise ValueError(f"{kind} needs labels in {{0, 1}}, got {got}{other[:5].tolist()}")


def utility_kind(kind: str) -> str:
    if kind not in UTILITY_KINDS:
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


def check_dimension(shape) -> None:
    """A parameter shape, ``d`` or ``(k, d)``: a model has at least one
    parameter, so its design matrix at least one column."""
    if min(np.atleast_1d(shape)) < 1:
        raise ValueError(f"model dimension must be >= 1, got {shape}")


def init_params(spec: ModelSpec, shape, seed) -> np.ndarray:
    """Initial parameters of ``shape``: ``d``, or ``(k, d)`` for one row per
    chain iteration. A gaussian init draws them from ``seed``, an int or a
    ``SeedSequence``; a scale so large that a draw overflows gives inf, a
    starting model the chain reports as not finite."""
    check_dimension(shape)
    if spec.init.kind == "zeros":
        return np.zeros(shape)
    with np.errstate(over="ignore"):
        return spec.init.scale * np.random.default_rng(seed).standard_normal(shape)


def train_one_pass(spec: ModelSpec, task: _kernels.Task, include_parties: np.ndarray,
                   seed: int) -> np.ndarray:
    """One pass of party-wise gradient descent, no clipping, no noise.

    Parties of the prepared ``task`` are visited once each in a seeded random
    order from ``spec``'s init, each taking one step of size ``task.lr`` on its
    own rows; used for removal retraining and the synthetic-data sanity checks.
    """
    rng = np.random.default_rng(seed)
    order = np.asarray(include_parties)[rng.permutation(len(include_parties))]
    theta = init_params(spec, task.x.shape[1], seed=seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for party in order:
            theta = theta - task.lr * _kernels.party_grad_np(theta, task, party)
    if not np.isfinite(theta).all():  # NaN is absorbing: one check per retraining
        raise RuntimeError(f"retraining on {len(order)} parties (seed {seed}) diverged: its "
                           f"unclipped steps at learning rate {task.lr} overflowed")
    return theta
