"""Local training models: multinomial logistic regression and a small MLP.

Both models classify via softmax cross-entropy and are trained with plain
mini-batch SGD. Parameters live in a single flat float64 vector with a
deterministic layout so that the federation layer can exchange and average
them without knowing the architecture. Bias terms use the implicit
appended-1 convention: a logistic model over d features holds a
(d+1) x K weight matrix.
"""

from dataclasses import dataclass

import numpy as np

from .seeding import rng as _rng

__all__ = [
    "ModelSpec",
    "check_architecture",
    "Hyperparams",
    "param_count",
    "init_model",
    "local_train",
    "evaluate",
    "loss_and_grad",
]


def check_architecture(kind: str, hidden_dim: int) -> None:
    """The model rules that do not depend on the data: a known kind, and a
    hidden layer for the MLP."""
    if kind not in ("logistic", "mlp"):
        raise ValueError(f"unknown model kind {kind!r}")
    if kind == "mlp" and hidden_dim < 1:
        raise ValueError("hidden_dim must be >= 1 for mlp")


@dataclass(frozen=True)
class ModelSpec:
    kind: str  # "logistic" | "mlp"
    input_dim: int
    num_classes: int
    hidden_dim: int = 0
    init_seed: int = 0

    def __post_init__(self):
        check_architecture(self.kind, self.hidden_dim)
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")


@dataclass(frozen=True)
class Hyperparams:
    learning_rate: float = 0.01
    local_epochs: int = 5
    batch_size: int = 10

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def param_count(spec: ModelSpec) -> int:
    d, k = spec.input_dim, spec.num_classes
    if spec.kind == "logistic":
        return (d + 1) * k
    h = spec.hidden_dim
    return (d + 1) * h + (h + 1) * k


def init_model(spec: ModelSpec) -> np.ndarray:
    """Initial parameter vector: zeros for logistic, symmetric uniform
    weights scaled by 1/sqrt(fan-in) for the MLP (biases zero)."""
    if spec.kind == "logistic":
        return np.zeros(param_count(spec))
    gen = _rng(spec.init_seed, "mlp-init")
    d, h, k = spec.input_dim, spec.hidden_dim, spec.num_classes
    w1 = np.zeros((d + 1, h))
    w1[:d] = gen.uniform(-1.0, 1.0, size=(d, h)) / np.sqrt(d)
    w2 = np.zeros((h + 1, k))
    w2[:h] = gen.uniform(-1.0, 1.0, size=(h, k)) / np.sqrt(h)
    return np.concatenate([w1.ravel(), w2.ravel()])


def _unpack(params: np.ndarray, spec: ModelSpec):
    if params.shape != (param_count(spec),):
        raise ValueError(
            f"parameter vector has length {params.shape}, expected {param_count(spec)}")
    d, k = spec.input_dim, spec.num_classes
    if spec.kind == "logistic":
        return (params.reshape(d + 1, k),)
    h = spec.hidden_dim
    n1 = (d + 1) * h
    return params[:n1].reshape(d + 1, h), params[n1:].reshape(h + 1, k)


def _append_ones(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)


def _forward(params, spec, x):
    """Returns (log-probabilities, cache for backprop)."""
    if spec.kind == "logistic":
        (w,) = _unpack(params, spec)
        xe = _append_ones(x)
        logits = xe @ w
        cache = (xe,)
    else:
        w1, w2 = _unpack(params, spec)
        xe = _append_ones(x)
        a1 = np.tanh(xe @ w1)
        a1e = _append_ones(a1)
        logits = a1e @ w2
        cache = (xe, a1, a1e, w2)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return log_probs, cache


def loss_and_grad(params: np.ndarray, spec: ModelSpec,
                  x: np.ndarray, y: np.ndarray):
    """Mean softmax cross-entropy over the batch and its gradient,
    flattened to match the parameter layout."""
    n = x.shape[0]
    log_probs, cache = _forward(params, spec, x)
    loss = -float(log_probs[np.arange(n), y].mean())

    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n

    if spec.kind == "logistic":
        (xe,) = cache
        grad = (xe.T @ dlogits).ravel()
    else:
        xe, a1, a1e, w2 = cache
        gw2 = a1e.T @ dlogits
        da1 = dlogits @ w2[:-1].T
        dz1 = da1 * (1.0 - a1 * a1)
        gw1 = xe.T @ dz1
        grad = np.concatenate([gw1.ravel(), gw2.ravel()])
    return loss, grad


def local_train(params: np.ndarray, x: np.ndarray, y: np.ndarray,
                spec: ModelSpec, hyper: Hyperparams, rng_seed: int) -> np.ndarray:
    """Run `local_epochs` passes of mini-batch SGD on one client's shard.

    The shard is reshuffled each epoch from a generator seeded with
    `rng_seed`, so the result depends only on the arguments. The input
    parameter vector is not modified.
    """
    n = x.shape[0]
    if n == 0:
        raise ValueError("training shard is empty")
    if y.shape[0] != n:
        raise ValueError("feature/label count mismatch")
    w = params.copy()
    gen = np.random.default_rng(rng_seed)
    lr, bs = hyper.learning_rate, hyper.batch_size
    for _ in range(hyper.local_epochs):
        order = gen.permutation(n)
        for start in range(0, n, bs):
            batch = order[start:start + bs]
            _, grad = loss_and_grad(w, spec, x[batch], y[batch])
            w -= lr * grad
    return w


def evaluate(params: np.ndarray, spec: ModelSpec,
             x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy and top-1 accuracy over a dataset."""
    if x.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    log_probs, _ = _forward(params, spec, x)
    loss = -float(log_probs[np.arange(x.shape[0]), y].mean())
    accuracy = float((log_probs.argmax(axis=1) == y).mean())
    return loss, accuracy
