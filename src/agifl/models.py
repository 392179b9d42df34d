"""Local training models: multinomial logistic regression and a small MLP.

Both models classify via softmax cross-entropy and are trained with plain
mini-batch SGD: one client with `local_train`, a FedAvg cohort with
`train_cohort`, which steps every client's SGD together as stacked lanes
and gives each lane `local_train`'s result bit for bit. One forward and one
backward pass, written for stacked (lanes, ...) arrays, serve a client (one
lane), a cohort and evaluation (one lane). Parameters live
in a single flat float64 vector with a deterministic layout so that the
federation layer can exchange and average them without knowing the
architecture. Bias terms use the implicit appended-1 convention: a
logistic model over d features holds a (d+1) x K weight matrix.
"""

import math
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
    "train_cohort",
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
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
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


def _check_params(params: np.ndarray, spec: ModelSpec) -> None:
    if params.shape != (param_count(spec),):
        raise ValueError(
            f"parameter vector has length {params.shape}, expected {param_count(spec)}")


def _append_ones(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax over the last axis, in place: no large temporaries."""
    logits -= logits.max(axis=-1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    return logits


def _forward(w: np.ndarray, spec: ModelSpec, xe: np.ndarray):
    """Forward pass of L models at once: `w` is (L, P), `xe` the (L, b, d+1)
    inputs with the bias column. Returns the (L, b, K) log-probabilities,
    the weight matrices as views of `w`, and the MLP's hidden activations
    without and with their bias column (None for logistic).

    Stacked `matmul` runs one GEMM per 2-D slice, so a one-lane call gives
    the single model's result bit for bit.
    """
    d, k = spec.input_dim, spec.num_classes
    if spec.kind == "logistic":
        w1 = w.reshape(-1, d + 1, k)
        return _log_softmax(xe @ w1), (w1,), None
    h = spec.hidden_dim
    n1 = (d + 1) * h
    w1 = w[:, :n1].reshape(-1, d + 1, h)
    w2 = w[:, n1:].reshape(-1, h + 1, k)
    a1 = np.tanh(xe @ w1)
    a1e = _append_ones(a1)
    return _log_softmax(a1e @ w2), (w1, w2), (a1, a1e)


def _gradients(w: np.ndarray, spec: ModelSpec, xe: np.ndarray, y: np.ndarray):
    """Forward and backward pass of each lane's mean cross-entropy over its
    (L, b) labels `y`: the log-probabilities and one (weight view, gradient)
    pair per weight matrix."""
    log_probs, weights, hidden = _forward(w, spec, xe)
    lanes, b = y.shape
    dlogits = np.exp(log_probs)
    dlogits.reshape(lanes * b, -1)[np.arange(lanes * b), y.ravel()] -= 1.0
    dlogits /= b
    if hidden is None:
        return log_probs, [(weights[0], xe.transpose(0, 2, 1) @ dlogits)]
    (w1, w2), (a1, a1e) = weights, hidden
    gw2 = a1e.transpose(0, 2, 1) @ dlogits
    dz1 = (dlogits @ w2[:, :-1].transpose(0, 2, 1)) * (1.0 - a1 * a1)
    return log_probs, [(w1, xe.transpose(0, 2, 1) @ dz1), (w2, gw2)]


def _lane_step(w: np.ndarray, spec: ModelSpec, xe: np.ndarray, y: np.ndarray,
               lr: float) -> None:
    """One SGD step on each lane of `w`, in place."""
    for weight, grad in _gradients(w, spec, xe, y)[1]:
        grad *= lr
        weight -= grad


def loss_and_grad(params: np.ndarray, spec: ModelSpec,
                  x: np.ndarray, y: np.ndarray):
    """Mean softmax cross-entropy over the batch and its gradient,
    flattened to match the parameter layout."""
    _check_params(params, spec)
    log_probs, grads = _gradients(params[None], spec, _append_ones(x)[None], y[None])
    loss = -float(log_probs[0, np.arange(x.shape[0]), y].mean())
    return loss, np.concatenate([grad.ravel() for _, grad in grads])


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
    _check_params(params, spec)
    w = params.copy()
    xe = _append_ones(x)
    gen = np.random.default_rng(rng_seed)
    lr, bs = hyper.learning_rate, hyper.batch_size
    for _ in range(hyper.local_epochs):
        order = gen.permutation(n)
        for start in range(0, n, bs):
            batch = order[None, start:start + bs]
            _lane_step(w[None], spec, xe[batch], y[batch], lr)
    return w


def train_cohort(params: np.ndarray, features: np.ndarray, labels: np.ndarray,
                 lanes, spec: ModelSpec, hyper: Hyperparams, seeds) -> np.ndarray:
    """`local_train` for a whole cohort at once, as stacked SGD lanes.

    Lane l trains from `params`, or from its own start row `params[l]` when
    `params` is an (L, P) array, on the rows `lanes[l]` of
    `features`/`labels` with the generator `default_rng(seeds[l])`; row l of
    the returned (L, P) array equals `local_train(start, features[lanes[l]],
    labels[lanes[l]], spec, hyper, seeds[l])` exactly. The lanes step
    together: each epoch draws every lane's permutation in `local_train`'s
    order, and each step takes one stacked batch per group of lanes with the
    same batch size (lanes of unequal shards differ in their tail batch,
    and a shorter shard runs out of steps earlier).
    """
    lanes = [np.asarray(lane) for lane in lanes]
    if not lanes:
        raise ValueError("cohort is empty")
    if len(seeds) != len(lanes):
        raise ValueError("one seed per lane is required")
    if features.shape[0] != labels.shape[0]:
        raise ValueError("feature/label count mismatch")
    sizes = np.array([lane.size for lane in lanes])
    if np.any(sizes == 0):
        raise ValueError("training shard is empty")
    num_lanes, lr, bs = len(lanes), hyper.learning_rate, hyper.batch_size
    if params.ndim == 2 and params.shape[0] != num_lanes:
        raise ValueError("one start row per lane is required")
    _check_params(params[-1] if params.ndim == 2 else params, spec)
    w = np.broadcast_to(params, (num_lanes, params.shape[-1])).copy()

    rows = np.concatenate(lanes)
    xe = _append_ones(features[rows])
    y = labels[rows]
    offsets = np.cumsum(sizes) - sizes
    # (start, batch size, lanes or None for all) per step of an epoch
    schedule = []
    for start in range(0, int(sizes.max()), bs):
        widths = np.minimum(sizes - start, bs)
        for b in np.unique(widths[widths > 0]).tolist():
            group = np.flatnonzero(widths == b)
            schedule.append((start, b, None if group.size == num_lanes else group))

    gens = [np.random.default_rng(seed) for seed in seeds]
    order = np.zeros((num_lanes, int(sizes.max())), dtype=np.intp)
    for _ in range(hyper.local_epochs):
        for lane, (gen, n) in enumerate(zip(gens, sizes.tolist())):
            order[lane, :n] = offsets[lane] + gen.permutation(n)
        for start, b, group in schedule:
            if group is None:
                batch = order[:, start:start + b]
                _lane_step(w, spec, xe[batch], y[batch], lr)
            else:
                batch = order[group, start:start + b]
                sub = w[group]
                _lane_step(sub, spec, xe[batch], y[batch], lr)
                w[group] = sub
    return w


def evaluate(params: np.ndarray, spec: ModelSpec,
             x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy and top-1 accuracy over a dataset."""
    if x.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    _check_params(params, spec)
    log_probs = _forward(params[None], spec, _append_ones(x)[None])[0][0]
    loss = -float(log_probs[np.arange(x.shape[0]), y].mean())
    accuracy = float((log_probs.argmax(axis=1) == y).mean())
    return loss, accuracy
