"""Local training models: multinomial logistic regression and a small MLP.

Both models classify via softmax cross-entropy and are trained with plain
mini-batch SGD. `train_cohort` steps a FedAvg cohort's SGD together as
stacked lanes, each equal bit for bit to one client's own SGD loop
(`oracles.local_train`). One forward pass, written for stacked (lanes, ...)
arrays, serves the cohort and evaluation, which runs each vector of a
stack as one lane. A step allocates only its gathered batch, its logits
with their softmax temporaries and, for the MLP, the (L, b, h) product
back-propagated to the hidden layer: the weight gradients write into the
call's one (L, P) gradient buffer, which then scales and updates all
lanes at once. The MLP's activations live in a buffer pair per (lanes,
batch) shape of a call (one pair per `evaluate` call): the first product
and its tanh go into a contiguous (L, b, h) buffer, later overwritten by
the tanh derivative 1 - a1^2, and are copied into the first h columns of
an (L, b, h+1) buffer whose last column holds the hidden layer's bias 1.
Parameters live in one flat float64 vector with a deterministic layout,
so the federation layer can exchange and average them without knowing
the architecture. Bias terms use the appended-1 convention: a logistic
model over d features holds a (d+1) x K weight matrix. The inputs' 1 is
the last column of the dataset's design matrix (`data.Dataset.design`).
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
    "train_cohort",
    "evaluate",
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
        if not 1 <= self.batch_size < 2 ** 63:  # `train_cohort` takes it as an int64
            raise ValueError("batch_size must be in [1, 2**63)")


def param_count(spec: ModelSpec) -> int:
    d, k = spec.input_dim, spec.num_classes
    if spec.kind == "logistic":
        return (d + 1) * k
    h = spec.hidden_dim
    return (d + 1) * h + (h + 1) * k


def init_model(spec: ModelSpec, seed: int = 0) -> np.ndarray:
    """Initial parameter vector: zeros for logistic, symmetric uniform
    weights drawn from `seed` and scaled by 1/sqrt(fan-in) for the MLP
    (biases zero)."""
    if spec.kind == "logistic":
        return np.zeros(param_count(spec))
    gen = _rng(seed, "mlp-init")
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


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax over the last axis, in place. The row max is a
    reduce over a contiguous class-major copy: exact, so equal to `max`, and
    faster than a reduce over a short last axis. The row sum stays
    `sum(axis=-1)`, whose pairwise order fixes the bits."""
    logits -= logits.T.copy().max(axis=0).T[..., None]
    logits -= np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    return logits


def _forward(w: np.ndarray, spec: ModelSpec, xe: np.ndarray, hidden):
    """The (L, b, K) log-probabilities of L models at once: `w` is (L, P),
    `xe` the (L, b, d+1) design rows and `hidden` the MLP's buffer pair
    (None for logistic): the contiguous (L, b, h) activations, which it
    fills, and their (L, b, h+1) copy with the bias column set, whose
    first h columns it fills.

    Stacked `matmul` runs one GEMM per 2-D slice, so a one-lane call gives
    the single model's result bit for bit.
    """
    d, k = spec.input_dim, spec.num_classes
    if hidden is None:
        return _log_softmax(xe @ w.reshape(-1, d + 1, k))
    a1, a1e = hidden
    h = spec.hidden_dim
    n1 = (d + 1) * h
    np.matmul(xe, w[:, :n1].reshape(-1, d + 1, h), out=a1)
    np.tanh(a1, out=a1)
    a1e[..., :h] = a1
    return _log_softmax(a1e @ w[:, n1:].reshape(-1, h + 1, k))


def _buffers(spec: ModelSpec, lanes: int, b: int):
    """The activation buffer pair `_forward` fills for `lanes` lanes of `b`
    rows: None for logistic."""
    if spec.kind != "mlp":
        return None
    return np.empty((lanes, b, spec.hidden_dim)), np.ones((lanes, b, spec.hidden_dim + 1))


def _lane_step(w: np.ndarray, spec: ModelSpec, xe: np.ndarray, y: np.ndarray,
               lr: float, grad: np.ndarray, hidden, hot: np.ndarray) -> None:
    """One SGD step on each lane of `w`, in place, on the mean cross-entropy
    over its (L, b) labels `y`. The backward products write into `grad`, laid
    out as `w`; `hot` is the flat index of each row's first logit. The MLP's
    tanh derivative 1 - a1^2 overwrites the contiguous activations."""
    d, k = spec.input_dim, spec.num_classes
    dlogits = _forward(w, spec, xe, hidden)
    np.exp(dlogits, out=dlogits)
    dlogits.ravel()[hot + y.ravel()] -= 1.0
    dlogits /= y.shape[1]
    xt = xe.transpose(0, 2, 1)
    if hidden is None:
        np.matmul(xt, dlogits, out=grad.reshape(-1, d + 1, k))
    else:
        a1, a1e = hidden
        h = spec.hidden_dim
        n1 = (d + 1) * h
        np.matmul(a1e.transpose(0, 2, 1), dlogits, out=grad[:, n1:].reshape(-1, h + 1, k))
        np.multiply(a1, a1, out=a1)
        np.subtract(1.0, a1, out=a1)
        w2 = w[:, n1:].reshape(-1, h + 1, k)
        dz1 = dlogits @ w2[:, :-1].transpose(0, 2, 1)
        dz1 *= a1
        np.matmul(xt, dz1, out=grad[:, :n1].reshape(-1, d + 1, h))
    grad *= lr
    w -= grad


def train_cohort(params: np.ndarray, design: np.ndarray, labels: np.ndarray,
                 lanes, spec: ModelSpec, hyper: Hyperparams, seeds) -> np.ndarray:
    """Mini-batch SGD for a whole cohort at once, as stacked lanes.

    Lane l trains from its start row `params[l]` of the (L, P) array
    `params` on the rows `lanes[l]` of `design` (`Dataset.design`) and
    `labels` with the generator `default_rng(seeds[l])`; row l of the
    returned (L, P) array equals `oracles.local_train(params[l],
    design[lanes[l], :-1], labels[lanes[l]], spec, hyper, seeds[l])`
    exactly. The lanes step together: each epoch draws every lane's
    permutation in lane order, and each step takes one stacked batch per
    group of lanes with the same batch size (lanes of unequal shards differ
    in their tail batch, and a shorter shard runs out of steps earlier).
    """
    lanes = [np.asarray(lane) for lane in lanes]
    if not lanes:
        raise ValueError("cohort is empty")
    if len(seeds) != len(lanes):
        raise ValueError("one seed per lane is required")
    if design.shape[0] != labels.shape[0]:
        raise ValueError("feature/label count mismatch")
    sizes = np.array([lane.size for lane in lanes])
    if np.any(sizes == 0):
        raise ValueError("training shard is empty")
    num_lanes, lr, bs = len(lanes), hyper.learning_rate, hyper.batch_size
    if params.ndim != 2 or params.shape[0] != num_lanes:
        raise ValueError("one start row per lane is required: params must be (L, P)")
    _check_params(params[0], spec)
    w = params.copy()
    grad = np.empty_like(w)

    # (start, batch size, lanes or None for all, activation buffers, one-hot
    # index) per step of an epoch; steps of one (lanes, batch) shape share
    # their buffers and index
    schedule, shared = [], {}
    for start in range(0, int(sizes.max()), bs):
        widths = np.minimum(sizes - start, bs)
        for b in sorted(set(widths[widths > 0].tolist())):
            group = np.flatnonzero(widths == b)
            if (group.size, b) not in shared:
                shared[group.size, b] = (_buffers(spec, group.size, b),
                                         np.arange(group.size * b) * spec.num_classes)
            schedule.append((start, b, None if group.size == num_lanes else group,
                             *shared[group.size, b]))

    gens = [np.random.default_rng(seed) for seed in seeds]
    order = np.zeros((num_lanes, int(sizes.max())), dtype=np.intp)
    for _ in range(hyper.local_epochs):
        for lane, (gen, n) in enumerate(zip(gens, sizes.tolist())):
            order[lane, :n] = lanes[lane][gen.permutation(n)]
        for start, b, group, hidden, hot in schedule:
            if group is None:
                batch = order[:, start:start + b]
                _lane_step(w, spec, design[batch], labels[batch], lr, grad, hidden, hot)
            else:
                batch, sub = order[group, start:start + b], w[group]
                _lane_step(sub, spec, design[batch], labels[batch], lr, grad[:len(group)],
                           hidden, hot)
                w[group] = sub
    return w


def evaluate(params: np.ndarray, spec: ModelSpec,
             design: np.ndarray, y: np.ndarray) -> list[tuple[float, float]]:
    """Mean cross-entropy and top-1 accuracy over a dataset, given as its
    design matrix (`Dataset.design`) and labels, for each row of the (R, P)
    stack `params`. Each row runs as a one-lane forward pass through one
    shared activation buffer pair."""
    n = design.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if params.ndim != 2:
        raise ValueError("params must be an (R, P) stack of parameter vectors")
    if params.shape[1] != param_count(spec):
        raise ValueError(f"parameter vector has length {params.shape[1]}, "
                         f"expected {param_count(spec)}")
    hidden, rows = _buffers(spec, 1, n), np.arange(n)
    results = []
    for w in params:
        log_probs = _forward(w[None], spec, design[None], hidden)[0]
        results.append((-float(log_probs[rows, y].mean()),
                        float((log_probs.argmax(axis=1) == y).mean())))
    return results
