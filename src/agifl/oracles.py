"""Independent reference implementations, one per model.

They back the `agifl oracle` subcommand and the verification suite, and
import no `agifl` module: the rate formula is evaluated directly with
`math`; compute time, round duration and the server's round energy are
scalar arithmetic in the production operation order; local SGD is a plain
2-D per-client loop with its own forward and backward pass, reading `spec`
and `hyper` by attribute and using the flat parameter layout of `models`;
the placement optimum comes from exhaustive grid search; and the weighted
mean is plain Python arithmetic.
"""

import math

import numpy as np

__all__ = ["rate_direct", "user_compute_time", "round_duration", "uav_round_energy",
           "loss_and_grad", "local_train", "grid_placement", "weighted_mean_direct"]


def rate_direct(bandwidth: float, tx_power: float, altitude: float,
                horizontal: float, ref_gain: float = 1e-5,
                noise: float = 1e-12) -> float:
    """Direct evaluation of the link rate formula, bit/s."""
    snr = ref_gain * tx_power / (noise * (altitude ** 2 + horizontal ** 2))
    return bandwidth * math.log2(1.0 + snr)


def user_compute_time(samples: int, bits_per_sample: int, cycles_per_bit: int,
                      cpu_freq: float, epochs: int) -> float:
    """Seconds a user spends on local training.

    Every bit of the local data costs `cycles_per_bit` CPU cycles, once per
    epoch: epochs * samples * bits_per_sample * cycles_per_bit / cpu_freq.
    """
    if cpu_freq <= 0:
        raise ValueError("cpu_freq must be positive")
    return epochs * samples * bits_per_sample * cycles_per_bit / cpu_freq


def round_duration(t_down: float, per_client) -> float:
    """t_down + max over clients of (t_comp + t_up).

    Clients compute and upload in parallel; uploads use orthogonal
    sub-bands, so the slowest client gates the round.
    """
    per_client = list(per_client)
    if not per_client:
        raise ValueError("round has no clients")
    if t_down < 0 or any(tc < 0 or tu < 0 for tc, tu in per_client):
        raise ValueError("times must be non-negative")
    return t_down + max(tc + tu for tc, tu in per_client)


def uav_round_energy(t_round: float, t_down: float, propulsion_power: float,
                     tx_power: float) -> float:
    """Server energy for one round: hover the whole round, transmit during
    the downlink only."""
    if t_down > t_round:
        raise ValueError("downlink time exceeds round duration")
    return propulsion_power * t_round + tx_power * t_down


def _unpack(params: np.ndarray, spec):
    """The weight matrices of a flat parameter vector, as views."""
    d, h, k = spec.input_dim, spec.hidden_dim, spec.num_classes
    shapes = [(d + 1, k)] if spec.kind == "logistic" else [(d + 1, h), (h + 1, k)]
    sizes = [rows * cols for rows, cols in shapes]
    if params.shape != (sum(sizes),):
        raise ValueError(
            f"parameter vector has length {params.shape}, expected {sum(sizes)}")
    return [part.reshape(shape)
            for part, shape in zip(np.split(params, sizes[:-1]), shapes)]


def _with_bias(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)


def loss_and_grad(params: np.ndarray, spec, x: np.ndarray, y: np.ndarray):
    """Mean softmax cross-entropy over the batch and its gradient,
    flattened to match the parameter layout."""
    n = x.shape[0]
    xe = _with_bias(x)
    weights = _unpack(params, spec)
    if spec.kind == "logistic":
        logits = xe @ weights[0]
    else:
        w1, w2 = weights
        a1 = np.tanh(xe @ w1)
        a1e = _with_bias(a1)
        logits = a1e @ w2
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -float(log_probs[np.arange(n), y].mean())

    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    if spec.kind == "logistic":
        return loss, (xe.T @ dlogits).ravel()
    gw2 = a1e.T @ dlogits
    dz1 = (dlogits @ w2[:-1].T) * (1.0 - a1 * a1)
    gw1 = xe.T @ dz1
    return loss, np.concatenate([gw1.ravel(), gw2.ravel()])


def local_train(params: np.ndarray, x: np.ndarray, y: np.ndarray, spec, hyper,
                rng_seed: int) -> np.ndarray:
    """Run `local_epochs` passes of mini-batch SGD on one client's shard.

    The shard is reshuffled each epoch from `default_rng(rng_seed)`; the
    input parameter vector is not modified.
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


def _grid_best(xs, ys, users, altitude):
    """Smallest summed slant distance over the cartesian grid xs x ys."""
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    total = np.zeros_like(gx)
    h_sq = altitude ** 2
    for ux, uy in users:
        total += np.sqrt((gx - ux) ** 2 + (gy - uy) ** 2 + h_sq)
    flat = int(np.argmin(total))
    i, j = np.unravel_index(flat, total.shape)
    return float(xs[i]), float(ys[j]), float(total[i, j])


def grid_placement(users, altitude: float, coarse_step: float = 1.0,
                   refine_step: float = 0.01):
    """Exhaustive search for the minimum-sum-distance hovering point.

    Scans the user bounding box (the optimum lies in the users' convex
    hull) on a `coarse_step` grid, then refines on a `refine_step` grid
    around the best coarse cell. Returns (x, y, objective).
    """
    users = [(float(x), float(y)) for x, y in users]
    if not users:
        raise ValueError("users must be non-empty")
    xs_lo = min(x for x, _ in users)
    xs_hi = max(x for x, _ in users)
    ys_lo = min(y for _, y in users)
    ys_hi = max(y for _, y in users)

    xs = np.arange(xs_lo, xs_hi + coarse_step, coarse_step)
    ys = np.arange(ys_lo, ys_hi + coarse_step, coarse_step)
    bx, by, _ = _grid_best(xs, ys, users, altitude)

    xs = np.arange(bx - coarse_step, bx + coarse_step + refine_step, refine_step)
    ys = np.arange(by - coarse_step, by + coarse_step + refine_step, refine_step)
    return _grid_best(xs, ys, users, altitude)


def weighted_mean_direct(updates):
    """Sample-count-weighted mean of parameter vectors, computed by hand.

    `updates` is a sequence of (values, count) pairs of equal-length vectors
    and counts of at least 1; returns a plain list.
    """
    updates = list(updates)
    if not updates:
        raise ValueError("updates must be non-empty")
    length = len(updates[0][0])
    if any(len(values) != length for values, _ in updates):
        raise ValueError("all updates must have the same length")
    if any(count < 1 for _, count in updates):
        raise ValueError("all sample counts must be >= 1")
    total = sum(count for _, count in updates)
    out = []
    for i in range(length):
        acc = 0.0
        for values, count in updates:
            acc += (count / total) * values[i]
        out.append(acc)
    return out
