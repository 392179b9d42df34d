"""Independent reference implementations, one per model.

They back the `agifl oracle` subcommand and the verification suite, and
import no `agifl` module: the rate formula is evaluated directly with
`math`; a transfer time, a user's compute time and energy, round duration
and the server's round energy are plain arithmetic in the production order;
local SGD is a plain 2-D per-client loop with its own forward and backward
pass, reading `spec` and `hyper` by attribute and using the flat parameter
layout of `models`; the placement optimum comes from exhaustive grid
search; and the weighted mean is plain Python arithmetic.
"""

import math

import numpy as np

__all__ = ["rate_direct", "tx_time", "user_compute_time", "user_compute_energy",
           "round_duration", "uav_round_energy", "log_probs", "loss_and_grad", "local_train",
           "grid_placement", "weighted_mean_direct"]


def rate_direct(bandwidth: float, tx_power: float, altitude: float,
                horizontal: float, ref_gain: float = 1e-5,
                noise: float = 1e-12) -> float:
    """Direct evaluation of the link rate formula, bit/s."""
    if not all(0 < v < math.inf for v in (bandwidth, tx_power, ref_gain, noise)):
        raise ValueError("bandwidth, transmit power, gain and noise must be positive and finite")
    if not bandwidth < 2.0 ** 1014:  # log2(1 + snr) <= 1024 at every finite SNR
        raise ValueError("bandwidth must be below 2**1014 Hz for a finite rate")
    try:
        dist_sq = altitude ** 2 + horizontal ** 2
    except OverflowError:
        dist_sq = math.inf
    if not (altitude >= 0 and horizontal >= 0 and 0 < dist_sq < math.inf):
        raise ValueError("altitude and horizontal distance must be >= 0, slant distance > 0 "
                         "and its square finite")
    snr = ref_gain * tx_power / (noise * dist_sq) if noise * dist_sq > 0 else math.inf
    if snr == math.inf:
        raise ValueError("the SNR must be finite (the link is too short for its power)")
    return bandwidth * math.log2(1.0 + snr)


def tx_time(payload_bits: float, rate):
    """Seconds to push `payload_bits` through each link at `rate` bit/s."""
    if np.min(rate) <= 0:
        raise ValueError("rate must be positive")
    if payload_bits < 0:
        raise ValueError("payload_bits must be non-negative")
    return payload_bits / rate


def user_compute_time(samples: int, bits_per_sample: int, cycles_per_bit: int,
                      cpu_freq: float, epochs: int) -> float:
    """Seconds a user spends on local training.

    Every bit of the local data costs `cycles_per_bit` CPU cycles, once per
    epoch: epochs * samples * bits_per_sample * cycles_per_bit / cpu_freq.
    """
    if cpu_freq <= 0:
        raise ValueError("cpu_freq must be positive")
    return epochs * samples * bits_per_sample * cycles_per_bit / cpu_freq


def user_compute_energy(cpu_freq: float, total_cycles: float, kappa: float) -> float:
    """Effective-capacitance compute energy: kappa * f^2 * cycles."""
    return kappa * cpu_freq ** 2 * total_cycles


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


def _forward(params: np.ndarray, spec, x: np.ndarray):
    """The inputs with their bias column, the weight matrices, the hidden
    activations without and with theirs (None for logistic), the log-probs."""
    xe, weights, hidden = _with_bias(x), _unpack(params, spec), None
    if spec.kind == "mlp":
        a1 = np.tanh(xe @ weights[0])
        hidden = (a1, _with_bias(a1))
    logits = (xe if hidden is None else hidden[1]) @ weights[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    return xe, weights, hidden, shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def log_probs(params: np.ndarray, spec, x: np.ndarray) -> np.ndarray:
    """Each row's log-probabilities over the classes."""
    return _forward(params, spec, x)[3]


def loss_and_grad(params: np.ndarray, spec, x: np.ndarray, y: np.ndarray):
    """Mean softmax cross-entropy over the batch and its gradient,
    flattened to match the parameter layout."""
    n = x.shape[0]
    xe, weights, hidden, log_p = _forward(params, spec, x)
    loss = -float(log_p[np.arange(n), y].mean())

    dlogits = np.exp(log_p)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    if hidden is None:
        return loss, (xe.T @ dlogits).ravel()
    a1, a1e = hidden
    gw2 = a1e.T @ dlogits
    dz1 = (dlogits @ weights[1][:-1].T) * (1.0 - a1 * a1)
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


# The most points a grid_placement grid may hold: twice the 1,002 x 1,002
# of a 1 m grid over a 1000 m area, about 16 MB per float64 array.
GRID_POINT_LIMIT = 2_000_000


def _grid_axes(x_span, y_span, step: float, name: str):
    """The axes `np.arange(lo, hi + step, step)` of a grid over two
    (lo, hi) spans, refused before either is built when `step` vanishes next
    to a span end (the axis would be empty or repeat points) or when the grid
    would hold more than GRID_POINT_LIMIT points."""
    for end in (*x_span, *y_span):
        if end + step == end:
            raise ValueError(f"{name}={step:g} vanishes next to a coordinate of {end:g}")
    # points per axis as np.arange counts them, capped so that an infinite
    # span still compares
    counts = [math.ceil(min((hi + step - lo) / step, GRID_POINT_LIMIT + 1))
              for lo, hi in (x_span, y_span)]
    if counts[0] * counts[1] > GRID_POINT_LIMIT:
        raise ValueError(f"{name}={step:g} asks for a grid of more than "
                         f"{GRID_POINT_LIMIT} points")
    return [np.arange(lo, hi + step, step) for lo, hi in (x_span, y_span)]


def grid_placement(users, altitude: float, grid_m: float = 1.0, refine_m: float = 0.01):
    """Exhaustive search for the minimum-sum-distance hovering point.

    Scans the user bounding box (the optimum lies in the users' convex
    hull) on a `grid_m` grid, then refines on a `refine_m` grid around the
    best coarse cell. Returns (x, y, objective).
    """
    users = [(float(x), float(y)) for x, y in users]
    if not users:
        raise ValueError("users must be non-empty")
    if not (grid_m > 0 and refine_m > 0):
        raise ValueError("grid steps must be positive")
    if not (altitude >= 0 and altitude * altitude < math.inf):
        raise ValueError("altitude must be >= 0 and its square finite")
    xs, ys = zip(*users)
    bx, by, _ = _grid_best(*_grid_axes((min(xs), max(xs)), (min(ys), max(ys)),
                                       grid_m, "grid_m"), users, altitude)
    return _grid_best(*_grid_axes((bx - grid_m, bx + grid_m), (by - grid_m, by + grid_m),
                                  refine_m, "refine_m"), users, altitude)


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
