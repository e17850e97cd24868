"""Distributed computations built on the quantized-mean primitive.

Every task follows the same round structure: clients derive a vector
from local data, the vectors are aggregated with one of the quantizer
schemes (or sent exact with scheme "none"), and the server updates its
state from the aggregate. Implemented tasks: Lloyd's k-means, power
iteration for the top eigenvector, projected distributed SGD, and
federated averaging for multinomial logistic regression.

Side information conventions. The quantizers need a norm bound known to
both ends. Gradient-style rounds (SGD, FedAvg) clip client vectors to
the configured radius, so the bound is static. k-means and power
iteration rounds instead use the round's max client norm, which travels
uncompressed next to the k-means point counts; both are a few scalars
per round and are excluded from the bit accounting, which prices only
the quantized payloads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bitcodec as bc
from .harness import SCHEMES, run_round
from .randomness import derive_key
from .vector_quant import VectorBatch

TASK_SCHEMES = ("none",) + SCHEMES


class DatasetError(ValueError):
    """A dataset file is missing or malformed."""


class DegenerateInputError(ValueError):
    """The task's input admits no meaningful answer (e.g. all-zero data)."""


class DivergenceError(RuntimeError):
    """An optimization run blew past the divergence threshold."""

    def __init__(self, round_index: int, metric: float):
        super().__init__(
            f"diverged at round {round_index}: metric {metric:.3e} exceeds 1e6"
        )
        self.round_index = round_index
        self.metric = metric


@dataclass(frozen=True)
class ShardedDataset:
    """Per-client data shards with optional per-point labels."""

    shards: tuple[np.ndarray, ...]
    labels: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.shards) == 0:
            raise ValueError("need at least one shard")
        shards = tuple(np.asarray(s, dtype=np.float64) for s in self.shards)
        object.__setattr__(self, "shards", shards)
        d = shards[0].shape[1] if shards[0].ndim == 2 else -1
        for i, s in enumerate(shards):
            if s.ndim != 2 or s.shape[0] == 0 or s.shape[1] != d:
                raise ValueError(f"shard {i} must be non-empty with {d} columns")
            if not np.all(np.isfinite(s)):
                raise ValueError(f"shard {i} holds a non-finite value")
        if self.labels is not None:
            labels = tuple(np.asarray(l) for l in self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != len(shards):
                raise ValueError("labels must match shards")
            for i, (s, l) in enumerate(zip(shards, labels)):
                if l.shape != (s.shape[0],):
                    raise ValueError(f"labels of shard {i} have the wrong length")

    @property
    def n_clients(self) -> int:
        return len(self.shards)

    @property
    def d(self) -> int:
        return self.shards[0].shape[1]

    @property
    def total_points(self) -> int:
        return sum(s.shape[0] for s in self.shards)

    def stacked(self) -> np.ndarray:
        return np.concatenate(self.shards, axis=0)

    def stacked_labels(self) -> np.ndarray:
        if self.labels is None:
            raise ValueError("dataset carries no labels")
        return np.concatenate(self.labels)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by the SGD-style tasks.

    The step size is 1/(L + 1/eta) for the problem's smoothness L unless
    lr is given explicitly. radius_domain is the projection ball D;
    radius_grad is the clip bound R applied to every client vector
    before quantization.
    """

    rounds: int
    scheme: str = "none"
    k: int = 2
    eta: float = 1.0
    lr: float | None = None
    radius_domain: float = 10.0
    radius_grad: float = 1.0
    local_epochs: int = 1
    local_lr: float = 0.1

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("need rounds >= 1")
        if self.scheme not in TASK_SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.k < 2:
            raise ValueError("need k >= 2")
        for name in ("eta", "lr", "radius_domain", "radius_grad", "local_lr"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.local_epochs < 1:
            raise ValueError("need local_epochs >= 1")

    def step_size(self, smoothness: float) -> float:
        if self.lr is not None:
            return self.lr
        return 1.0 / (smoothness + 1.0 / self.eta)


@dataclass(frozen=True)
class TaskResult:
    """Round-by-round trajectory of one task run."""

    task: str
    scheme: str
    metrics: tuple[float, ...]
    bits_per_round: tuple[float, ...]

    @property
    def rounds(self) -> int:
        return len(self.metrics)

    @property
    def final_metric(self) -> float:
        return self.metrics[-1]

    def to_csv(self) -> str:
        lines = ["round,metric,bits"]
        for t, (m, b) in enumerate(zip(self.metrics, self.bits_per_round)):
            lines.append(f"{t},{m!r},{b!r}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The aggregation round
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundResult:
    """Server-side outcome of one quantized aggregation round."""

    estimate: np.ndarray
    per_client: np.ndarray
    bits_per_client: float


def quantized_round(
    vectors: np.ndarray,
    scheme: str,
    k: int,
    seed: int,
    radius: float | None = None,
) -> RoundResult:
    """Run one aggregation round over the clients' vectors.

    radius None uses the round's max client norm as the shared bound
    (side information, see the module docstring); an explicit radius
    asserts every vector already fits inside it (VectorBatch rejects a
    radius that is not positive and finite). bits_per_client is the mean
    exact message size including the wire header. Without a radius, a
    round where every client holds the zero vector transmits nothing
    beyond the header (the ball is a single point) and decodes to exact
    zeros. With an explicit radius the same round runs the full
    quantizer: every client pays its full message, and the estimate
    carries the quantizer's unbiased noise (about 0.03 per coordinate for
    four clients at k = 4 in the unit ball). That is expected: no client
    can know that every other client is zero. A per-client zero flag
    would cost a bit in every message of every round.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("vectors must be (n_clients, dim)")
    dim = vectors.shape[1]
    if scheme not in TASK_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "none":
        return RoundResult(
            vectors.mean(axis=0), vectors, float(bc.HEADER_BITS + 64 * dim)
        )
    if radius is not None:
        batch = VectorBatch(vectors, float(radius))
    elif vectors.any():
        batch = VectorBatch.from_vectors(vectors)
    else:  # the ball is a single point
        zeros = np.zeros_like(vectors)
        return RoundResult(np.zeros(dim), zeros, float(bc.HEADER_BITS))
    r = run_round(batch, scheme, k, derive_key(seed, "ctx"))
    return RoundResult(r.estimate, r.per_client, float(r.bits.mean()))


def _clip_rows(vectors: np.ndarray, radius: float) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    return vectors * np.minimum(1.0, radius / np.maximum(norms, 1e-300))


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def _nearest(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each point's nearest center, ties to the lowest index: bit for bit
    the argmin of the (N, C, d) broadcast
    ((points[:, None] - centers[None]) ** 2).sum(axis=2).

    One GEMM scores every pair as ||c||^2 - 2 x.c, the squared distance
    minus ||x||^2. To first order in eps, in any summation order, the
    score is within (d + 1) eps T of that and the broadcast's distance
    (a sum of nonnegative terms) within (d + 2) eps T of the exact one,
    T = ||x||^2 + max ||c||^2. Allowing each twice that, a row whose two
    smallest scores are more than 8 (d + 2) eps T apart has a strict
    broadcast minimum at the same center; rows within the bound are
    redone by the broadcast.
    """
    if centers.shape[0] == 1:
        return np.zeros(points.shape[0], dtype=np.int64)
    c2 = np.einsum("ij,ij->i", centers, centers)
    scores = c2 - 2.0 * (points @ centers.T)
    assign = scores.argmin(axis=1)
    low2 = np.partition(scores, 1, axis=1)
    x2 = np.einsum("ij,ij->i", points, points)
    eps = np.finfo(np.float64).eps
    bound = 8.0 * (points.shape[1] + 2) * eps * (x2 + c2.max())
    near = np.flatnonzero(low2[:, 1] - low2[:, 0] <= bound)
    if near.size:
        diff = points[near, None, :] - centers[None, :, :]
        assign[near] = (diff**2).sum(axis=2).argmin(axis=1)
    return assign


def kmeans_objective(points: np.ndarray, centers: np.ndarray) -> float:
    """Mean squared distance of each point to its nearest center."""
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    return float(_sq_dists(points, centers, _nearest(points, centers)).mean())


def _sq_dists(points: np.ndarray, centers: np.ndarray, assign=None) -> np.ndarray:
    """((points - centers[assign]) ** 2).sum(axis=1), or to one center if
    assign is None, bit for bit in blocks of 128 rows: no (N, d) temporary."""
    out = np.empty(len(points))
    for lo in range(0, len(points), 128):
        rows = slice(lo, lo + 128)
        diff = points[rows] - (centers if assign is None else centers[assign[rows]])
        diff *= diff
        out[rows] = diff.sum(axis=1)
    return out


def _kmeans_pp_init(points: np.ndarray, centers: int, rng) -> np.ndarray:
    chosen = [points[rng.integers(points.shape[0])]]
    d2 = _sq_dists(points, chosen[0])  # to the nearest chosen center
    for _ in range(centers - 1):
        total = d2.sum()
        if total == 0:
            idx = rng.integers(points.shape[0])
        else:
            idx = rng.choice(points.shape[0], p=d2 / total)
        chosen.append(points[idx])
        d2 = np.minimum(d2, _sq_dists(points, points[idx]))
    return np.array(chosen)


def distributed_kmeans(
    data: ShardedDataset,
    centers: int,
    rounds: int,
    scheme: str,
    seed: int,
    k: int = 2,
) -> TaskResult:
    """Lloyd's iterations with quantized per-center aggregation.

    Each round every client assigns its points to the nearest centers
    and reports one local mean per center (a client with an empty local
    cluster reports the current center); the exact local counts travel
    uncompressed, and the server takes the count-weighted mean of the
    decoded client means. A center that is empty everywhere keeps its
    position. Initialization is k-means++ on the pooled points. The
    metric is the global objective after each update; with scheme "none"
    this is exact Lloyd's and the trajectory is non-increasing.
    """
    if centers < 1 or rounds < 1:
        raise ValueError("need centers >= 1 and rounds >= 1")
    if k < 2:
        raise ValueError("need k >= 2")
    pooled = data.stacked()
    if centers > pooled.shape[0]:
        raise ValueError(f"{centers} centers but only {pooled.shape[0]} points")
    rng = np.random.default_rng(derive_key(seed, "kmeans-init"))
    current = _kmeans_pp_init(pooled, centers, rng)

    metrics = []
    bits = []
    for t in range(rounds):
        local_means = np.empty((centers, data.n_clients, data.d))
        counts = np.zeros((centers, data.n_clients))
        for i, shard in enumerate(data.shards):
            assign = _nearest(shard, current)
            for c in range(centers):
                members = shard[assign == c]
                counts[c, i] = members.shape[0]
                local_means[c, i] = (
                    members.mean(axis=0) if members.size else current[c]
                )
        round_bits = 0.0
        new_centers = current.copy()
        for c in range(centers):
            result = quantized_round(
                local_means[c], scheme, k, derive_key(seed, "round", t, "center", c)
            )
            round_bits += result.bits_per_client
            weight = counts[c]
            if weight.sum() > 0:
                new_centers[c] = (
                    weight[:, None] * result.per_client
                ).sum(axis=0) / weight.sum()
        current = new_centers
        metrics.append(kmeans_objective(pooled, current))
        bits.append(round_bits)
    return TaskResult("kmeans", scheme, tuple(metrics), tuple(bits))


# ---------------------------------------------------------------------------
# Power iteration
# ---------------------------------------------------------------------------


_POWER_STEPS = 50  # matrix-vector products before falling back to eigh
_ANGLE_EPS = 16  # accepted sine of the angle to v1, in machine epsilons


def top_eigenvector(data: ShardedDataset) -> tuple[np.ndarray, float]:
    """Central reference: the top eigenvector v1 of A = (1/N) X^T X and
    its eigenvalue lambda1.

    Power iteration on the pooled data, v <- X^T (X v) / N, without
    forming A (Golub and Van Loan, Matrix Computations, sec. 8.2). The
    start vector is pseudo-random and depends on d only. With Rayleigh
    quotient lam = v.Av <= lambda1 and A positive semidefinite,
    lambda2 <= trace(A) - lambda1 <= trace(A) - lam, so every other
    eigenvalue is at least 2 lam - trace(A) below lam. By Davis-Kahan
    sin(angle(v, v1)) <= ||Av - lam v|| / (2 lam - trace(A)), and v is
    accepted once that bound is below 16 eps. Spectra that give no such
    gap (a repeated or nearly repeated top eigenvalue, or lambda1 at most
    half the trace) and iterations that take more than 50 products fall
    back to a full eigh of A.
    """
    pooled = data.stacked()
    n_points, d = pooled.shape
    trace = float(np.einsum("ij,ij->", pooled, pooled)) / n_points
    tol = _ANGLE_EPS * np.finfo(np.float64).eps
    v = np.random.default_rng(derive_key(0, "power-reference", d)).normal(size=d)
    v /= np.linalg.norm(v)
    for _ in range(_POWER_STEPS):
        w = pooled.T @ (pooled @ v) / n_points
        lam = float(v @ w)
        residual = float(np.linalg.norm(w - lam * v))
        if residual < tol * (2 * lam - trace):
            return v, lam
        if residual <= tol * lam and 2 * lam <= trace:
            break  # converged (w = 0 included), but no gap can be certified
        v = w / np.linalg.norm(w)
    eigvals, eigvecs = np.linalg.eigh(pooled.T @ pooled / n_points)
    return eigvecs[:, -1], float(eigvals[-1])


def subspace_error(v: np.ndarray, v_star: np.ndarray) -> float:
    """Projector distance ||v v^T - v* v*^T||_F^2 / 2 for unit vectors:
    the squared sine ||v - (v . v*) v*||^2, which, unlike the equal
    1 - (v . v*)^2, cannot round below zero. Sign-blind in both."""
    residual = v - np.dot(v, v_star) * v_star
    return float(np.dot(residual, residual))


def distributed_power_iteration(
    data: ShardedDataset,
    rounds: int,
    scheme: str,
    seed: int,
    k: int = 2,
) -> TaskResult:
    """Estimate the top eigenvector of the pooled second-moment matrix.

    Client i sends (n/N) X_i^T (X_i v_t) so the plain client mean equals
    A v_t; the server aggregates with the chosen scheme and normalizes.
    The metric per round is the sign-invariant subspace error against
    the centrally computed eigenvector (top_eigenvector).
    """
    if rounds < 1:
        raise ValueError("need rounds >= 1")
    if k < 2:
        raise ValueError("need k >= 2")
    if not any(shard.any() for shard in data.shards):
        raise DegenerateInputError("all data points are zero")
    v_star, _ = top_eigenvector(data)
    n, total = data.n_clients, data.total_points

    rng = np.random.default_rng(derive_key(seed, "power-init"))
    v = rng.normal(size=data.d)
    v /= np.linalg.norm(v)

    metrics = []
    bits = []
    for t in range(rounds):
        products = np.stack(
            [(n / total) * shard.T @ (shard @ v) for shard in data.shards]
        )
        result = quantized_round(
            products, scheme, k, derive_key(seed, "round", t)
        )
        norm = np.linalg.norm(result.estimate)
        if norm > 0:
            v = result.estimate / norm
        metrics.append(subspace_error(v, v_star))
        bits.append(result.bits_per_client)
    return TaskResult("power", scheme, tuple(metrics), tuple(bits))


# ---------------------------------------------------------------------------
# Convex objectives for SGD
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SgdProblem:
    """A convex objective split across clients.

    kind "quadratic" treats labels as regression targets with
    F(w) = (1/2N) ||Xw - y||^2; kind "logistic" treats labels as +-1 with
    F(w) = (1/N) sum softplus(-y x.w) + (l2/2)||w||^2. Client i's message
    is (n/N) times its local gradient sum, so the plain client mean is
    the exact global gradient. The l2 term is applied server-side (the
    server knows w; regularization costs no communication).
    """

    kind: str
    data: ShardedDataset
    l2: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("quadratic", "logistic"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.data.labels is None:
            raise ValueError("SGD needs labeled data")
        if self.l2 < 0:
            raise ValueError("l2 must be nonnegative")
        if self.kind == "logistic":
            y = self.data.stacked_labels()
            if not np.all(np.isin(y, (-1, 1))):
                raise ValueError("logistic labels must be +-1")

    @property
    def dim(self) -> int:
        return self.data.d

    def value(self, w: np.ndarray) -> float:
        X = self.data.stacked()
        y = self.data.stacked_labels().astype(np.float64)
        if self.kind == "quadratic":
            r = X @ w - y
            return float(0.5 * (r @ r) / X.shape[0])
        margins = -y * (X @ w)
        return float(
            np.logaddexp(0.0, margins).mean() + 0.5 * self.l2 * (w @ w)
        )

    def client_gradients(self, w: np.ndarray) -> np.ndarray:
        """(n, d) matrix whose client mean is the unregularized global
        gradient."""
        n, total = self.data.n_clients, self.data.total_points
        rows = []
        for shard, lab in zip(self.data.shards, self.data.labels):
            y = np.asarray(lab, dtype=np.float64)
            if self.kind == "quadratic":
                g = shard.T @ (shard @ w - y)
            else:
                s = 1.0 / (1.0 + np.exp(y * (shard @ w)))
                g = shard.T @ (-y * s)
            rows.append((n / total) * g)
        return np.stack(rows)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return self.client_gradients(w).mean(axis=0) + self.l2 * w

    def smoothness(self) -> float:
        X = self.data.stacked()
        top = float(np.linalg.eigvalsh(X.T @ X / X.shape[0])[-1])
        if self.kind == "quadratic":
            return top
        return top / 4.0 + self.l2

    def solve_optimum(self, domain_radius: float) -> tuple[np.ndarray, float]:
        """Reference optimum inside the projection ball.

        Quadratic: the min-norm least-squares solution (exact). Logistic:
        the unconstrained optimum by damped Newton when it lies strictly
        inside the ball, else a long projected gradient run at the
        optimal-smoothness step; either is independent of any quantized
        trajectory.
        """
        X = self.data.stacked()
        y = self.data.stacked_labels().astype(np.float64)
        if self.kind == "quadratic":
            w_star, *_ = np.linalg.lstsq(X, y, rcond=None)
            if np.linalg.norm(w_star) > domain_radius:
                raise ValueError(
                    "least-squares optimum escapes the projection ball"
                )
            return w_star, self.value(w_star)
        w = self._logistic_newton(X, y)
        if w is not None and np.linalg.norm(w) < domain_radius:
            return w, self.value(w)
        w = np.zeros(self.dim)
        step = 1.0 / self.smoothness()
        for _ in range(20_000):
            w = w - step * self.gradient(w)
            norm = np.linalg.norm(w)
            if norm > domain_radius:
                w *= domain_radius / norm
        return w, self.value(w)

    def _logistic_newton(self, X: np.ndarray, y: np.ndarray) -> np.ndarray | None:
        """Unconstrained minimizer of the logistic objective by Newton steps
        with backtracking (Boyd and Vandenberghe, Convex Optimization,
        sec. 9.5); None unless the gradient norm reaches 1e-12."""
        N, d = X.shape
        Xy = X * y[:, None]

        def value(w):
            return np.logaddexp(0.0, -(Xy @ w)).mean() + 0.5 * self.l2 * (w @ w)

        w = np.zeros(d)
        f = value(w)
        for _ in range(100):
            s = 0.5 * (1.0 - np.tanh(0.5 * (Xy @ w)))  # sigmoid(-y x.w)
            g = -(Xy.T @ s) / N + self.l2 * w
            if np.linalg.norm(g) <= 1e-12:
                return w
            h = (X.T * (s * (1.0 - s))) @ X / N + self.l2 * np.eye(d)
            try:
                step = np.linalg.solve(h, g)
            except np.linalg.LinAlgError:
                return None
            t = 1.0
            while value(w - t * step) > f - 0.25 * t * (g @ step):
                t *= 0.5
                if t < 1e-10:
                    return None
            w = w - t * step
            f = value(w)
        return None


def _project(w: np.ndarray, radius: float) -> np.ndarray:
    norm = np.linalg.norm(w)
    return w if norm <= radius else w * (radius / norm)


def distributed_sgd(
    problem: SgdProblem,
    cfg: OptimizerConfig,
    seed: int,
    reference: tuple[np.ndarray, float] | None = None,
) -> TaskResult:
    """Projected distributed SGD with quantized gradient aggregation.

    Clients clip their messages to cfg.radius_grad before quantization;
    the step size follows cfg (default 1/(H + 1/eta) with H estimated
    from the data). The metric per round is F(average query iterate) -
    F(w*), with w* from the problem's own reference solve; pass a
    precomputed (w*, F*) as `reference` to amortize that solve across
    runs. A metric above 1e6 raises DivergenceError with the round index.
    """
    w = np.zeros(problem.dim)
    if reference is None:
        reference = problem.solve_optimum(cfg.radius_domain)
    _, f_star = reference
    step = cfg.step_size(problem.smoothness())

    iterate_sum = np.zeros(problem.dim)
    metrics = []
    bits = []
    for t in range(cfg.rounds):
        iterate_sum += w
        grads = _clip_rows(problem.client_gradients(w), cfg.radius_grad)
        result = quantized_round(
            grads, cfg.scheme, cfg.k, derive_key(seed, "round", t),
            radius=cfg.radius_grad,
        )
        estimate = result.estimate + problem.l2 * w
        w = _project(w - step * estimate, cfg.radius_domain)
        metric = problem.value(iterate_sum / (t + 1)) - f_star
        if metric > 1e6:
            raise DivergenceError(t, metric)
        metrics.append(metric)
        bits.append(result.bits_per_client)
    return TaskResult("sgd", cfg.scheme, tuple(metrics), tuple(bits))


# ---------------------------------------------------------------------------
# Federated averaging (multinomial logistic regression)
# ---------------------------------------------------------------------------


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _logistic_grad(W: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy gradient for weights W (d+1, classes); X gains
    an implicit all-ones bias column."""
    Xb = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
    probs = _softmax(Xb @ W)
    probs[np.arange(X.shape[0]), y] -= 1.0
    return Xb.T @ probs / X.shape[0]


def model_accuracy(W: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    Xb = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
    return float((np.argmax(Xb @ W, axis=1) == y).mean())


def federated_averaging(
    data: ShardedDataset,
    cfg: OptimizerConfig,
    clients_per_round: int,
    seed: int,
    test_data: tuple[np.ndarray, np.ndarray] | None = None,
) -> TaskResult:
    """Federated averaging of a multinomial logistic model.

    Each round samples clients_per_round clients; every sampled client
    runs cfg.local_epochs full-batch gradient steps at cfg.local_lr from
    the current global model and sends its model delta, clipped to
    cfg.radius_grad and quantized with cfg.scheme. The server adds the
    mean decoded delta. The metric per round is accuracy on test_data
    (or on the pooled training data when no test split is given).
    """
    if data.labels is None:
        raise ValueError("federated averaging needs labeled data")
    if not 1 <= clients_per_round <= data.n_clients:
        raise ValueError("clients_per_round out of range")
    y_all = data.stacked_labels().astype(np.int64)
    if y_all.min() < 0:
        raise ValueError("labels must be nonnegative class ids")
    classes = int(y_all.max()) + 1
    if test_data is None:
        X_eval, y_eval = data.stacked(), y_all
    else:
        X_eval = np.asarray(test_data[0], dtype=np.float64)
        y_eval = np.asarray(test_data[1], dtype=np.int64)

    W = np.zeros((data.d + 1, classes))
    dim = W.size
    metrics = []
    bits = []
    for t in range(cfg.rounds):
        rng = np.random.default_rng(derive_key(seed, "sample", t))
        picked = rng.choice(data.n_clients, size=clients_per_round, replace=False)
        deltas = np.empty((clients_per_round, dim))
        for row, i in enumerate(picked):
            local = W.copy()
            X_i = data.shards[i]
            y_i = np.asarray(data.labels[i], dtype=np.int64)
            for _ in range(cfg.local_epochs):
                local -= cfg.local_lr * _logistic_grad(local, X_i, y_i)
            deltas[row] = (local - W).ravel()
        deltas = _clip_rows(deltas, cfg.radius_grad)
        result = quantized_round(
            deltas, cfg.scheme, cfg.k, derive_key(seed, "round", t),
            radius=cfg.radius_grad,
        )
        W = W + result.estimate.reshape(W.shape)
        metrics.append(model_accuracy(W, X_eval, y_eval))
        bits.append(result.bits_per_client)
    return TaskResult("fedavg", cfg.scheme, tuple(metrics), tuple(bits))


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def two_blob_fixture(
    n_clients: int = 4,
    per_client: int = 50,
    separation: float = 8.0,
    d: int = 2,
    seed: int = 0,
) -> ShardedDataset:
    """Two well-separated Gaussian blobs, split evenly across clients."""
    rng = np.random.default_rng(derive_key(seed, "two-blob"))
    offset = np.zeros(d)
    offset[0] = separation / 2
    shards = []
    labels = []
    for _ in range(n_clients):
        half = per_client // 2
        a = rng.normal(size=(half, d)) - offset
        b = rng.normal(size=(per_client - half, d)) + offset
        shards.append(np.concatenate([a, b]))
        labels.append(np.array([0] * half + [1] * (per_client - half)))
    return ShardedDataset(tuple(shards), tuple(labels))


def mnist_like_fixture(
    n_clients: int = 10,
    per_client: int = 100,
    d: int = 784,
    classes: int = 10,
    seed: int = 0,
    test_points: int = 500,
) -> tuple[ShardedDataset, tuple[np.ndarray, np.ndarray]]:
    """Deterministic stand-in for MNIST: 10 Gaussian clusters in d=784,
    squashed into [0, 1] like pixel intensities. Returns the sharded
    training set and a held-out (X, y) split."""
    rng = np.random.default_rng(derive_key(seed, "mnist-like"))
    root = math.sqrt(d)
    means = rng.normal(size=(classes, d)) * (2.0 / root)

    def draw(count: int) -> tuple[np.ndarray, np.ndarray]:
        y = rng.integers(classes, size=count)
        X = means[y] + rng.normal(size=(count, d)) * (0.8 / root)
        return np.clip(0.5 + X * root / 8.0, 0.0, 1.0), y

    shards = []
    labels = []
    for _ in range(n_clients):
        X, y = draw(per_client)
        shards.append(X)
        labels.append(y)
    X_test, y_test = draw(test_points)
    data = ShardedDataset(tuple(shards), tuple(labels))
    return data, (X_test, y_test)


def quadratic_problem_fixture(
    n_clients: int = 10,
    per_client: int = 40,
    d: int = 12,
    seed: int = 0,
) -> SgdProblem:
    """Well-conditioned least squares with a known in-ball optimum."""
    rng = np.random.default_rng(derive_key(seed, "quadratic"))
    w_true = rng.normal(size=d) / math.sqrt(d)
    shards = []
    targets = []
    for _ in range(n_clients):
        X = rng.normal(size=(per_client, d))
        shards.append(X)
        targets.append(X @ w_true + 0.1 * rng.normal(size=per_client))
    data = ShardedDataset(tuple(shards), tuple(targets))
    return SgdProblem("quadratic", data)


def logistic_problem_fixture(
    n_clients: int = 10,
    per_client: int = 400,
    d: int = 16,
    seed: int = 0,
    l2: float = 1e-3,
) -> SgdProblem:
    """Binary logistic regression whose per-client gradients concentrate
    (every shard is a large i.i.d. sample from the same distribution)."""
    rng = np.random.default_rng(derive_key(seed, "logistic"))
    w_true = rng.normal(size=d)
    w_true /= np.linalg.norm(w_true)
    shards = []
    labels = []
    for _ in range(n_clients):
        X = rng.normal(size=(per_client, d)) / math.sqrt(d)
        margin = X @ w_true + 0.3 * rng.normal(size=per_client)
        shards.append(X)
        labels.append(np.where(margin >= 0, 1, -1))
    data = ShardedDataset(tuple(shards), tuple(labels))
    return SgdProblem("logistic", data, l2=l2)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _parse_rows(
    path: Path, expect_fields: int, id_fields: int
) -> list[list[float]]:
    """The rows of a CSV of finite numbers whose first id_fields columns
    (labels, client ids) hold integers, read as UTF-8."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"{path}: {exc.strerror or 'cannot open'}") from exc
    rows, lineno = [], 0
    with handle:
        try:
            for lineno, row in enumerate(csv.reader(handle), start=1):
                if not row:
                    continue
                if len(row) != expect_fields:
                    raise DatasetError(
                        f"{path}: row {lineno}: expected {expect_fields} fields, "
                        f"got {len(row)}"
                    )
                for column, cell in enumerate(row, start=1):
                    problem = _cell_problem(cell, integer=column <= id_fields)
                    if problem:
                        raise DatasetError(
                            f"{path}: row {lineno}, column {column}: {problem}"
                        )
                rows.append([float(cell) for cell in row])
        except csv.Error as exc:  # such as a field past csv.field_size_limit()
            raise DatasetError(f"{path}: row {lineno + 1}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    return rows


def _cell_problem(cell: str, integer: bool) -> str | None:
    try:
        value = float(cell)
    except ValueError:
        return "not a number"
    if not math.isfinite(value):
        return "not finite"
    if integer and not value.is_integer():
        return "not an integer"
    return None


def load_client_files(
    paths: Sequence[str | Path], features: int = 784
) -> ShardedDataset:
    """One CSV per client, rows `label,p0,...,p{features-1}`; pixel
    values are scaled from [0, 255] to [0, 1]."""
    if not paths:
        raise DatasetError("no dataset files given")
    shards = []
    labels = []
    for p in paths:
        rows = np.array(_parse_rows(Path(p), features + 1, id_fields=1))
        labels.append(rows[:, 0].astype(np.int64))
        shards.append(rows[:, 1:] / 255.0)
    return ShardedDataset(tuple(shards), tuple(labels))


def load_single_file(path: str | Path, features: int = 784) -> ShardedDataset:
    """A single CSV with rows `client_id,label,p0,...`; shards are the
    distinct client ids in ascending order."""
    rows = np.array(_parse_rows(Path(path), features + 2, id_fields=2))
    ids = rows[:, 0].astype(np.int64)
    shards = []
    labels = []
    for cid in np.unique(ids):
        part = rows[ids == cid]
        labels.append(part[:, 1].astype(np.int64))
        shards.append(part[:, 2:] / 255.0)
    return ShardedDataset(tuple(shards), tuple(labels))
