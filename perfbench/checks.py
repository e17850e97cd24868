"""Correctness checks for the benchmark workloads.

Every check takes the program's outputs together with the inputs the
program was given and returns a list of problems, empty when the
outputs are right. Expected values are worked out here from the inputs,
from properties the method must have and from the wire layout in the
README; none is a copy of an earlier run's output.
"""

from __future__ import annotations

import math

import numpy as np

HEADER_BITS = 27 * 8  # the CQ01 header: magic, scheme, n, d, k, seed, length
SCALE_TAIL_BITS = 64  # big-endian float64 scale after terngrad/rotate-sign
ROTATED = ("hadamard-cq", "independent-rotation", "rotate-sign")
UNBIASED = (
    "correlated-1bit",
    "correlated-klevel",
    "entropy-cq",
    "independent",
    "independent-rotation",
    "terngrad",
)
# For an unbiased estimator E[bias_sq] = E[mean_variance] / (trials - 1):
# bias_sq is the squared norm of the mean error of `trials` independent
# estimates and mean_variance their (1/trials-normalised) spread. Summed
# over d ~ 1000 coordinates the ratio of the two has a relative spread of
# about sqrt(2/d) ~ 5%, so twice the expectation is many deviations out.
UNBIASED_GATE = 2.0
# mse and bias_sq + mean_variance are two routes to the same total; they
# may differ by rounding in the one-pass variance, which scales with the
# squared norm bound R^2 of the batch.
DECOMPOSITION_RTOL = 1e-9


def index_bits(levels: int) -> int:
    """ceil(log2 levels), the fixed-width index size."""
    return math.ceil(math.log2(levels))


def padded(d: int) -> int:
    """The power-of-two dimension the rotated schemes transmit."""
    m = 1
    while m < d:
        m *= 2
    return m


def fixed_message_bits(scheme: str, d: int, k: int) -> int:
    """Exact bits per client message for the fixed-width schemes."""
    payload_d = padded(d) if scheme in ROTATED else d
    levels = {"correlated-1bit": 2, "rotate-sign": 2, "terngrad": 3}.get(scheme, k)
    tail = SCALE_TAIL_BITS if scheme in ("terngrad", "rotate-sign") else 0
    return HEADER_BITS + payload_d * index_bits(levels) + tail


def concentration(vectors: np.ndarray) -> float:
    """Mean distance of the client vectors to their mean."""
    dev = vectors - vectors.mean(axis=0)
    return float(np.sqrt((dev * dev).sum(axis=1)).mean())


def norm_bound(vectors: np.ndarray) -> float:
    return float(np.sqrt((vectors * vectors).sum(axis=1)).max())


def vector_ceiling(vectors: np.ndarray, k: int) -> float:
    """The paper's k-level MSE ceiling for coordinate-wise quantization of
    a radius-R batch over [-R, R], summed over the d coordinates."""
    n, d = vectors.shape
    sigma, radius = concentration(vectors), norm_bound(vectors)
    lead = (12.0 / n) * min(
        2.0 * math.sqrt(d) * sigma * radius / k, 4.0 * d * radius**2 / k**2
    )
    return lead + 192.0 * d * radius**2 / (n**2 * k**2)


def clipping_bias_budget(vectors: np.ndarray) -> float:
    """Squared-bias budget of the rotated correlated scheme, whose only
    bias is the clipped tail: 18 R^2 ln(mn) / (m^3 n^4), m the padded d."""
    n, d = vectors.shape
    m = padded(d)
    return 18.0 * norm_bound(vectors) ** 2 * math.log(m * n) / (m**3 * n**4)


def check_dme(reports: dict, vectors: dict, k: int, trials: int) -> list[str]:
    """reports and vectors map each scheme to its TrialReport and to the
    (n, d) client vectors it was run on, with k levels and `trials` trials."""
    problems = []
    for scheme, rep in reports.items():
        x = vectors[scheme]
        n, d = x.shape
        if (rep.scheme, rep.n, rep.d, rep.trials) != (scheme, n, d, trials):
            problems.append(f"{scheme}: report describes another run")
        if not (math.isfinite(rep.mse) and rep.mse >= 0.0):
            problems.append(f"{scheme}: mse {rep.mse!r} is not a finite square")
        total = rep.bias_sq + rep.mean_variance
        if abs(rep.mse - total) > DECOMPOSITION_RTOL * norm_bound(x) ** 2:
            problems.append(
                f"{scheme}: mse {rep.mse!r} != bias_sq + variance {total!r}"
            )
        if scheme != "entropy-cq":
            want = fixed_message_bits(scheme, d, k)
            if rep.bits_per_client != want:
                problems.append(f"{scheme}: {rep.bits_per_client!r} bits, want {want}")
        spread = rep.mean_variance / (trials - 1)
        if scheme in UNBIASED and not rep.bias_sq <= UNBIASED_GATE * spread:
            problems.append(f"{scheme}: bias_sq {rep.bias_sq!r} fails the gate")
        if scheme == "hadamard-cq":
            budget = clipping_bias_budget(x) + UNBIASED_GATE * spread
            if not rep.bias_sq <= budget:
                problems.append(f"hadamard-cq: bias_sq {rep.bias_sq!r} > {budget!r}")

    if "entropy-cq" in reports:
        rep = reports["entropy-cq"]
        d = vectors["entropy-cq"].shape[1]
        low = HEADER_BITS + d
        high = HEADER_BITS + d * (2 * math.floor(math.log2(k)) + 1)
        if not low <= rep.bits_per_client <= high:
            problems.append(f"entropy-cq: {rep.bits_per_client!r} bits outside [{low}, {high}]")
        if rep.mse != reports["correlated-klevel"].mse:
            problems.append("entropy-cq: mse differs from correlated-klevel's")
    klevel = reports["correlated-klevel"]
    ceiling = vector_ceiling(vectors["correlated-klevel"], k)
    if not klevel.mse <= ceiling:
        problems.append(f"correlated-klevel: mse {klevel.mse!r} above ceiling {ceiling!r}")
    for better, worse in (
        ("correlated-klevel", "independent"),
        ("hadamard-cq", "independent-rotation"),
    ):
        if not reports[better].mse < reports[worse].mse:
            problems.append(f"{better} does not beat {worse}")
    return problems


def check_exact(reports: dict) -> list[str]:
    """Constant batches on the one-bit grid are recovered exactly, and each
    client pays the header plus one bit."""
    want = HEADER_BITS + index_bits(2)
    problems = []
    for label, rep in reports.items():
        if rep.mse != 0.0:
            problems.append(f"{label}: mse {rep.mse!r} on an exact batch")
        if rep.bits_per_client != want:
            problems.append(f"{label}: {rep.bits_per_client!r} bits, want {want}")
    return problems


def check_tasks(results: dict, runs: dict) -> list[str]:
    """results maps each task run to its TaskResult; runs maps it to a
    dict holding what the check needs: the per-message dimension `dim`,
    `messages` per round, `k`, and for fedavg `classes`, for sgd the data
    matrix `X`, `l2`, `eta`, `radius_domain` and `rounds`."""
    problems = []
    for name, res in results.items():
        run = runs[name]
        if not all(math.isfinite(m) for m in res.metrics):
            problems.append(f"{name}: non-finite metric")
        want = run["messages"] * (HEADER_BITS + run["dim"] * index_bits(run["k"]))
        if any(b != want for b in res.bits_per_round):
            problems.append(f"{name}: bits per round {res.bits_per_round[0]!r}, want {want}")
        if name == "fedavg" and not res.final_metric >= 5.0 / run["classes"]:
            problems.append(f"fedavg: accuracy {res.final_metric!r} near chance")
        if name == "sgd":
            X = run["X"]
            smooth = np.linalg.eigvalsh(X.T @ X / X.shape[0])[-1] / 4.0 + run["l2"]
            bound = (smooth + 1.0 / run["eta"]) * run["radius_domain"] ** 2 / run["rounds"]
            if not res.final_metric <= bound:
                problems.append(f"sgd: gap {res.final_metric!r} above bound {bound!r}")
    return problems
