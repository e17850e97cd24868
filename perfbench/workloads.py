"""The benchmark's workloads.

Each builder makes its inputs from the benchmark seed through the
package's public generators, and returns the fixed list of calls one
round times, the client-coordinates one round aggregates, and the check
of one round's outputs. Import this module only after `corrq` is
importable (run.py puts the checkout's src/ first on sys.path).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import corrq
from corrq import tasks as tk

import checks

# dme: the README experiment, n=100 clients of d=1024 coordinates, over a
# few run seeds so that each timed call stays short (one chunk of trials).
SCHEMES = (
    "correlated-1bit",
    "correlated-klevel",
    "entropy-cq",
    "hadamard-cq",
    "independent",
    "independent-rotation",
    "terngrad",
    "rotate-sign",
)
DME_N, DME_D, DME_SIGMA, DME_K, DME_TRIALS, DME_SEED_SETS = 100, 1024, 0.01, 16, 12, 3
SPARSE_D = 1000  # not a power of two, so the rotated schemes pad to 1024

# scalar-exact: every constant batch on the n-point grid, as in the
# exact-recovery acceptance test, over a few seed sets.
EXACT_NS, EXACT_TRIALS, EXACT_SEED_SETS = (2, 4, 8, 100), 1000, 3

# tasks: the four drivers on their built-in fixtures, over a few driver
# seeds. k-means runs 5 rounds and the logistic reference solve (one 3 s
# call) runs once in set-up, so that no timed call is longer than ~1 s: on
# a shared machine only short calls find quiet stretches (README, "Why
# short calls").
KMEANS_CENTERS, KMEANS_ROUNDS, KMEANS_K = 10, 5, 4
POWER_ROUNDS, POWER_K = 20, 4
FEDAVG_ROUNDS, FEDAVG_K = 10, 16
SGD_ROUNDS, SGD_K = 100, 16
TASK_SEED_SETS = 3


@dataclass
class Workload:
    ops: list[tuple[str, Callable[[], object]]]  # (label, call), timed in order
    coords: int  # client-coordinates quantized and aggregated per round
    check: Callable[[dict], list[str]]  # label -> output, to problems found


def dme(seed: int) -> Workload:
    uniform = corrq.generate(
        corrq.SyntheticSpec("uniform-mean", n=DME_N, d=DME_D, sigma_md=DME_SIGMA),
        corrq.derive_key(seed, "uniform-mean"),
    )
    sparse = corrq.generate(
        corrq.SyntheticSpec("sparse-mean", n=DME_N, d=SPARSE_D, sigma_md=DME_SIGMA),
        corrq.derive_key(seed, "sparse-mean"),
    )
    batches = {s: sparse if s in checks.ROTATED else uniform for s in SCHEMES}
    ops = []
    for j in range(DME_SEED_SETS):
        run_seed = corrq.derive_key(seed, "dme", j)
        for s in SCHEMES:
            k = 2 if s == "correlated-1bit" else DME_K
            ops.append(
                (f"{j}/{s}", partial(corrq.run_dme, batches[s], s, DME_TRIALS, run_seed, k=k))
            )
    coords = DME_SEED_SETS * sum(
        DME_TRIALS * b.n * (checks.padded(b.d) if s in checks.ROTATED else b.d)
        for s, b in batches.items()
    )
    vectors = {s: b.vectors for s, b in batches.items()}

    def check(outputs: dict) -> list[str]:
        return [
            f"seed set {j}: {msg}"
            for j, reports in by_seed_set(outputs).items()
            for msg in checks.check_dme(reports, vectors, DME_K, DME_TRIALS)
        ]

    return Workload(ops, coords, check)


def by_seed_set(outputs: dict) -> dict[str, dict]:
    """Split {"j/name": output} into {j: {name: output}}."""
    sets: dict[str, dict] = {}
    for label, out in outputs.items():
        j, name = label.split("/", 1)
        sets.setdefault(j, {})[name] = out
    return sets


def scalar_exact(seed: int) -> Workload:
    ops = []
    for j in range(EXACT_SEED_SETS):
        for n in EXACT_NS:
            for s in range(n + 1):
                batch = corrq.ScalarBatch(np.full(n, s / n), 0.0, 1.0)
                run_seed = corrq.derive_key(seed, "exact", j, n, s)
                ops.append(
                    (
                        f"{j}/{n}/{s}",
                        partial(
                            corrq.run_dme, batch, "correlated-1bit", EXACT_TRIALS,
                            run_seed, bit_trials=1,
                        ),
                    )
                )
    coords = EXACT_SEED_SETS * EXACT_TRIALS * sum(n * (n + 1) for n in EXACT_NS)
    return Workload(ops, coords, checks.check_exact)


def tasks(seed: int) -> Workload:
    data, test_data = tk.mnist_like_fixture(seed=corrq.derive_key(seed, "fixture"))
    problem = tk.logistic_problem_fixture(seed=corrq.derive_key(seed, "fixture"))
    fedavg_cfg = tk.OptimizerConfig(
        rounds=FEDAVG_ROUNDS, scheme="correlated-klevel", k=FEDAVG_K
    )
    sgd_cfg = tk.OptimizerConfig(rounds=SGD_ROUNDS, scheme="correlated-klevel", k=SGD_K)
    reference = problem.solve_optimum(sgd_cfg.radius_domain)
    ops = []
    for j in range(TASK_SEED_SETS):
        run_seed = corrq.derive_key(seed, "tasks", j)
        kmeans = partial(
            tk.distributed_kmeans, data, KMEANS_CENTERS, KMEANS_ROUNDS, seed=run_seed,
            k=KMEANS_K,
        )
        ops += [
            (
                f"{j}/power",
                partial(
                    tk.distributed_power_iteration, data, POWER_ROUNDS,
                    "correlated-klevel", run_seed, k=POWER_K,
                ),
            ),
            (f"{j}/kmeans-correlated", partial(kmeans, scheme="correlated-klevel")),
            (f"{j}/kmeans-independent", partial(kmeans, scheme="independent")),
            (
                f"{j}/fedavg",
                partial(
                    tk.federated_averaging, data, fedavg_cfg, data.n_clients, run_seed,
                    test_data=test_data,
                ),
            ),
            (
                f"{j}/sgd",
                partial(tk.distributed_sgd, problem, sgd_cfg, run_seed, reference=reference),
            ),
        ]

    clients, d = len(data.shards), data.shards[0].shape[1]
    classes = int(max(labels.max() for labels in data.labels)) + 1
    X = np.concatenate(problem.data.shards)
    sgd_clients, sgd_d = len(problem.data.shards), X.shape[1]
    kmeans_run = {"dim": d, "messages": KMEANS_CENTERS, "k": KMEANS_K}
    runs = {
        "power": {"dim": d, "messages": 1, "k": POWER_K},
        "kmeans-correlated": kmeans_run,
        "kmeans-independent": kmeans_run,
        "fedavg": {"dim": (d + 1) * classes, "messages": 1, "k": FEDAVG_K,
                   "classes": classes},
        "sgd": {"dim": sgd_d, "messages": 1, "k": SGD_K, "X": X, "l2": problem.l2,
                "eta": sgd_cfg.eta, "radius_domain": sgd_cfg.radius_domain,
                "rounds": SGD_ROUNDS},
    }
    coords = TASK_SEED_SETS * (
        POWER_ROUNDS * clients * d
        + 2 * KMEANS_ROUNDS * KMEANS_CENTERS * clients * d
        + FEDAVG_ROUNDS * clients * (d + 1) * classes
        + SGD_ROUNDS * sgd_clients * sgd_d
    )

    def check(outputs: dict) -> list[str]:
        return [
            f"seed set {j}: {msg}"
            for j, results in by_seed_set(outputs).items()
            for msg in checks.check_tasks(results, runs)
        ]

    return Workload(ops, coords, check)


BUILDERS = {"dme": dme, "scalar-exact": scalar_exact, "tasks": tasks}
