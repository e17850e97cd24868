"""The package's headline guarantees, checked end to end.

Every test here pins one user-visible promise: exact recovery on
shared grids, the two-client closed forms, error ceilings and floors,
unbiasedness gates, scheme orderings on synthetic and task workloads,
codec round trips, transform identities, and optimizer bounds. The
tolerances and trial counts are fixed; a failure means the promise is
broken, not that a knob needs retuning.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from corrq import bitcodec as bc
from corrq import harness as hz
from corrq import tasks as tk
from corrq import vector_quant as vq
from corrq.randomness import build_context, derive_key
from corrq.scalar_quant import ScalarBatch, concentration_stats
from corrq.vector_quant import VectorBatch


def test_shared_grid_means_are_recovered_exactly_and_fast():
    t0 = time.perf_counter()
    for n in (2, 4, 8, 100):
        for s in range(n + 1):
            batch = ScalarBatch(np.full(n, s / n), 0.0, 1.0)
            rep = hz.run_dme(
                batch, "correlated-1bit", trials=1000,
                seed=derive_key(7, "exact", n, s), bit_trials=1,
            )
            assert rep.mse == 0.0, (n, s)
    assert time.perf_counter() - t0 < 1.0


def test_two_client_error_matches_closed_forms():
    t0 = time.perf_counter()
    for i, x in enumerate(np.arange(0.1, 0.95, 0.1)):
        batch = ScalarBatch(np.array([x, x]), 0.0, 1.0)
        ri = hz.run_dme(batch, "independent", trials=1_000_000, seed=40 + i)
        rc = hz.run_dme(batch, "correlated-1bit", trials=1_000_000,
                        seed=40 + i)
        want_i = x * (1.0 - x) / 2.0
        want_c = x / 2.0 + max(x - 0.5, 0.0) - x * x
        assert abs(ri.mse - want_i) <= 3.0 * ri.stderr + 1e-12, x
        assert abs(rc.mse - want_c) <= 3.0 * rc.stderr + 1e-12, x
    assert time.perf_counter() - t0 < 30.0


def test_one_bit_error_never_exceeds_ceiling():
    sigmas = np.logspace(-3, -1, 100)
    for i in range(100):
        n = (10, 100, 1000)[i % 3]
        batch = hz.gen_scalar_uniform_mean(n, float(sigmas[i]), seed=i)
        rep = hz.run_dme(batch, "correlated-1bit", trials=10_000, seed=i)
        ceiling = hz.one_bit_envelope(rep.sigma_md, batch.width, n)
        assert rep.mse <= ceiling, (i, n, rep.mse, ceiling)


def test_k_level_error_never_exceeds_ceiling():
    sigmas = np.logspace(-3, -1, 100)
    for i in range(100):
        n = (10, 100, 1000)[i % 3]
        k = (3, 8, 32)[(i // 3) % 3]
        batch = hz.gen_scalar_uniform_mean(n, float(sigmas[i]), seed=500 + i)
        rep = hz.run_dme(batch, "correlated-klevel", trials=10_000,
                         seed=500 + i, k=k)
        ceiling = hz.k_level_envelope(rep.sigma_md, batch.width, n, k)
        assert rep.mse <= ceiling, (i, n, k, rep.mse, ceiling)


def test_error_floors_hold_for_hard_instances():
    # one-bit floor on the endpoint-mixture family
    n, sigma = 10_000, 0.01
    batch = hz.gen_lower_bound_1bit(n, 1.0, sigma, seed=0)
    floor = hz.one_bit_floor(sigma, 1.0, n)
    for scheme in ("correlated-1bit", "independent"):
        rep = hz.run_dme(batch, scheme, trials=2000, seed=5)
        assert rep.mse >= floor, (scheme, rep.mse, floor)

    # k-level floor averaged over every constant batch on the fine grid
    for k in (2, 4):
        batches = hz.constant_grid_batches(10, 1.0, k)
        floor = hz.k_level_floor(1.0, 10, k)
        for scheme in ("correlated-klevel", "independent"):
            mses = [
                hz.run_dme(b, scheme, trials=2000, seed=j, k=k).mse
                for j, b in enumerate(batches)
            ]
            assert np.mean(mses) >= floor, (scheme, k, np.mean(mses), floor)


def test_unbiasedness_gates():
    trials = 100_000
    rng = np.random.default_rng(606)
    unbiased = ("correlated-1bit", "correlated-klevel", "entropy-cq",
                "independent", "independent-rotation", "terngrad")
    for b in range(10):
        batch = VectorBatch.from_vectors(rng.normal(size=(8, 8)))
        for scheme in unbiased:
            k = 2 if scheme == "correlated-1bit" else 4
            rep = hz.run_dme(batch, scheme, trials=trials, seed=700 + b, k=k)
            gate = 4.0 * np.sqrt(rep.mean_variance / trials)
            assert np.sqrt(rep.bias_sq) <= gate, (scheme, b)
        rep = hz.run_dme(batch, "hadamard-cq", trials=trials, seed=700 + b,
                         k=4)
        budget = (
            hz.hadamard_bias_bound(batch.radius, 8, 8)
            + 4.0 * rep.mean_variance / trials
        )
        assert rep.bias_sq <= budget, b


def test_scheme_orderings_across_parameter_grids():
    t0 = time.perf_counter()

    # shared randomness beats private randomness at every concentration
    base = hz.SyntheticSpec(kind="uniform-mean", n=100, d=1024)
    reps = hz.sweep(
        "sigma_md", list(np.logspace(-3, -1, 5)), base,
        ["correlated-1bit", "independent"], trials=100, seed=71,
    )
    for corr, indep in zip(reps[0::2], reps[1::2]):
        assert corr.rmse < indep.rmse, corr.sigma_md

    # error falls as the level count grows
    base = hz.SyntheticSpec(kind="uniform-mean", n=100, d=128, sigma_md=0.01)
    by_k = hz.sweep("k", [2, 4, 8, 16], base, ["correlated-klevel"],
                    trials=100, seed=72)
    rmses = [r.rmse for r in by_k]
    assert all(a > b for a, b in zip(rmses, rmses[1:])), rmses

    # error falls as the cohort grows
    by_n = hz.sweep("n", [10, 30, 100, 300], base, ["correlated-1bit"],
                    trials=100, seed=73)
    rmses = [r.rmse for r in by_n]
    assert all(a > b for a, b in zip(rmses, rmses[1:])), rmses

    # on sparse means the rotated correlated scheme beats everything else
    base = hz.SyntheticSpec(kind="sparse-mean", n=100, d=1024, sigma_md=0.01)
    schemes = ["hadamard-cq", "correlated-klevel", "independent",
               "independent-rotation"]
    reps = hz.sweep("n", [10, 30, 100], base, schemes, trials=100, seed=74)
    for p in range(3):
        point = reps[4 * p:4 * p + 4]
        best, *rest = point
        assert all(best.rmse < r.rmse for r in rest), (
            point[0].n, [r.rmse for r in point]
        )

    assert time.perf_counter() - t0 < 600.0


def test_task_orderings_with_paired_seeds():
    # mean estimation on sparse vectors
    spec = hz.SyntheticSpec(kind="sparse-mean", n=30, d=256, sigma_md=0.01,
                            sparsity=0.02)
    wins = 0
    for t in range(10):
        batch = hz.generate(spec, derive_key(1000 + t, "data"))
        seed = derive_key(2000, "trial-pair", t)
        rot = hz.run_dme(batch, "hadamard-cq", trials=100, seed=seed, k=2)
        corr = hz.run_dme(batch, "correlated-klevel", trials=100, seed=seed,
                          k=2)
        indep = hz.run_dme(batch, "independent", trials=100, seed=seed, k=2)
        wins += rot.mse <= corr.mse and corr.mse < indep.mse
    assert wins >= 9, wins

    data, _ = tk.mnist_like_fixture(n_clients=10, per_client=100, seed=0)

    kmeans_wins = 0
    for t in range(10):
        corr = tk.distributed_kmeans(data, centers=10, rounds=20,
                                     scheme="correlated-klevel", seed=t, k=4)
        indep = tk.distributed_kmeans(data, centers=10, rounds=20,
                                      scheme="independent", seed=t, k=4)
        kmeans_wins += corr.final_metric < indep.final_metric
    assert kmeans_wins >= 9, kmeans_wins

    power_wins = 0
    for t in range(10):
        corr = tk.distributed_power_iteration(
            data, rounds=20, scheme="correlated-klevel", seed=t, k=4
        )
        indep = tk.distributed_power_iteration(
            data, rounds=20, scheme="independent", seed=t, k=4
        )
        power_wins += corr.final_metric < indep.final_metric
    assert power_wins >= 9, power_wins


def test_codec_round_trips_and_exact_bit_counts():
    # every positive integer up to a million survives the gamma code
    values = np.arange(1, 1_000_001, dtype=np.uint64)
    stream = bc.elias_gamma_encode_many(values)
    assert bc.elias_gamma_decode(stream) == values.tolist()

    # large random fixed-width blocks survive packing
    rng = np.random.default_rng(11)
    for k in (2, 3, 5, 17, 1024):
        idx = rng.integers(0, k, size=100_000)
        assert np.array_equal(bc.unpack_fixed(bc.pack_fixed(idx, k), k), idx)

    # random messages survive the full frame
    schemes = list(bc.SCHEME_BYTES)
    for _ in range(10_000):
        payload_bits = rng.integers(0, 2, size=int(rng.integers(0, 64)))
        msg = bc.WireMessage(
            scheme=schemes[int(rng.integers(len(schemes)))],
            n=int(rng.integers(1 << 32)),
            d=int(rng.integers(1 << 32)),
            k=int(rng.integers(1 << 16)),
            seed=int(rng.integers(1 << 63)),
            payload=bc.BitStream.from_bits(payload_bits),
        )
        assert bc.message_decode(bc.message_encode(msg)) == msg

    # the rotated scheme's cost is exactly fixed-width over the padded dim
    for d, k in ((5, 3), (8, 4), (12, 16)):
        vectors = np.random.default_rng(d).normal(size=(6, d))
        batch = VectorBatch.from_vectors(vectors)
        rep = vq.walsh_hadamard_cq(batch, k, 3)
        want = bc.HEADER_BITS + vq.next_pow2(d) * bc.fixed_width(k)
        assert np.all(rep.bits == want), (d, k)


def test_transform_matches_dense_and_runs_subquadratic():
    rng = np.random.default_rng(17)
    for d in (1, 2, 4, 8, 16):
        x = rng.normal(size=d)
        dense = scipy.linalg.hadamard(d) @ x
        assert np.max(np.abs(vq.fwht(x) - dense)) < 1e-10

        signs = build_context(23, n=2, d=d, k=2).rotation_signs
        explicit = scipy.linalg.hadamard(d) @ (signs * x) / np.sqrt(d)
        assert np.max(np.abs(vq.rotate(x, signs) - explicit)) < 1e-10

    big = 1 << 14
    signs = build_context(29, n=2, d=big, k=2).rotation_signs
    v = rng.normal(size=big)
    back = vq.unrotate(vq.rotate(v, signs), signs, big)
    assert np.max(np.abs(back - v)) < 1e-10

    def best_time(dim: int) -> float:
        x = rng.normal(size=dim)
        best = np.inf
        for _ in range(30):
            t0 = time.perf_counter()
            vq.fwht(x)
            best = min(best, time.perf_counter() - t0)
        return best

    # quadratic scaling would cost 16x from 2^12 to 2^14; n log n costs
    # about 4.7x, so anything under 4.6 rules the dense path out
    ratio = best_time(1 << 14) / best_time(1 << 12)
    assert ratio < 4.6, ratio


def test_sgd_bound_and_quantized_ordering():
    # averaged-iterate suboptimality obeys the (H + 1/eta) D^2 / T bound
    prob = tk.quadratic_problem_fixture(seed=0)
    ref = prob.solve_optimum(10.0)
    for rounds in (10, 100):
        cfg = tk.OptimizerConfig(rounds=rounds, scheme="none", eta=1.0)
        res = tk.distributed_sgd(prob, cfg, seed=3, reference=ref)
        bound = (prob.smoothness() + 1.0) * cfg.radius_domain**2 / rounds
        assert 0.0 <= res.final_metric <= bound, rounds

    # with concentrated client gradients the shared-randomness quantizer
    # dominates the private one at equal bit budgets
    logit = tk.logistic_problem_fixture(seed=99)
    logit_ref = logit.solve_optimum(10.0)
    wins = 0
    for t in range(10):
        corr = tk.distributed_sgd(
            logit,
            tk.OptimizerConfig(rounds=100, scheme="correlated-klevel", k=2),
            seed=t, reference=logit_ref,
        )
        indep = tk.distributed_sgd(
            logit,
            tk.OptimizerConfig(rounds=100, scheme="independent", k=2),
            seed=t, reference=logit_ref,
        )
        wins += corr.final_metric < indep.final_metric
    assert wins >= 9, wins
