"""Distributed optimization tasks built on quantized aggregation."""

import numpy as np
import pytest

import corrq.tasks as tk
import corrq.vector_quant as vq
from corrq.randomness import (
    child_keys,
    derive_key,
    fnv1a64,
    mix64,
    stream_uniform,
)
from test_protocol_oracle import assert_matches, oracle_round


@pytest.fixture(scope="module")
def blob_data():
    return tk.two_blob_fixture(n_clients=4, per_client=60, seed=3)


@pytest.fixture(scope="module")
def digit_data():
    return tk.mnist_like_fixture(per_client=80, seed=8, test_points=300)


class TestQuantizedRound:
    def test_exact_scheme_is_plain_mean(self):
        rng = np.random.default_rng(1)
        vecs = rng.normal(size=(8, 16))
        r = tk.quantized_round(vecs, "none", 2, seed=7)
        assert np.allclose(r.estimate, vecs.mean(axis=0))
        assert r.bits_per_client == 216 + 64 * 16

    @pytest.mark.parametrize("scheme", tk.TASK_SCHEMES[1:])
    def test_quantized_schemes(self, scheme):
        rng = np.random.default_rng(1)
        vecs = rng.normal(size=(8, 16))
        r = tk.quantized_round(vecs, scheme, 4, seed=7)
        assert r.estimate.shape == (16,)
        assert r.per_client.shape == (8, 16)
        assert r.bits_per_client > 216
        r2 = tk.quantized_round(vecs, scheme, 4, seed=7)
        assert np.array_equal(r.estimate, r2.estimate)
        # the server estimate is exactly the mean of the decoded messages
        assert np.allclose(r.per_client.mean(axis=0), r.estimate)

    @pytest.mark.parametrize("scheme", tk.TASK_SCHEMES[1:])
    def test_round_matches_reference_op_bit_for_bit(self, scheme):
        # a round is the engine at one trial keyed by derive_key(seed, "ctx");
        # the protocol oracle computes the same round client by client
        rng = np.random.default_rng(4)
        vecs = rng.normal(size=(9, 13))
        seed, k = 21, 4
        r = tk.quantized_round(vecs, scheme, k, seed=seed)
        batch = vq.VectorBatch.from_vectors(vecs)
        want = oracle_round(batch, scheme, k, derive_key(seed, "ctx"))
        assert_matches(r.per_client, want, scheme, batch.radius)
        assert r.bits_per_client == float(want.bits.mean())

    def test_private_rounding_is_the_counter_stream_of_the_round_key(self):
        # no numpy generator: the round rebuilds from its seed alone, with
        # the "private" stream of derive_key(seed, "ctx")
        rng = np.random.default_rng(4)
        vecs = rng.normal(size=(9, 13))
        r = tk.quantized_round(vecs, "independent", 4, seed=5)
        radius = np.linalg.norm(vecs, axis=1).max()
        root = mix64(np.uint64(derive_key(5, "ctx")))
        key = mix64(root ^ np.uint64(fnv1a64("private")))
        coord_keys = child_keys(key, np.arange(13, dtype=np.uint64))
        u = stream_uniform(coord_keys[:, None], np.arange(9, dtype=np.uint64))
        y = (vecs + radius) / (2 * radius) * 3
        cells = np.clip(np.floor(y), 0, 2)
        idx = cells + (u.T < y - cells)
        assert np.allclose(r.per_client, -radius + 2 * radius * idx / 3)

    def test_zero_round_sends_header_only(self):
        r = tk.quantized_round(np.zeros((5, 3)), "correlated-1bit", 2, seed=1)
        assert r.bits_per_client == 216
        assert not r.estimate.any()

    def test_explicit_radius_changes_grid(self):
        rng = np.random.default_rng(2)
        vecs = rng.normal(size=(6, 4))
        tight = tk.quantized_round(vecs, "correlated-klevel", 8, seed=3)
        loose = tk.quantized_round(vecs, "correlated-klevel", 8, seed=3,
                                   radius=100.0)
        assert not np.allclose(tight.estimate, loose.estimate)

    def test_validation(self):
        with pytest.raises(ValueError):
            tk.quantized_round(np.zeros(5), "none", 2, seed=0)
        with pytest.raises(ValueError):
            tk.quantized_round(np.zeros((5, 3)), "nope", 2, seed=0)


class TestKmeans:
    def test_exact_lloyd_is_monotone(self, blob_data):
        res = tk.distributed_kmeans(blob_data, centers=2, rounds=8,
                                    scheme="none", seed=5)
        m = np.array(res.metrics)
        assert np.all(np.diff(m) <= 1e-9)
        assert m[-1] < 2.0  # two unit blobs in the plane

    def test_quantized_stays_close_and_is_deterministic(self, blob_data):
        a = tk.distributed_kmeans(blob_data, centers=2, rounds=8,
                                  scheme="correlated-klevel", seed=5, k=16)
        b = tk.distributed_kmeans(blob_data, centers=2, rounds=8,
                                  scheme="correlated-klevel", seed=5, k=16)
        assert a.metrics == b.metrics
        assert a.final_metric < 3.0

    def test_validation(self, blob_data):
        with pytest.raises(ValueError):
            tk.distributed_kmeans(blob_data, centers=0, rounds=1,
                                  scheme="none", seed=0)
        with pytest.raises(ValueError):
            tk.distributed_kmeans(blob_data, centers=10_000, rounds=1,
                                  scheme="none", seed=0)


class TestPowerIteration:
    @staticmethod
    def _spectral_shards(seed=9):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        root = q @ np.sqrt(np.diag([5.0, 2.0, 1.0, 0.5, 0.2, 0.1]))
        return tk.ShardedDataset(
            tuple(rng.normal(size=(200, 6)) @ root.T for _ in range(5))
        )

    def test_exact_iteration_converges(self):
        res = tk.distributed_power_iteration(
            self._spectral_shards(), rounds=30, scheme="none", seed=11
        )
        assert res.final_metric < 1e-6

    def test_quantized_iteration_converges(self):
        res = tk.distributed_power_iteration(
            self._spectral_shards(), rounds=30, scheme="correlated-klevel",
            seed=11, k=64,
        )
        assert res.final_metric < 0.05

    def test_subspace_error_endpoints(self):
        v = np.array([1.0, 0.0])
        assert tk.subspace_error(v, v) == pytest.approx(0.0)
        assert tk.subspace_error(v, -v) == pytest.approx(0.0)  # sign-blind
        assert tk.subspace_error(v, np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_degenerate_input_raises(self):
        with pytest.raises(tk.DegenerateInputError):
            tk.distributed_power_iteration(
                tk.ShardedDataset((np.zeros((4, 3)),)), rounds=2,
                scheme="none", seed=0,
            )


class TestSgd:
    def test_average_iterate_bound(self):
        prob = tk.quadratic_problem_fixture(seed=2)
        cfg = tk.OptimizerConfig(rounds=100, scheme="none", eta=1.0)
        res = tk.distributed_sgd(prob, cfg, seed=13)
        bound = (prob.smoothness() + 1.0) * cfg.radius_domain**2 / cfg.rounds
        assert 0.0 <= res.final_metric <= bound

    @pytest.mark.parametrize("make", [
        lambda: tk.quadratic_problem_fixture(seed=2),
        lambda: tk.logistic_problem_fixture(n_clients=4, per_client=80,
                                            seed=4),
    ])
    def test_gradient_matches_finite_differences(self, make):
        prob = make()
        w = np.random.default_rng(3).normal(size=prob.dim) * 0.3
        g = prob.gradient(w)
        eps = 1e-6
        for j in (0, prob.dim - 1):
            e = np.zeros(prob.dim)
            e[j] = eps
            fd = (prob.value(w + e) - prob.value(w - e)) / (2 * eps)
            assert abs(fd - g[j]) < 1e-4

    def test_quantized_sgd_descends(self):
        prob = tk.quadratic_problem_fixture(seed=2)
        exact = tk.distributed_sgd(
            prob, tk.OptimizerConfig(rounds=60, scheme="none"), seed=13
        )
        quant = tk.distributed_sgd(
            prob,
            tk.OptimizerConfig(rounds=60, scheme="correlated-klevel", k=16),
            seed=13,
        )
        assert quant.final_metric < exact.metrics[0]

    def test_shared_reference_matches_fresh_solve(self):
        prob = tk.quadratic_problem_fixture(seed=2)
        cfg = tk.OptimizerConfig(rounds=5, scheme="none")
        ref = prob.solve_optimum(cfg.radius_domain)
        assert tk.distributed_sgd(prob, cfg, seed=1, reference=ref) == (
            tk.distributed_sgd(prob, cfg, seed=1)
        )

    def test_divergence_raises_with_round_index(self):
        prob = tk.quadratic_problem_fixture(seed=2)
        bad = tk.OptimizerConfig(rounds=50, scheme="none", lr=5.0,
                                 radius_domain=1e9, radius_grad=1e9)
        with pytest.raises(tk.DivergenceError) as err:
            tk.distributed_sgd(prob, bad, seed=1)
        assert err.value.round_index >= 0
        assert err.value.metric > 1e6

    def test_logistic_reference_solve_is_stationary(self):
        prob = tk.logistic_problem_fixture(seed=6)
        w_star, f_star = prob.solve_optimum(10.0)
        assert np.linalg.norm(prob.gradient(w_star)) < 1e-6
        assert f_star == pytest.approx(prob.value(w_star))

    def test_config_step_size(self):
        cfg = tk.OptimizerConfig(rounds=1, eta=0.5)
        assert cfg.step_size(3.0) == pytest.approx(1.0 / 5.0)
        assert tk.OptimizerConfig(rounds=1, lr=0.01).step_size(3.0) == 0.01
        assert tk.OptimizerConfig(rounds=1, smoothness=9.0).step_size(
            3.0
        ) == pytest.approx(0.1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tk.OptimizerConfig(rounds=0)
        with pytest.raises(ValueError):
            tk.OptimizerConfig(rounds=1, scheme="nope")
        with pytest.raises(ValueError):
            tk.OptimizerConfig(rounds=1, k=1)
        with pytest.raises(ValueError):
            tk.OptimizerConfig(rounds=1, radius_grad=0.0)
        with pytest.raises(ValueError):
            tk.OptimizerConfig(rounds=1, eta=-1.0)
        with pytest.raises(ValueError):
            tk.OptimizerConfig(rounds=1, local_epochs=0)


class TestFedAvg:
    def test_exact_and_quantized_learn_the_digits(self, digit_data):
        data, (x_test, y_test) = digit_data
        exact = tk.federated_averaging(
            data,
            tk.OptimizerConfig(rounds=6, scheme="none", local_epochs=2,
                               local_lr=0.5, radius_grad=5.0),
            clients_per_round=5, seed=21, test_data=(x_test, y_test),
        )
        assert exact.metrics[-1] > 0.85
        quant = tk.federated_averaging(
            data,
            tk.OptimizerConfig(rounds=6, scheme="correlated-klevel", k=16,
                               local_epochs=2, local_lr=0.5, radius_grad=5.0),
            clients_per_round=5, seed=21, test_data=(x_test, y_test),
        )
        assert quant.metrics[-1] > 0.7

    def test_without_test_data_metric_is_training_accuracy(self, digit_data):
        data, _ = digit_data
        res = tk.federated_averaging(
            data,
            tk.OptimizerConfig(rounds=3, scheme="none", local_lr=0.5,
                               radius_grad=5.0),
            clients_per_round=5, seed=21,
        )
        assert res.metrics[-1] > res.metrics[0]  # accuracy climbs
        assert all(0.0 <= m <= 1.0 for m in res.metrics)


class TestDatasets:
    def test_sharded_dataset_accessors(self):
        shards = (np.ones((2, 3)), np.zeros((4, 3)))
        labels = (np.array([1, 2]), np.array([0, 0, 1, 1]))
        ds = tk.ShardedDataset(shards, labels)
        assert ds.n_clients == 2
        assert ds.d == 3
        assert ds.total_points == 6
        assert ds.stacked().shape == (6, 3)
        assert ds.stacked_labels().tolist() == [1, 2, 0, 0, 1, 1]

    def test_sharded_dataset_validation(self):
        with pytest.raises(ValueError):
            tk.ShardedDataset(())
        with pytest.raises(ValueError):
            tk.ShardedDataset((np.ones((2, 3)), np.ones((2, 4))))
        with pytest.raises(ValueError):
            tk.ShardedDataset((np.ones((2, 3)),), (np.array([1]),))
        with pytest.raises(ValueError):
            tk.ShardedDataset((np.ones((2, 3)),)).stacked_labels()

    def test_client_file_loader(self, tmp_path):
        p1 = tmp_path / "c1.csv"
        p2 = tmp_path / "c2.csv"
        p1.write_text("3,10,200\n1,0,255\n")
        p2.write_text("0,128,128\n")
        ds = tk.load_client_files([p1, p2], features=2)
        assert ds.n_clients == 2 and ds.d == 2
        assert ds.labels[0].tolist() == [3, 1]
        assert np.allclose(ds.shards[0][0], [10 / 255, 200 / 255])

    def test_single_file_loader_groups_by_client_column(self, tmp_path):
        path = tmp_path / "all.csv"
        path.write_text("1,3,10,200\n0,1,0,255\n1,2,5,5\n")
        ds = tk.load_single_file(path, features=2)
        assert ds.n_clients == 2
        assert ds.labels[1].tolist() == [3, 2]

    def test_loader_diagnostics(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n")
        with pytest.raises(tk.DatasetError, match="row 1"):
            tk.load_client_files([bad], features=2)
        bad.write_text("1,2,oops\n")
        with pytest.raises(tk.DatasetError, match="column 3"):
            tk.load_client_files([bad], features=2)
        bad.write_text("")
        with pytest.raises(tk.DatasetError, match="no data rows"):
            tk.load_client_files([bad], features=2)
        with pytest.raises(tk.DatasetError):
            tk.load_client_files([tmp_path / "missing.csv"], features=2)

    def test_task_result_csv(self, blob_data):
        res = tk.distributed_kmeans(blob_data, centers=2, rounds=3,
                                    scheme="none", seed=5)
        text = res.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "round,metric,bits"
        assert lines[1].startswith("0,")
        assert len(lines) == 1 + res.rounds
        assert res.bits_per_client_per_round > 0
