"""Distributed optimization tasks built on quantized aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_zero_round_with_explicit_radius_is_unbiased_noise(self):
        # an explicit radius runs the full quantizer on all-zero vectors:
        # full price, and an estimate that is zero only on average
        zeros = np.zeros((4, 3))
        price = 216 + 3 * 2  # header plus three 2-bit indices at k = 4
        est = []
        for seed in range(1000):
            r = tk.quantized_round(zeros, "correlated-klevel", 4, seed, radius=1.0)
            assert r.bits_per_client == price
            est.append(r.estimate)
        est = np.array(est)
        assert np.abs(est).max() > 0
        stderr = est.std(axis=0, ddof=1) / np.sqrt(len(est))
        assert np.all(np.abs(est.mean(axis=0)) < 4 * stderr)
        # without a radius the ball is a point: exact zeros, header only
        r = tk.quantized_round(zeros, "correlated-klevel", 4, 0)
        assert r.bits_per_client == 216
        assert not r.estimate.any() and not r.per_client.any()

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

    def test_zero_radius_is_rejected_not_sent_as_zeros(self):
        # radius 0 once took the all-zero shortcut and returned exact
        # zeros at header-only cost for nonzero vectors
        with pytest.raises(ValueError, match="radius"):
            tk.quantized_round(np.eye(3), "correlated-klevel", 4, 0, radius=0.0)


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

    def test_one_level_is_rejected_before_initialization(
        self, blob_data, monkeypatch
    ):
        def no_init(*args):
            raise AssertionError("k-means++ ran before the k check")

        monkeypatch.setattr(tk, "_kmeans_pp_init", no_init)
        for scheme in ("none", "correlated-klevel"):
            with pytest.raises(ValueError, match="need k >= 2"):
                tk.distributed_kmeans(blob_data, centers=2, rounds=1,
                                      scheme=scheme, seed=0, k=1)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 40),
    c=st.integers(1, 6),
    d=st.sampled_from([1, 2, 3, 7, 16, 100]),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
    on_grid=st.booleans(),
    duplicate=st.booleans(),
    on_center=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_nearest_matches_the_broadcast_bit_for_bit(
    n, c, d, scale, on_grid, duplicate, on_center, seed
):
    # small-integer coordinates make exact distance ties between distinct
    # centers common; duplicated centers tie exactly on every point
    rng = np.random.default_rng(seed)
    if on_grid:
        points = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        centers = rng.integers(-2, 3, size=(c, d)).astype(np.float64)
    else:
        points = rng.normal(size=(n, d))
        centers = rng.normal(size=(c, d))
    if duplicate and c > 1:
        centers[rng.integers(1, c)] = centers[rng.integers(c)]
    if on_center:
        points[rng.integers(n)] = centers[rng.integers(c)]
    points, centers = points * scale, centers * scale
    want = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(tk._nearest(points, centers), want.argmin(axis=1))
    assert tk.kmeans_objective(points, centers) == float(want.min(axis=1).mean())


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

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(2, 64),
        seed=st.integers(0, 2**32 - 1),
        log_tilt=st.floats(-18.0, 0.0),
        flip=st.booleans(),
    )
    def test_subspace_error_is_the_squared_sine(self, d, seed, log_tilt, flip):
        # 1 - (v . v*)^2 rounds below zero for near-parallel unit vectors;
        # the squared sine ||v - (v . v*) v*||^2 cannot, and the two agree
        # to a few eps
        rng = np.random.default_rng(seed)
        v_star = rng.normal(size=d)
        v_star /= np.linalg.norm(v_star)
        v = v_star + 10.0**log_tilt * rng.normal(size=d)
        v /= np.linalg.norm(v)
        v = -v if flip else v
        got = tk.subspace_error(v, v_star)
        assert got >= 0.0
        assert abs(got - (1.0 - np.dot(v, v_star) ** 2)) <= 16 * np.finfo(float).eps
        assert got == tk.subspace_error(-v, v_star) == tk.subspace_error(v, -v_star)

    def test_exact_power_metrics_are_never_negative(self):
        # with 1 - (v . v*)^2 the last round read -4.44e-16
        res = tk.distributed_power_iteration(
            tk.two_blob_fixture(seed=0), rounds=10, scheme="none", seed=0
        )
        assert min(res.metrics) >= 0.0
        assert res.metrics[-1] < 1e-18

    def test_degenerate_input_raises(self):
        with pytest.raises(tk.DegenerateInputError):
            tk.distributed_power_iteration(
                tk.ShardedDataset((np.zeros((4, 3)),)), rounds=2,
                scheme="none", seed=0,
            )

    def test_one_level_is_rejected_before_the_reference(self, monkeypatch):
        def no_reference(data):
            raise AssertionError("reference computed before the k check")

        monkeypatch.setattr(tk, "top_eigenvector", no_reference)
        for scheme in ("none", "correlated-klevel"):
            with pytest.raises(ValueError, match="need k >= 2"):
                tk.distributed_power_iteration(
                    self._spectral_shards(), rounds=1, scheme=scheme, seed=0,
                    k=1,
                )


def _eigh_reference(data):
    pooled = data.stacked()
    eigvals, eigvecs = np.linalg.eigh(pooled.T @ pooled / pooled.shape[0])
    return eigvecs[:, -1], eigvals[-1]


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts the eigh calls made through np.linalg while a test runs."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


class TestTopEigenvector:
    @pytest.mark.parametrize("name", [
        "mnist-0", "mnist-1", "mnist-2", "mnist-3", "two-blob",
    ])
    def test_power_iteration_matches_eigh(self, name, eigh_calls):
        if name == "two-blob":
            data = tk.two_blob_fixture()
        else:
            data, _ = tk.mnist_like_fixture(seed=int(name[-1]))
        want_v, want_lam = _eigh_reference(data)
        eigh_calls.clear()
        v, lam = tk.top_eigenvector(data)
        assert eigh_calls == []  # accepted without the fallback
        assert 1.0 - np.dot(v, want_v) ** 2 <= 1e-13
        assert abs(lam - want_lam) <= 1e-12 * want_lam
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15

    @staticmethod
    def _check_top(data, v, lam):
        pooled = data.stacked()
        cov = pooled.T @ pooled / pooled.shape[0]
        top = np.linalg.eigvalsh(cov)[-1]
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
        assert abs(lam - top) <= 1e-12 * top
        assert np.linalg.norm(cov @ v - top * v) <= 1e-12 * top

    def test_repeated_top_eigenvalue_falls_back_to_eigh(self, eigh_calls):
        # rows +-e_j make X^T X / N = I / 4: every unit vector has residual
        # zero, but no gap to the rest of the spectrum can be certified
        eye = np.eye(4)
        data = tk.ShardedDataset((np.vstack([eye, -eye]),))
        v, lam = tk.top_eigenvector(data)
        assert eigh_calls == [(4, 4)]
        assert lam == pytest.approx(0.25, rel=1e-15)
        self._check_top(data, v, lam)

    def test_nearly_repeated_top_eigenvalue_falls_back_to_eigh(
        self, eigh_calls
    ):
        spectrum = np.array([1.0, 0.999, 0.1, 0.05, 0.01])
        q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(5, 5)))
        # five rows whose second-moment matrix is q diag(spectrum) q^T
        rows = np.diag(np.sqrt(5 * spectrum)) @ q.T
        data = tk.ShardedDataset((rows,))
        v, lam = tk.top_eigenvector(data)
        assert eigh_calls == [(5, 5)]
        assert 1.0 - np.dot(v, q[:, 0]) ** 2 <= 1e-13
        self._check_top(data, v, lam)

    def test_one_dimension(self, eigh_calls):
        data = tk.ShardedDataset((np.array([[3.0], [-1.0]]), np.array([[2.0]])))
        v, lam = tk.top_eigenvector(data)
        assert eigh_calls == []
        assert abs(v[0]) == 1.0
        assert lam == pytest.approx(14.0 / 3.0, rel=1e-15)


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

    def test_logistic_reference_solve_falls_back_inside_the_ball(self):
        # an optimum outside the ball is left to projected gradient, which
        # stops on the sphere with the gradient pointing straight inward
        prob = tk.logistic_problem_fixture(n_clients=2, per_client=50, seed=6)
        w_star, f_star = prob.solve_optimum(1.0)
        g = prob.gradient(w_star)
        assert np.linalg.norm(w_star) == pytest.approx(1.0)
        assert -(g @ w_star) / np.linalg.norm(g) == pytest.approx(1.0, abs=1e-9)
        assert f_star == pytest.approx(prob.value(w_star))

    def test_config_step_size(self):
        cfg = tk.OptimizerConfig(rounds=1, eta=0.5)
        assert cfg.step_size(3.0) == pytest.approx(1.0 / 5.0)
        assert tk.OptimizerConfig(rounds=1, lr=0.01).step_size(3.0) == 0.01

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
        # non-finite settings once ran to NaN trajectories, and lr < 0 ascended
        for name in ("eta", "lr", "radius_domain", "radius_grad", "local_lr"):
            for value in (float("nan"), float("inf"), -1.0, 0.0):
                with pytest.raises(ValueError, match=name):
                    tk.OptimizerConfig(rounds=1, **{name: value})


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
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="shard 1"):
                tk.ShardedDataset((np.ones((2, 3)), np.full((1, 3), bad)))

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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_loaders_reject_non_finite_cells(self, tmp_path, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"1,2,3\n\n0,4,{cell}\n")
        with pytest.raises(tk.DatasetError, match=r"bad.csv: row 3, column 3: not finite"):
            tk.load_client_files([bad], features=2)
        bad.write_text(f"0,1,2,3\n{cell},1,2,3\n")
        with pytest.raises(tk.DatasetError, match="row 2, column 1: not finite"):
            tk.load_single_file(bad, features=2)

    def test_loaders_reject_non_integer_labels_and_client_ids(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n0.7,4,5\n")
        with pytest.raises(tk.DatasetError, match="row 2, column 1: not an integer"):
            tk.load_client_files([bad], features=2)
        bad.write_text("0,1,2,3\n1.5,1,2,3\n")
        with pytest.raises(tk.DatasetError, match="row 2, column 1: not an integer"):
            tk.load_single_file(bad, features=2)
        bad.write_text("0,1,2,3\n1,2.25,2,3\n")
        with pytest.raises(tk.DatasetError, match="row 2, column 2: not an integer"):
            tk.load_single_file(bad, features=2)
        # integer-valued floats are ids; pixel columns may be fractional
        bad.write_text("1.0,2e0,0.5,3\n")
        ds = tk.load_single_file(bad, features=2)
        assert ds.labels[0].tolist() == [2]

    def test_task_result_csv(self, blob_data):
        res = tk.distributed_kmeans(blob_data, centers=2, rounds=3,
                                    scheme="none", seed=5)
        text = res.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "round,metric,bits"
        assert lines[1].startswith("0,")
        assert len(lines) == 1 + res.rounds
        assert min(res.bits_per_round) > 0
