"""Vector quantizers, the rotation pipeline, and payload formats."""

import math
import struct

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from corrq import bitcodec as bc
from corrq import vector_quant as vq
from corrq.randomness import RandomnessContext, build_context, trial_seeds


def make_batch(n=6, d=5, seed=7, headroom=1.3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    radius = float(np.linalg.norm(x, axis=1).max()) * headroom
    return vq.VectorBatch(x, radius)


class TestVectorBatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            vq.VectorBatch(np.zeros((0, 3)), 1.0)
        with pytest.raises(ValueError):
            vq.VectorBatch(np.zeros(4), 1.0)
        with pytest.raises(ValueError):
            vq.VectorBatch(np.full((2, 2), np.inf), 1.0)
        with pytest.raises(ValueError):
            vq.VectorBatch(np.ones((1, 2)), 1.0)  # norm sqrt(2) > 1

    def test_from_vectors_tight_radius(self):
        x = np.array([[3.0, 4.0], [0.0, 1.0]])
        b = vq.VectorBatch.from_vectors(x)
        assert b.radius == 5.0
        assert vq.VectorBatch.from_vectors(np.zeros((2, 2))).radius == 1.0

    def test_constant_batch_mean_is_exact(self):
        row = np.full(16, 0.01)
        b = vq.VectorBatch(np.tile(row, (100, 1)), 1.0)
        assert np.array_equal(b.mean(), row)

    def test_concentration(self):
        b = vq.VectorBatch(np.array([[1.0, 0.0], [-1.0, 0.0]]), 1.0)
        assert vq.vector_concentration(b) == 1.0


class TestRotation:
    def test_fwht_matches_dense_hadamard(self):
        rng = np.random.default_rng(0)
        for m in (1, 2, 4, 8, 16, 32):
            H = scipy.linalg.hadamard(m).astype(float)
            X = rng.normal(size=(3, 5, m))
            assert np.allclose(vq.fwht(X), X @ H.T)

    def test_fwht_matches_dense_sylvester_at_every_size(self):
        # covers sizes that are not a whole number of 32-row factors
        rng = np.random.default_rng(1)
        for p in range(13):
            m = 1 << p
            H = scipy.linalg.hadamard(m).astype(float)
            for shape in ((m,), (3, 5, m)):
                X = rng.normal(size=shape)
                err = np.max(np.abs(vq.fwht(X) - X @ H.T))
                assert err < 1e-10, (shape, err)

    def test_fwht_requires_power_of_two(self):
        with pytest.raises(ValueError):
            vq.fwht(np.zeros(6))

    def test_rotation_isometry_and_inverse(self):
        rng = np.random.default_rng(1)
        for d in (1, 3, 8, 13):
            ctx = build_context(11, n=4, d=vq.next_pow2(d), k=4)
            spec = vq.rotation_for(ctx, d)
            X = rng.normal(size=(6, d))
            Z = vq.hadamard_rotate(X, spec)
            assert Z.shape == (6, spec.padded_dim)
            assert np.allclose(
                np.linalg.norm(Z, axis=1), np.linalg.norm(X, axis=1)
            )
            assert np.allclose(vq.hadamard_rotate(Z, spec, inverse=True), X,
                               atol=1e-12)

    def test_rotation_matches_explicit_matrix(self):
        d = 8
        ctx = build_context(3, n=2, d=d, k=2)
        spec = vq.rotation_for(ctx, d)
        H = scipy.linalg.hadamard(d).astype(float)
        W = H @ np.diag(spec.signs) / math.sqrt(d)
        X = np.random.default_rng(2).normal(size=(5, d))
        assert np.allclose(vq.hadamard_rotate(X, spec), X @ W.T, atol=1e-12)

    def test_rotation_for_requires_padded_context(self):
        ctx = build_context(0, n=2, d=8, k=2)
        with pytest.raises(ValueError):
            vq.rotation_for(ctx, 9)

    def test_next_pow2(self):
        assert [vq.next_pow2(v) for v in (1, 2, 3, 8, 9, 1000)] == [
            1, 2, 4, 8, 16, 1024,
        ]

    def test_rotation_scale(self):
        assert vq.rotation_scale(2.0, 8, 8) == pytest.approx(
            math.sqrt(8) / (2.0 * math.sqrt(8 * math.log(64)))
        )
        with pytest.raises(ValueError):
            vq.rotation_scale(1.0, 1, 1)


class TestCorrelatedVector:
    def test_requires_matching_k(self):
        b = make_batch()
        ctx = build_context(0, n=b.n, d=b.d, k=2)
        with pytest.raises(ValueError):
            vq.correlated_vector_cq(b, ctx, k=4)

    def test_unbiased(self):
        b = make_batch(n=6, d=5, seed=7)
        seeds = trial_seeds(123, 4000)
        acc = np.zeros(b.d)
        for t in range(len(seeds)):
            ctx = build_context(int(seeds[t]), n=b.n, d=b.d, k=4)
            acc += vq.correlated_vector_cq(b, ctx, k=4).estimate
        assert np.abs(acc / len(seeds) - b.mean()).max() < 4e-2 * b.radius

    def test_estimate_equals_per_client_mean(self):
        b = make_batch()
        ctx = build_context(9, n=b.n, d=b.d, k=3)
        rep = vq.correlated_vector_cq(b, ctx, k=3)
        assert np.allclose(rep.estimate, rep.per_client.mean(axis=0))

    def test_fixed_payload_round_trip_and_bits(self):
        b = make_batch()
        k = 4
        ctx = build_context(5, n=b.n, d=b.d, k=k)
        rep = vq.correlated_vector_cq(b, ctx, k=k)
        for i, payload in enumerate(rep.payloads):
            assert np.array_equal(
                bc.unpack_fixed(payload, k), rep.level_indices[i]
            )
        assert np.all(
            rep.bits_per_client == bc.HEADER_BITS + b.d * bc.fixed_width(k)
        )

    def test_coordinate_isolation(self):
        # swapping in foreign shared randomness for coordinate 2 must not
        # change any other coordinate's levels
        b = make_batch(n=5, d=4, seed=3)
        ctx = build_context(10, n=5, d=4, k=4)
        other = build_context(11, n=5, d=4, k=4)
        perms = ctx.permutations.copy()
        units = ctx.offset_units.copy()
        grid = ctx.grid_offsets.copy()
        perms[2] = other.permutations[2]
        units[2] = other.offset_units[2]
        grid[2] = other.grid_offsets[2]
        tampered = RandomnessContext(
            seed=ctx.seed, n=5, d=4, k=4, permutations=perms,
            offset_units=units, grid_offsets=grid,
            rotation_signs=ctx.rotation_signs.copy(),
        )
        a = vq.correlated_vector_cq(b, ctx, k=4)
        t = vq.correlated_vector_cq(b, tampered, k=4)
        keep = [0, 1, 3]
        assert np.array_equal(
            a.level_indices[:, keep], t.level_indices[:, keep]
        )
        assert not np.array_equal(a.level_indices[:, 2], t.level_indices[:, 2])


class TestEntropyVariant:
    def test_same_estimates_as_fixed_width(self):
        b = make_batch(seed=21)
        ctx = build_context(42, n=b.n, d=b.d, k=8)
        fixed = vq.correlated_vector_cq(b, ctx, k=8)
        gamma = vq.entropy_cq(b, ctx, k=8)
        assert np.array_equal(fixed.estimate, gamma.estimate)
        assert np.array_equal(fixed.level_indices, gamma.level_indices)

    def test_gamma_payload_round_trip(self):
        b = make_batch(seed=21)
        ctx = build_context(42, n=b.n, d=b.d, k=8)
        rep = vq.entropy_cq(b, ctx, k=8)
        for i, payload in enumerate(rep.payloads):
            values = np.array(bc.elias_gamma_decode(payload))
            assert np.array_equal(
                bc.zigzag_decode(values, 8), rep.level_indices[i]
            )
        assert np.all(rep.bits_per_client == bc.HEADER_BITS + np.array(
            [p.length for p in rep.payloads]
        ))

    def test_beats_fixed_width_on_concentrated_data(self):
        # near-zero vectors sit at the central levels: the gamma payload
        # must undercut ceil(log2 k) bits per coordinate
        d, k = 256, 16
        x = np.random.default_rng(0).normal(size=(8, d)) * 1e-3
        b = vq.VectorBatch(x, radius=1.0)
        ctx = build_context(1, n=8, d=d, k=k)
        rep = vq.entropy_cq(b, ctx, k=k)
        fixed_bits = bc.HEADER_BITS + d * bc.fixed_width(k)
        assert rep.bits_per_client.max() < fixed_bits

    def test_entropy_bit_cost_bound(self):
        # documented ceiling: twice the ideal-code estimate plus header
        rng = np.random.default_rng(5)
        n, d, k = 10, 64, 8
        x = rng.normal(size=(n, d))
        b = vq.VectorBatch.from_vectors(x)
        ctx = build_context(8, n=n, d=d, k=k)
        rep = vq.entropy_cq(b, ctx, k=k)
        ideal = d * (1 + math.log2((k - 1) ** 2 / (2 * d) + 1)) + k * math.log2(
            (k + d) * math.e / k
        )
        assert rep.bits_per_client.max() <= bc.HEADER_BITS + 2.0 * ideal


class TestHadamardCq:
    def test_no_clipping_at_small_sizes(self):
        # at m = n = 8 the scaled rotated coordinates cannot reach 1
        b = make_batch(n=8, d=8, seed=5, headroom=1.0)
        for seed in range(50):
            ctx = build_context(seed, n=8, d=8, k=4)
            rep = vq.walsh_hadamard_cq(b, ctx, k=4)
            assert rep.clip_events == 0

    def test_bias_small_without_clipping(self):
        b = make_batch(n=8, d=12, seed=6)
        m = vq.next_pow2(12)
        seeds = trial_seeds(99, 4000)
        acc = np.zeros(12)
        for t in range(len(seeds)):
            ctx = build_context(int(seeds[t]), n=8, d=m, k=8)
            acc += vq.walsh_hadamard_cq(b, ctx, k=8).estimate
        assert np.abs(acc / len(seeds) - b.mean()).max() < 2e-2 * b.radius

    def test_bits_are_padded_dimension_times_width(self):
        b = make_batch(n=4, d=12, seed=2)
        m = vq.next_pow2(12)
        ctx = build_context(0, n=4, d=m, k=8)
        rep = vq.walsh_hadamard_cq(b, ctx, k=8)
        assert np.all(rep.bits_per_client == bc.HEADER_BITS + m * 3)

    def test_requires_padded_context(self):
        b = make_batch(n=4, d=12, seed=2)
        with pytest.raises(ValueError):
            vq.walsh_hadamard_cq(b, build_context(0, n=4, d=12, k=8), k=8)

    def test_clip_fraction_negligible_at_scale(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 1024))
        b = vq.VectorBatch.from_vectors(x)
        clip_events = 0
        for seed in range(5):
            ctx = build_context(seed, n=100, d=1024, k=4)
            clip_events += vq.walsh_hadamard_cq(b, ctx, k=4).clip_events
        assert clip_events / (5 * 100 * 1024) <= 1e-12


class TestIndependentBaselines:
    def test_independent_unbiased(self):
        b = make_batch(n=6, d=5, seed=9)
        acc = np.zeros(b.d)
        trials = 6000
        for t in range(trials):
            rep = vq.independent_vector_sq(b, 4, key=1000 + t)
            acc += rep.estimate
        assert np.abs(acc / trials - b.mean()).max() < 3e-2 * b.radius

    def test_rotated_variant_unbiased(self):
        b = make_batch(n=6, d=5, seed=9)
        acc = np.zeros(b.d)
        trials = 6000
        for t in range(trials):
            rep = vq.independent_vector_sq(b, 4, rotate=True, key=5000 + t)
            acc += rep.estimate
        assert np.abs(acc / trials - b.mean()).max() < 3e-2 * b.radius

    def test_terngrad_unbiased_and_payload(self):
        b = make_batch(n=6, d=5, seed=9)
        acc = np.zeros(b.d)
        trials = 8000
        for t in range(trials):
            rep = vq.ternary_quantize(b, key=t)
            acc += rep.estimate
        assert np.abs(acc / trials - b.mean()).max() < 3e-2 * b.radius
        rep = vq.ternary_quantize(b, key=3)
        head, scale = vq.split_scale_tail(rep.payloads[0])
        assert scale == rep.scales[0]
        assert np.array_equal(bc.unpack_fixed(head, 3), rep.level_indices[0])
        assert np.all(rep.bits_per_client == bc.HEADER_BITS + 2 * b.d + 64)

    def test_terngrad_zero_batch(self):
        b = vq.VectorBatch(np.zeros((3, 4)), radius=1.0)
        rep = vq.ternary_quantize(b, key=0)
        assert not rep.estimate.any()
        assert np.all(rep.scales == 0.0)


class TestRotateSign:
    def test_deterministic_given_context(self):
        b = make_batch(n=6, d=5, seed=11)
        ctx = build_context(21, n=6, d=vq.next_pow2(5), k=2)
        a = vq.rotate_sign_baseline(b, ctx)
        c = vq.rotate_sign_baseline(b, ctx)
        assert np.array_equal(a.estimate, c.estimate)

    def test_scale_tail_round_trip(self):
        b = make_batch(n=6, d=5, seed=11)
        ctx = build_context(21, n=6, d=vq.next_pow2(5), k=2)
        rep = vq.rotate_sign_baseline(b, ctx)
        head, scale = vq.split_scale_tail(rep.payloads[2])
        assert scale == rep.scales[2]
        assert np.array_equal(bc.unpack_fixed(head, 2), rep.level_indices[2])

    def test_per_client_error_bounded_by_norm(self):
        # sign-magnitude reconstruction never overshoots the vector scale
        b = make_batch(n=6, d=5, seed=11)
        ctx = build_context(21, n=6, d=vq.next_pow2(5), k=2)
        rep = vq.rotate_sign_baseline(b, ctx)
        err = np.linalg.norm(rep.per_client - b.vectors, axis=1)
        norms = np.linalg.norm(b.vectors, axis=1)
        assert np.all(err <= norms + 1e-9)


def test_scale_tail_format():
    stream = bc.BitStream.from_bitstring("101")
    tailed = vq.append_scale_tail(stream, 0.5)
    assert tailed.length == 3 + 64
    head, scale = vq.split_scale_tail(tailed)
    assert head == stream
    assert scale == 0.5
    # IEEE big-endian float64 bits follow the head verbatim
    assert tailed.to_bitstring()[3:] == format(
        int.from_bytes(struct.pack(">d", 0.5), "big"), "064b"
    )


def test_cq_encode_decode_per_client_error():
    ctx = build_context(31, n=7, d=3, k=5)
    y = np.random.default_rng(0).random((3, 7))
    indices = vq.cq_encode(
        y, ctx.permutations, ctx.offset_units, ctx.grid_offsets, 5
    )
    decoded = vq.cq_decode(indices, ctx.grid_offsets, 5)
    spacing = 6 / (5 * 4)
    assert np.all(np.abs(decoded - y) <= spacing + 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=9),
    k=st.integers(min_value=2, max_value=9),
)
def test_correlated_vector_round_invariants(seed, n, d, k):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    b = vq.VectorBatch.from_vectors(x)
    ctx = build_context(seed, n=n, d=d, k=k)
    rep = vq.correlated_vector_cq(b, ctx, k=k)
    assert rep.level_indices.shape == (n, d)
    assert rep.level_indices.min() >= 0 and rep.level_indices.max() <= k - 1
    assert np.allclose(rep.estimate, rep.per_client.mean(axis=0))
    # per-coordinate reconstruction stays within one randomized level step
    w = 2 * b.radius
    step = w * ((k + 1) / (k * (k - 1)) if k > 2 else 1.0)
    assert np.abs(rep.per_client - b.vectors).max() <= step + 1e-9


@settings(max_examples=150, deadline=None)
@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), max_size=100),
    scale=st.floats(allow_nan=False),
)
def test_scale_tail_is_the_head_then_the_float_bits(bits, scale):
    stream = bc.BitStream.from_bits(bits)
    tailed = vq.append_scale_tail(stream, scale)
    float_bits = format(int.from_bytes(struct.pack(">d", scale), "big"), "064b")
    assert tailed.to_bitstring() == stream.to_bitstring() + float_bits
    head, back = vq.split_scale_tail(tailed)
    assert head == stream
    assert struct.pack(">d", back) == struct.pack(">d", scale)
    if len(bits) < 64:
        with pytest.raises(bc.MalformedStreamError):
            vq.split_scale_tail(stream)
