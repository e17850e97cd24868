"""Vector quantizers, the rotation pipeline, and payload formats."""

import math
import struct
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from corrq import bitcodec as bc
from corrq import harness as hz
from corrq import vector_quant as vq
from corrq import scalar_quant as sq
from corrq.randomness import build_context, build_context_arrays, trial_seeds


def make_batch(n=6, d=5, seed=7, headroom=1.3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    radius = float(np.linalg.norm(x, axis=1).max()) * headroom
    return vq.VectorBatch(x, radius)


VECTOR_OPS = {
    # name: (op on a batch and a round key, k), as run_round(batch, name, k, key)
    "correlated-1bit": (lambda b, s: vq.correlated_vector_cq(b, 2, s), 2),
    "correlated-klevel": (lambda b, s: vq.correlated_vector_cq(b, 5, s), 5),
    "entropy-cq": (lambda b, s: vq.entropy_cq(b, 8, s), 8),
    "hadamard-cq": (lambda b, s: vq.walsh_hadamard_cq(b, 4, s), 4),
    "independent": (lambda b, s: vq.independent_vector_sq(b, 6, key=s), 6),
    "independent-rotation": (
        lambda b, s: vq.independent_vector_sq(b, 3, rotate=True, key=s), 3,
    ),
    "terngrad": (lambda b, s: vq.ternary_quantize(b, key=s), 3),
    "rotate-sign": (lambda b, s: vq.rotate_sign_baseline(b, s), 2),
}


def payloads(scheme, r, k):
    """The round's client payloads, built as the wire audit builds them."""
    return hz.SCHEME_TABLE[scheme].payloads(r.indices, k, r.scales, r.bits)


@pytest.mark.parametrize("scheme", sorted(VECTOR_OPS))
def test_op_payloads_decode_to_level_indices(scheme):
    op, k = VECTOR_OPS[scheme]
    spec = hz.SCHEME_TABLE[scheme]
    b = make_batch(n=7, d=11, seed=13)
    for seed in (1, 2**63 + 5):
        rep = op(b, seed)
        want = hz.run_round(b, scheme, k, seed)
        for got, field in zip(rep, want):
            assert (got is None) == (field is None)
            assert got is None or np.array_equal(got, field), scheme
        assert np.array_equal(rep.estimate, want.estimate)
        for i, payload in enumerate(payloads(scheme, rep, k)):
            assert rep.bits[i] == bc.HEADER_BITS + payload.length
            if spec.scale_tail:
                payload, scale = vq.split_scale_tail(payload)
                assert scale == rep.scales[i]
            if spec.gamma:
                got = bc.zigzag_decode(np.array(bc.elias_gamma_decode(payload)), k)
            else:
                got = bc.unpack_fixed(payload, k)
            assert np.array_equal(got, rep.indices[i])


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


def _column(rng, n, kind):
    """One test column of n floats of the given kind."""
    signs = rng.choice([-1.0, 1.0], size=n)
    if kind == "spread":  # exponents over a window anywhere in the range
        span = int(rng.integers(1, 80))
        low = int(rng.integers(-1074, 1025 - span))
        exps = rng.integers(low, low + span, size=n)
        col = signs * np.ldexp(rng.uniform(0.5, 1.0, size=n), exps)
        col[rng.random(n) < 0.2] = 0.0
        col[rng.random(n) < 0.2] = -0.0
        return col
    if kind == "constant":
        value = rng.choice([0.0, -0.0, 1.0, -3.5, 1e-310, 2.0**-1074, 1e300])
        return np.full(n, value)
    if kind == "mixed":  # tiny beside O(1): the certificate fails
        return signs * np.where(rng.random(n) < 0.5, 1e-300, 1.0)
    if kind == "huge":  # same-sign values near the top: fsum overflows
        return np.ldexp(rng.uniform(0.5, 1.0, size=n), 1024) * signs[0]
    if kind == "cancelling":  # near the top, alternating in sign
        return np.ldexp(np.resize([1.0, -1.0], n), 1023)
    return rng.normal(size=n) + 0.3  # "normal"


def test_column_sums_equal_fsum_bit_for_bit():
    paths = {"fast": 0, "fsum": 0}

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 150),
        kinds=st.lists(
            st.sampled_from(
                ["spread", "constant", "mixed", "huge", "cancelling", "normal"]
            ),
            min_size=1, max_size=4,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(n, kinds, seed):
        rng = np.random.default_rng(seed)
        x = np.column_stack([_column(rng, n, kind) for kind in kinds])
        try:
            want = np.array([math.fsum(col) for col in x.T])
        except OverflowError:
            want = OverflowError
        with mock.patch.object(vq.math, "fsum", wraps=math.fsum) as spy:
            if want is OverflowError:
                with pytest.raises(OverflowError):
                    vq._column_fsums(x)
                return
            got = vq._column_fsums(x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        paths["fsum"] += spy.call_count
        paths["fast"] += x.shape[1] - spy.call_count

    check()
    assert paths["fast"] > 0 and paths["fsum"] > 0, paths


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

    @pytest.mark.parametrize("m", [8, 16, 32])
    def test_fwht_of_one_row_is_its_row_of_a_block(self, m):
        # a lone row rounds as in a block, not as a matrix-vector
        # product would
        X = np.random.default_rng(m).normal(size=(480, m))
        block = vq.fwht(X)
        for rows in (2, 3, 17, 480):
            assert np.array_equal(vq.fwht(X[:rows]), block[:rows])
        for i in range(20):
            assert np.array_equal(vq.fwht(X[i]), block[i])
            assert np.array_equal(vq.fwht(X[i : i + 1]), block[i : i + 1])

    def test_fwht_requires_power_of_two(self):
        with pytest.raises(ValueError):
            vq.fwht(np.zeros(6))

    def test_rotation_isometry_and_inverse(self):
        # rotate takes vectors zero-padded to m; unrotate truncates back
        rng = np.random.default_rng(1)
        for d in (1, 3, 8, 13):
            m = vq.next_pow2(d)
            signs = build_context(11, n=4, d=m, k=4).rotation_signs
            X = rng.normal(size=(6, d))
            X_pad = np.zeros((6, m))
            X_pad[:, :d] = X
            Z = vq.rotate(X_pad, signs)
            assert Z.shape == (6, m)
            assert np.allclose(
                np.linalg.norm(Z, axis=1), np.linalg.norm(X, axis=1)
            )
            assert np.allclose(vq.unrotate(Z, signs, d), X, atol=1e-12)
            assert np.allclose(vq.unrotate(Z, signs, m), X_pad, atol=1e-12)

    def test_rotation_matches_explicit_matrix(self):
        d = 8
        signs = build_context(3, n=2, d=d, k=2).rotation_signs
        H = scipy.linalg.hadamard(d).astype(float)
        W = H @ np.diag(signs) / math.sqrt(d)
        X = np.random.default_rng(2).normal(size=(5, d))
        assert np.allclose(vq.rotate(X, signs), X @ W.T, atol=1e-12)
        assert np.allclose(vq.unrotate(X, signs, d), X @ W, atol=1e-12)

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
        # the op's k alone sets the grid: one the wire header cannot carry
        # is rejected, and a k = 4 round sends 2-bit indices below 4
        b = make_batch()
        for k in (1, 2**16):
            with pytest.raises(ValueError):
                vq.correlated_vector_cq(b, k, 0)
        rep = vq.correlated_vector_cq(b, 4, 0)
        assert rep.indices.max() <= 3
        assert np.all(rep.bits == bc.HEADER_BITS + b.d * 2)

    def test_unbiased(self):
        b = make_batch(n=6, d=5, seed=7)
        seeds = trial_seeds(123, 4000)
        acc = np.zeros(b.d)
        for t in range(len(seeds)):
            acc += vq.correlated_vector_cq(b, 4, int(seeds[t])).estimate
        assert np.abs(acc / len(seeds) - b.mean()).max() < 4e-2 * b.radius

    def test_estimate_equals_per_client_mean(self):
        b = make_batch()
        rep = vq.correlated_vector_cq(b, 3, 9)
        assert np.allclose(rep.estimate, rep.per_client.mean(axis=0))

    def test_fixed_payload_round_trip_and_bits(self):
        b = make_batch()
        k = 4
        rep = vq.correlated_vector_cq(b, k, 5)
        for i, payload in enumerate(payloads("correlated-klevel", rep, k)):
            assert np.array_equal(bc.unpack_fixed(payload, k), rep.indices[i])
        assert np.all(rep.bits == bc.HEADER_BITS + b.d * bc.fixed_width(k))

    def test_coordinate_isolation(self):
        # swapping in foreign shared randomness for coordinate 2 must not
        # change any other coordinate's levels (the (d, n) encode kernel)
        b = make_batch(n=5, d=4, seed=3)
        y = ((b.vectors + b.radius) / (2 * b.radius)).T
        ctx = build_context(10, n=5, d=4, k=4)
        other = build_context(11, n=5, d=4, k=4)
        names = ("permutations", "offset_units", "grid_offsets")
        arrays = [getattr(ctx, name) for name in names]
        tampered = [a.copy() for a in arrays]
        for t, name in zip(tampered, names):
            t[2] = getattr(other, name)[2]
        a = vq.cq_encode(y, *arrays, 4)
        t = vq.cq_encode(y, *tampered, 4)
        keep = [0, 1, 3]
        assert np.array_equal(a[keep], t[keep])
        assert not np.array_equal(a[2], t[2])
        assert np.array_equal(a.T, vq.correlated_vector_cq(b, 4, 10).indices)

class TestEntropyVariant:
    def test_same_estimates_as_fixed_width(self):
        b = make_batch(seed=21)
        fixed = vq.correlated_vector_cq(b, 8, 42)
        gamma = vq.entropy_cq(b, 8, 42)
        assert np.array_equal(fixed.estimate, gamma.estimate)
        assert np.array_equal(fixed.indices, gamma.indices)

    def test_gamma_payload_round_trip(self):
        b = make_batch(seed=21)
        rep = vq.entropy_cq(b, 8, 42)
        built = payloads("entropy-cq", rep, 8)
        for i, payload in enumerate(built):
            values = np.array(bc.elias_gamma_decode(payload))
            assert np.array_equal(bc.zigzag_decode(values, 8), rep.indices[i])
        assert np.all(
            rep.bits == bc.HEADER_BITS + np.array([p.length for p in built])
        )

    def test_beats_fixed_width_on_concentrated_data(self):
        # near-zero vectors sit at the central levels: the gamma payload
        # must undercut ceil(log2 k) bits per coordinate
        d, k = 256, 16
        x = np.random.default_rng(0).normal(size=(8, d)) * 1e-3
        b = vq.VectorBatch(x, radius=1.0)
        rep = vq.entropy_cq(b, k, 1)
        fixed_bits = bc.HEADER_BITS + d * bc.fixed_width(k)
        assert rep.bits.max() < fixed_bits

    def test_entropy_bit_cost_bound(self):
        # documented ceiling: twice the ideal-code estimate plus header
        rng = np.random.default_rng(5)
        n, d, k = 10, 64, 8
        x = rng.normal(size=(n, d))
        b = vq.VectorBatch.from_vectors(x)
        rep = vq.entropy_cq(b, k, 8)
        ideal = d * (1 + math.log2((k - 1) ** 2 / (2 * d) + 1)) + k * math.log2(
            (k + d) * math.e / k
        )
        assert rep.bits.max() <= bc.HEADER_BITS + 2.0 * ideal


class TestHadamardCq:
    def test_no_clipping_at_small_sizes(self):
        # at m = n = 8 the scaled rotated coordinates cannot reach 1
        b = make_batch(n=8, d=8, seed=5, headroom=1.0)
        for seed in range(50):
            rep = vq.walsh_hadamard_cq(b, 4, seed)
            assert rep.clips == 0

    def test_bias_small_without_clipping(self):
        b = make_batch(n=8, d=12, seed=6)
        seeds = trial_seeds(99, 4000)
        acc = np.zeros(12)
        for t in range(len(seeds)):
            acc += vq.walsh_hadamard_cq(b, 8, int(seeds[t])).estimate
        assert np.abs(acc / len(seeds) - b.mean()).max() < 2e-2 * b.radius

    def test_bits_are_padded_dimension_times_width(self):
        b = make_batch(n=4, d=12, seed=2)
        m = vq.next_pow2(12)
        rep = vq.walsh_hadamard_cq(b, 8, 0)
        assert np.all(rep.bits == bc.HEADER_BITS + m * 3)

    def test_requires_padded_context(self):
        # the round reads the context of the padded dimension m = 16: its
        # signs un-rotate the decoded indices to the op's clients
        b = make_batch(n=4, d=12, seed=2)
        ctx = build_context(0, n=4, d=16, k=8)
        rep = vq.walsh_hadamard_cq(b, 8, 0)
        assert rep.indices.shape == (4, 16)
        y = vq.cq_decode(rep.indices.T, ctx.grid_offsets, 8).T
        z = (2.0 * y - 1.0) / vq.rotation_scale(b.radius, 16, 4)
        got = vq.unrotate(z, ctx.rotation_signs, 12)
        assert np.allclose(got, rep.per_client, atol=1e-12 * b.radius)

    def test_clip_fraction_negligible_at_scale(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 1024))
        b = vq.VectorBatch.from_vectors(x)
        clip_events = 0
        for seed in range(5):
            clip_events += vq.walsh_hadamard_cq(b, 4, seed).clips
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

    def test_key_is_required_and_keyword_only(self):
        b = make_batch()
        with pytest.raises(TypeError):
            vq.independent_vector_sq(b, 4)
        with pytest.raises(TypeError):
            vq.independent_vector_sq(b, 4, False, 7)

    def test_terngrad_unbiased_and_payload(self):
        b = make_batch(n=6, d=5, seed=9)
        acc = np.zeros(b.d)
        trials = 8000
        for t in range(trials):
            rep = vq.ternary_quantize(b, key=t)
            acc += rep.estimate
        assert np.abs(acc / trials - b.mean()).max() < 3e-2 * b.radius
        rep = vq.ternary_quantize(b, key=3)
        head, scale = vq.split_scale_tail(payloads("terngrad", rep, 3)[0])
        assert scale == rep.scales[0]
        assert np.array_equal(bc.unpack_fixed(head, 3), rep.indices[0])
        assert np.all(rep.bits == bc.HEADER_BITS + 2 * b.d + 64)

    def test_terngrad_zero_batch(self):
        b = vq.VectorBatch(np.zeros((3, 4)), radius=1.0)
        rep = vq.ternary_quantize(b, key=0)
        assert not rep.estimate.any()
        assert np.all(rep.scales == 0.0)


class TestRotateSign:
    def test_deterministic_given_context(self):
        b = make_batch(n=6, d=5, seed=11)
        a = vq.rotate_sign_baseline(b, 21)
        c = vq.rotate_sign_baseline(b, 21)
        assert np.array_equal(a.estimate, c.estimate)

    def test_scale_tail_round_trip(self):
        b = make_batch(n=6, d=5, seed=11)
        rep = vq.rotate_sign_baseline(b, 21)
        head, scale = vq.split_scale_tail(payloads("rotate-sign", rep, 2)[2])
        assert scale == rep.scales[2]
        assert np.array_equal(bc.unpack_fixed(head, 2), rep.indices[2])

    def test_per_client_error_bounded_by_norm(self):
        # sign-magnitude reconstruction never overshoots the vector scale
        b = make_batch(n=6, d=5, seed=11)
        rep = vq.rotate_sign_baseline(b, 21)
        err = np.linalg.norm(rep.per_client - b.vectors, axis=1)
        norms = np.linalg.norm(b.vectors, axis=1)
        assert np.all(err <= norms + 1e-9)


def test_scale_tail_format():
    stream = bc.BitStream.from_bits([1, 0, 1])
    tailed = vq.append_scale_tail(stream, 0.5)
    assert tailed.length == 3 + 64
    head, scale = vq.split_scale_tail(tailed)
    assert head == stream
    assert scale == 0.5
    # IEEE big-endian float64 bits follow the head verbatim
    assert "".join(map(str, tailed.bits()[3:])) == format(
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
    rep = vq.correlated_vector_cq(b, k, seed)
    assert rep.indices.shape == (n, d)
    assert rep.indices.min() >= 0 and rep.indices.max() <= k - 1
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
    assert "".join(map(str, tailed.bits())) == "".join(map(str, bits)) + float_bits
    head, back = vq.split_scale_tail(tailed)
    assert head == stream
    assert struct.pack(">d", back) == struct.pack(">d", scale)
    if len(bits) < 64:
        with pytest.raises(bc.MalformedStreamError):
            vq.split_scale_tail(stream)


@pytest.mark.parametrize("k", [2, 3, 5, 16])
@pytest.mark.parametrize("full_y", [False, True])
def test_cq_codec_in_its_inputs_buffers_is_the_reference_rule(k, full_y):
    # the engine hands cq_encode the context's own arrays (and a rotated
    # y) as out; the result must be the rule composed from its kernels
    ctx = build_context_arrays(trial_seeds(9, 4), 40, 6, k)
    rng = np.random.default_rng(k)
    y = rng.random((4, 6, 40) if full_y else (6, 40))
    y[..., :3] = 0.0, 1.0, 0.5  # endpoints and a level
    if k == 2:
        want = sq.correlated_bits(y, ctx.permutations, ctx.offset_units).astype(np.int64)
        want_values = want.astype(np.float64)
    else:
        first = ctx.grid_offsets[..., None]
        cell, frac = sq.level_cells(y, first, k)
        want = cell + sq.correlated_bits(frac, ctx.permutations, ctx.offset_units)
        want_values = first + want * sq.level_spacing(k)
    fresh = vq.cq_encode(y, *ctx[:3], k)
    perms, offsets, y_in = ctx.permutations.copy(), ctx.offset_units.copy(), y.copy()
    work = y_in if full_y else np.empty(y.shape if k == 2 else perms.shape)
    in_place = vq.cq_encode(y_in, perms, offsets, ctx.grid_offsets, k,
                            out=(perms, offsets, work))
    assert in_place is perms
    assert np.array_equal(fresh, want) and np.array_equal(in_place, want)
    assert np.array_equal(vq.cq_decode(want, ctx.grid_offsets, k), want_values)
    assert np.array_equal(vq.cq_decode(in_place, ctx.grid_offsets, k, out=offsets),
                          want_values)


@pytest.mark.parametrize("m", [1, 2, 64, 1024, 2048])
def test_rotation_kernels_in_given_buffers_match_fresh_ones(m):
    rng = np.random.default_rng(m)
    x = rng.normal(size=(3, 5, m))
    signs = rng.choice([-1.0, 1.0], size=(3, 1, m))
    result, scratch = np.empty(x.shape), np.empty(x.shape)
    got = vq.rotate(x, signs, out=(result, scratch))
    assert got is result and np.array_equal(got, vq.rotate(x, signs))
    row = x[0, :1]  # the one-row product
    assert np.array_equal(vq.fwht(row, out=(np.empty(row.shape), row.copy())), vq.fwht(row))
    bits, scales = vq.sign_scale_kernel(got)
    y = got.copy()
    got_bits, got_scales = vq.sign_scale_kernel(y, out=(np.empty(y.shape, np.int64), y))
    assert np.array_equal(bits, got_bits) and np.array_equal(scales, got_scales)
    assert np.array_equal(y, np.abs(got))  # work was y itself
