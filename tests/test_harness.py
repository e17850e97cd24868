"""Error measurement engine, bound formulas, and batch generators."""

import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from corrq import bitcodec as bc
from corrq import harness as hz
from corrq import scalar_quant as sq
from corrq.randomness import build_context_arrays, derive_key, trial_seeds
from corrq.scalar_quant import ScalarBatch
from corrq.vector_quant import VectorBatch
from test_protocol_oracle import oracle_round


class TestBoundFormulas:
    def test_one_bit_envelope_value(self):
        assert hz.one_bit_envelope(0.01, 1.0, 100) == pytest.approx(
            3 * 0.01 / 100 + 12 / 100**2
        )
        assert hz.one_bit_envelope(0.0, 2.0, 10) == pytest.approx(48 / 100)

    def test_k_level_envelope_value(self):
        # concentrated regime: sigma term is the smaller branch
        got = hz.k_level_envelope(0.01, 1.0, 100, 8)
        assert got == pytest.approx((12 / 100) * (0.01 / 8) + 48 / (100**2 * 64))
        # diffuse regime: width term wins
        got = hz.k_level_envelope(0.5, 1.0, 10, 32)
        assert got == pytest.approx(
            (12 / 10) * (1 / 32**2) + 48 / (10**2 * 32**2)
        )
        with pytest.raises(ValueError):
            hz.k_level_envelope(0.01, 1.0, 10, 2)

    def test_floor_values(self):
        assert hz.one_bit_floor(0.01, 1.0, 10_000) == pytest.approx(
            0.01 / (64 * 10_000)
        )
        assert hz.k_level_floor(1.0, 10, 4) == pytest.approx(
            1 / (64 * 100 * 16)
        )

    def test_vector_envelope_value(self):
        d, k, n, r, sig = 16, 8, 100, 2.0, 0.05
        per_coord_sigma_sum = np.sqrt(d) * sig
        lead = (12 / n) * min(
            per_coord_sigma_sum * 2 * r / k, d * (2 * r) ** 2 / k**2
        )
        tail = 48 * d * (2 * r) ** 2 / (n**2 * k**2)
        assert hz.vector_envelope(sig, r, n, d, k) == pytest.approx(lead + tail)

    def test_hadamard_bias_bound_uses_padded_dimension(self):
        m = 16
        expected = 18 * 4.0 * np.log(m * 10) / (m**3 * 10**4)
        assert hz.hadamard_bias_bound(2.0, 9, 10) == pytest.approx(expected)
        assert hz.hadamard_bias_bound(2.0, 16, 10) == pytest.approx(expected)


class TestGenerators:
    def test_uniform_mean_shape_and_determinism(self):
        a = hz.gen_uniform_mean(20, 6, 0.01, seed=5)
        b = hz.gen_uniform_mean(20, 6, 0.01, seed=5)
        c = hz.gen_uniform_mean(20, 6, 0.01, seed=6)
        assert a.vectors.shape == (20, 6)
        assert np.array_equal(a.vectors, b.vectors)
        assert not np.array_equal(a.vectors, c.vectors)

    def test_sparse_mean_support(self):
        b = hz.gen_sparse_mean(10, 200, 0.001, sparsity=0.05, seed=3,
                               magnitude=2.0)
        mu = b.mean()
        assert np.count_nonzero(np.abs(mu) > 1.0) == 10  # 5% of 200
        assert b.vectors.shape == (10, 200)

    def test_lower_bound_1bit_concentration(self):
        g = hz.gen_lower_bound_1bit(1000, 1.0, 0.01, seed=9)
        stats = sq.concentration_stats(g)
        assert 0 < stats.sigma_md <= 4 * 0.01
        assert g.values.min() >= 0 and g.values.max() <= 1

    def test_lower_bound_1bit_zero_sigma(self):
        g = hz.gen_lower_bound_1bit(8, 2.0, 0.0, seed=1)
        assert np.all(g.values == 1.0)

    def test_lower_bound_klevel_variants(self):
        for variant in ("mixture", "constant"):
            g = hz.gen_lower_bound_klevel(
                100, 1.0, 4, 0.01, variant=variant, seed=2
            )
            assert g.values.min() >= 0 and g.values.max() <= 1

    def test_constant_grid_batches(self):
        batches = hz.constant_grid_batches(10, 1.0, 4)
        assert len(batches) == 2 * 10 * 4
        for j, b in enumerate(batches):
            assert np.all(b.values == j / (2 * 10 * 4))

    def test_scalar_uniform_mean_range_guard(self):
        b = hz.gen_scalar_uniform_mean(50, 0.01, seed=1)
        assert b.values.min() >= 0 and b.values.max() <= 1
        with pytest.raises(ValueError):
            hz.gen_scalar_uniform_mean(50, 0.2, seed=1)  # 8 sigma > width

    def test_generate_dispatch_and_validation(self):
        spec = hz.SyntheticSpec(kind="uniform-mean", n=5, d=3)
        out = hz.generate(spec, seed=0)
        assert isinstance(out, VectorBatch)
        scalar_spec = hz.SyntheticSpec(kind="lower-bound-1bit", n=5)
        assert isinstance(hz.generate(scalar_spec, seed=0), ScalarBatch)
        with pytest.raises(ValueError):
            hz.SyntheticSpec(kind="nope", n=5)


@pytest.mark.parametrize("scheme", hz.SCHEMES)
def test_run_round_bits_are_the_serialized_payload_lengths(scheme):
    # run_round prices bits from the level indices without building a
    # payload; Scheme.payloads serializes them as the wire audit does
    spec = hz.SCHEME_TABLE[scheme]
    for n, d, k in ((2, 1, 2), (7, 13, 4), (30, 8, 16), (9, 20, 64)):
        rng = np.random.default_rng(100 * n + d)
        batches = [VectorBatch.from_vectors(rng.normal(size=(n, d)))]
        if spec.scalar_ok:
            batches.append(ScalarBatch(rng.uniform(-1.0, 2.0, size=n), -1.0, 2.0))
        for batch in batches:
            r = hz.run_round(batch, scheme, k, n + d)
            payloads = spec.payloads(r.indices, k, r.scales, r.bits)
            assert r.bits.dtype == np.int64
            want = [bc.HEADER_BITS + p.length for p in payloads]
            assert r.bits.tolist() == want, (scheme, n, d, k)
            indices, scales = spec.decode(payloads, k, r.indices.shape[1])
            assert np.array_equal(indices, r.indices)
            assert (scales is None) == (r.scales is None)
            assert r.scales is None or np.array_equal(scales, r.scales)
            with pytest.raises(RuntimeError, match="differs from its price"):
                spec.payloads(r.indices, k, r.scales, r.bits + 1)


@pytest.mark.parametrize("n, d, k", [(1, 1, 2), (7, 13, 4), (30, 8, 16), (9, 20, 64), (100, 256, 16)])
def test_gamma_payloads_are_the_per_row_codes(n, d, k):
    # the trial codec writes each row as the row's textbook codewords,
    # joined and padded to a byte
    rng = np.random.default_rng(n * d + k)
    r = hz.run_round(VectorBatch.from_vectors(rng.normal(size=(n, d))), "entropy-cq", k, n + d)
    payloads = hz.SCHEME_TABLE["entropy-cq"].payloads(r.indices, k, r.scales, r.bits)
    delta = r.indices - k // 2
    zigzag = np.where(delta >= 0, 2 * delta, -2 * delta - 1) + 1
    want = bc.BitRows.from_streams([
        bc.BitStream.from_bits(
            int(c) for v in row for c in "0" * (int(v).bit_length() - 1) + format(int(v), "b")
        )
        for row in zigzag
    ])
    assert payloads.lengths.tolist() == want.lengths.tolist()
    assert payloads.data.tobytes() == want.data.tobytes()


def test_gamma_audit_across_small_decode_windows(monkeypatch):
    # 128-bit decode windows end inside codewords on every audited trial;
    # the report is the same
    spec = hz.SyntheticSpec(kind="uniform-mean", n=20, d=64, sigma_md=0.01)
    want = hz.run_dme(spec, "entropy-cq", 6, 11, k=16, bit_trials=6)
    windows = []
    decode_window = bc._decode_window
    monkeypatch.setattr(bc, "_DECODE_WINDOW", 128)
    monkeypatch.setattr(
        bc, "_decode_window", lambda *args: windows.append(args[2]) or decode_window(*args)
    )
    assert hz.run_dme(spec, "entropy-cq", 6, 11, k=16, bit_trials=6) == want
    assert len(windows) >= 6 * 20 * 64 // 128


def test_decode_checks_the_count_of_indices_per_row():
    batch = VectorBatch.from_vectors(np.random.default_rng(4).normal(size=(6, 10)))
    for scheme in ("entropy-cq", "correlated-klevel", "terngrad"):
        spec = hz.SCHEME_TABLE[scheme]
        r = hz.run_round(batch, scheme, 8, 3)
        payloads = spec.payloads(r.indices, 8, r.scales, r.bits)
        error = bc.MalformedStreamError if spec.gamma else bc.LengthMismatchError
        for dp in (9, 11):
            with pytest.raises(error):
                spec.decode(payloads, 8, dp)
    # one row a codeword longer and the next one shorter, as many in all
    spec = hz.SCHEME_TABLE["entropy-cq"]
    r = hz.run_round(batch, "entropy-cq", 8, 3)
    values = bc.zigzag_encode(r.indices, 8).ravel()
    moved = bc.elias_gamma_encode_rows(values, [11, 9, 10, 10, 10, 10])
    with pytest.raises(bc.MalformedStreamError) as err:
        spec.decode(moved, 8, 10)
    assert 0 <= err.value.bit_offset < moved.lengths[0]


def test_fixed_width_rows_with_padding_bits_do_not_decode():
    # bits 1010 and padding 0001 would read as [[2, 2]]; BitRows rejects
    # the padding before any decoder sees the rows
    spec = hz.SCHEME_TABLE["correlated-klevel"]
    with pytest.raises(bc.MalformedStreamError) as err:
        spec.decode(bc.BitRows(np.array([0b10100001], np.uint8), np.array([4])), 4, 2)
    assert err.value.bit_offset == 4


def _trial_frame(scheme, n, d, k, seed):
    """A round's payloads, its wire header fields and their frame."""
    spec = hz.SCHEME_TABLE[scheme]
    rng = np.random.default_rng(seed % 2**32)
    r = hz.run_round(VectorBatch.from_vectors(rng.normal(size=(n, d))), scheme, k, seed)
    payloads = spec.payloads(r.indices, k, r.scales, r.bits)
    header = (scheme, n, r.indices.shape[1], spec.wire_levels(k), seed)
    return payloads, header, bc.frame_encode(*header, payloads)


def _frame_rows(buf, payloads):
    """Each message of a frame: its header row, then its payload bytes."""
    n, body = len(payloads), bc.HEADER_BYTES * len(payloads)
    starts = np.concatenate([[0], payloads.ends[:-1]])
    return [
        buf[i * bc.HEADER_BYTES : (i + 1) * bc.HEADER_BYTES]
        + buf[body + starts[i] : body + payloads.ends[i]]
        for i in range(n)
    ]


@pytest.mark.parametrize("scheme", hz.SCHEMES)
@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(2, 12),
    d=st.integers(1, 40),
    k=st.integers(2, 40),
    seed=st.integers(0, 2**64 - 1),
)
def test_frame_rows_are_the_encoded_messages(scheme, n, d, k, seed):
    payloads, header, buf = _trial_frame(scheme, n, d, k, seed)
    assert len(buf) == n * bc.HEADER_BYTES + payloads.data.size
    for row, payload in zip(_frame_rows(buf, payloads), payloads):
        assert row == bc.message_encode(bc.WireMessage(*header, payload))
    head, back = bc.frame_decode(buf, n)
    assert [bytes(h) for h in head["magic"]] == [bc.MAGIC] * n
    assert (head["scheme"] == bc.SCHEME_BYTES[scheme]).all()
    assert (head["n"] == n).all() and (head["seed"] == seed).all()
    assert list(back) == list(payloads)


# (header byte or None for the payload's last byte, how to corrupt it)
CORRUPTIONS = {
    bc.BadMagicError: (0, lambda b: b ^ 0x20),
    bc.UnknownSchemeError: (4, lambda b: 200),
    bc.LengthMismatchError: (23, lambda b: b + 8),  # bit length + 8
    bc.MalformedStreamError: (None, lambda b: b | 1),  # a padding bit
}


@pytest.mark.parametrize("error", list(CORRUPTIONS), ids=lambda e: e.__name__)
def test_a_corrupted_frame_row_raises_what_message_decode_raises(error):
    # 13 one-bit payloads leave 3 padding bits in every message
    payloads, _, buf = _trial_frame("correlated-1bit", 6, 13, 2, 9)
    where, corrupt = CORRUPTIONS[error]
    body = 6 * bc.HEADER_BYTES
    for i in range(6):
        pos = body + payloads.ends[i] - 1 if where is None else i * bc.HEADER_BYTES + where
        frame = bytearray(buf)
        frame[pos] = corrupt(frame[pos])
        row = _frame_rows(bytes(frame), payloads)[i]
        with pytest.raises(error):
            bc.message_decode(row)
        with pytest.raises(error):
            bc.frame_decode(bytes(frame), 6)


def test_frame_decode_rejects_a_negative_row_count():
    _, _, buf = _trial_frame("correlated-1bit", 6, 13, 2, 9)
    for rows in (-1, -6):
        with pytest.raises(bc.InvalidParameterError):
            bc.frame_decode(buf, rows)


@pytest.mark.parametrize(
    "scheme, tamper, message",
    [
        ("correlated-1bit", "index", "disagrees with engine"),
        ("rotate-sign", "index", "disagrees with engine"),
        ("terngrad", "scale", "scale round trip"),
        ("rotate-sign", "scale", "scale round trip"),
        ("correlated-klevel", "seed", "altered"),
    ],
)
def test_audit_catches_an_altered_message(monkeypatch, scheme, tamper, message):
    # run_dme's wire audit must notice one received index, scale or header
    # field that differs from what the engine sent
    decode = bc.frame_decode

    def tampered(buf, rows):
        head, payloads = decode(buf, rows)
        data, head = payloads.data.copy(), head.copy()
        if tamper == "seed":
            head["seed"][rows - 1] ^= 1
        else:
            # the first message's last index bit, or the lowest mantissa
            # bit of its scale tail
            tail = tamper == "index" and hz.SCHEME_TABLE[scheme].scale_tail
            bit = int(payloads.lengths[0]) - (65 if tail else 1)
            data[bit // 8] ^= 0x80 >> (bit % 8)
        return head, bc.BitRows(data, payloads.lengths)

    batch = VectorBatch.from_vectors(np.random.default_rng(4).normal(size=(5, 7)))
    k = 2 if scheme == "correlated-1bit" else 4
    assert hz.run_dme(batch, scheme, trials=2, seed=1, k=k, bit_trials=1).trials == 2
    monkeypatch.setattr(bc, "frame_decode", tampered)
    with pytest.raises(RuntimeError, match=message):
        hz.run_dme(batch, scheme, trials=2, seed=1, k=k, bit_trials=1)


@pytest.mark.parametrize("scheme", hz.SCHEMES)
def test_both_entry_points_check_scheme_and_input_kind(scheme):
    # run_round once raised AttributeError or ran silently where run_dme
    # raised ValueError
    batch = ScalarBatch(np.array([0.2, 0.5, 0.9]), 0.0, 1.0)
    k = 2 if scheme == "correlated-1bit" else 4
    if hz.SCHEME_TABLE[scheme].scalar_ok:
        assert hz.run_round(batch, scheme, k, 0).indices.shape == (3, 1)
        assert hz.run_dme(batch, scheme, trials=3, seed=0, k=k).trials == 3
    else:
        with pytest.raises(ValueError, match="scalar batches"):
            hz.run_round(batch, scheme, k, 0)
        with pytest.raises(ValueError, match="scalar batches"):
            hz.run_dme(batch, scheme, trials=3, seed=0, k=k)
    vectors = VectorBatch.from_vectors(np.eye(3))
    for call in (
        lambda: hz.run_round(vectors, scheme + "-x", k, 0),
        lambda: hz.run_dme(vectors, scheme + "-x", trials=3, seed=0, k=k),
    ):
        with pytest.raises(ValueError, match="unknown scheme"):
            call()


@pytest.mark.parametrize("scheme", hz.SCHEMES)
def test_round_estimate_is_the_run_dme_trial_bit_for_bit(scheme):
    # run_round's estimate is the server mean of a one-trial run_dme with
    # the same key (the rotated schemes un-rotate the mean once), so a task
    # round is the engine at one trial
    k = 2 if scheme == "correlated-1bit" else 5
    rng = np.random.default_rng(9)
    batches = [VectorBatch.from_vectors(rng.normal(size=(9, 13)))]
    if hz.SCHEME_TABLE[scheme].scalar_ok:
        batches.append(ScalarBatch(rng.uniform(-1.0, 2.0, size=9), -1.0, 2.0))
    for batch in batches:
        for seed in (0, 1, 2**64 - 3):
            key = int(trial_seeds(seed, 1)[0])
            err = hz.run_round(batch, scheme, k, key).estimate - batch.mean()
            want = float((err * err).sum())
            assert hz.run_dme(batch, scheme, 1, seed, k=k).mse == want, scheme


class TestRunDme:
    def test_exactness_on_own_grid(self):
        for s in range(9):
            batch = ScalarBatch(np.full(8, s / 8), 0.0, 1.0)
            rep = hz.run_dme(batch, "correlated-1bit", trials=100, seed=s)
            assert rep.mse == 0.0

    def test_toy_closed_form_one_point(self):
        x = 0.3
        batch = ScalarBatch(np.array([x, x]), 0.0, 1.0)
        ri = hz.run_dme(batch, "independent", trials=100_000, seed=7)
        rc = hz.run_dme(batch, "correlated-1bit", trials=100_000, seed=7)
        assert abs(ri.mse - x * (1 - x) / 2) < 4 * ri.stderr
        assert abs(rc.mse - (x / 2 + max(x - 0.5, 0) - x * x)) < 4 * rc.stderr

    def test_engine_matches_reference_ops_scalar(self):
        batch = ScalarBatch(np.array([0.13, 0.55, 0.62, 0.91, 0.08]), 0.0, 1.0)
        for scheme, k in (
            ("correlated-1bit", 2), ("correlated-klevel", 5), ("independent", 4)
        ):
            prep = hz._prepare(batch, scheme, k)
            seeds = trial_seeds(202, 5)
            values, idx, _, _, signs = hz._evaluate_chunk(prep, seeds)
            est = prep.estimates(values, signs)
            for t in range(5):
                want = oracle_round(batch, scheme, k, int(seeds[t]))
                assert np.array_equal(idx[t].T, want.indices), (scheme, t)
                assert np.array_equal(
                    prep.lower + prep.width * values[t].T, want.per_client
                ), (scheme, t)
                assert est[t, 0] == want.per_client.mean(), (scheme, t)

    def test_engine_matches_reference_ops_vector(self):
        rng = np.random.default_rng(5)
        batch = VectorBatch.from_vectors(rng.normal(size=(6, 8)))
        for scheme in hz.SCHEMES:
            prep = hz._prepare(batch, scheme, 4)
            seeds = trial_seeds(31, 3)
            values, idx, _, _, signs = hz._evaluate_chunk(prep, seeds)
            est = prep.estimates(values, signs)
            for t in range(3):
                want = oracle_round(batch, scheme, 4, int(seeds[t]))
                assert np.array_equal(idx[t].T, want.indices), scheme
                assert np.allclose(
                    est[t], want.per_client.mean(axis=0), rtol=0, atol=1e-12
                ), scheme

    @pytest.mark.parametrize(
        "scheme", ["hadamard-cq", "independent-rotation", "rotate-sign"]
    )
    def test_rotated_mean_is_unrotated_once(self, scheme):
        # the server un-rotates the clients' mean; un-rotating every client
        # with the dense Hadamard matrix and averaging gives the same
        batch = VectorBatch.from_vectors(
            np.random.default_rng(8).normal(size=(7, 13))
        )
        prep = hz._prepare(batch, scheme, 4)
        values, _, _, _, signs = hz._evaluate_chunk(prep, trial_seeds(41, 5))
        H = scipy.linalg.hadamard(prep.dp) / math.sqrt(prep.dp)
        clients = (values @ H.T * signs[:, None, :])[..., :13]
        est = prep.estimates(values, signs)
        assert est.shape == (5, 13)
        assert np.max(np.abs(est - clients.mean(axis=1))) <= 1e-12 * batch.radius
        assert np.max(np.abs(prep.per_client(values, signs) - clients[0])) <= (
            1e-12 * batch.radius
        )

    def test_wire_limits_are_checked_before_any_trial(self):
        batch = VectorBatch.from_vectors(np.ones((3, 4)))
        with pytest.raises(ValueError, match="k=65536"):
            hz._prepare(batch, "correlated-klevel", 1 << 16)
        with pytest.raises(ValueError, match="k=70000"):
            hz.run_dme(batch, "entropy-cq", trials=5, seed=1, k=70000)
        hz._prepare(batch, "correlated-klevel", (1 << 16) - 1)
        # sizes past u32 only need their shape: a stand-in batch
        for n, d, scheme in (
            (1 << 32, 4, "correlated-klevel"),
            (3, 1 << 32, "correlated-klevel"),
            (3, (1 << 31) + 1, "hadamard-cq"),  # pads to 2^32
        ):
            fake = SimpleNamespace(n=n, d=d, radius=1.0, vectors=None)
            with pytest.raises(ValueError, match="does not fit the wire header"):
                hz._prepare(fake, scheme, 4)

    def test_bit_trials_below_one_is_rejected(self):
        batch = VectorBatch.from_vectors(np.ones((3, 4)))
        for bad in (0, -1):
            with pytest.raises(ValueError, match="bit_trials"):
                hz.run_dme(batch, "correlated-klevel", trials=5, seed=1,
                           k=4, bit_trials=bad)

    def test_error_decomposition_and_bits(self):
        rng = np.random.default_rng(5)
        batch = VectorBatch.from_vectors(rng.normal(size=(8, 8)))
        expected_bits = {
            "correlated-1bit": 216 + 8,
            "correlated-klevel": 216 + 16,
            "hadamard-cq": 216 + 16,
            "independent": 216 + 16,
            "independent-rotation": 216 + 16,
            "terngrad": 216 + 16 + 64,
            "rotate-sign": 216 + 8 + 64,
        }
        for scheme in hz.SCHEMES:
            k = 2 if scheme == "correlated-1bit" else 4
            rep = hz.run_dme(batch, scheme, trials=400, seed=13, k=k)
            assert abs(rep.mse - rep.bias_sq - rep.mean_variance) <= 1e-9 * max(
                1.0, rep.mse
            )
            if scheme in expected_bits:
                assert rep.bits_per_client == expected_bits[scheme], scheme
            else:
                assert rep.bits_per_client > 216  # entropy-cq is variable

    def test_gamma_cost_is_priced_on_every_trial(self, monkeypatch):
        # the price is exact, so the audited share cannot move it; auditing
        # every trial also checks every payload's length against it
        spec = hz.SyntheticSpec(kind="uniform-mean", n=20, d=64, sigma_md=0.01)
        costs = set()
        for chunk in (1 << 21, 1 << 11):
            monkeypatch.setattr(hz, "CHUNK_ELEMENTS", chunk)
            costs |= {
                hz.run_dme(spec, "entropy-cq", 30, 5, k=16, bit_trials=bt)
                .bits_per_client
                for bt in (1, 2, 30)
            }
        assert len(costs) == 1

    def test_exact_batches_have_zero_error_and_nonnegative_variance(self):
        for n in (2, 4, 8, 100):
            for s in range(n + 1):
                batch = ScalarBatch(np.full(n, s / n), 0.0, 1.0)
                rep = hz.run_dme(
                    batch, "correlated-1bit", trials=1000,
                    seed=derive_key(7, "exact", n, s), bit_trials=1,
                )
                assert rep.mse == 0.0, (n, s)
                assert rep.mean_variance >= 0.0, (n, s, rep.mean_variance)

    def test_unbiased_schemes_have_tiny_bias(self):
        rng = np.random.default_rng(5)
        batch = VectorBatch.from_vectors(rng.normal(size=(8, 8)))
        rep = hz.run_dme(batch, "correlated-klevel", trials=20_000, seed=3, k=4)
        assert rep.bias_sq < 16 * rep.mean_variance / 20_000

    def test_reproducible_and_chunk_invariant(self, monkeypatch):
        rng = np.random.default_rng(5)
        batch = VectorBatch.from_vectors(rng.normal(size=(8, 8)))
        a = hz.run_dme(batch, "hadamard-cq", trials=300, seed=99, k=4)
        b = hz.run_dme(batch, "hadamard-cq", trials=300, seed=99, k=4)
        monkeypatch.setattr(hz, "CHUNK_ELEMENTS", 1 << 8)
        c = hz.run_dme(batch, "hadamard-cq", trials=300, seed=99, k=4)
        assert a == b == c

    @pytest.mark.parametrize("scheme", hz.SCHEMES)
    def test_default_chunking_matches_one_chunk(self, scheme, monkeypatch):
        # 20 trials of 50 x 300 span several engine calls at the default
        # budget, the audited trials too; one call must report the same
        spec = hz.SyntheticSpec(kind="uniform-mean", n=50, d=300, sigma_md=0.02)
        k = 2 if scheme == "correlated-1bit" else 8
        assert 20 * 50 * 300 > 2 * hz.CHUNK_ELEMENTS
        chunked = hz.run_dme(spec, scheme, 20, 17, k=k, bit_trials=10)
        monkeypatch.setattr(hz, "CHUNK_ELEMENTS", 1 << 40)
        whole = hz.run_dme(spec, scheme, 20, 17, k=k, bit_trials=10)
        assert hz.reports_to_csv([chunked]) == hz.reports_to_csv([whole])
        assert chunked == whole
        if hz.SCHEME_TABLE[scheme].rotated:
            # padded d of 8, 16 and 32: a chunk of one trial rotates one
            # row at the last Hadamard factor, the default chunk a block
            for d in (5, 13, 32):
                small = hz.SyntheticSpec(kind="uniform-mean", n=9, d=d, sigma_md=0.1)
                monkeypatch.setattr(hz, "CHUNK_ELEMENTS", 1 << 17)
                chunked = hz.run_dme(small, scheme, 50, 3, k=4)
                monkeypatch.setattr(hz, "CHUNK_ELEMENTS", 1)
                assert hz.run_dme(small, scheme, 50, 3, k=4) == chunked, d

    def test_synthetic_spec_input_equals_pregenerated_batch(self):
        spec = hz.SyntheticSpec(kind="uniform-mean", n=10, d=4, sigma_md=0.02)
        via_spec = hz.run_dme(spec, "correlated-1bit", trials=50, seed=8)
        batch = hz.generate(spec, derive_key(8, "data"))
        via_batch = hz.run_dme(batch, "correlated-1bit", trials=50, seed=8)
        assert via_spec == via_batch

    def test_validation(self):
        batch = ScalarBatch(np.array([0.5, 0.6]), 0.0, 1.0)
        with pytest.raises(ValueError):
            hz.run_dme(batch, "no-such-scheme", trials=1, seed=0)
        with pytest.raises(ValueError):
            hz.run_dme(batch, "hadamard-cq", trials=1, seed=0)
        with pytest.raises(ValueError):
            hz.run_dme(batch, "correlated-1bit", trials=0, seed=0)
        with pytest.raises(ValueError):
            hz.run_dme(batch, "correlated-1bit", trials=1, seed=0, k=4)
        with pytest.raises(ValueError):
            hz.run_dme(batch, "independent", trials=1, seed=0, k=1)

    def test_envelope_holds_on_random_batches(self):
        for i, (n, sig) in enumerate([(10, 0.01), (100, 0.005)]):
            b = hz.gen_scalar_uniform_mean(n, sig, seed=3000 + i)
            stats = sq.concentration_stats(b)
            r1 = hz.run_dme(b, "correlated-1bit", trials=2000, seed=50 + i)
            assert r1.mse <= hz.one_bit_envelope(stats.sigma_md, b.width, n)
            r2 = hz.run_dme(b, "correlated-klevel", trials=2000, seed=60 + i,
                            k=8)
            assert r2.mse <= hz.k_level_envelope(stats.sigma_md, b.width, n, 8)


class TestSweepAndCsv:
    def test_csv_header_and_round_trip(self):
        assert hz.CSV_COLUMNS == (
            "scheme", "n", "d", "k", "sigma_md", "trials", "mse", "rmse",
            "bias_sq", "bits_per_client", "stderr",
        )
        batch = ScalarBatch(np.array([0.2, 0.7]), 0.0, 1.0)
        rep = hz.run_dme(batch, "correlated-1bit", trials=10, seed=0)
        text = hz.reports_to_csv([rep])
        header, row = text.strip().split("\n")
        assert header == ",".join(hz.CSV_COLUMNS)
        fields = row.split(",")
        assert fields[0] == "correlated-1bit"
        assert float(fields[6]) == rep.mse  # repr round-trips exactly

    def test_sweep_pairs_schemes_and_orders_grid_major(self):
        base = hz.SyntheticSpec(kind="uniform-mean", n=100, d=8, sigma_md=0.01)
        reps = hz.sweep(
            "sigma_md", [0.002, 0.02], base,
            ["correlated-1bit", "independent"], trials=200, seed=4242,
        )
        assert [r.scheme for r in reps] == [
            "correlated-1bit", "independent",
        ] * 2
        # paired seeds: both schemes see the same batch, so the same
        # realized concentration
        assert reps[0].sigma_md == reps[1].sigma_md
        assert reps[0].rmse < reps[1].rmse
        assert reps[2].rmse < reps[3].rmse

    def test_sweep_axis_k_and_n(self):
        base = hz.SyntheticSpec(kind="uniform-mean", n=100, d=8, sigma_md=0.01)
        by_k = hz.sweep("k", [2, 8], base, ["correlated-klevel"], trials=150,
                        seed=1)
        assert by_k[0].k == 2 and by_k[1].k == 8
        assert by_k[1].rmse < by_k[0].rmse
        by_n = hz.sweep("n", [10, 100], base, ["correlated-1bit"], trials=150,
                        seed=2)
        assert by_n[0].n == 10 and by_n[1].n == 100
        assert by_n[1].rmse < by_n[0].rmse

    def test_sweep_reproducible(self):
        base = hz.SyntheticSpec(kind="uniform-mean", n=10, d=4, sigma_md=0.01)
        args = ("sigma_md", [0.01], base, ["correlated-1bit"], 50, 7)
        assert hz.reports_to_csv(hz.sweep(*args)) == hz.reports_to_csv(
            hz.sweep(*args)
        )

    def test_sweep_validation(self):
        base = hz.SyntheticSpec(kind="uniform-mean", n=10, d=4)
        with pytest.raises(ValueError):
            hz.sweep("bogus", [1], base, ["independent"], 10, 0)
        with pytest.raises(ValueError):
            hz.sweep("n", [], base, ["independent"], 10, 0)
        with pytest.raises(ValueError):
            hz.sweep("n", [10], base, [], 10, 0)


# ---------------------------------------------------------------------------
# The engine's per-thread workspace
# ---------------------------------------------------------------------------


def _vector_batch(n, d, seed=5):
    return hz.generate(hz.SyntheticSpec("uniform-mean", n=n, d=d, sigma_md=0.05), seed)


def _scheme_k(scheme):
    return 2 if scheme == "correlated-1bit" else 4


@pytest.mark.parametrize("scheme", hz.SCHEMES)
def test_a_round_is_not_overwritten_by_later_engine_calls(scheme):
    batch, k = _vector_batch(6, 10), _scheme_k(scheme)
    held = hz.run_round(batch, scheme, k, 99)
    saved = [None if a is None else np.copy(a) for a in held]
    hz.run_round(batch, scheme, k, 100)  # the same shape, another key
    hz.run_dme(batch, scheme, 5, 3, k=k)
    for other in hz.SCHEMES:  # other shapes, every buffer role
        hz.run_dme(_vector_batch(9, 33), other, 4, 8, k=_scheme_k(other))
    for field, before in zip(held, saved):
        assert np.array_equal(field, before)


def test_a_context_built_without_buffers_is_its_own():
    seeds = trial_seeds(4, 3)
    ctx = build_context_arrays(seeds, 7, 5, 4)
    saved = [np.copy(a) for a in ctx]
    build_context_arrays(trial_seeds(5, 3), 7, 5, 4)
    build_context_arrays(trial_seeds(6, 2), 40, 9, 4)
    for scheme in ("correlated-1bit", "correlated-klevel", "hadamard-cq"):
        hz.run_dme(_vector_batch(7, 5), scheme, 3, 1, k=_scheme_k(scheme))
    assert all(np.array_equal(a, b) for a, b in zip(ctx, saved))


def test_a_second_same_shape_call_reuses_the_thread_buffers():
    batch = _vector_batch(10, 40)
    hz.run_dme(batch, "correlated-klevel", 20, 1, k=4)
    buffers = list(hz._WORKSPACE.buffers)
    assert len(buffers) == 3
    hz.run_dme(batch, "correlated-klevel", 20, 2, k=4)
    assert all(a is b for a, b in zip(hz._WORKSPACE.buffers, buffers))


def test_a_trial_above_the_chunk_size_keeps_no_buffer_above_the_cap():
    n, d = 2, hz.CHUNK_ELEMENTS // 2 + 8  # one trial is one chunk, too big
    reports, sizes = [], []

    def work():  # in a thread of its own, whose workspace starts empty
        for scheme in ("correlated-klevel", "independent"):
            hz.run_dme(_vector_batch(n, 64), scheme, 2, 4, k=4)  # buffers in use
            reports.append(hz.run_dme(_vector_batch(n, d), scheme, 2, 4, k=4))
        sizes.extend(b.size for b in hz._WORKSPACE.buffers)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert [r.trials for r in reports] == [2, 2]
    assert len(sizes) == 3 and max(sizes) <= hz.CHUNK_ELEMENTS


def test_threads_on_different_shapes_give_the_serial_reports():
    jobs = [
        (_vector_batch(5 + 3 * i, 8 + 7 * i), scheme, 30 + i, i)
        for i, scheme in enumerate(hz.SCHEMES)
    ]

    def report(job):
        batch, scheme, trials, seed = job
        return hz.run_dme(batch, scheme, trials, seed, k=_scheme_k(scheme)).csv_row()

    want = [report(job) for job in jobs]
    got = [[] for _ in jobs]

    def worker(i):
        for _ in range(3):
            got[i].append(report(jobs[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[row] * 3 for row in want]
