"""A client-by-client transcription of the protocol: the engine's oracle.

oracle_round computes one round with Python loops over clients and
coordinates, one scalar rule at a time, as the protocol is stated:

* correlated: client i compares its normalized value y with its shared
  stratified uniform in the scaled form pi_j(i) + unit_j(i) < n * f, with
  f = y for k = 2 and, for k >= 3, the fraction of y's cell on the
  randomized grid first_j + m * (k+1)/(k(k-1));
* stochastic: private rounding on the uniform k-level grid, with the
  uniform drawn from the counter stream of the round key;
* ternary: a coordinate fires with probability |x|/max_j |x(j)|;
* rotated: a dense Hadamard matrix W = H D / sqrt(m) applied client by
  client, the scale sqrt(m) / (R sqrt(8 ln(mn))) and clipping to [-1, 1];
* sign: sign bits and the l1 scale of each rotated client.

Shared randomness is read from build_context (the randomness module has
its own tests); the private stream is transcribed from its definition.
Other test modules import oracle_round to check the engine against it.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg

from corrq import bitcodec as bc
from corrq import harness as hz
from corrq import scalar_quant as sq
from corrq import vector_quant as vq
from corrq.randomness import GOLDEN, build_context, fnv1a64, mix64_int
from corrq.scalar_quant import ScalarBatch
from corrq.vector_quant import VectorBatch


class OracleRound(NamedTuple):
    indices: np.ndarray     # (n, dp)
    per_client: np.ndarray  # (n, d) in data units
    bits: np.ndarray        # (n,) header plus payload bits


def private_uniform(key: int, j: int, i: int) -> float:
    """Client i's private U[0, 1) for coordinate j in the round keyed key."""
    stream = mix64_int(mix64_int(key) ^ fnv1a64("private"))
    coord = mix64_int(stream ^ j)
    return (mix64_int(coord + (i + 1) * GOLDEN) >> 11) * 2.0**-53


def correlated_index(y, slot, unit, n, k, first):
    """Level index and normalized decoded value of one client's y."""
    if k == 2:
        bit = int(slot + unit < n * y)
        return bit, float(bit)
    spacing = (k + 1) / (k * (k - 1))
    t = (y - first) / spacing
    cell = min(max(math.ceil(t) - 1, 0), k - 2)
    frac = min(max(t - cell, 0.0), 1.0)
    index = cell + int(slot + unit < n * frac)
    return index, first + index * spacing


def stochastic_index(y, u, k):
    scaled = y * (k - 1)
    cell = min(max(math.floor(scaled), 0), k - 2)
    index = cell + int(u < scaled - cell)
    return index, index / (k - 1)


def code_bits(index: int, k: int, gamma: bool) -> int:
    """Payload bits of one level index: fixed width, or the Elias gamma
    codeword of its center-out zig-zag value."""
    if not gamma:
        return (k - 1).bit_length()
    delta = index - k // 2
    value = 2 * delta + 1 if delta >= 0 else -2 * delta
    return 2 * value.bit_length() - 1


def oracle_round(batch, scheme: str, k: int, key: int) -> OracleRound:
    spec = hz.SCHEME_TABLE[scheme]
    k = spec.wire_levels(k)
    if isinstance(batch, ScalarBatch):
        x = [[v] for v in batch.values.tolist()]
        lower, width = batch.lower, batch.width
    else:
        x = batch.vectors.tolist()
        lower, width = -batch.radius, 2.0 * batch.radius
    n, d = len(x), len(x[0])
    m = 1 << (d - 1).bit_length() if spec.rotated else d
    ctx = build_context(key, n=n, d=m, k=k)

    if spec.rotated:
        w = scipy.linalg.hadamard(m) * ctx.rotation_signs / math.sqrt(m)
        rows = [w @ np.concatenate([xi, np.zeros(m - d)]) for xi in x]
        scale = math.sqrt(m) / (batch.radius * math.sqrt(8.0 * math.log(m * n)))
    indices = np.zeros((n, m), dtype=np.int64)
    values = np.zeros((n, m))
    tails = 0
    for i in range(n):
        if spec.rule == "ternary":
            s = max(abs(v) for v in x[i])
            tails = 64
        if spec.rule == "sign":
            s = sum(abs(v) for v in rows[i]) / m
            tails = 64
        for j in range(m):
            if spec.rule == "sign":
                bit = int(rows[i][j] >= 0)
                indices[i, j], values[i, j] = bit, s * (2 * bit - 1)
                continue
            if spec.rule == "ternary":
                v = x[i][j]
                fire = private_uniform(key, j, i) < abs(v) / (s if s > 0 else 1.0)
                trit = (1 if v > 0 else -1 if v < 0 else 0) if fire else 0
                indices[i, j], values[i, j] = trit + 1, trit * s
                continue
            if spec.rotated:
                y = (min(max(rows[i][j] * scale, -1.0), 1.0) + 1.0) / 2.0
            else:
                y = (x[i][j] - lower) / width
            if spec.rule == "correlated":
                index, unit = correlated_index(
                    y, ctx.permutations[j, i], ctx.offset_units[j, i], n, k,
                    ctx.grid_offsets[j],
                )
            else:
                index, unit = stochastic_index(y, private_uniform(key, j, i), k)
            indices[i, j] = index
            values[i, j] = (-1.0 + 2.0 * unit) / scale if spec.rotated else (
                lower + width * unit
            )
    if spec.rotated:
        values = np.array([(w.T @ row)[:d] for row in values])
    bits = [
        bc.HEADER_BITS + tails + sum(code_bits(int(c), k, spec.gamma) for c in row)
        for row in indices
    ]
    return OracleRound(indices, values, np.array(bits))


def assert_matches(per_client, want: OracleRound, scheme: str, radius: float):
    if hz.SCHEME_TABLE[scheme].rotated:
        err = np.max(np.abs(per_client - want.per_client))
        assert err <= 1e-12 * radius, (scheme, err)
    else:
        assert np.array_equal(per_client, want.per_client), scheme


CASES = [(1, 5, 3), (2, 1, 2), (7, 13, 4), (30, 8, 16), (100, 33, 3)]


@pytest.mark.parametrize("scheme", hz.SCHEMES)
def test_engine_round_matches_oracle_on_vectors(scheme):
    for n, d, k in CASES:
        rng = np.random.default_rng(100 * n + d)
        batch = VectorBatch.from_vectors(rng.normal(size=(n, d)))
        for key in (3, 2**64 - 5):
            got = hz.run_round(batch, scheme, k, key)
            want = oracle_round(batch, scheme, k, key)
            assert np.array_equal(got.indices, want.indices), (scheme, n, d, k)
            assert np.array_equal(got.bits, want.bits), (scheme, n, d, k)
            assert_matches(got.per_client, want, scheme, batch.radius)


@pytest.mark.parametrize("scheme", ["hadamard-cq", "independent-rotation"])
def test_engine_round_matches_oracle_when_clipping(scheme):
    # client 0 rotates onto the first axis: W x = e_0 scales past 1
    key, m = 12, 64
    signs = build_context(key, n=3, d=m, k=4).rotation_signs
    x = np.random.default_rng(1).normal(size=(3, m)) * 0.01
    x[0] = signs / math.sqrt(m)
    batch = VectorBatch(x, 1.0)
    got = hz.run_round(batch, scheme, 4, key)
    want = oracle_round(batch, scheme, 4, key)
    assert got.clips > 0
    assert np.array_equal(got.indices, want.indices)
    assert_matches(got.per_client, want, scheme, batch.radius)


@pytest.mark.parametrize(
    "scheme", [s for s in hz.SCHEMES if hz.SCHEME_TABLE[s].scalar_ok]
)
def test_engine_round_matches_oracle_on_scalars(scheme):
    for n, k in ((1, 3), (5, 2), (16, 4), (100, 16)):
        rng = np.random.default_rng(n)
        batch = ScalarBatch(rng.uniform(-2.0, 3.0, size=n), -2.0, 3.0)
        grid = ScalarBatch(np.full(n, (n // 3) / n), 0.0, 1.0)
        for b in (batch, grid):
            for key in (0, 77):
                got = hz.run_round(b, scheme, k, key)
                want = oracle_round(b, scheme, k, key)
                assert np.array_equal(got.indices, want.indices), (scheme, n, k)
                assert np.array_equal(got.per_client, want.per_client), scheme
                assert np.array_equal(got.bits, want.bits), (scheme, n, k)


def test_oracle_recovers_a_shared_grid_exactly():
    # the oracle itself states the exactness the protocol promises
    for n in (3, 8):
        for s in range(n + 1):
            batch = ScalarBatch(np.full(n, s / n), 0.0, 1.0)
            want = oracle_round(batch, "correlated-1bit", 2, key=s)
            assert want.per_client.sum() == s


def test_reference_ops_read_their_context_as_the_oracle_does():
    # every single-round op keyed 9 reads build_context(9, ...) and the
    # private stream of key 9, as the oracle does
    vecs = np.random.default_rng(6).normal(size=(7, 6))
    batch = VectorBatch.from_vectors(vecs)
    scalar = ScalarBatch(vecs[:, 0], vecs[:, 0].min(), vecs[:, 0].max())
    key = 9
    for b, scheme, k, rep in (
        (scalar, "correlated-1bit", 2, sq.one_bit_cq(scalar, key)),
        (scalar, "correlated-klevel", 5, sq.k_level_cq(scalar, 5, key)),
        (scalar, "independent", 5, sq.independent_sq(scalar, 5, key)),
        (batch, "correlated-1bit", 2, vq.correlated_vector_cq(batch, 2, key)),
        (batch, "correlated-klevel", 4, vq.correlated_vector_cq(batch, 4, key)),
        (batch, "entropy-cq", 4, vq.entropy_cq(batch, 4, key)),
        (batch, "hadamard-cq", 4, vq.walsh_hadamard_cq(batch, 4, key)),
        (batch, "independent", 4, vq.independent_vector_sq(batch, 4, key=key)),
        (batch, "independent-rotation", 4,
         vq.independent_vector_sq(batch, 4, rotate=True, key=key)),
        (batch, "terngrad", 3, vq.ternary_quantize(batch, key)),
        (batch, "rotate-sign", 2, vq.rotate_sign_baseline(batch, key)),
    ):
        want = oracle_round(b, scheme, k, key)
        assert np.array_equal(rep.indices, want.indices), scheme
        assert np.array_equal(rep.bits, want.bits), scheme
        assert_matches(rep.per_client, want, scheme, batch.radius)
