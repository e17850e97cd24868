"""Deterministic stream and context construction checks."""

import hashlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corrq import randomness as rd
from corrq.randomness import (
    GOLDEN,
    MASK64,
    build_context,
    build_context_arrays,
    child_keys,
    derive_key,
    fnv1a64,
    mix64,
    mix64_int,
    private_uniforms,
    rotation_signs,
    stream_u64,
    stream_uniform,
    trial_seeds,
)

# Reference values for the mixed counter stream seeded at 0: the stream
# construction key + (i+1) * GOLDEN fed through the 64-bit finalizer is
# the classic splitmix64 sequence, whose first outputs are published
# test vectors.
SPLITMIX_FROM_ZERO = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)

# Published FNV-1a 64-bit digests.
FNV_VECTORS = {
    "": 0xCBF29CE484222325,
    "a": 0xAF63DC4C8601EC8C,
    "foobar": 0x85944171F73967E8,
}


def test_stream_matches_published_vectors():
    got = stream_u64(0, np.arange(3))
    assert tuple(int(v) for v in got) == SPLITMIX_FROM_ZERO


def test_fnv1a64_matches_published_vectors():
    for label, digest in FNV_VECTORS.items():
        assert fnv1a64(label) == digest


def test_mix64_int_agrees_with_array_path():
    for x in (0, 1, GOLDEN, 2**64 - 1, 0xDEADBEEF):
        assert mix64_int(x) == int(mix64(np.uint64(x)))


def test_mix64_avalanche():
    # flipping one input bit should flip roughly half the output bits
    base = mix64(np.uint64(0x0123456789ABCDEF))
    flips = []
    for bit in range(64):
        other = mix64(np.uint64(0x0123456789ABCDEF ^ (1 << bit)))
        flips.append(bin(int(base) ^ int(other)).count("1"))
    assert 20 <= np.mean(flips) <= 44


def test_derive_key_sensitivity():
    assert derive_key(7, "a", "b") != derive_key(7, "b", "a")
    assert derive_key(7, "a", "b") != derive_key(7, "ab")
    assert derive_key(7, "x", 1) != derive_key(7, "x", 2)
    assert derive_key(7, "x") != derive_key(8, "x")
    assert derive_key(7, "x") == derive_key(7, "x")


def test_child_keys_matches_scalar_definition():
    key = derive_key(3, "children")
    idx = np.arange(17)
    got = child_keys(key, idx)
    expected = [mix64_int(key ^ i) for i in range(17)]
    assert [int(v) for v in got] == expected


def test_stream_uniform_range_and_construction():
    key = derive_key(11, "u")
    raw = stream_u64(key, np.arange(4096))
    uni = stream_uniform(key, np.arange(4096))
    assert np.array_equal(uni, (raw >> np.uint64(11)) * 2.0**-53)
    assert uni.min() >= 0.0 and uni.max() < 1.0
    assert abs(uni.mean() - 0.5) < 0.03


def test_trial_seeds_distinct_and_deterministic():
    seeds = trial_seeds(42, 5000)
    assert seeds.shape == (5000,)
    assert len(np.unique(seeds)) == 5000
    assert np.array_equal(seeds, trial_seeds(42, 5000))
    assert not np.array_equal(seeds[:100], trial_seeds(43, 100))


def test_build_context_shapes_and_ranges():
    ctx = build_context(9, n=12, d=5, k=4)
    assert ctx.permutations.shape == (5, 12)
    assert ctx.offset_units.shape == (5, 12)
    assert ctx.grid_offsets.shape == (5,)
    assert ctx.rotation_signs.shape == (5,)
    for j in range(5):
        assert sorted(ctx.permutations[j]) == list(range(12))
    assert ctx.offset_units.min() >= 0.0 and ctx.offset_units.max() < 1.0
    assert np.all(ctx.grid_offsets >= -1 / 4) and np.all(ctx.grid_offsets < 0)
    assert set(np.unique(ctx.rotation_signs)) <= {-1, 1}


def test_context_arrays_read_only_and_equality():
    a = build_context(1, n=4, d=2, k=3)
    b = build_context(1, n=4, d=2, k=3)
    c = build_context(2, n=4, d=2, k=3)
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        a.permutations[0, 0] = 0


def test_client_uniforms_cover_disjoint_cells():
    # one uniform per 1/n cell: that is the whole point of the shared
    # permutation
    ctx = build_context(77, n=50, d=1, k=2)
    u = ctx.client_uniforms(0)
    assert np.array_equal(np.sort(np.floor(u * 50).astype(int)), np.arange(50))
    assert np.array_equal(u, (ctx.permutations[0] + ctx.offset_units[0]) / 50)


def test_batched_context_arrays_match_single_contexts():
    seeds = trial_seeds(5, 7)
    arrays = build_context_arrays(seeds, n=6, d=3, k=5)
    assert arrays.permutations.shape == (7, 3, 6)
    for t in range(7):
        ctx = build_context(int(seeds[t]), n=6, d=3, k=5)
        assert np.array_equal(arrays.permutations[t], ctx.permutations)
        assert np.array_equal(arrays.offset_units[t], ctx.offset_units)
        assert np.array_equal(arrays.grid_offsets[t], ctx.grid_offsets)
        assert np.array_equal(arrays.rotation_signs[t], ctx.rotation_signs)


def test_build_context_validation():
    with pytest.raises(ValueError):
        build_context(0, n=0)
    with pytest.raises(ValueError):
        build_context(0, n=2, d=0)
    with pytest.raises(ValueError):
        build_context(0, n=2, d=1, k=1)


def test_permutation_uniformity():
    # each (client, slot) pair should be hit n_trials/n times, up to noise
    trials, n = 3000, 4
    seeds = trial_seeds(123, trials)
    arrays = build_context_arrays(seeds, n=n, d=1, k=2)
    counts = np.zeros((n, n))
    for t in range(trials):
        counts[np.arange(n), arrays.permutations[t, 0]] += 1
    expected = trials / n
    assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    n=st.integers(min_value=1, max_value=40),
    d=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=2, max_value=9),
)
def test_context_properties_hold_for_any_seed(seed, n, d, k):
    ctx = build_context(seed, n=n, d=d, k=k)
    assert np.array_equal(
        np.sort(ctx.permutations, axis=1), np.tile(np.arange(n), (d, 1))
    )
    assert (ctx.offset_units >= 0).all() and (ctx.offset_units < 1).all()
    assert (ctx.grid_offsets >= -1 / k).all() and (ctx.grid_offsets < 0).all()
    assert build_context(seed, n=n, d=d, k=k) == ctx


def test_permutation_is_the_stable_argsort_of_its_stream():
    # a stream row never ties, so the sort kind cannot change a permutation
    seeds = child_keys(11, np.arange(20, dtype=np.uint64))
    n, d = 300, 4
    arrays = build_context_arrays(seeds, n=n, d=d, k=2)
    root = mix64(seeds)
    perm_key = mix64(root ^ np.uint64(fnv1a64("permutation")))
    keys = child_keys(perm_key[:, None], np.arange(d, dtype=np.uint64))
    raw = stream_u64(keys[..., None], np.arange(n, dtype=np.uint64))
    assert all(len(np.unique(row)) == n for row in raw.reshape(-1, n))
    assert np.array_equal(
        arrays.permutations, np.argsort(raw, axis=-1, kind="stable")
    )


# client counts at and beside every power of two up to 2**11, above the
# packed sort's range included
EDGE_CLIENTS = sorted({max(1, 2**b + e) for b in range(12) for e in (-1, 0, 1)})


def test_packed_sort_is_the_stable_argsort():
    paths = {"packed": 0, "fallback": 0}

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.one_of(st.sampled_from(EDGE_CLIENTS), st.integers(1, 1100)),
        rows=st.integers(1, 5),
        ties=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(n, rows, ties, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**64, size=(rows, n), dtype=np.uint64, endpoint=False)
        # a packed key keeps a value's top 32 - b bits: copy them from one
        # client onto another of the same row
        kept = np.uint64((1 << (32 + (n - 1).bit_length())) - 1)
        for _ in range(ties if n > 1 else 0):
            r = rng.integers(rows)
            i, j = rng.choice(n, size=2, replace=False)
            values[r, j] = (values[r, i] & ~kept) | (values[r, j] & kept)
        assume(all(len(np.unique(row)) == n for row in values))
        want = np.argsort(values, axis=-1, kind="stable")
        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            got = rd._argsort_in_place(values.copy())
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        if n in rd._PACKED_CLIENTS:
            paths["packed"] += 1
            paths["fallback"] += spy.call_count

    check()
    assert paths["packed"] > 0 and paths["fallback"] > 0, paths


# sha256 prefixes of the streams as first released, for 0-d, (C,) and
# (C, 2) seeds over n, d in {1, 2, 33, 1024}; any derivation or layout
# change shows up here
PINNED = {
    "0d": ("9ff66389c1f287e6", "ccef5ecde4f40318", "0dbc735cc704b87d"),
    "C": ("6a90ae90c6ace255", "eb6e61cd2fef0519", "1d8a26f007139085"),
    "C2": ("714f86ca322a73af", "73425ad65b153f34", "2172754b7847c89c"),
}


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_streams_match_pinned_hashes(name):
    seeds = {
        "0d": np.uint64(0x0123456789ABCDEF),
        "C": np.array([0, 1, 2**64 - 1], dtype=np.uint64),
        "C2": trial_seeds(11, 4).reshape(2, 2),
    }[name]
    sizes = (1, 2, 33, 1024)
    ctx, signs, priv = [], [], []
    for n in sizes:
        for d in sizes:
            ctx.extend(build_context_arrays(seeds, n, d, 4))
            priv.append(private_uniforms(seeds, d, n))
        signs.append(rotation_signs(seeds, n))
    assert (_digest(ctx), _digest(signs), _digest(priv)) == PINNED[name]


def test_skipped_streams_leave_the_others_unchanged():
    seeds = trial_seeds(3, 5)
    full = build_context_arrays(seeds, 7, 9, 4)
    part = build_context_arrays(seeds, 7, 9, 4, grid=False, signs=False)
    assert part.grid_offsets is None and part.rotation_signs is None
    assert np.array_equal(part.permutations, full.permutations)
    assert np.array_equal(part.offset_units, full.offset_units)
    assert np.array_equal(rotation_signs(seeds, 9), full.rotation_signs)


def test_scalar_paths_do_not_warn_on_wraparound():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert int(mix64(np.uint64(MASK64))) == mix64_int(MASK64)
        got = stream_u64(np.uint64(MASK64), np.uint64(MASK64))
        assert int(got) == mix64_int(MASK64 + (MASK64 + 1) * GOLDEN)
        build_context(MASK64, n=2)
