import numpy as np

from densigraph.rng import (_mix64_inplace, Stream, absorb, absorb_array,
                            derive_key, mix64, word_array)
from _reference import uniform01, word


def test_mix64_matches_array_version():
    xs = [0, 1, 2**63, 2**64 - 1, 123456789, 0x9E3779B97F4A7C15]
    scalar = [mix64(x) for x in xs]
    batch = _mix64_inplace(np.array(xs, dtype=np.uint64))
    assert scalar == [int(v) for v in batch]


def test_mix64_is_injective_on_sample():
    xs = list(range(10_000))
    outs = {mix64(x) for x in xs}
    assert len(outs) == len(xs)


def test_absorb_array_matches_scalar_including_negative_labels():
    state = derive_key(42, "probe")
    values = [-5, -1, 0, 1, 7, 2**40]
    scalar = [absorb(state, v) for v in values]
    batch = absorb_array(state, np.array(values, dtype=np.int64))
    assert scalar == [int(v) for v in batch]


def test_word_scalar_matches_array():
    keys = np.array([derive_key(1, k) for k in range(8)], dtype=np.uint64)
    for c in (0, 1, 5, -1, -7):
        scalar = [word(int(k), c) for k in keys]
        assert scalar == [int(v) for v in word_array(keys, c)]


def test_derive_key_distinguishes_labels_and_is_stable():
    k1 = derive_key(7, "alpha")
    k2 = derive_key(7, "beta")
    k3 = derive_key(8, "alpha")
    assert len({k1, k2, k3}) == 3
    assert derive_key(7, "alpha") == k1
    assert derive_key(7, "alpha", 3) != derive_key(7, "alpha", 4)


def test_stream_scalar_and_batch_agree():
    key = derive_key(0, "s")
    singles = [uniform01(word(key, k)) for k in range(20)]
    batch = Stream(key).uniforms(20)
    assert np.array_equal(np.array(singles), batch)
    # interleaving keeps the counter consistent
    s3 = Stream(key)
    mixed = list(s3.uniforms(5)) + list(s3.uniforms(1)) + list(s3.uniforms(14))
    assert np.array_equal(np.array(mixed), batch)


def test_stream_uniformity_rough():
    u = Stream(derive_key(123, "uniformity")).uniforms(100_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_streams_with_different_keys_decorrelate():
    a = Stream(derive_key(5, "x")).uniforms(50_000)
    b = Stream(derive_key(5, "y")).uniforms(50_000)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02
