"""Tests for synthetic data, partitioners, splits, and CSV round trips."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedre import data
from fedre.config import PartitionConfig

from helpers import (
    reference_apply_longtail,
    reference_make_blobs,
    reference_partition_pat,
    reference_partition_pra,
    reference_train_test_split,
    save_csv,
    time_limit,
)


def rows_multiset(ds):
    """Canonical sortable view of (features, label) rows for multiset checks."""
    joined = np.column_stack([ds.X, ds.y.astype(float)])
    order = np.lexsort(joined.T[::-1])
    return joined[order]


def union_multiset(parts):
    X = np.concatenate([p.X for p in parts])
    y = np.concatenate([p.y for p in parts])
    return rows_multiset(data.Dataset(X, y, parts[0].num_classes))


def label_entropy(ds):
    counts = ds.class_counts()
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


# ---------------------------------------------------------------- blobs


def test_make_blobs_shapes_and_order():
    ds = data.make_blobs(4, 10, 3, 1.0, 0)
    assert len(ds) == 40
    assert ds.dim == 3
    assert ds.num_classes == 4
    # class-major layout
    assert ds.y.tolist() == sum([[c] * 10 for c in range(4)], [])


def test_make_blobs_deterministic_per_seed():
    a = data.make_blobs(3, 5, 2, 0.5, 42)
    b = data.make_blobs(3, 5, 2, 0.5, 42)
    c = data.make_blobs(3, 5, 2, 0.5, 43)
    np.testing.assert_array_equal(a.X, b.X)
    assert not np.array_equal(a.X, c.X)


def test_make_blobs_peak_memory_stays_near_its_output():
    # the wide world's shape; whole-array temporaries would peak near 3x
    tracemalloc.start()
    try:
        ds = data.make_blobs(10, 300, 32, 1.0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ds.X.nbytes


def test_make_blobs_clusters_sit_near_their_means():
    ds = data.make_blobs(2, 200, 2, 0.1, 7)
    # opposite points on a radius-0.3 circle
    m0 = ds.X[ds.y == 0].mean(axis=0)
    m1 = ds.X[ds.y == 1].mean(axis=0)
    np.testing.assert_allclose(m0, [0.3, 0.0], atol=0.05)
    np.testing.assert_allclose(m1, [-0.3, 0.0], atol=0.05)


def test_make_blobs_one_dimensional_uses_cosine_axis_only():
    ds = data.make_blobs(2, 50, 1, 1.0, 0)
    assert ds.dim == 1
    assert abs(ds.X[ds.y == 0].mean() - 3.0) < 1.0
    assert abs(ds.X[ds.y == 1].mean() + 3.0) < 1.0


# ---------------------------------------------------------------- dataset


def test_dataset_validates_labels_and_shapes():
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), 3)
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((3, 2)), np.array([0, 1]), 3)
    with pytest.raises(ValueError):
        data.Dataset(np.array([[np.nan, 0.0]]), np.array([0]), 1)


def test_dataset_subset_and_counts():
    ds = data.Dataset(np.arange(10, dtype=float).reshape(5, 2), np.array([0, 1, 1, 2, 2]), 3)
    assert ds.class_counts().tolist() == [1, 2, 2]
    sub = ds.subset([0, 3])
    assert sub.y.tolist() == [0, 2]
    assert sub.X[1].tolist() == [6.0, 7.0]


# ---------------------------------------------------------------- largest remainder


def test_largest_remainder_exact_total():
    counts = data._largest_remainder(np.array([1.0, 1.0, 1.0]), 10)
    assert counts.sum() == 10
    assert sorted(counts.tolist()) == [3, 3, 4]


@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=80, deadline=None)
def test_largest_remainder_sums_and_bounds(shares, total):
    counts = data._largest_remainder(np.array(shares), total)
    assert counts.sum() == total
    assert (counts >= 0).all()
    raw = np.array(shares) / np.sum(shares) * total
    # never more than one away from the proportional ideal
    assert np.all(np.abs(counts - raw) < 1.0 + 1e-9)


# ---------------------------------------------------------------- pra


def test_pra_partition_is_exact_multiset_split():
    ds = data.make_blobs(5, 40, 2, 1.0, 3)
    parts = data.partition(ds, PartitionConfig(data.PRA, alpha=0.5), 7, 1)
    assert len(parts) == 7
    np.testing.assert_array_equal(union_multiset(parts), rows_multiset(ds))


def test_pra_deterministic_per_seed():
    ds = data.make_blobs(4, 30, 2, 1.0, 3)
    a = data.partition(ds, PartitionConfig(data.PRA), 5, 9)
    b = data.partition(ds, PartitionConfig(data.PRA), 5, 9)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.X, pb.X)
        np.testing.assert_array_equal(pa.y, pb.y)


def test_pra_alpha_controls_concentration():
    # small alpha puts most of each category on few clients: lower mean entropy
    ds = data.make_blobs(6, 60, 2, 1.0, 0)
    mean_entropy = {}
    for alpha in (0.1, 10.0):
        vals = []
        for seed in range(20):
            parts = data.partition(ds, PartitionConfig(data.PRA, alpha=alpha), 6, seed)
            vals.append(np.mean([label_entropy(p) for p in parts if len(p)]))
        mean_entropy[alpha] = np.mean(vals)
    assert mean_entropy[0.1] < mean_entropy[10.0]


def test_dirichlet_keeps_a_draw_that_does_not_underflow():
    g = np.random.default_rng(3).gamma(0.5, 1.0, 4)
    shares = data._dirichlet(0.5, 4, np.random.default_rng(3))
    assert shares.tobytes() == (g / g.sum()).tobytes()


@pytest.mark.parametrize("alpha", [1e-30, 5e-324])
def test_dirichlet_of_an_underflowing_alpha_is_the_one_client_limit(alpha):
    # every Gamma(alpha) draw underflows to 0: all the mass goes to one
    # client, picked uniformly from the same stream
    rng = np.random.default_rng(0)
    with time_limit(10):
        draws = [data._dirichlet(alpha, 3, rng) for _ in range(300)]
        ds = data.make_blobs(4, 10, 2, 1.0, 0)
        parts = data.partition(ds, PartitionConfig(data.PRA, alpha=alpha), 3, 1)
    assert all(sorted(s.tolist()) == [0.0, 0.0, 1.0] for s in draws)
    assert np.bincount([int(np.argmax(s)) for s in draws], minlength=3).min() > 60
    holders = [sum(c in p.y for p in parts) for c in range(4)]
    assert holders == [1] * 4


@pytest.mark.parametrize("alpha", [1e308, np.finfo(float).max])
def test_dirichlet_of_a_huge_alpha_sums_without_overflow(alpha):
    # the draws are finite but their sum is not; the shares tend to uniform
    with np.errstate(all="raise"):
        shares = data._dirichlet(alpha, 4, np.random.default_rng(0))
        ds = data.make_blobs(3, 8, 2, 1.0, 0)
        parts = data.partition(ds, PartitionConfig(data.PRA, alpha=alpha), 4, 0)
    np.testing.assert_allclose(shares, 0.25)
    np.testing.assert_array_equal(union_multiset(parts), rows_multiset(ds))


# ---------------------------------------------------------------- pat


def test_pat_partition_exact_categories_per_client():
    ds = data.make_blobs(5, 40, 2, 1.0, 4)
    parts = data.partition(ds, PartitionConfig(data.PAT, categories_per_client=2), 10, 2)
    # 10 clients * 2 slots = 20 shards over 5 categories: 4 shards each
    np.testing.assert_array_equal(union_multiset(parts), rows_multiset(ds))
    for p in parts:
        assert len(np.unique(p.y)) == 2
        assert len(p) > 0
    holders = np.zeros(5, dtype=int)
    for p in parts:
        for c in np.unique(p.y):
            holders[c] += 1
    assert holders.tolist() == [4] * 5


def test_pat_rejects_impossible_configurations():
    ds = data.make_blobs(5, 40, 2, 1.0, 4)
    with pytest.raises(ValueError):
        # 5 categories cannot divide 3 clients * 2 slots
        data.partition(ds, PartitionConfig(data.PAT, categories_per_client=2), 3, 0)
    with pytest.raises(ValueError):
        data.partition(ds, PartitionConfig(data.PAT, categories_per_client=6), 2, 0)


def test_pat_rejects_starved_categories():
    # 2 samples per category but 4 shards required from each
    ds = data.make_blobs(2, 2, 2, 1.0, 0)
    with pytest.raises(ValueError):
        data.partition(ds, PartitionConfig(data.PAT, categories_per_client=2), 4, 0)


# ---------------------------------------------------------------- longtail


def test_longtail_counts_follow_exponential_decay():
    ds = data.make_blobs(5, 100, 2, 1.0, 0)
    tailed = data.apply_longtail(ds, 100.0, 0)
    counts = tailed.class_counts()
    expected = [max(1, round(100 * 100.0 ** (-c / 4))) for c in range(5)]
    assert counts.tolist() == expected
    assert counts[0] == 100 and counts[-1] == 1


def test_longtail_identity_when_factor_is_one():
    ds = data.make_blobs(3, 20, 2, 1.0, 0)
    tailed = data.apply_longtail(ds, 1.0, 0)
    np.testing.assert_array_equal(rows_multiset(tailed), rows_multiset(ds))


def test_longtail_partition_mode_subsamples_then_splits():
    ds = data.make_blobs(4, 50, 2, 1.0, 1)
    part = PartitionConfig(data.LONGTAIL, alpha=1.0, imbalance_factor=10.0)
    parts = data.partition(ds, part, 3, 5)
    union = union_multiset(parts)
    sub_ss, _ = np.random.SeedSequence(5).spawn(2)
    tailed = data.apply_longtail(ds, 10.0, sub_ss)
    np.testing.assert_array_equal(union, rows_multiset(tailed))
    assert len(union) < len(ds)


@pytest.mark.parametrize("mode", data.PARTITION_MODES)
def test_partition_takes_a_seed_sequence_as_its_int_entropy(mode):
    ds = data.make_blobs(4, 20, 2, 1.0, 1)

    def shards(seed):
        return data.partition(ds, PartitionConfig(mode, categories_per_client=2), 4, seed)

    for by_int, by_seq in zip(shards(5), shards(np.random.SeedSequence(5))):
        np.testing.assert_array_equal(by_int.X, by_seq.X)
        np.testing.assert_array_equal(by_int.y, by_seq.y)


def test_partition_rejects_an_unknown_mode():
    # an unchecked config must not fall through into the longtail branch
    ds = data.make_blobs(4, 20, 2, 1.0, 1)
    with pytest.raises(ValueError, match="unknown partition mode 'tail'"):
        data.partition(ds, PartitionConfig("tail"), 4, 0)


# ---------------------------------------------------------------- split


def test_train_test_split_exact_total_and_stratified():
    ds = data.make_blobs(4, 25, 2, 1.0, 0)
    train, test = data.train_test_split(ds, 0.75, 0)
    assert len(train) == 75
    assert len(test) == 25
    # per-category counts shifted by at most one from exact proportionality
    for c in range(4):
        assert abs(train.class_counts()[c] - 18.75) < 1.0
    np.testing.assert_array_equal(
        union_multiset([train, test]), rows_multiset(ds)
    )


def test_train_test_split_total_uses_round_not_floor():
    ds = data.make_blobs(1, 3, 2, 1.0, 0)
    train, _ = data.train_test_split(ds, 0.5, 0)
    assert len(train) == round(0.5 * 3) == 2


def test_train_test_split_extremes():
    ds = data.make_blobs(2, 10, 2, 1.0, 0)
    train, test = data.train_test_split(ds, 0.0, 0)
    assert len(train) == 0 and len(test) == 20
    train, test = data.train_test_split(ds, 1.0, 0)
    assert len(train) == 20 and len(test) == 0


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_train_test_split_property(num_classes, per_class, frac, seed):
    ds = data.make_blobs(num_classes, per_class, 2, 1.0, seed)
    train, test = data.train_test_split(ds, frac, seed)
    assert len(train) == int(round(frac * len(ds)))
    assert len(train) + len(test) == len(ds)
    np.testing.assert_array_equal(union_multiset([train, test]), rows_multiset(ds))


# ------------------------------------- index arrays against per-sample lists


def assert_bitwise_equal(new, old):
    """Datasets, or lists of them, equal in shape, dtype and every byte."""
    if isinstance(old, data.Dataset):
        new, old = [new], [old]
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.num_classes == b.num_classes
        assert a.X.shape == b.X.shape and a.X.dtype == b.X.dtype
        assert a.X.tobytes() == b.X.tobytes()
        assert a.y.shape == b.y.shape and a.y.dtype == b.y.dtype
        assert a.y.tobytes() == b.y.tobytes()


def outcome(fn, *args):
    """fn's result, or ValueError if it rejected its arguments."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


@st.composite
def labelled_datasets(draw):
    """A dataset with drawn class sizes, empty classes and empty datasets
    included, its rows in shuffled label order; and a SeedSequence."""
    sizes = draw(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=6))
    entropy = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(entropy)
    y = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    X = rng.standard_normal((y.size, 2))
    return data.Dataset(X, y, len(sizes)), np.random.SeedSequence(entropy)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.1, max_value=5.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_make_blobs_equals_the_per_class_loop(num_classes, per_class, dim, spread, entropy):
    seq = np.random.SeedSequence(entropy)
    assert_bitwise_equal(
        data.make_blobs(num_classes, per_class, dim, spread, seq),
        reference_make_blobs(num_classes, per_class, dim, spread, seq),
    )


@given(
    labelled_datasets(),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.01, max_value=10.0),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=3),
    st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=200.0)),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_shards_and_splits_equal_the_per_sample_lists(
    labelled, num_clients, alpha, categories_per_client, deals, imbalance_factor, train_fraction
):
    ds, seq = labelled
    # pat needs num_clients * categories_per_client to be a multiple of the
    # class count; the smallest such client count times `deals` is one
    C = ds.num_classes
    pat_clients = C // math.gcd(C, categories_per_client) * deals
    for new, old, args in [
        (data._partition_pra, reference_partition_pra, (num_clients, alpha)),
        (data._partition_pat, reference_partition_pat, (pat_clients, categories_per_client)),
    ]:
        new_rng, old_rng = np.random.default_rng(seq), np.random.default_rng(seq)
        got, want = outcome(new, ds, *args, new_rng), outcome(old, ds, *args, old_rng)
        if want is ValueError:
            assert got is ValueError
        else:
            assert_bitwise_equal(got, want)
            assert len(got) == args[0]
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
    assert_bitwise_equal(
        data.apply_longtail(ds, imbalance_factor, seq),
        reference_apply_longtail(ds, imbalance_factor, seq),
    )
    assert_bitwise_equal(
        data.train_test_split(ds, train_fraction, seq),
        reference_train_test_split(ds, train_fraction, seq),
    )


# ---------------------------------------------------------------- csv


def test_csv_round_trip_is_bitwise(tmp_path):
    ds = data.make_blobs(3, 7, 4, 1.3, 11)
    p = tmp_path / "ds.csv"
    save_csv(ds, p)
    back = data.load_csv(p)
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.y, ds.y)
    assert back.num_classes == 3  # inferred as max label + 1


def test_csv_header_is_validated(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,label\n0,0,0\n")
    with pytest.raises(ValueError):
        data.load_csv(p)
    p.write_text("")
    with pytest.raises(ValueError):
        data.load_csv(p)
