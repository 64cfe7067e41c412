"""Tests for representation mapping, weight mechanisms, and entanglement.

The vectorized paths are checked against slow per-sample loops, and the
mapping backward passes against central finite differences.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedre import entangle as en
from fedre import nets

from helpers import (
    FixedDraws,
    check_label_encoding,
    entangled,
    mixup_pair,
    net_params_equal,
    random_simplex,
    reference_rap_weights_from_draws,
    reference_rar_weights_from_draws,
)


def rm_row(r, rm, unified_dim):
    """rm_apply on the one-row batch r."""
    return en.rm_apply(np.asarray(r, dtype=float)[None, :], rm, unified_dim)[0][0]


def make_rep_set(rng, n=6, raw_dim=8, num_classes=3, labels=None):
    reps = rng.normal(size=(n, raw_dim))
    if labels is None:
        labels = rng.integers(num_classes, size=n)
    labels = np.asarray(labels)
    return en.RepresentationSet(reps, nets.one_hot_matrix(labels, num_classes))


def labels_of(rep):
    """The integer labels of a set's one-hot rows."""
    return rep.labels_onehot.argmax(axis=1)


# ---------------------------------------------------------------- rm forward


def test_block_average_and_max_on_known_vector():
    r = np.array([1.0, 3.0, 2.0, 4.0])
    ap = rm_row(r, en.RMSpec(en.AP), 2)
    mp = rm_row(r, en.RMSpec(en.MP), 2)
    np.testing.assert_array_equal(ap, [2.0, 3.0])
    np.testing.assert_array_equal(mp, [3.0, 4.0])


def test_rm_identity_when_dims_match():
    r = np.array([5.0, -1.0, 0.5])
    np.testing.assert_array_equal(rm_row(r, en.RMSpec(en.AP), 3), r)
    np.testing.assert_array_equal(rm_row(r, en.RMSpec(en.MP), 3), r)


def test_rm_apply_matches_per_row_loop():
    rng = np.random.default_rng(0)
    R = rng.normal(size=(7, 12))
    for kind in (en.AP, en.MP):
        rm = en.RMSpec(kind)
        batch, _ = en.rm_apply(R, rm, 4)
        rows = np.stack([rm_row(R[i], rm, 4) for i in range(7)])
        np.testing.assert_array_equal(batch, rows)


def test_rm_rejects_indivisible_dimensions():
    with pytest.raises(nets.ShapeError):
        rm_row(np.zeros(7), en.RMSpec(en.AP), 2)


def test_rm_fc_is_the_net_forward():
    rng = np.random.default_rng(1)
    net = nets.init_dense([6, 4], [nets.IDENTITY], rng)
    R = rng.normal(size=(5, 6))
    mapped, cache = en.rm_apply(R, en.RMSpec(en.FC, net), 4)
    direct, _ = nets.forward_pass(net, R)
    np.testing.assert_array_equal(mapped, direct)
    assert isinstance(cache, nets.BatchCache) and cache.inputs is R


def test_rm_fc_dimension_mismatch_raises():
    rng = np.random.default_rng(2)
    net = nets.init_dense([6, 4], [nets.IDENTITY], rng)
    with pytest.raises(nets.ShapeError):
        en.rm_apply(np.zeros((2, 5)), en.RMSpec(en.FC, net), 4)


def test_rmspec_fc_requires_net():
    with pytest.raises(ValueError):
        en.RMSpec(en.FC)


# ---------------------------------------------------------------- rm backward


def _fd_rm_grad(R, rm, unified_dim, V, eps=1e-6):
    """Finite differences of J(R) = sum(V * rm(R)) wrt R."""

    def J(Rc):
        mapped, _ = en.rm_apply(Rc, rm, unified_dim)
        return float((V * mapped).sum())

    g = np.zeros_like(R)
    for idx in np.ndindex(*R.shape):
        hi = R.copy()
        hi[idx] += eps
        lo = R.copy()
        lo[idx] -= eps
        g[idx] = (J(hi) - J(lo)) / (2 * eps)
    return g


@pytest.mark.parametrize("kind", [en.AP, en.MP])
def test_rm_backward_matches_finite_differences(kind):
    rng = np.random.default_rng(3)
    # distinct entries keep mp away from argmax ties
    R = rng.permutation(24).astype(float).reshape(4, 6) + rng.random((4, 6)) * 0.1
    V = rng.normal(size=(4, 3))
    rm = en.RMSpec(kind)
    mapped, cache = en.rm_apply(R, rm, 3)
    grad_raw = en.rm_backward(V, rm, cache)
    np.testing.assert_allclose(grad_raw, _fd_rm_grad(R, rm, 3, V), atol=1e-8)


def test_rm_backward_fc_matches_direct_backprop():
    rng = np.random.default_rng(4)
    net = nets.init_dense([6, 3], [nets.IDENTITY], rng)
    R = rng.normal(size=(5, 6))
    V = rng.normal(size=(5, 3))
    rm = en.RMSpec(en.FC, net)
    _, cache = en.rm_apply(R, rm, 3)
    _, direct_cache = nets.forward_pass(net, R)
    expect_grads, expect_in = nets.backprop(net, direct_cache, V)
    before = nets.clone(net)
    # without lr the mapping is left alone
    np.testing.assert_array_equal(en.rm_backward(V, rm, cache), expect_in)
    assert net_params_equal(net, before)
    # given lr it is stepped by the gradients backprop builds
    lr = np.array(0.5)
    np.testing.assert_array_equal(en.rm_backward(V, rm, cache, lr=lr), expect_in)
    for l, b, gw, gb in zip(net.layers, before.layers, expect_grads.weight_grads,
                            expect_grads.bias_grads):
        np.testing.assert_array_equal(l.weight, b.weight - lr * gw)
        np.testing.assert_array_equal(l.bias, b.bias - lr * gb)


def test_mp_backward_routes_only_to_winners():
    R = np.array([[1.0, 5.0, 2.0, 0.0]])  # blocks (1,5) and (2,0)
    rm = en.RMSpec(en.MP)
    _, cache = en.rm_apply(R, rm, 2)
    grad_raw = en.rm_backward(np.array([[1.0, 1.0]]), rm, cache)
    np.testing.assert_array_equal(grad_raw, [[0.0, 1.0, 1.0, 0.0]])


# ---------------------------------------------------------------- weights


def test_check_weight_vector_rejections():
    with pytest.raises(ValueError):
        en.check_weight_vector(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        en.check_weight_vector(np.array([-0.2, 1.2]))
    with pytest.raises(ValueError):
        en.check_weight_vector(np.array([np.nan, 1.0]))
    with pytest.raises(nets.ShapeError):
        en.check_weight_vector(np.array([1.0]), n=2)
    w = en.check_weight_vector(np.array([0.25, 0.75]))
    assert w.sum() == 1.0


def test_rsr_picks_exactly_one_sample():
    rng = np.random.default_rng(5)
    rep = make_rep_set(rng, n=9)
    w = en.re_weights(labels_of(rep), en.ReMechanism(en.RSR), rng)
    assert sorted(w.tolist()) == [0.0] * 8 + [1.0]


def test_var_is_uniform():
    rng = np.random.default_rng(6)
    rep = make_rep_set(rng, n=5)
    w = en.re_weights(labels_of(rep), en.ReMechanism(en.VAR), rng)
    np.testing.assert_array_equal(w, np.full(5, 0.2))


def test_rsp_uniform_over_one_category():
    rng = np.random.default_rng(7)
    rep = make_rep_set(rng, n=8, labels=[0, 0, 0, 1, 1, 2, 2, 2])
    w = en.re_weights(labels_of(rep), en.ReMechanism(en.RSP), rng)
    labels = labels_of(rep)
    chosen = np.unique(labels[w > 0])
    assert chosen.size == 1
    members = labels == chosen[0]
    np.testing.assert_allclose(w[members], 1.0 / members.sum(), atol=1e-15)
    assert (w[~members] == 0.0).all()


def test_vap_known_example():
    # two samples of one category, one of another: (1/4, 1/4, 1/2)
    rng = np.random.default_rng(8)
    rep = make_rep_set(rng, n=3, labels=[0, 0, 1])
    w = en.re_weights(labels_of(rep), en.ReMechanism(en.VAP), rng)
    np.testing.assert_allclose(w, [0.25, 0.25, 0.5], atol=1e-15)


def test_rar_collapses_to_var_under_equal_draws():
    rep = make_rep_set(np.random.default_rng(9), n=6)
    w = en.re_weights(labels_of(rep), en.ReMechanism(en.RAR), FixedDraws(3.7))
    np.testing.assert_allclose(w, np.full(6, 1.0 / 6.0), atol=1e-12)


def test_rap_collapses_to_vap_under_equal_draws():
    rng = np.random.default_rng(9)
    rep = make_rep_set(rng, n=6, labels=[0, 0, 1, 2, 2, 2])
    w = en.re_weights(labels_of(rep), en.ReMechanism(en.RAP), FixedDraws(0.42))
    vap = en.re_weights(labels_of(rep), en.ReMechanism(en.VAP), rng)
    np.testing.assert_allclose(w, vap, atol=1e-12)


def test_rap_category_mass_is_normalized_draw():
    rep = make_rep_set(np.random.default_rng(9), n=5, labels=[0, 0, 0, 1, 1])
    w = en.re_weights(labels_of(rep), en.ReMechanism(en.RAP), FixedDraws([3.0, 1.0]))
    assert w[:3].sum() == pytest.approx(0.75, abs=1e-12)
    assert w[3:].sum() == pytest.approx(0.25, abs=1e-12)
    # equal within category
    assert np.ptp(w[:3]) == 0.0


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=30),
    st.floats(1e-3, 1e3),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_rap_and_vap_weights_equal_the_per_sample_loop(labels, scale, seed):
    labels = np.array(labels)
    cats = np.unique(labels)
    counts = np.bincount(labels)
    draws = scale * np.random.default_rng(seed).random(cats.size) + 1e-9
    pos = {c: i for i, c in enumerate(cats)}
    rap_loop = [draws[pos[c]] / (counts[c] * draws.sum()) for c in labels]
    vap_loop = [1.0 / (cats.size * counts[c]) for c in labels]
    rep = make_rep_set(np.random.default_rng(seed), n=labels.size, labels=labels, num_classes=6)
    rap = en.re_weights(labels_of(rep), en.ReMechanism(en.RAP), FixedDraws(draws))
    vap = en.re_weights(labels_of(rep), en.ReMechanism(en.VAP), np.random.default_rng(seed))
    np.testing.assert_array_equal(rap, rap_loop)
    np.testing.assert_array_equal(vap, vap_loop)


@st.composite
def label_vectors(draw):
    """Labels over 1-4 distinct class ids out of 0-7: gaps in the ids and a
    single category included."""
    present = draw(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True))
    return np.array(draw(st.lists(st.sampled_from(present), min_size=1, max_size=30)))


def reference_magnitudes(dist, size, twin):
    """size nonnegative magnitudes from twin: uniform, or folded Gaussian or
    Laplace draws, drawn again until their sum is positive."""
    while True:
        if dist == "uniform":
            u = twin.random(size)
        elif dist == "gaussian":
            u = np.abs(twin.standard_normal(size))
        else:
            assert dist == "laplace"
            u = np.abs(twin.laplace(0.0, 1.0, size))
        if u.sum() > 0:
            return u


def reference_weights(labels, kind, dist, twin):
    """Each mechanism's weights, one sample at a time, on twin's draws."""
    n, cats = labels.size, np.unique(labels)
    size = {c: int((labels == c).sum()) for c in cats}
    if kind == "rsr":
        pick = twin.integers(n)
        return [1.0 if i == pick else 0.0 for i in range(n)]
    if kind == "var":
        return [1.0 / n] * n
    if kind == "rar":
        return reference_rar_weights_from_draws(reference_magnitudes(dist, n, twin))
    if kind == "rsp":
        chosen = cats[twin.integers(cats.size)]
        return [1.0 / size[c] if c == chosen else 0.0 for c in labels]
    if kind == "vap":
        return [1.0 / (cats.size * size[c]) for c in labels]
    assert kind == "rap"
    u = reference_magnitudes(dist, cats.size, twin)
    return reference_rap_weights_from_draws(labels, cats, u)


@given(
    label_vectors(),
    st.sampled_from(en.MECHANISMS),
    st.sampled_from(en.DISTRIBUTIONS),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_weights_equal_the_reference_on_the_same_draws(labels, kind, dist, seed):
    rep = make_rep_set(np.random.default_rng(seed), n=labels.size, labels=labels, num_classes=8)
    rng = np.random.default_rng(seed)
    twin = copy.deepcopy(rng)
    w = en.re_weights(labels_of(rep), en.ReMechanism(kind, dist), rng)
    np.testing.assert_array_equal(w, reference_weights(labels, kind, dist, twin))
    assert rng.bit_generator.state == twin.bit_generator.state


def test_weight_draws_are_deterministic_per_rng_state():
    rep = make_rep_set(np.random.default_rng(10), n=7)
    a = en.re_weights(labels_of(rep), en.ReMechanism(en.RAP, en.GAUSSIAN), np.random.default_rng(3))
    b = en.re_weights(labels_of(rep), en.ReMechanism(en.RAP, en.GAUSSIAN), np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("kind", en.MECHANISMS)
@pytest.mark.parametrize("dist", en.DISTRIBUTIONS)
def test_all_mechanisms_yield_simplex_weights(kind, dist):
    rng = np.random.default_rng(11)
    for trial in range(25):
        rep = make_rep_set(rng, n=int(rng.integers(1, 12)), num_classes=4)
        w = en.re_weights(labels_of(rep), en.ReMechanism(kind, dist), rng)
        assert w.shape == (len(rep),)
        assert (w >= 0).all()
        assert abs(w.sum() - 1.0) < 1e-9


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_rar_weights_property(n, seed):
    rep = make_rep_set(np.random.default_rng(seed), n=n)
    w = en.re_weights(labels_of(rep), en.ReMechanism(en.RAR, en.LAPLACE), np.random.default_rng(seed))
    assert abs(w.sum() - 1.0) < 1e-9
    assert (w >= 0).all()


# ---------------------------------------------------------------- entangle


def test_entangle_matches_per_sample_loop():
    rng = np.random.default_rng(12)
    rep = make_rep_set(rng, n=6, raw_dim=8, num_classes=3)
    w = random_simplex(rng, 6)
    rm = en.RMSpec(en.AP)
    packet = entangled(rep, w, rm, 4)
    r_expect = np.zeros(4)
    y_expect = np.zeros(3)
    for i in range(6):
        r_expect += w[i] * rm_row(rep.reps[i], rm, 4)
        y_expect += w[i] * rep.labels_onehot[i]
    np.testing.assert_allclose(packet.r_tilde, r_expect, atol=1e-12)
    np.testing.assert_allclose(packet.y_tilde, y_expect, atol=1e-12)


def test_entangle_y_tilde_stays_on_simplex():
    rng = np.random.default_rng(13)
    for kind in en.MECHANISMS:
        rep = make_rep_set(rng, n=8, num_classes=4)
        w = en.re_weights(labels_of(rep), en.ReMechanism(kind), rng)
        packet = entangled(rep, w, en.RMSpec(en.AP), 4)
        assert (packet.y_tilde >= -1e-12).all()
        assert abs(packet.y_tilde.sum() - 1.0) < 1e-9


def test_entangle_rejects_bad_weights():
    rng = np.random.default_rng(15)
    rep = make_rep_set(rng, n=4)
    with pytest.raises(ValueError):
        entangled(rep, np.full(4, 0.3), en.RMSpec(en.AP), 4)


def test_two_sample_entangle_is_mixup():
    rng = np.random.default_rng(16)
    for lam in (0.0, 0.25, 0.7, 1.0):
        rep = make_rep_set(rng, n=2, raw_dim=8, num_classes=3)
        rm = en.RMSpec(en.AP)
        packet = entangled(rep, np.array([lam, 1.0 - lam]), rm, 4)
        mixed = mixup_pair(
            rm_row(rep.reps[0], rm, 4),
            rep.labels_onehot[0],
            rm_row(rep.reps[1], rm, 4),
            rep.labels_onehot[1],
            lam,
        )
        np.testing.assert_allclose(packet.r_tilde, mixed.r_tilde, atol=1e-12)
        np.testing.assert_allclose(packet.y_tilde, mixed.y_tilde, atol=1e-12)


def test_mixup_rejects_lambda_outside_unit_interval():
    # a two-sample packet is a mixup; its weights (lam, 1 - lam) must lie in [0, 1]
    rep = make_rep_set(np.random.default_rng(19), n=2, raw_dim=8, num_classes=3)
    for lam in (1.5, -0.5):
        with pytest.raises(ValueError):
            entangled(rep, np.array([lam, 1.0 - lam]), en.RMSpec(en.AP), 4)


# ---------------------------------------------------------------- prototypes


def test_prototypes_are_per_category_means():
    rng = np.random.default_rng(17)
    labels = np.array([2, 0, 2, 0, 1])
    rep = make_rep_set(rng, n=5, raw_dim=8, num_classes=3, labels=labels)
    rm = en.RMSpec(en.AP)
    mapped, _ = en.rm_apply(rep.reps, rm, 4)
    protos = en.compute_prototypes(mapped, labels)
    assert [c for c, _ in protos] == [0, 1, 2]
    for c, proto in protos:
        np.testing.assert_allclose(proto, mapped[labels == c].mean(axis=0), atol=1e-12)


def test_vap_entangle_equals_mean_of_prototypes():
    rng = np.random.default_rng(18)
    rep = make_rep_set(rng, n=10, raw_dim=8, num_classes=4)
    rm = en.RMSpec(en.AP)
    w = en.re_weights(labels_of(rep), en.ReMechanism(en.VAP), rng)
    mapped, _ = en.rm_apply(rep.reps, rm, 4)
    packet = entangled(rep, w, rm, 4)
    protos = en.compute_prototypes(mapped, labels_of(rep))
    mean_proto = np.mean([p for _, p in protos], axis=0)
    np.testing.assert_allclose(packet.r_tilde, mean_proto, atol=1e-10)


def test_representation_set_rejects_soft_labels():
    with pytest.raises(ValueError):
        en.RepresentationSet(np.zeros((1, 4)), np.array([[0.5, 0.5]]))


def per_row_label_check(labels):
    """The row-by-row rule the vectorized check replaced."""
    for row in labels:
        check_label_encoding(row)
        if not np.isin(row, (0.0, 1.0)).all():
            raise ValueError("labels must be one-hot")


@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_representation_set_label_check_matches_per_row_rule(n, k, data):
    entries = st.sampled_from([0.0, 1.0, 0.0, 1.0, 0.5, -0.0, 2.0, -1.0, 1.0 + 1e-12, np.nan, np.inf])
    labels = np.array(
        data.draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n)),
        dtype=float,
    ).reshape(n, k)
    try:
        per_row_label_check(labels)
        expected = None
    except ValueError:
        expected = ValueError
    if expected is None:
        en.RepresentationSet(np.zeros((n, 2)), labels)
    else:
        with pytest.raises(expected):
            en.RepresentationSet(np.zeros((n, 2)), labels)
