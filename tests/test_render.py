import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adain_oracle import adain_frozen
from cloudmap.cloud import SYNTH_KINDS, PointCloud, synth_shape
from cloudmap.project import GradPath
from cloudmap.render import (AdaINParams, ZBufferConfig, adain, adain_backward,
                             positional_embedding, zbuffer)


# ---------------------------------------------------------------------------
# zbuffer

def one_point_cloud(x=0.0, y=0.0, z=0.0):
    return PointCloud(np.array([[x, y, z]]))


def test_config_validation():
    with pytest.raises(ValueError):
        ZBufferConfig(beta=0.0)
    with pytest.raises(TypeError):
        ZBufferConfig(view="w")


@pytest.mark.parametrize("field", ["alpha", "beta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_config_rejects_non_finite_alpha_and_beta(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        ZBufferConfig(**{field: value})


def test_zbuffer_shape_and_path():
    img = zbuffer(synth_shape("sphere", 128, seed=0), ZBufferConfig())
    assert img.data.shape == (313, 313, 1)
    assert img.grad_path is GradPath.BLOCKED
    assert img.leak_map is None


def test_zbuffer_point_at_alpha_hits_one():
    # camera looks along -z: depth of z=1 is 0
    img = zbuffer(one_point_cloud(z=1.0), ZBufferConfig(alpha=0.0))
    window = img.data[155:158, 155:158, 0]
    assert np.all(window == 1.0)
    assert img.data.sum() == 9.0


def test_zbuffer_point_at_alpha_plus_beta():
    img = zbuffer(one_point_cloud(z=0.0), ZBufferConfig(alpha=0.0, beta=1.0))
    window = img.data[155:158, 155:158, 0]
    assert np.allclose(window, np.exp(-1.0), atol=1e-6)


def test_zbuffer_max_wins_on_overlap():
    cloud = PointCloud(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    img = zbuffer(cloud, ZBufferConfig(alpha=0.0, beta=1.0))
    assert np.all(img.data[155:158, 155:158, 0] == 1.0)


def test_zbuffer_untouched_pixels_zero():
    img = zbuffer(one_point_cloud(z=1.0), ZBufferConfig())
    mask = np.ones((313, 313), dtype=bool)
    mask[155:158, 155:158] = False
    assert np.all(img.data[mask, 0] == 0.0)


def test_zbuffer_depth_monotonicity():
    vals = []
    for z in (1.0, 0.5, 0.0, -0.5, -1.0):
        img = zbuffer(one_point_cloud(z=z), ZBufferConfig())
        vals.append(img.data[156, 156, 0])
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_zbuffer_values_in_unit_interval():
    for s in range(5):
        cloud = synth_shape("torus", 256, seed=s)
        img = zbuffer(cloud, ZBufferConfig())
        lit = img.data[img.data > 0]
        assert lit.size > 0
        assert np.all(lit <= 1.0)
        # depths are >= alpha for the default frame, so intensities stay positive
        assert np.all((img.data == 0) | (img.data > 0))


def test_zbuffer_clamps_closer_than_alpha():
    # depth 0 with alpha=0.5 puts the point in front of the offset plane;
    # the raw value e^{+0.5} must clamp to 1.0
    img = zbuffer(one_point_cloud(z=1.0), ZBufferConfig(alpha=0.5))
    assert np.all(img.data[155:158, 155:158, 0] == 1.0)


def test_zbuffer_edge_splat_clipped():
    # a point projecting to the border must not wrap or crash; y = -1 is
    # one row below the frame and clamps to the last row
    img = zbuffer(one_point_cloud(x=-1.0, y=-1.0, z=0.0), ZBufferConfig())
    assert img.data[312, 0, 0] > 0.0
    assert img.data.shape == (313, 313, 1)


def test_zbuffer_empty_cloud_rejected():
    with pytest.raises(ValueError):
        zbuffer(PointCloud(np.empty((0, 3))), ZBufferConfig())


def test_zbuffer_deterministic():
    cloud = synth_shape("cube", 200, seed=3)
    a = zbuffer(cloud, ZBufferConfig())
    b = zbuffer(cloud, ZBufferConfig())
    assert np.array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# positional embedding

def test_posemb_2x2():
    emb = positional_embedding(2, 2)
    assert emb.shape == (2, 2, 2)
    assert np.array_equal(emb[:, :, 0], [[0.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(emb[:, :, 1], [[0.0, 1.0], [0.0, 1.0]])


def test_posemb_corners_exact():
    emb = positional_embedding(7, 9)
    assert emb[0, 0].tolist() == [0.0, 0.0]
    assert emb[6, 8].tolist() == [1.0, 1.0]
    assert emb[0, 8].tolist() == [0.0, 1.0]
    assert emb[6, 0].tolist() == [1.0, 0.0]


def test_posemb_center_313():
    emb = positional_embedding(313, 313)
    assert np.array_equal(emb[156, 156], [0.5, 0.5])


def test_posemb_degenerate_dimension():
    emb = positional_embedding(1, 4)
    assert np.all(emb[:, :, 0] == 0.0)
    assert np.array_equal(emb[0, :, 1], [0.0, 1 / 3, 2 / 3, 1.0])


def test_posemb_rejects_zero():
    with pytest.raises(ValueError):
        positional_embedding(0, 4)


# ---------------------------------------------------------------------------
# adain forward

def identity_params(c):
    return AdaINParams.identity(c)


def test_adain_identity_on_normalized_input():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (8, 8, 2))
    x -= x.mean((0, 1))
    x /= x.std((0, 1))
    out, _ = adain(x, identity_params(2))
    assert np.allclose(out, x, atol=1e-6)


def test_adain_constant_channel():
    params = AdaINParams(
        control=np.array([1.0]),
        w_scale=np.array([[3.0], [3.0]]), b_scale=np.zeros(2),
        w_bias=np.array([[2.0], [2.0]]), b_bias=np.zeros(2),
    )
    x = np.full((4, 4, 2), 5.0)
    out, _ = adain(x, params)
    assert np.allclose(out, 2.0, atol=1e-6)


def test_adain_output_statistics():
    rng = np.random.default_rng(1)
    x = rng.normal(3.0, 2.5, (16, 16, 3))
    params = AdaINParams.random(3, seed=7)
    out, cache = adain(x, params)
    y_s = params.w_scale @ params.control + params.b_scale
    y_b = params.w_bias @ params.control + params.b_bias
    assert np.allclose(out.mean((0, 1)), y_b, atol=1e-4)
    assert np.allclose(out.std((0, 1)), np.abs(y_s), atol=1e-4)


def test_adain_of_one_channel_is_that_channel_of_a_stack():
    # zbuffer's depth is normalized alone; in a stack with the positional
    # channels it must come out the same, bit for bit
    for seed in range(10):
        depth = zbuffer(synth_shape(SYNTH_KINDS[seed % 5], 256, seed=seed)).data
        stack = np.concatenate([depth, positional_embedding(*depth.shape[:2])], axis=2)
        alone, _ = adain(depth, identity_params(1))
        stacked, _ = adain(stack, identity_params(3))
        assert np.array_equal(alone[:, :, 0], stacked[:, :, 0]), seed


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 48), st.integers(1, 48),
       st.sampled_from(("sparse", "dense")), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_adain_equals_frozen_copy(channels, h, w, kind, identity, flipped, seed):
    # sparse: a zbuffer-like depth image, zero but for a few splats in
    # (0, 1]; dense: normal values at a random offset and scale
    rng = np.random.default_rng(seed)
    if kind == "sparse":
        x = np.where(rng.random((h, w, channels)) < 0.05,
                     rng.uniform(0.0, 1.0, (h, w, channels)), 0.0)
    else:
        x = rng.normal(rng.normal(0.0, 10.0), rng.uniform(1e-3, 10.0), (h, w, channels))
    if flipped:
        x = x[::-1, :, ::-1]  # a strided view, not contiguous
    params = (AdaINParams.identity(channels) if identity
              else AdaINParams.random(channels, seed=seed % 1000))
    before = x.copy()
    out, cache = adain(x, params)
    want, want_cache = adain_frozen(x, params)
    assert np.array_equal(x, before)
    assert out.tobytes() == want.tobytes() and out.shape == want.shape
    for got, frozen in zip(cache[:3], want_cache[:3]):
        assert got.tobytes() == frozen.tobytes() and got.shape == frozen.shape
    assert cache[3] is params
    assert not np.shares_memory(out, cache[0])
    assert not np.shares_memory(out, x) and not np.shares_memory(cache[0], x)


def test_adain_channel_mismatch_rejected():
    x = np.zeros((4, 4, 3))
    with pytest.raises(ValueError):
        adain(x, identity_params(2))


# ---------------------------------------------------------------------------
# adain backward

def params_vector(params):
    return np.concatenate([params.w_scale.ravel(), params.b_scale,
                           params.w_bias.ravel(), params.b_bias,
                           params.control])


def adain_loss(x, params, probe):
    out, _ = adain(x, params)
    return float((out * probe).sum())


def test_adain_backward_requires_cache():
    with pytest.raises(ValueError):
        adain_backward(np.zeros((4, 4, 2)), None)


def test_adain_backward_zero_upstream():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 1, (4, 4, 2))
    _, cache = adain(x, AdaINParams.random(2, seed=3))
    d_x, grads = adain_backward(np.zeros_like(x), cache)
    assert np.all(d_x == 0)
    for g in grads.values():
        assert np.all(g == 0)


def test_adain_backward_identity_projection():
    # with y_s=1, y_b=0 and normalized input, d_x removes the mean and
    # the component along xhat from the upstream gradient
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, (6, 6, 1))
    x -= x.mean()
    x /= x.std()
    out, cache = adain(x, identity_params(1))
    d_out = rng.normal(0, 1, (6, 6, 1))
    d_x, _ = adain_backward(d_out, cache)
    n = x.size
    expected = (d_out - d_out.mean() - out * (d_out * out).mean())
    expected /= np.sqrt(x.var() + 1e-5)
    assert np.allclose(d_x, expected, atol=1e-10)


def test_adain_backward_finite_difference():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, (4, 4, 2))
    params = AdaINParams.random(2, control=np.array([0.3, -0.8]), seed=5)
    probe_rng = np.random.default_rng(5)
    out, cache = adain(x, params)
    worst = 0.0
    for _ in range(20):
        probe = probe_rng.normal(0, 1, out.shape)
        d_x, grads = adain_backward(probe, cache)
        analytic = np.concatenate([
            grads["w_scale"].ravel(), grads["b_scale"],
            grads["w_bias"].ravel(), grads["b_bias"], grads["control"],
            d_x.ravel(),
        ])
        direction = probe_rng.normal(0, 1, analytic.size)
        direction /= np.linalg.norm(direction)
        eps = 1e-6
        nparam = analytic.size - x.size

        def shifted(t):
            vec = np.concatenate([params_vector(params), x.ravel()])
            vec = vec + t * direction
            p = AdaINParams(
                control=vec[nparam - 2:nparam],
                w_scale=vec[:4].reshape(2, 2), b_scale=vec[4:6],
                w_bias=vec[6:10].reshape(2, 2), b_bias=vec[10:12],
            )
            return adain_loss(vec[nparam:].reshape(x.shape), p, probe)

        fd = (shifted(eps) - shifted(-eps)) / (2 * eps)
        an = float(analytic @ direction)
        worst = max(worst, abs(fd - an) / max(abs(fd), 1e-12))
    assert worst < 1e-4
