"""The sparse mappers' scatter record against a frozen copy of the dense
buffers, leak maps and window-sum pool they replaced, and the pipeline's
point gradient through the record against a frozen copy of its first
version."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudmap.cloud import PointCloud
from cloudmap.pipeline import make_pipeline
from cloudmap.project import GradPath, MappedImage, remap_frozen

from mapped_image_oracle import (basic_dense, basic_leaky_dense, graphdraw_dense,
                                 window_sum)


def random_cloud(n, seed, spread, lattice):
    """n points uniform in [-spread, spread]^3, so that spread > 1 puts
    some out of frame; with lattice > 0 they snap to a 1/lattice grid, so
    that several points share a pixel."""
    points = np.random.default_rng(seed).uniform(-spread, spread, (n, 3))
    if lattice:
        points = np.round(points * lattice) / lattice
    return PointCloud(points)


def frozen_image(name, cloud, seed):
    if name == "basic":
        return basic_dense(cloud), None
    if name == "leaky":
        return basic_leaky_dense(cloud)
    return graphdraw_dense(cloud, seed)


def check_record(name, cloud, seed):
    pipe = make_pipeline(name, 3, seed=0, map_seed=seed)
    image = pipe.map_image(cloud)
    assert image.scatter is not None
    want_data, want_links = frozen_image(name, cloud, seed)
    want_input = window_sum(want_data, -(-pipe.size // 64))
    assert image.shape == want_data.shape
    got_input = pipe.net_input_from_image(image)  # pooled from the record
    assert got_input.shape == want_input.shape and np.array_equal(got_input, want_input)
    assert np.array_equal(image.data, want_data)
    if want_links is None:
        assert image.leak_map is None
    else:
        assert image.leak_map.shape == want_links.shape
        assert np.array_equal(image.leak_map, want_links)  # the same row order
    # rebuilt densely from the unchanged cloud, the image pools its lit pixels
    if image.grad_path is GradPath.COORDINATE_LEAK:
        dense = MappedImage(remap_frozen(image, cloud), image.grad_path,
                            leak_map=image.leak_map, source_key=image.source_key)
    else:
        dense = MappedImage(image.data.copy(), image.grad_path)
    assert dense.scatter is None
    assert np.array_equal(dense.data, want_data)
    assert np.array_equal(pipe.net_input_from_image(dense), want_input)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(("basic", "leaky")), st.integers(1, 400),
       st.integers(0, 2**32 - 1), st.sampled_from((0.5, 1.0, 1.5)),
       st.sampled_from((0, 4, 64)))
@example("leaky", 300, 0, 1.5, 4)  # collisions and out-of-frame points
@example("basic", 1, 1, 1.0, 0)
def test_projection_record_matches_frozen_dense_build(name, n, seed, spread, lattice):
    check_record(name, random_cloud(n, seed, spread, lattice), seed)


@settings(max_examples=15, deadline=None)
@given(st.integers(32, 160), st.integers(0, 2**32 - 1), st.sampled_from((1.0, 1.5)))
@example(96, 5, 1.5)
def test_graphdraw_record_matches_frozen_dense_build(n, seed, spread):
    check_record("graphdraw", random_cloud(n, seed, spread, 0), seed % 7)


def frozen_point_gradient(cloud, image, d_input):
    """The record's point gradient as the attack module computed it while
    it read the pool factor off the array shapes."""
    f = image.height // d_input.shape[0]
    rows, cols, _, pts = image.scatter
    grad = np.zeros_like(cloud.points)
    slope = np.where(np.abs(cloud.points[pts]) <= 1.0, 0.5, 0.0)
    np.add.at(grad, pts, slope * d_input[rows // f, cols // f])
    return grad


def check_point_gradient(name, cloud, seed):
    pipe = make_pipeline(name, 3, seed=0, map_seed=seed)
    image = pipe.map_image(cloud)
    rng = np.random.default_rng(seed)
    shape = pipe.net_input_from_image(image).shape
    # mixed signs over twelve decades, so any change of order or factor shows
    d_input = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, shape)
    got = pipe.point_gradient(cloud, image, d_input)
    assert np.array_equal(got, frozen_point_gradient(cloud, image, d_input))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400), st.integers(0, 2**32 - 1), st.sampled_from((0.5, 1.0, 1.5)),
       st.sampled_from((0, 4, 64)))
@example(300, 0, 1.5, 4)  # collisions and out-of-frame points
def test_leaky_point_gradient_matches_frozen_adjoint(n, seed, spread, lattice):
    check_point_gradient("leaky", random_cloud(n, seed, spread, lattice), seed)


@settings(max_examples=15, deadline=None)
@given(st.integers(32, 160), st.integers(0, 2**32 - 1), st.sampled_from((1.0, 1.5)))
@example(96, 5, 1.5)
def test_graphdraw_point_gradient_matches_frozen_adjoint(n, seed, spread):
    check_point_gradient("graphdraw", random_cloud(n, seed, spread, 0), seed % 7)


def test_frozen_examples_hold_collisions_and_out_of_frame_points():
    cloud = random_cloud(300, 0, 1.5, 4)
    assert np.abs(cloud.points[:, :2]).max() > 1.0
    _, links = basic_leaky_dense(cloud)
    assert len(links) < 3 * cloud.n


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("basic", "leaky", "graphdraw")), st.integers(0, 2**32 - 1),
       st.sampled_from((0.002, 0.05, 0.5)))
def test_dense_image_pools_like_the_window_sum(name, seed, density):
    # any dense sparse image, mixed signs over twelve decades so that the
    # summation order shows in the last bits, pools as the strided passes did
    pipe = make_pipeline(name, 3, seed=0)
    rng = np.random.default_rng(seed)
    shape = (pipe.size, pipe.size, pipe.c_in)
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, shape)
    x[rng.random(shape[:2]) >= density] = 0.0
    links = np.array([[0, 0, 0, 0]]) if pipe.grad_path is GradPath.COORDINATE_LEAK else None
    image = MappedImage(x, pipe.grad_path, leak_map=links)
    got = pipe.net_input_from_image(image)
    assert np.array_equal(got, window_sum(x, -(-pipe.size // 64)))


def test_record_images_build_data_and_links_once_on_first_read():
    image = make_pipeline("leaky", 3).map_image(random_cloud(50, 3, 1.0, 0))
    assert image.data is image.data
    assert image.leak_map is image.leak_map
    assert (image.height, image.width, image.channels) == image.data.shape
