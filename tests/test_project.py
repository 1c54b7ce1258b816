import numpy as np
import pytest

from cloudmap.cloud import SYNTH_KINDS, PointCloud, augment, synth_shape
from cloudmap.pipeline import PIPELINE_NAMES, make_pipeline
from cloudmap.project import (SIZE, GradPath, MappedImage, basic_project,
                              basic_project_leaky, cloud_key, remap_frozen)
from cloudmap.render import zbuffer


def cloud_of(points, label=None):
    return PointCloud(np.asarray(points, dtype=np.float64), label)


def test_basic_project_shape_and_path():
    img = basic_project(synth_shape("sphere", 128, 0))
    assert img.data.shape == (456, 456, 1)
    assert img.grad_path is GradPath.BLOCKED
    assert img.leak_map is None


def test_basic_project_values_binary():
    img = basic_project(synth_shape("torus", 256, 1))
    assert set(np.unique(img.data)) <= {0.0, 1.0}


def test_pixel_mapping_known_point():
    # x = y = 0 lands in the center pixel
    img = basic_project(cloud_of([[0.0, 0.0, 0.5]]))
    assert img.data[228, 228, 0] == 1.0
    assert img.data.sum() == 1.0


def test_pixel_mapping_corners():
    # top-left pixel is (x, y) near (-1, +1)
    img = basic_project(cloud_of([[-0.999, 0.999, 0.0]]))
    assert img.data[0, 0, 0] == 1.0


def test_far_out_of_frame_point_clamps_to_corner():
    # above and right of the frame: row clamps to 0, column to size - 1
    img = basic_project(cloud_of([[5.0, 5.0, 0.0]]))
    assert img.data[0, 455, 0] == 1.0
    assert img.data.sum() == 1.0


@pytest.mark.parametrize("mapper", [basic_project, basic_project_leaky, zbuffer],
                         ids=["basic", "leaky", "zbuffer"])
def test_out_of_frame_point_clamps_to_border_column(mapper):
    # x = 1.3 lies right of the frame; the point keeps its row (y = 0 maps
    # to row size / 2) and lands on the last column, not on pixel (0, 0)
    img = mapper(cloud_of([[1.3, 0.0, 0.0]]))
    size = img.width
    lit = np.argwhere(img.data.any(axis=2))
    assert img.data[size // 2, size - 1].any()
    assert lit[:, 1].min() >= size - 2  # a zbuffer splat reaches one column in
    assert not img.data[0, 0].any()
    if mapper is basic_project_leaky:
        assert img.data[size // 2, size - 1].tolist() == [1.0, 0.5, 0.5]
        assert np.array_equal(np.unique(img.leak_map[:, :2], axis=0),
                              [[size // 2, size - 1]])


def test_empty_cloud_rejected():
    with pytest.raises(ValueError):
        basic_project(cloud_of(np.empty((0, 3))))
    with pytest.raises(ValueError):
        basic_project_leaky(cloud_of(np.empty((0, 3))))


def test_same_cloud_same_image():
    c = synth_shape("cube", 128, 2)
    a = basic_project(c)
    b = basic_project(c)
    assert np.array_equal(a.data, b.data)


def test_leaky_encodes_coordinates():
    c = cloud_of([[0.2, -0.4, 0.6]])
    img = basic_project_leaky(c)
    r, colv, pt, ch = img.leak_map[0]
    assert img.grad_path is GradPath.COORDINATE_LEAK
    expected = (np.array([0.2, -0.4, 0.6]) + 1.0) / 2.0
    assert np.allclose(img.data[r, colv, :], expected)


def test_leaky_intensity_decodes_back():
    c = synth_shape("cone", 128, 3)
    img = basic_project_leaky(c)
    rows, cols, pts, chans = img.leak_map.T
    decoded = 2.0 * img.data[rows, cols, chans] - 1.0
    assert np.allclose(decoded, c.points[pts, chans], atol=1e-15)


def test_leaky_collision_last_writer_wins():
    # both points fall in the same pixel; point 1 (later) wins
    c = cloud_of([[0.001, 0.001, 0.1], [0.002, 0.002, 0.9]])
    img = basic_project_leaky(c)
    assert set(img.leak_map[:, 2].tolist()) == {1}
    r, colv = img.leak_map[0, 0], img.leak_map[0, 1]
    assert img.data[r, colv, 2] == pytest.approx((0.9 + 1) / 2)


def leaky_loop_oracle(cloud, size):
    """Per-point reference for basic_project_leaky: a dict keyed by pixel
    keeps each pixel's last point."""
    rows = np.floor((1.0 - cloud.points[:, 1]) / 2.0 * size).astype(np.int64)
    cols = np.floor((cloud.points[:, 0] + 1.0) / 2.0 * size).astype(np.int64)
    winner = {}
    for i in range(cloud.n):
        r = min(max(int(rows[i]), 0), size - 1)  # out of frame: clamp to the border
        c = min(max(int(cols[i]), 0), size - 1)
        winner[(r, c)] = i
    data = np.zeros((size, size, 3))
    links = set()
    for (r, c), i in winner.items():
        data[r, c, :] = np.clip((cloud.points[i] + 1.0) / 2.0, 0.0, 1.0)
        links.update((r, c, i, ch) for ch in range(3))
    return data, links


def test_leaky_matches_loop_oracle():
    clouds = [synth_shape(kind, 256, seed=[1, ci]) for ci, kind in enumerate(SYNTH_KINDS)]
    clouds += [augment(c, i) for i, c in enumerate(clouds)]
    clouds.append(cloud_of(1.3 * clouds[0].points))  # many points out of frame
    assert any(np.abs(c.points[:, :2]).max() >= 1.0 for c in clouds)
    collisions = 0
    for c in clouds:
        img = basic_project_leaky(c)
        data, links = leaky_loop_oracle(c, SIZE)
        assert np.array_equal(img.data, data)
        assert len(img.leak_map) == len(links)
        assert set(map(tuple, img.leak_map.tolist())) == links
        collisions += len(np.unique(c.points, axis=0)) - len(links) // 3
    assert collisions > 0  # distinct points shared a pixel: last writer won


def test_leaky_leak_map_covers_lit_pixels():
    c = synth_shape("cylinder", 256, 4)
    img = basic_project_leaky(c)
    lit = np.argwhere(img.data.sum(axis=2) > 0)
    linked = np.unique(img.leak_map[:, :2], axis=0)
    assert len(linked) == len(lit)
    assert len(img.leak_map) == 3 * len(linked)


def test_leaky_same_geometry_as_basic():
    c = synth_shape("sphere", 256, 5)
    occ = basic_project(c).data[:, :, 0] > 0
    leaky = basic_project_leaky(c).data.sum(axis=2) > 0
    assert np.array_equal(occ, leaky)


def test_mapped_image_leak_consistency_enforced():
    with pytest.raises(ValueError):
        MappedImage(np.zeros((4, 4, 3)), GradPath.COORDINATE_LEAK)
    with pytest.raises(ValueError):
        MappedImage(np.zeros((4, 4, 1)), GradPath.BLOCKED,
                    leak_map=np.array([[0, 0, 0, 0]]))


def test_cloud_key_tracks_content():
    a = synth_shape("cube", 128, 6)
    b = a.with_points(a.points + 0.001)
    assert cloud_key(a) != cloud_key(b)
    assert cloud_key(a) == cloud_key(PointCloud(a.points.copy()))


def test_only_leaking_images_fingerprint_their_cloud():
    # the fingerprint guards a leak_map; blocked images have none to guard
    cloud = synth_shape("cone", 128, 9)
    want = {"basic": None, "zbuffer": None,
            "leaky": cloud_key(cloud), "graphdraw": cloud_key(cloud)}
    assert set(want) == set(PIPELINE_NAMES)
    for name, key in want.items():
        assert make_pipeline(name, 3).map_image(cloud).source_key == key, name


def test_remap_frozen_tracks_coordinates():
    c = synth_shape("torus", 128, 7)
    img = basic_project_leaky(c)
    shifted = c.with_points(np.clip(c.points + 0.01, -1, 1))
    data = remap_frozen(img, shifted)
    rows, cols, pts, chans = img.leak_map.T
    assert np.allclose(data[rows, cols, chans],
                       (shifted.points[pts, chans] + 1) / 2)
    # untouched pixels unchanged
    mask = np.ones_like(data, dtype=bool)
    mask[rows, cols, chans] = False
    assert np.array_equal(data[mask], img.data[mask])


def test_remap_frozen_requires_leak():
    img = basic_project(synth_shape("cube", 128, 8))
    with pytest.raises(ValueError):
        remap_frozen(img, synth_shape("cube", 128, 8))
