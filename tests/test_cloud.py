import numpy as np
import pytest

from cloudmap.cloud import (AugmentConfig, Mesh, OffParseError, PointCloud,
                            SYNTH_KINDS, augment, load_off, normalize_unit,
                            read_xyz, sample_surface, synth_shape, write_xyz)

UNIT_TET = """OFF
4 4 0
0 0 0
1 0 0
0 1 0
0 0 1
3 0 1 2
3 0 1 3
3 0 2 3
3 1 2 3
"""


def write_off(tmp_path, text, name="mesh.off"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_off_counts(tmp_path):
    mesh = load_off(write_off(tmp_path, UNIT_TET))
    assert mesh.vertices.shape == (4, 3)
    assert mesh.faces.shape == (4, 3)


def test_load_off_header_on_same_line(tmp_path):
    text = UNIT_TET.replace("OFF\n4 4 0\n", "OFF 4 4 0\n")
    mesh = load_off(write_off(tmp_path, text))
    assert mesh.vertices.shape == (4, 3)


def test_load_off_glued_header(tmp_path):
    # some exports glue the counts to the magic word
    text = UNIT_TET.replace("OFF\n4 4 0\n", "OFF4 4 0\n")
    mesh = load_off(write_off(tmp_path, text))
    assert mesh.faces.shape == (4, 3)


def test_load_off_comments_and_quads(tmp_path):
    text = """OFF
# a comment
5 1 0
0 0 0
1 0 0
1 1 0
0 1 0
0 0 1
4 0 1 2 3
"""
    mesh = load_off(write_off(tmp_path, text))
    # quad fan-triangulated into two triangles
    assert mesh.faces.shape == (2, 3)


def test_load_off_bad_magic(tmp_path):
    with pytest.raises(OffParseError):
        load_off(write_off(tmp_path, "OFX\n1 0 0\n0 0 0\n"))


def test_load_off_truncated_reports_line(tmp_path):
    with pytest.raises(OffParseError) as err:
        load_off(write_off(tmp_path, "OFF\n2 1 0\n0 0 0\n"))
    assert ":3:" in str(err.value)  # 1-based line of the failure


def test_load_off_face_index_out_of_range(tmp_path):
    text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n"
    with pytest.raises(OffParseError):
        load_off(write_off(tmp_path, text))


def test_face_areas_unit_triangle():
    mesh = Mesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]),
                np.array([[0, 1, 2]]))
    assert mesh.face_areas() == pytest.approx([0.5])


def test_sample_surface_on_plane(tmp_path):
    mesh = load_off(write_off(tmp_path, UNIT_TET))
    cloud = sample_surface(mesh, 200, seed=0)
    assert cloud.points.shape == (200, 3)
    # all samples on some face: inside the unit simplex boundary planes
    s = cloud.points.sum(axis=1)
    assert np.all(cloud.points >= -1e-12)
    assert np.all(s <= 1.0 + 1e-12)


def test_sample_surface_deterministic(tmp_path):
    mesh = load_off(write_off(tmp_path, UNIT_TET))
    a = sample_surface(mesh, 64, seed=3)
    b = sample_surface(mesh, 64, seed=3)
    assert np.array_equal(a.points, b.points)


def test_sample_surface_area_weighting():
    # two triangles, one 100x the area of the other
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0],
                      [10, 0, 0], [30, 0, 0], [10, 10, 0]])
    mesh = Mesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
    cloud = sample_surface(mesh, 2000, seed=1)
    near_big = cloud.points[:, 0] >= 5.0
    assert near_big.mean() > 0.95


def test_normalize_unit_bounds():
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.normal(3.0, 2.0, (128, 3)))
    norm = normalize_unit(cloud)
    r = np.linalg.norm(norm.points, axis=1)
    assert np.allclose(norm.points.mean(axis=0), 0.0, atol=1e-12)
    assert r.max() == pytest.approx(1.0)


def test_normalize_unit_coincident_points():
    cloud = PointCloud(np.full((8, 3), 2.5))
    norm = normalize_unit(cloud)
    assert np.array_equal(norm.points, np.zeros((8, 3)))


def test_synth_shapes_basic_contract():
    for kind in SYNTH_KINDS:
        cloud = synth_shape(kind, 128, seed=0)
        assert cloud.n == 128
        assert cloud.label == SYNTH_KINDS.index(kind)
        r = np.linalg.norm(cloud.points, axis=1)
        assert r.max() == pytest.approx(1.0)


def test_synth_sphere_all_unit_norm():
    cloud = synth_shape("sphere", 256, seed=5)
    r = np.linalg.norm(cloud.points, axis=1)
    assert np.all(np.abs(r - 1.0) < 1e-6)


def test_synth_torus_hole():
    cloud = synth_shape("torus", 2048, seed=2)
    # axial distance in the x-y plane never reaches the center
    rho = np.linalg.norm(cloud.points[:, :2], axis=1)
    assert rho.min() > 0.3


def test_synth_shape_rejects_small_n():
    with pytest.raises(ValueError):
        synth_shape("cube", 32, seed=0)


def test_synth_shape_unknown_kind():
    with pytest.raises(ValueError):
        synth_shape("pyramid", 128, seed=0)


def test_synth_shape_deterministic():
    a = synth_shape("cone", 128, seed=11)
    b = synth_shape("cone", 128, seed=11)
    assert np.array_equal(a.points, b.points)


def test_augment_identity_is_noop():
    cloud = synth_shape("cube", 128, seed=0)
    out = augment(cloud, AugmentConfig.identity())
    assert np.array_equal(out.points, cloud.points)
    assert out.label == cloud.label


def test_augment_keeps_count_and_label():
    cloud = synth_shape("sphere", 128, seed=0)
    out = augment(cloud, AugmentConfig(seed=4))
    assert out.n == cloud.n
    assert out.label == cloud.label


def test_augment_dropout_duplicates():
    cloud = synth_shape("sphere", 256, seed=1)
    cfg = AugmentConfig(max_dropout=0.875, scale_range=(1.0, 1.0),
                        max_shift=0.0, max_rotation=0.0, seed=9)
    out = augment(cloud, cfg)
    uniq = np.unique(out.points, axis=0)
    assert len(uniq) < cloud.n  # dropped points collapse onto survivors


def test_augment_scale_only_bounds():
    cloud = synth_shape("cube", 128, seed=2)
    cfg = AugmentConfig(max_dropout=0.0, scale_range=(0.8, 1.0),
                        max_shift=0.0, max_rotation=0.0, seed=3)
    out = augment(cloud, cfg)
    ratio = np.linalg.norm(out.points, axis=1).max()
    assert 0.8 - 1e-12 <= ratio <= 1.0 + 1e-12


def test_augment_rotation_preserves_z_and_radius():
    cloud = synth_shape("cone", 128, seed=2)
    cfg = AugmentConfig(max_dropout=0.0, scale_range=(1.0, 1.0),
                        max_shift=0.0, max_rotation=np.pi, seed=8)
    out = augment(cloud, cfg)
    assert np.allclose(out.points[:, 2], cloud.points[:, 2], atol=1e-12)
    assert np.allclose(np.linalg.norm(out.points[:, :2], axis=1),
                       np.linalg.norm(cloud.points[:, :2], axis=1), atol=1e-12)


def test_augment_deterministic():
    cloud = synth_shape("torus", 128, seed=0)
    a = augment(cloud, AugmentConfig(seed=6))
    b = augment(cloud, AugmentConfig(seed=6))
    assert np.array_equal(a.points, b.points)


def test_xyz_roundtrip_exact(tmp_path):
    cloud = synth_shape("cylinder", 128, seed=7)
    path = tmp_path / "c.xyz"
    write_xyz(cloud, path)
    back = read_xyz(path, label=cloud.label)
    assert np.array_equal(back.points, cloud.points)
    assert back.label == cloud.label


def test_mesh_rejects_bad_face_index():
    with pytest.raises(ValueError):
        Mesh(np.zeros((3, 3)), np.array([[0, 1, 5]])).face_areas()
