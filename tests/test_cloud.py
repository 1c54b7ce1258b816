import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudmap.cloud import (Mesh, OffParseError, PointCloud, SYNTH_KINDS,
                            augment, load_off, normalize_unit, read_xyz,
                            sample_surface, synth_shape, write_xyz)

from off_parser_oracle import load_off_oracle

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


@pytest.mark.parametrize("bad", ["nan", "inf", "-1e999"])
def test_load_off_rejects_non_finite_vertex(tmp_path, bad):
    path = write_off(tmp_path, UNIT_TET.replace("0 1 0\n", f"0 {bad} 0\n"))
    with pytest.raises(OffParseError, match=f"^{re.escape(str(path))}:5: non-finite"):
        load_off(path)


# line faults of an OFF body, by the list of lines they replace one of
VERTEX_FAULTS = ["0 1", "0 x 1", "nan 0 0", "0 -inf 0", "0 0 -1e999"]
FACE_FAULTS = ["three 0 1 2", "3 0 a 2", "3 0 1", "2 0 1", "", "3 0 1 7", "3 -1 0 1"]
HEADERS = ["OFF\n{v} {f} 0", "OFF {v} {f} 0", "OFF{v} {f} 0", "OFF\n{v} {f}",
           "OFX\n{v} {f} 0", "OFF\n{v}", "OFF\n{v} x 0", "OFF", ""]


@st.composite
def off_texts(draw):
    """OFF texts: a header, vertex lines and triangle or quad faces, with up
    to two line faults and a truncated tail, among comments and blank lines;
    in about one text of four the header has a negative count."""
    coord = st.sampled_from(["0", "1", "-0.5", "2.5e-1", "3"])
    n_vert, n_face = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    vertex_lines = [" ".join(draw(st.lists(coord, min_size=3, max_size=4)))
                    for _ in range(n_vert)]
    face_lines = []
    for _ in range(n_face):
        k = draw(st.sampled_from([3, 4]))
        idx = draw(st.lists(st.integers(0, max(n_vert - 1, 0)), min_size=k, max_size=k))
        face_lines.append(" ".join(map(str, [k, *idx])))
    for _ in range(draw(st.integers(0, 2))):
        lines, faults = draw(st.sampled_from([(vertex_lines, VERTEX_FAULTS),
                                              (face_lines, FACE_FAULTS)]))
        if lines:
            lines[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(faults))
    body = vertex_lines + face_lines
    body = body[:len(body) - draw(st.integers(0, len(body)))]
    counts = [n_vert, n_face]
    if draw(st.integers(0, 3)) == 0:
        counts[draw(st.integers(0, 1))] = draw(st.integers(-3, -1))
    header = draw(st.sampled_from(HEADERS)).format(v=counts[0], f=counts[1])
    out = []
    for line in header.split("\n") + body:
        out += draw(st.sampled_from([[], [""], ["# a comment"], ["", "   # indented"]]))
        out.append(line + draw(st.sampled_from(["", " # trailing", "\t"])))
    return "\n".join(out) + draw(st.sampled_from(["", "\n", "\n# end\n"]))


def negative_counts_lineno(text):
    """The number of text's counts line, the rest of its OFF line or else
    the next line that is not blank once its comment is cut, when it holds
    two integer counts and one is negative; otherwise None."""
    rows = [(lineno, cut) for lineno, line in enumerate(text.splitlines(), start=1)
            if (cut := line.split("#", 1)[0].strip())]
    if not rows or not rows[0][1].startswith("OFF"):
        return None
    rest = rows[0][1][3:].strip()
    lineno, counts = (rows[0][0], rest) if rest else rows[1] if len(rows) > 1 else (0, "")
    try:
        n_vert, n_face = (int(part) for part in counts.split()[:2])
    except ValueError:  # a count that is no integer, or fewer than two
        return None
    return lineno if min(n_vert, n_face) < 0 else None


def parsed(load, path):
    """What load makes of path: the mesh's arrays, or its OffParseError text."""
    try:
        mesh = load(path)
    except OffParseError as exc:
        return str(exc)
    return [(a.dtype, a.shape, a.tolist()) for a in (mesh.vertices, mesh.faces)]


@settings(max_examples=400, deadline=None)
@given(text=off_texts())
@example(text="OFF\n3 0 0\n0 0\n")  # a short vertex line, then the file ends
@example(text="OFF 2 1 0\n0 0 0\n0 x 0\n")  # a bad vertex, then no face line
@example(text="OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n")  # a bad face, then no second
@example(text="# only a comment\n\n")
@example(text="OFF # no counts\n\n")
@example(text="OFX\n-1 0 0\n")  # the header fault comes first
@example(text="OFF\n-1 0 0\n")  # once numpy's "negative dimensions are not allowed"
@example(text="OFF\n3 -2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")  # once a mesh with no faces
@example(text="OFF\n# no counts\n3 -1 0 1\n")  # a face fault read as the counts
def test_load_off_matches_the_frozen_parser(tmp_path_factory, text):
    """The frozen parser's mesh or message, except that a negative count,
    which it does not check, is an error naming the counts line."""
    path = tmp_path_factory.getbasetemp() / "oracle.off"
    path.write_text(text)
    lineno = negative_counts_lineno(text)
    if lineno is None:
        assert parsed(load_off, path) == parsed(load_off_oracle, path)
    else:
        message = f"^{re.escape(str(path))}:{lineno}: negative counts"
        with pytest.raises(OffParseError, match=message):
            load_off(path)


def test_load_off_reports_a_malformed_line_before_the_end_of_the_file(tmp_path):
    path = write_off(tmp_path, "OFF\n3 0 0\n0 0\n")
    with pytest.raises(OffParseError, match=f"^{re.escape(str(path))}:3: vertex line needs"):
        load_off(path)


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


@pytest.mark.parametrize("kind", SYNTH_KINDS)
def test_synth_shape_count_may_be_a_small_numpy_integer(kind):
    # the torus sampler doubles the count it still needs, which overflowed
    # a uint8 count and drew other points
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = synth_shape(kind, np.uint8(200), seed=11)
    assert np.array_equal(a.points, synth_shape(kind, 200, seed=11).points)


def test_augment_keeps_count_and_label():
    cloud = synth_shape("sphere", 128, seed=0)
    out = augment(cloud, 4)
    assert out.n == cloud.n
    assert out.label == cloud.label


def frozen_augment(cloud, seed):
    """augment as it was when the recipe was a config: one identity skip
    per step, each taken with the default ranges it then had."""
    max_dropout, scale_range, max_shift, max_rotation = 0.875, (0.8, 1.0), 0.1, np.pi
    rng = np.random.default_rng(seed)
    pts = cloud.points.copy()
    n = len(pts)

    if max_rotation != 0.0:
        angle = rng.uniform(-max_rotation, max_rotation)
        c, s = np.cos(angle), np.sin(angle)
        pts = pts @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]).T

    if max_dropout > 0.0:
        rate = rng.uniform(0.0, max_dropout)
        k = int(rate * n)
        if k > 0:
            drop = rng.choice(n, size=k, replace=False)
            keep_mask = np.ones(n, dtype=bool)
            keep_mask[drop] = False
            first_kept = int(np.flatnonzero(keep_mask)[0])
            pts[drop] = pts[first_kept]

    lo, hi = scale_range
    if not (lo == 1.0 and hi == 1.0):
        pts = pts * rng.uniform(lo, hi)

    if max_shift != 0.0:
        pts = pts + rng.uniform(-max_shift, max_shift, size=3)

    return cloud.with_points(pts)


AUGMENT_INPUTS = (st.sampled_from(SYNTH_KINDS), st.integers(64, 1024),
                  st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 31 - 1))


@settings(max_examples=200, deadline=None)
@given(*AUGMENT_INPUTS)
@example("sphere", 64, 0, 25)  # rate below 1/64: nothing is dropped
def test_augment_is_rotate_drop_scale_shift(kind, n, cloud_seed, seed):
    cloud = synth_shape(kind, n, seed=cloud_seed)
    out = augment(cloud, seed)
    assert out.n == cloud.n and out.label == cloud.label
    # a dropped point is a copy of the first survivor, and rows before that
    # survivor are all dropped, so row 0 holds the first survivor's image
    alone = np.flatnonzero((out.points != out.points[0]).any(axis=1))
    assert len(alone) + 1 >= -(-n // 8)
    assert len(np.unique(out.points, axis=0)) == len(alone) + 1
    # recover the map from the survivors a and b whose (x, y) lie farthest
    # apart, then check it on every survivor: y = s Rz(theta) x + t
    a = alone[0]
    b = alone[np.argmax(np.linalg.norm(cloud.points[alone, :2] - cloud.points[a, :2], axis=1))]
    d_in, d_out = cloud.points[b] - cloud.points[a], out.points[b] - out.points[a]
    scale = np.linalg.norm(d_out) / np.linalg.norm(d_in)
    theta = np.arctan2(d_out[1], d_out[0]) - np.arctan2(d_in[1], d_in[0])
    c, s = np.cos(theta), np.sin(theta)
    linear = scale * np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    shift = out.points[a] - linear @ cloud.points[a]
    assert 0.8 - 1e-12 <= scale <= 1.0 + 1e-12
    assert np.abs(shift).max() <= 0.1 + 1e-12
    mapped = cloud.points @ linear.T + shift
    assert np.allclose(out.points[alone], mapped[alone], rtol=0, atol=1e-12)
    first = np.flatnonzero((out.points == out.points[0]).all(axis=1))
    assert np.isclose(mapped[first], out.points[0], rtol=0, atol=1e-12).all(axis=1).any()


@settings(max_examples=200, deadline=None)
@given(*AUGMENT_INPUTS)
@example("sphere", 64, 0, 25)
def test_augment_equals_frozen_copy(kind, n, cloud_seed, seed):
    cloud = synth_shape(kind, n, seed=cloud_seed)
    assert np.array_equal(augment(cloud, seed).points,
                          frozen_augment(cloud, seed).points)


def test_augment_deterministic():
    cloud = synth_shape("torus", 128, seed=0)
    a = augment(cloud, 6)
    b = augment(cloud, 6)
    assert np.array_equal(a.points, b.points)


def test_xyz_roundtrip_exact(tmp_path):
    cloud = synth_shape("cylinder", 128, seed=7)
    path = tmp_path / "c.xyz"
    write_xyz(cloud, path)
    back = read_xyz(path, label=cloud.label)
    assert np.array_equal(back.points, cloud.points)
    assert back.label == cloud.label


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_xyz_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "c.xyz"
    path.write_text(f"0 0 0\n{bad} 0 0\n0 1 0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: non-finite"):
        read_xyz(path)


def test_read_xyz_rejects_an_empty_file_without_a_warning(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no points$"):
            read_xyz(path)


@pytest.mark.parametrize("text", ["0 0 0\n1 1\n", "0 0 0\n1 1 x\n"])
def test_read_xyz_names_the_file_in_parse_errors(tmp_path, text):
    # a ragged row and a non-numeric field: numpy's message, after the file
    path = tmp_path / "c.xyz"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: ") as info:
        read_xyz(path)
    assert str(info.value) == f"{path}: {info.value.__cause__}"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_cloud_rejects_non_finite_coordinates(bad):
    pts = np.zeros((4, 3))
    pts[2, 1] = bad
    with pytest.raises(ValueError, match="^points must be finite$"):
        PointCloud(pts)
    with pytest.raises(ValueError, match="^points must be finite$"):
        synth_shape("cube", 64, seed=0).with_points(pts)


def test_mesh_rejects_bad_face_index():
    with pytest.raises(ValueError):
        Mesh(np.zeros((3, 3)), np.array([[0, 1, 5]])).face_areas()
