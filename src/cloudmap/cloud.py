"""Point cloud data model: mesh loading, surface sampling, normalization,
training-time augmentation, and synthetic labeled shapes.

All randomized operations take an explicit seed and are pure functions of
(inputs, seed); arrays are treated as immutable after construction.
"""

import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SYNTH_KINDS = ("sphere", "cube", "cylinder", "cone", "torus")
MIN_POINTS = 64  # the fewest points synth_shape samples and a CLI dataset holds
# synthetic shape sizes before the unit-ball scaling of synth_shape
CUBE_HALF = 1.0  # half the edge length
CYLINDER_RADIUS, CYLINDER_HALF_H = 0.4, 1.0  # half_h is half the height
CONE_RADIUS, CONE_HALF_H = 0.6, 1.0
TORUS_MAJOR, TORUS_MINOR = 0.75, 0.25  # ring radius, tube radius
# the training augmentation recipe of augment
AUG_MAX_DROPOUT = 0.875  # at least 1/8 of the points survive
AUG_SCALE = (0.8, 1.0)
AUG_MAX_SHIFT = 0.1  # per axis
AUG_MAX_ROTATION = np.pi  # about the up (z) axis


class OffParseError(ValueError):
    """Raised on malformed OFF input; message carries the 1-based line number."""


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray  # (V, 3) float64
    faces: np.ndarray     # (F, 3) int64 vertex indices

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=np.float64))
        object.__setattr__(self, "faces", np.asarray(self.faces, dtype=np.int64))
        if self.faces.size and self.faces.max() >= len(self.vertices):
            raise ValueError("face index out of range")

    def face_areas(self) -> np.ndarray:
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        c = self.vertices[self.faces[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray          # (N, 3) float64
    label: int | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ValueError(f"points must be (N, 3) with N >= 1, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    def with_points(self, points: np.ndarray) -> "PointCloud":
        return PointCloud(points, self.label)


def check_int(name: str, value, low: int) -> int:
    """The one rule for a count or integer seed: an Integral >= low, never a
    bool. Returns it as a Python int, whose arithmetic cannot overflow."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_real(name: str, value) -> float:
    """The one rule for a real argument: a finite Real, never a bool.
    Returns it as a Python float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int or fraction past the float range
        real = math.inf
    if not math.isfinite(real):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return real


def load_off(path) -> Mesh:
    """Parse an ASCII OFF file.

    Accepts both the conventional two-line header and the squashed variant
    where the counts share the first line with the "OFF" keyword (with or
    without a separating space). Faces with more than three vertices are
    fan-triangulated.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    # (line number, text) of every line that is not blank once its comment is cut
    rows = [(lineno, text) for lineno, raw in enumerate(lines, start=1)
            if (text := raw.split("#", 1)[0].strip())]
    if not rows:
        raise OffParseError(f"{path}:1: empty file")
    lineno, header = rows[0]
    if not header.startswith("OFF"):
        raise OffParseError(f"{path}:{lineno}: missing OFF header")
    rest = header[3:].strip()
    if not rest and len(rows) < 2:
        raise OffParseError(f"{path}:{lineno}: missing counts after header")
    counts_lineno, counts_line = (lineno, rest) if rest else rows[1]
    parts = counts_line.split()
    if len(parts) < 2:
        raise OffParseError(f"{path}:{counts_lineno}: expected vertex/face counts")
    try:
        n_vert, n_face = int(parts[0]), int(parts[1])
    except ValueError:
        raise OffParseError(f"{path}:{counts_lineno}: non-numeric counts {parts[:3]}")
    if n_vert < 0 or n_face < 0:
        raise OffParseError(f"{path}:{counts_lineno}: negative counts {parts[:2]}")

    body = rows[1 if rest else 2:]  # the vertex rows, then the face rows
    vertices = np.empty((n_vert, 3), dtype=np.float64)
    for i in range(n_vert):
        if i == len(body):
            raise OffParseError(f"{path}:{len(lines)}: expected {n_vert} vertices, got {i}")
        lineno, text = body[i]
        fields = text.split()
        if len(fields) < 3:
            raise OffParseError(f"{path}:{lineno}: vertex line needs 3 coordinates")
        try:
            vertices[i] = [float(v) for v in fields[:3]]
        except ValueError:
            raise OffParseError(f"{path}:{lineno}: non-numeric vertex coordinate")
        if not np.isfinite(vertices[i]).all():
            raise OffParseError(f"{path}:{lineno}: non-finite vertex coordinate")

    faces = []
    for i in range(n_face):
        if n_vert + i == len(body):
            raise OffParseError(f"{path}:{len(lines)}: expected {n_face} faces, got {i}")
        lineno, text = body[n_vert + i]
        fields = text.split()
        try:
            k = int(fields[0])
            idx = [int(v) for v in fields[1:1 + k]]
        except (ValueError, IndexError):
            raise OffParseError(f"{path}:{lineno}: malformed face line")
        if len(idx) != k or k < 3:
            raise OffParseError(f"{path}:{lineno}: face needs at least 3 vertex indices")
        if any(j < 0 or j >= n_vert for j in idx):
            raise OffParseError(f"{path}:{lineno}: face index out of range")
        for j in range(1, k - 1):
            faces.append((idx[0], idx[j], idx[j + 1]))

    return Mesh(vertices, np.asarray(faces, dtype=np.int64).reshape(-1, 3))


def sample_surface(mesh: Mesh, n: int, seed: int) -> PointCloud:
    """Sample n points uniformly from the mesh surface.

    Faces are chosen with probability proportional to area; points are drawn
    uniformly inside each chosen triangle.
    """
    n = check_int("n", n, 1)
    areas = mesh.face_areas()
    total = areas.sum()
    if total <= 0.0:
        raise ValueError("mesh has zero total surface area")
    rng = np.random.default_rng(seed)
    face_idx = rng.choice(len(areas), size=n, p=areas / total)
    a = mesh.vertices[mesh.faces[face_idx, 0]]
    b = mesh.vertices[mesh.faces[face_idx, 1]]
    c = mesh.vertices[mesh.faces[face_idx, 2]]
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    pts = a + u[:, None] * (b - a) + v[:, None] * (c - a)
    return PointCloud(pts)


def normalize_unit(cloud: PointCloud) -> PointCloud:
    """Center the cloud at its centroid and scale the largest norm to 1.

    A cloud whose points all coincide maps to all zeros. Idempotent within
    floating-point roundoff.
    """
    pts = cloud.points - cloud.points.mean(axis=0)
    r = np.linalg.norm(pts, axis=1).max()
    if r > 0.0:
        pts = pts / r
    return cloud.with_points(pts)


def _rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def augment(cloud: PointCloud, seed: int) -> PointCloud:
    """Rotate about z, drop points, scale, then shift, by the AUG_* recipe.

    Dropout draws a rate uniformly in [0, AUG_MAX_DROPOUT] and overwrites
    floor(rate*N) randomly chosen points with the first surviving point, so
    the point count stays fixed and at least ceil((1-AUG_MAX_DROPOUT)*N)
    original points remain.
    """
    rng = np.random.default_rng(seed)
    pts = cloud.points @ _rot_z(rng.uniform(-AUG_MAX_ROTATION, AUG_MAX_ROTATION)).T
    n = len(pts)
    drop = rng.choice(n, size=int(rng.uniform(0.0, AUG_MAX_DROPOUT) * n), replace=False)
    keep_mask = np.ones(n, dtype=bool)
    keep_mask[drop] = False
    pts[drop] = pts[np.flatnonzero(keep_mask)[0]]
    pts = pts * rng.uniform(*AUG_SCALE)
    pts = pts + rng.uniform(-AUG_MAX_SHIFT, AUG_MAX_SHIFT, size=3)
    return cloud.with_points(pts)


def _sample_sphere(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _sample_cube(rng, n):
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-CUBE_HALF, CUBE_HALF, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, CUBE_HALF, -CUBE_HALF)
    for a in range(3):
        m = axis == a
        others = [b for b in range(3) if b != a]
        pts[m, a] = sign[m]
        pts[np.ix_(m, others)] = uv[m]
    return pts


def _sample_cylinder(rng, n):
    # axis along y so the top-down silhouette is a rectangle, not a disk
    side_area = 2.0 * np.pi * CYLINDER_RADIUS * 2.0 * CYLINDER_HALF_H
    cap_area = 2.0 * np.pi * CYLINDER_RADIUS ** 2
    on_side = rng.random(n) < side_area / (side_area + cap_area)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = np.empty((n, 3))
    y = rng.uniform(-CYLINDER_HALF_H, CYLINDER_HALF_H, size=n)
    r_cap = CYLINDER_RADIUS * np.sqrt(rng.random(n))
    cap_sign = np.where(rng.random(n) < 0.5, CYLINDER_HALF_H, -CYLINDER_HALF_H)
    r = np.where(on_side, CYLINDER_RADIUS, r_cap)
    pts[:, 0] = r * np.cos(theta)
    pts[:, 2] = r * np.sin(theta)
    pts[:, 1] = np.where(on_side, y, cap_sign)
    return pts


def _sample_cone(rng, n):
    # apex up at y=+CONE_HALF_H, circular base at y=-CONE_HALF_H
    slant = np.sqrt(CONE_RADIUS ** 2 + (2.0 * CONE_HALF_H) ** 2)
    lat_area = np.pi * CONE_RADIUS * slant
    base_area = np.pi * CONE_RADIUS ** 2
    on_lat = rng.random(n) < lat_area / (lat_area + base_area)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    rho = np.sqrt(rng.random(n))  # uniform over the unrolled lateral surface
    pts = np.empty((n, 3))
    r_lat = rho * CONE_RADIUS
    y_lat = CONE_HALF_H - rho * 2.0 * CONE_HALF_H
    r_base = CONE_RADIUS * np.sqrt(rng.random(n))
    r = np.where(on_lat, r_lat, r_base)
    pts[:, 0] = r * np.cos(theta)
    pts[:, 2] = r * np.sin(theta)
    pts[:, 1] = np.where(on_lat, y_lat, -CONE_HALF_H)
    return pts


def _sample_torus(rng, n):
    # ring in the x-y plane; rejection sampling corrects for the area element
    pts = np.empty((n, 3))
    filled = 0
    while filled < n:
        m = 2 * (n - filled) + 16
        theta = rng.uniform(0.0, 2.0 * np.pi, size=m)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=m)
        accept = (rng.random(m) < (TORUS_MAJOR + TORUS_MINOR * np.cos(phi))
                  / (TORUS_MAJOR + TORUS_MINOR))
        theta, phi = theta[accept], phi[accept]
        take = min(len(theta), n - filled)
        ring = TORUS_MAJOR + TORUS_MINOR * np.cos(phi[:take])
        pts[filled:filled + take, 0] = ring * np.cos(theta[:take])
        pts[filled:filled + take, 1] = ring * np.sin(theta[:take])
        pts[filled:filled + take, 2] = TORUS_MINOR * np.sin(phi[:take])
        filled += take
    return pts


_SAMPLERS = {
    "sphere": _sample_sphere,
    "cube": _sample_cube,
    "cylinder": _sample_cylinder,
    "cone": _sample_cone,
    "torus": _sample_torus,
}


def synth_shape(kind: str, n: int, seed: int) -> PointCloud:
    """Sample a labeled point cloud from one of the built-in surfaces.

    Shapes are centered at the origin by construction and scaled so the
    largest point norm is exactly 1 (no centroid shift, which would knock
    sphere samples off the unit sphere). The label is the kind's index in
    SYNTH_KINDS. Shapes are oriented so their projections along z differ
    per class.
    """
    if kind not in _SAMPLERS:
        raise ValueError(f"unknown shape kind {kind!r}; expected one of {SYNTH_KINDS}")
    n = check_int("n", n, MIN_POINTS)
    pts = _SAMPLERS[kind](np.random.default_rng(seed), n)
    pts = pts / np.linalg.norm(pts, axis=1).max()
    return PointCloud(pts, label=SYNTH_KINDS.index(kind))


def write_xyz(cloud: PointCloud, path) -> None:
    """One "x y z" triple per line, %.17g so round-trips are exact."""
    with open(path, "w") as fh:
        for x, y, z in cloud.points.tolist():
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")


def read_xyz(path, label: int | None = None) -> PointCloud:
    with warnings.catch_warnings():  # an empty file is rejected below, naming it
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            pts = np.loadtxt(path, dtype=np.float64, ndmin=2)
        except ValueError as exc:  # a ragged row or a non-numeric field
            raise ValueError(f"{path}: {exc}") from exc
    if pts.size == 0:
        raise ValueError(f"{path}: no points")
    if pts.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns, got {pts.shape[1]}")
    if not np.isfinite(pts).all():
        raise ValueError(f"{path}: non-finite coordinate")
    return PointCloud(pts, label)
