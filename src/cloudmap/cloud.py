"""Point cloud data model: mesh loading, surface sampling, normalization,
training-time augmentation, and synthetic labeled shapes.

All randomized operations take an explicit seed and are pure functions of
(inputs, seed); arrays are treated as immutable after construction.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SYNTH_KINDS = ("sphere", "cube", "cylinder", "cone", "torus")


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
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    def with_points(self, points: np.ndarray) -> "PointCloud":
        return PointCloud(points, self.label)


@dataclass(frozen=True)
class AugmentConfig:
    """Training-time augmentation. Defaults: max dropout 0.875, scale in
    [0.8, 1.0], shift up to 0.1 per axis, rotation up to pi about the up axis."""
    max_dropout: float = 0.875
    scale_range: tuple = (0.8, 1.0)
    max_shift: float = 0.1
    max_rotation: float = np.pi
    seed: int = 0

    @classmethod
    def identity(cls, seed: int = 0) -> "AugmentConfig":
        return cls(max_dropout=0.0, scale_range=(1.0, 1.0), max_shift=0.0,
                   max_rotation=0.0, seed=seed)


def load_off(path) -> Mesh:
    """Parse an ASCII OFF file.

    Accepts both the conventional two-line header and the squashed variant
    where the counts share the first line with the "OFF" keyword (with or
    without a separating space). Faces with more than three vertices are
    fan-triangulated.
    """
    path = Path(path)
    lines = path.read_text().splitlines()

    def tokens():
        for lineno, raw in enumerate(lines, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield lineno, text

    it = tokens()
    try:
        lineno, header = next(it)
    except StopIteration:
        raise OffParseError(f"{path}:1: empty file")
    if not header.startswith("OFF"):
        raise OffParseError(f"{path}:{lineno}: missing OFF header")
    rest = header[3:].strip()
    if rest:
        counts_line, counts_lineno = rest, lineno
    else:
        try:
            counts_lineno, counts_line = next(it)
        except StopIteration:
            raise OffParseError(f"{path}:{lineno}: missing counts after header")
    parts = counts_line.split()
    if len(parts) < 2:
        raise OffParseError(f"{path}:{counts_lineno}: expected vertex/face counts")
    try:
        n_vert, n_face = int(parts[0]), int(parts[1])
    except ValueError:
        raise OffParseError(f"{path}:{counts_lineno}: non-numeric counts {parts[:3]}")

    vertices = np.empty((n_vert, 3), dtype=np.float64)
    for i in range(n_vert):
        try:
            lineno, text = next(it)
        except StopIteration:
            raise OffParseError(f"{path}:{len(lines)}: expected {n_vert} vertices, got {i}")
        fields = text.split()
        if len(fields) < 3:
            raise OffParseError(f"{path}:{lineno}: vertex line needs 3 coordinates")
        try:
            vertices[i] = [float(v) for v in fields[:3]]
        except ValueError:
            raise OffParseError(f"{path}:{lineno}: non-numeric vertex coordinate")

    faces = []
    for i in range(n_face):
        try:
            lineno, text = next(it)
        except StopIteration:
            raise OffParseError(f"{path}:{len(lines)}: expected {n_face} faces, got {i}")
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
    if n < 1:
        raise ValueError("n must be >= 1")
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


def augment(cloud: PointCloud, cfg: AugmentConfig) -> PointCloud:
    """Apply random rotation (about z), point dropout, scale, and shift.

    Dropout draws a rate uniformly in [0, max_dropout] and overwrites
    floor(rate*N) randomly chosen points with the first surviving point, so
    the point count stays fixed and at least ceil((1-max_dropout)*N) original
    points remain. Each sub-step is skipped entirely when its config is the
    identity, which makes the all-identity config a bitwise no-op.
    """
    rng = np.random.default_rng(cfg.seed)
    pts = cloud.points.copy()
    n = len(pts)

    if cfg.max_rotation != 0.0:
        angle = rng.uniform(-cfg.max_rotation, cfg.max_rotation)
        pts = pts @ _rot_z(angle).T

    if cfg.max_dropout > 0.0:
        rate = rng.uniform(0.0, cfg.max_dropout)
        k = int(rate * n)
        if k > 0:
            drop = rng.choice(n, size=k, replace=False)
            keep_mask = np.ones(n, dtype=bool)
            keep_mask[drop] = False
            first_kept = int(np.flatnonzero(keep_mask)[0])
            pts[drop] = pts[first_kept]

    lo, hi = cfg.scale_range
    if not (lo == 1.0 and hi == 1.0):
        pts = pts * rng.uniform(lo, hi)

    if cfg.max_shift != 0.0:
        pts = pts + rng.uniform(-cfg.max_shift, cfg.max_shift, size=3)

    return cloud.with_points(pts)


def _sample_sphere(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _sample_cube(rng, n, half=1.0):
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-half, half, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, half, -half)
    for a in range(3):
        m = axis == a
        others = [b for b in range(3) if b != a]
        pts[m, a] = sign[m]
        pts[np.ix_(m, others)] = uv[m]
    return pts


def _sample_cylinder(rng, n, radius=0.4, half_h=1.0):
    # axis along y so the top-down silhouette is a rectangle, not a disk
    side_area = 2.0 * np.pi * radius * 2.0 * half_h
    cap_area = 2.0 * np.pi * radius ** 2
    on_side = rng.random(n) < side_area / (side_area + cap_area)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = np.empty((n, 3))
    y = rng.uniform(-half_h, half_h, size=n)
    r_cap = radius * np.sqrt(rng.random(n))
    cap_sign = np.where(rng.random(n) < 0.5, half_h, -half_h)
    r = np.where(on_side, radius, r_cap)
    pts[:, 0] = r * np.cos(theta)
    pts[:, 2] = r * np.sin(theta)
    pts[:, 1] = np.where(on_side, y, cap_sign)
    return pts


def _sample_cone(rng, n, radius=0.6, half_h=1.0):
    # apex up at y=+half_h, circular base at y=-half_h
    slant = np.sqrt(radius ** 2 + (2.0 * half_h) ** 2)
    lat_area = np.pi * radius * slant
    base_area = np.pi * radius ** 2
    on_lat = rng.random(n) < lat_area / (lat_area + base_area)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    rho = np.sqrt(rng.random(n))  # uniform over the unrolled lateral surface
    pts = np.empty((n, 3))
    r_lat = rho * radius
    y_lat = half_h - rho * 2.0 * half_h
    r_base = radius * np.sqrt(rng.random(n))
    r = np.where(on_lat, r_lat, r_base)
    pts[:, 0] = r * np.cos(theta)
    pts[:, 2] = r * np.sin(theta)
    pts[:, 1] = np.where(on_lat, y_lat, -half_h)
    return pts


def _sample_torus(rng, n, major=0.75, minor=0.25):
    # ring in the x-y plane; rejection sampling corrects for the area element
    pts = np.empty((n, 3))
    filled = 0
    while filled < n:
        m = 2 * (n - filled) + 16
        theta = rng.uniform(0.0, 2.0 * np.pi, size=m)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=m)
        accept = rng.random(m) < (major + minor * np.cos(phi)) / (major + minor)
        theta, phi = theta[accept], phi[accept]
        take = min(len(theta), n - filled)
        ring = major + minor * np.cos(phi[:take])
        pts[filled:filled + take, 0] = ring * np.cos(theta[:take])
        pts[filled:filled + take, 1] = ring * np.sin(theta[:take])
        pts[filled:filled + take, 2] = minor * np.sin(phi[:take])
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
    if n < 64:
        raise ValueError("n must be >= 64")
    pts = _SAMPLERS[kind](np.random.default_rng(seed), n)
    pts = pts / np.linalg.norm(pts, axis=1).max()
    return PointCloud(pts, label=SYNTH_KINDS.index(kind))


def write_xyz(cloud: PointCloud, path) -> None:
    """One "x y z" triple per line, %.17g so round-trips are exact."""
    with open(path, "w") as fh:
        for x, y, z in cloud.points:
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")


def read_xyz(path, label: int | None = None) -> PointCloud:
    pts = np.loadtxt(path, dtype=np.float64, ndmin=2)
    if pts.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns, got {pts.shape[1]}")
    return PointCloud(pts, label)
