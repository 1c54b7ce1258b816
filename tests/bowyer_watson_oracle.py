"""Frozen copy of the list-based Bowyer-Watson Delaunay path as it was
before the lockstep rewrite in cloudmap.graphdraw.delaunay3_many. Tests
use it as an oracle: the rewrite must reproduce its edge sets exactly.
Do not optimize this file.
"""

import itertools

import numpy as np

from cloudmap.graphdraw import Graph

_STRICT = 1.0 - 1e-12  # circumsphere containment margin
BRUTE_FORCE_MAX_POINTS = 40  # largest set the enumeration fallback takes


def _circumspheres(tets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers and squared radii for (T, 4, d) simplex vertex arrays.
    Degenerate (flat) simplices get infinite radius."""
    a = tets[:, 0, :]
    rows = tets[:, 1:, :] - a[:, None, :]                  # (T, d, d)
    rhs = 0.5 * (rows * rows).sum(-1) + (rows * a[:, None, :]).sum(-1)
    det = np.linalg.det(rows)
    ok = np.abs(det) > 1e-30
    centers = np.zeros_like(a)
    if ok.any():
        centers[ok] = np.linalg.solve(rows[ok], rhs[ok][:, :, None])[:, :, 0]
    r2 = ((centers - a) ** 2).sum(-1)
    r2[~ok] = np.inf
    return centers, r2


def bowyer_watson_oracle(pts: np.ndarray) -> list:
    """Incremental insertion in d dimensions (d = pts.shape[1], 2 or 3).
    Returns simplices as tuples of input indices."""
    m, d = pts.shape
    lo, hi = pts.min(0), pts.max(0)
    span = float((hi - lo).max()) or 1.0
    mid = (lo + hi) / 2.0
    scale = 1000.0 * span
    if d == 3:
        super_pts = mid + scale * np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    else:
        super_pts = mid + scale * np.array([[0.0, 2.0], [-2.0, -1.5], [2.0, -1.5]])
    allp = np.vstack([super_pts, pts])
    ns = len(super_pts)

    verts = [tuple(range(ns))]
    centers, r2 = _circumspheres(allp[np.array(verts)])
    centers, r2 = list(centers), list(r2)

    for ip in range(ns, ns + m):
        p = allp[ip]
        carr = np.asarray(centers)
        rarr = np.asarray(r2)
        dist2 = ((carr - p) ** 2).sum(-1)
        bad = np.flatnonzero(dist2 < rarr * _STRICT)
        if len(bad) == 0:
            # numerical tie everywhere: fall back to the nearest circumsphere
            bad = np.array([int(np.argmin(dist2 - rarr))])
        face_count = {}
        for t in bad:
            vs = verts[t]
            for skip in range(d + 1):
                face = tuple(sorted(vs[:skip] + vs[skip + 1:]))
                face_count[face] = face_count.get(face, 0) + 1
        boundary = [f for f, cnt in face_count.items() if cnt == 1]
        keep = sorted(set(range(len(verts))) - set(int(b) for b in bad))
        verts = [verts[t] for t in keep]
        centers = [centers[t] for t in keep]
        r2 = [r2[t] for t in keep]
        new_verts = [tuple(sorted(f + (ip,))) for f in boundary]
        nc, nr = _circumspheres(allp[np.array(new_verts)])
        verts.extend(new_verts)
        centers.extend(nc)
        r2.extend(nr)

    result = []
    for vs in verts:
        if min(vs) >= ns:
            result.append(tuple(v - ns for v in vs))
    return result


def _edges_from_simplices(simplices: list) -> set:
    edges = set()
    for vs in simplices:
        for a, b in itertools.combinations(vs, 2):
            edges.add((a, b) if a < b else (b, a))
    return edges


def _connected(n: int, edges: set) -> bool:
    if n <= 1:
        return True
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    root = find(0)
    return all(find(v) == root for v in range(n))


def _brute_force_edges(pts: np.ndarray) -> set:
    """Delaunay edges of an (M, d) point set by enumeration: every
    (d+1)-point simplex whose circumsphere strictly contains no other
    point."""
    m, d = pts.shape
    simplices = []
    for vs in itertools.combinations(range(m), d + 1):
        centers, r2 = _circumspheres(pts[np.array([vs])])
        others = np.delete(pts, vs, axis=0)
        if np.isfinite(r2[0]) and not (((others - centers[0]) ** 2).sum(-1)
                                       < r2[0] * _STRICT).any():
            simplices.append(vs)
    return _edges_from_simplices(simplices)


def triangulate_oracle(pts: np.ndarray, attempts: list | None = None,
                       brute_force: bool = False) -> set:
    """Bowyer-Watson with validation; jittered retries handle degenerate
    (cospherical / cocircular) inputs deterministically. Each attempt that
    runs appends its index to attempts, when given. With brute_force, a
    set of at most BRUTE_FORCE_MAX_POINTS points that fails every attempt
    takes the enumerated edges instead of raising, as the package's
    triangulation does since it gained that fallback."""
    m = len(pts)
    span = float((pts.max(0) - pts.min(0)).max()) or 1.0
    for attempt, eps in enumerate((0.0, 1e-9, 1e-7)):
        if attempts is not None:
            attempts.append(attempt)
        work = pts
        if eps > 0.0:
            rng = np.random.default_rng([17, attempt])
            work = pts + rng.uniform(-eps, eps, size=pts.shape) * span
        try:
            simplices = bowyer_watson_oracle(work)
        except np.linalg.LinAlgError:
            continue
        edges = _edges_from_simplices(simplices)
        covered = set(v for e in edges for v in e)
        if len(covered) == m and _connected(m, edges):
            return edges
    if brute_force and m <= BRUTE_FORCE_MAX_POINTS:
        edges = _brute_force_edges(pts)
        if _connected(m, edges):
            return edges
    raise RuntimeError(f"triangulation failed for {m} points after jitter retries")


def _principal_frame(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Centered coordinates, principal axes (rows of vt), effective rank."""
    ctr = pts - pts.mean(0)
    _, s, vt = np.linalg.svd(ctr, full_matrices=False)
    tol = max(s[0] * 1e-9, 1e-12) if len(s) else 0.0
    rank = int((s > tol).sum())
    return ctr, vt, rank


def delaunay3_oracle(points: np.ndarray, attempts: list | None = None,
                     brute_force: bool = False) -> Graph:
    """The old delaunay3: Delaunay edge set of an (M, 3) point set, with the
    2-D, collinear and duplicate-point handling of the package. brute_force
    is passed to triangulate_oracle."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    m = len(pts)
    if m < 2:
        raise ValueError("need at least 2 points")

    uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
    nu = len(uniq)
    rep = np.full(nu, m, dtype=np.int64)
    np.minimum.at(rep, inverse, np.arange(m))

    edges = set()
    if nu == 2:
        edges.add(tuple(sorted((int(rep[0]), int(rep[1])))))
    elif nu == 3:
        for a, b in itertools.combinations(range(3), 2):
            edges.add(tuple(sorted((int(rep[a]), int(rep[b])))))
    elif nu >= 4:
        ctr, vt, rank = _principal_frame(uniq)
        if rank <= 1:
            order = np.argsort(ctr @ vt[0], kind="stable")
            for a, b in zip(order[:-1], order[1:]):
                edges.add(tuple(sorted((int(rep[a]), int(rep[b])))))
        else:
            coords = uniq if rank == 3 else ctr @ vt[:2].T
            for a, b in triangulate_oracle(coords, attempts, brute_force):
                edges.add(tuple(sorted((int(rep[a]), int(rep[b])))))

    for i in range(m):
        r = int(rep[inverse[i]])
        if r != i:
            edges.add((min(r, i), max(r, i)))

    return Graph(m, np.array(sorted(edges), dtype=np.int64).reshape(-1, 2))
