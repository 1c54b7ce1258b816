"""Graph-drawing mapping: balanced KMeans into clusters, Delaunay
triangulation at two levels, and a hierarchical grid embedding that writes
point coordinates into a (GRID*GRID) x (GRID*GRID) 3-channel image.

The Delaunay edge sets are built by incremental Bowyer-Watson insertion
(3D tetrahedra, with 2D/1D fallbacks for flat or collinear inputs), run in
lockstep over all point sets of a map; a brute-force circumsphere
enumeration serves as the independent test oracle and as the fallback for
small sets the insertion cannot triangulate.

The grid embedding of the cluster graph and of every within-cluster graph
also runs in lockstep: one local search visits vertex u of every graph
still improving at once, with per-row and per-column distance sums as its
cost tables, and gives each graph the layout it would get alone.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud, check_int, check_real
from .project import MappedImage, leaky_image

KMEANS_ITERS = 50  # Lloyd iterations at most, before rebalancing
GRID_PASSES = 1000  # local-search passes at most per graph
CLUSTERS = 32  # k-means clusters of a map, one top-grid cell each
CLUSTER_SLACK = 1.2  # the cluster cap as a multiple of the mean cluster size
GRID = 16  # side of the top grid and of every within-cluster grid


@dataclass(frozen=True)
class Graph:
    """Undirected graph: vertex count plus canonical (u < v) edge pairs."""
    n_vertices: int
    edges: np.ndarray  # (E, 2) int64, each row sorted, rows unique

    def __post_init__(self):
        object.__setattr__(self, "n_vertices", check_int("n_vertices", self.n_vertices, 0))
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        e = np.sort(e, axis=1)
        if len(e):
            if (e[:, 0] == e[:, 1]).any():
                raise ValueError("self-loop in edge list")
            if e.max() >= self.n_vertices or e.min() < 0:
                raise ValueError("edge index out of range")
            e = _unique_pairs(e[:, 0], e[:, 1], self.n_vertices)
        object.__setattr__(self, "edges", e)


def _unique_pairs(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Sorted unique (E, 2) rows of the pairs (a, b), 0 <= a, b < m, found
    on the integer keys a * m + b."""
    return np.stack(np.divmod(np.unique(a * m + b), m), axis=1)


@dataclass
class ClusterHierarchy:
    centers: np.ndarray        # (K, 3)
    members: list              # K int arrays partitioning range(N)
    k: int


@dataclass
class GridEmbedding:
    grid_size: int
    cells: np.ndarray            # (M, 2) int64 (row, col), injective
    energy_trace: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# balanced KMeans

def _sq_dists(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(N, K) squared distances from points to centres, one coordinate
    column at a time. The terms add in x, y, z order, as
    ((pts[:, None] - centers) ** 2).sum(-1) adds them, so the two agree
    bit for bit."""
    d2 = (pts[:, 0:1] - centers[:, 0]) ** 2
    d2 += (pts[:, 1:2] - centers[:, 1]) ** 2
    d2 += (pts[:, 2:3] - centers[:, 2]) ** 2
    return d2


def _recentre(pts: np.ndarray, assign: np.ndarray, centers: np.ndarray) -> None:
    """Move every non-empty cluster's centre to the mean of its members.
    bincount adds the members in index order, as pts[assign == i].mean(0)
    does; an empty cluster keeps its centre."""
    k = len(centers)
    counts = np.bincount(assign, minlength=k)
    filled = counts > 0
    for d in range(3):
        sums = np.bincount(assign, weights=pts[:, d], minlength=k)
        centers[filled, d] = sums[filled] / counts[filled]


def _kmeanspp_init(pts: np.ndarray, k: int, rng) -> np.ndarray:
    n = len(pts)
    centers = np.empty((k, 3))
    centers[0] = pts[rng.integers(n)]
    d2 = _sq_dists(pts, centers[:1])[:, 0]
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[i] = pts[rng.integers(n)]
        else:
            centers[i] = pts[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, _sq_dists(pts, centers[i:i + 1])[:, 0])
    return centers


def cluster_cap(n: int, k: int, alpha: float) -> int:
    """Largest cluster balanced_kmeans allows for n points in k clusters."""
    return int(np.ceil(alpha * n / k))


def check_cloud_size(n: int) -> None:
    """Raise ValueError unless an n-point cloud fits map_graphdraw's
    within-cluster grids with its clusters at their cap: up to 6826 points."""
    cells = GRID * GRID
    cap = cluster_cap(n, CLUSTERS, CLUSTER_SLACK)
    if cap > cells:
        raise ValueError(f"graphdraw cannot map {n} points: clusters of up to {cap} "
                         f"points do not fit the {cells} cells of a {GRID}x{GRID} grid")


def balanced_kmeans(cloud: PointCloud, k: int = CLUSTERS, alpha: float = CLUSTER_SLACK,
                    seed: int = 0) -> ClusterHierarchy:
    """Lloyd iterations (kmeans++ init) followed by rebalancing.

    While any cluster exceeds the cap ceil(alpha*N/k), its member farthest
    from the cluster center is moved to the nearest center whose cluster is
    still below the cap. Centers are recomputed once after balancing, so
    every output cluster satisfies the cap. Inputs whose k clusters at the
    cap cannot hold all N points raise ValueError before any Lloyd step.
    """
    pts = cloud.points
    n = len(pts)
    k, alpha = check_int("k", k, 1), check_real("alpha", alpha)
    if n < k or k * cluster_cap(n, k, alpha) < n:
        raise ValueError(f"balanced_kmeans cannot put n={n} points into k={k} clusters "
                         f"with alpha={alpha}: it needs n >= k and k * ceil(alpha * n / k) >= n")
    rng = np.random.default_rng(check_int("seed", seed, 0))
    centers = _kmeanspp_init(pts, k, rng)

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        new_assign = _sq_dists(pts, centers).argmin(1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        _recentre(pts, assign, centers)

    cap = cluster_cap(n, k, alpha)
    d2 = _sq_dists(pts, centers)
    sizes = np.bincount(assign, minlength=k)
    while True:
        over = np.flatnonzero(sizes > cap)
        if len(over) == 0:
            break
        i = int(over[0])
        members_i = np.flatnonzero(assign == i)
        j = members_i[d2[members_i, i].argmax()]
        open_clusters = np.flatnonzero(sizes < cap)
        target = int(open_clusters[d2[j, open_clusters].argmin()])
        assign[j] = target
        sizes[i] -= 1
        sizes[target] += 1

    _recentre(pts, assign, centers)
    order = np.argsort(assign, kind="stable")  # each cluster's members ascending
    members = np.split(order, np.cumsum(sizes)[:-1])
    return ClusterHierarchy(centers=centers, members=members, k=k)


# ---------------------------------------------------------------------------
# Delaunay triangulation (Bowyer-Watson) and its brute-force oracle

_STRICT = 1.0 - 1e-12  # circumsphere containment margin
ORACLE_MAX_POINTS = 40  # largest set the brute-force oracle takes


def _circumspheres(tets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers and squared radii for (T, 4, d) simplex vertex arrays.
    Degenerate (flat) simplices get infinite radius."""
    a = tets[:, 0, :]
    rows = tets[:, 1:, :] - a[:, None, :]                  # (T, d, d)
    rhs = 0.5 * (rows * rows).sum(-1) + (rows * a[:, None, :]).sum(-1)
    d = tets.shape[2]
    det = np.linalg.det(rows)
    ok = np.abs(det) > 1e-30
    centers = np.zeros_like(a)
    if ok.any():
        centers[ok] = np.linalg.solve(rows[ok], rhs[ok][:, :, None])[:, :, 0]
    r2 = ((centers - a) ** 2).sum(-1)
    r2[~ok] = np.inf
    return centers, r2


def _super_simplex(pts: np.ndarray) -> np.ndarray:
    """Vertices of the simplex, 1000 spans wide, that Bowyer-Watson starts
    from for a (M, d) point set, d = 2 or 3."""
    lo, hi = pts.min(0), pts.max(0)
    span = float((hi - lo).max()) or 1.0
    mid = (lo + hi) / 2.0
    scale = 1000.0 * span
    if pts.shape[1] == 3:
        return mid + scale * np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    return mid + scale * np.array([[0.0, 2.0], [-2.0, -1.5], [2.0, -1.5]])


def _bowyer_watson_many(point_sets: list) -> list:
    """Incremental insertion in lockstep over point sets of one dimension d
    (2 or 3): step s inserts point s of every set that still has one.

    The live simplices of all sets are rows of four flat arrays: sorted
    vertex indices into the stacked coordinates (each set's super simplex,
    then its points), the owning set, circumcentre and squared radius. A
    step finds every simplex whose circumsphere contains its set's point;
    the faces that occur once among them bound the cavity. It drops those
    rows and appends the new simplices, in the order their faces are met,
    so each set's rows stay in the order a list would hold: survivors
    first, then the new ones. Returns each set's simplices as a (T, d+1)
    array of indices into that set.
    """
    d = point_sets[0].shape[1]
    ns = d + 1
    n_sets = len(point_sets)
    sizes = np.array([len(p) for p in point_sets])
    base = np.concatenate([[0], np.cumsum(sizes + ns)[:-1]])  # each set's first row
    coords = np.vstack([np.vstack([_super_simplex(p), p]) for p in point_sets])
    n_all = len(coords)
    face_cols = np.array([[j for j in range(ns) if j != k] for k in range(ns)])

    verts = base[:, None] + np.arange(ns)
    owner = np.arange(n_sets)
    centers, r2 = _circumspheres(coords[verts])

    for s in range(int(sizes.max())):
        active = s < sizes
        ip = base + ns + s  # the row each set inserts at this step
        p = coords[np.where(active, ip, 0)]
        dist2 = ((centers - p[owner]) ** 2).sum(-1)
        bad = (dist2 < r2 * _STRICT) & active[owner]
        for j in np.flatnonzero(active & (np.bincount(owner[bad], minlength=n_sets) == 0)):
            # numerical tie everywhere: fall back to the nearest
            # circumsphere, the oldest simplex on a tie
            cand = np.flatnonzero(owner == j)
            bad[cand[np.argmin(dist2[cand] - r2[cand])]] = True

        b = np.flatnonzero(bad)
        b = b[np.argsort(owner[b], kind="stable")]
        faces = verts[b][:, face_cols].reshape(-1, d)
        keys = faces[:, 0]
        for k in range(1, d):
            keys = keys * n_all + faces[:, k]
        _, first, count = np.unique(keys, return_index=True, return_counts=True)
        pos = np.sort(first[count == 1])
        new_owner = owner[b[pos // ns]]
        new_verts = np.concatenate([faces[pos], ip[new_owner][:, None]], axis=1)
        new_centers, new_r2 = _circumspheres(coords[new_verts])

        keep = np.flatnonzero(~bad)
        verts = np.concatenate([verts[keep], new_verts])
        owner = np.concatenate([owner[keep], new_owner])
        centers = np.concatenate([centers[keep], new_centers])
        r2 = np.concatenate([r2[keep], new_r2])

    keep = np.flatnonzero(verts[:, 0] >= base[owner] + ns)
    keep = keep[np.argsort(owner[keep], kind="stable")]
    local = verts[keep] - (base[owner[keep]] + ns)[:, None]
    return np.split(local, np.cumsum(np.bincount(owner[keep], minlength=n_sets))[:-1])


def _edges_from_simplices(simplices: np.ndarray, m: int) -> np.ndarray:
    """Sorted unique (u < v) edges of a (T, d+1) array of sorted simplices
    over m vertices."""
    a, b = np.triu_indices(simplices.shape[1], 1)
    return _unique_pairs(simplices[:, a], simplices[:, b], m)


def _connected_many(sizes: list, edge_sets: list) -> np.ndarray:
    """For each graph (sizes[i] vertices, edge_sets[i] edges), whether it
    is connected. Labels drop to the smallest vertex of each component by
    min-propagation along edges with pointer jumping; a connected graph
    keeps one vertex that is its own label."""
    sizes = np.asarray(sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    a, b = np.concatenate([np.empty((0, 2), dtype=np.int64)]
                          + [e + off for e, off in zip(edge_sets, offsets)]).T
    label = np.arange(sizes.sum())
    while True:
        new = label.copy()
        np.minimum.at(new, a, label[b])
        np.minimum.at(new, b, label[a])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    roots = np.repeat(np.arange(len(sizes)), sizes)[label == np.arange(len(label))]
    return np.bincount(roots, minlength=len(sizes)) == 1


def _triangulate_many(point_sets: list) -> list:
    """Edge arrays of validated Bowyer-Watson triangulations of point sets
    of one dimension. A triangulation is valid when its edges connect all
    its points. Sets that fail are retried together with jitter, which
    handles degenerate (cospherical / cocircular) inputs deterministically.
    A set that fails every attempt gets the brute-force oracle's edges if
    it has at most ORACLE_MAX_POINTS points."""
    out = [None] * len(point_sets)
    pending = list(range(len(point_sets)))
    for attempt, eps in enumerate((0.0, 1e-9, 1e-7)):
        if not pending:
            break
        work = []
        for i in pending:
            pts = point_sets[i]
            if eps > 0.0:
                span = float((pts.max(0) - pts.min(0)).max()) or 1.0
                rng = np.random.default_rng([17, attempt])
                pts = pts + rng.uniform(-eps, eps, size=pts.shape) * span
            work.append(pts)
        found = [_edges_from_simplices(simplices, len(point_sets[i]))
                 for i, simplices in zip(pending, _bowyer_watson_many(work))]
        ok = _connected_many([len(point_sets[i]) for i in pending], found)
        for i, edges, good in zip(pending, found, ok):
            if good:
                out[i] = edges
        pending = [i for i in pending if out[i] is None]
    for i in pending:
        m = len(point_sets[i])
        if m > ORACLE_MAX_POINTS:
            raise RuntimeError(f"triangulation failed for {m} points after jitter retries; "
                               f"the brute-force fallback takes at most "
                               f"{ORACLE_MAX_POINTS} points")
        edges = _oracle_edges(point_sets[i])
        if not _connected_many([m], [edges])[0]:
            raise RuntimeError(f"triangulation failed for {m} points after jitter "
                               f"retries and the brute-force fallback")
        out[i] = edges
    return out


def _principal_frame(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Centered coordinates, principal axes (rows of vt), effective rank."""
    ctr = pts - pts.mean(0)
    _, s, vt = np.linalg.svd(ctr, full_matrices=False)
    tol = max(s[0] * 1e-9, 1e-12) if len(s) else 0.0
    rank = int((s > tol).sum())
    return ctr, vt, rank


def _point_set(k: int, points) -> np.ndarray:
    """Point set k as an (M, 3) float64 array of finite coordinates, M = 0
    included; any other shape or a non-finite value raises ValueError."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"point set {k}: expected an (M, 3) array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError(f"point set {k}: coordinates must be finite")
    return pts


def delaunay3_many(point_sets: list) -> list:
    """delaunay3 of every (M, 3) point set. The triangulations of each
    dimension (3-D sets and coplanar sets in their best-fit planes) run in
    one lockstep Bowyer-Watson pass. A set of 0 or 1 points gets a graph
    without edges; a set of another shape or with a non-finite coordinate
    raises ValueError naming its index."""
    prepared = []  # (m, rep, inverse, edges over unique points or None)
    tasks = {2: [], 3: []}  # dimension -> [(set index, coordinates)]
    point_sets = [_point_set(k, p) for k, p in enumerate(point_sets)]
    for k, pts in enumerate(point_sets):
        m = len(pts)
        # rep holds each unique point's first occurrence
        uniq, rep, inverse = np.unique(pts, axis=0, return_index=True, return_inverse=True)
        inverse = inverse.reshape(-1)
        nu = len(uniq)

        edges = None
        if nu <= 3:
            edges = np.array(list(itertools.combinations(range(nu), 2)),
                             dtype=np.int64).reshape(-1, 2)
        else:
            ctr, vt, rank = _principal_frame(uniq)
            if rank <= 1:
                order = np.argsort(ctr @ vt[0], kind="stable")
                edges = np.stack([order[:-1], order[1:]], axis=1)
            else:
                tasks[rank].append((k, uniq if rank == 3 else ctr @ vt[:2].T))
        prepared.append([m, rep, inverse, edges])

    for dim_tasks in tasks.values():
        if dim_tasks:
            ids, coords = zip(*dim_tasks)
            for k, edges in zip(ids, _triangulate_many(list(coords))):
                prepared[k][3] = edges

    graphs = []
    for m, rep, inverse, edges in prepared:
        dup = np.flatnonzero(rep[inverse] != np.arange(m))  # reattach duplicates
        pairs = np.concatenate([rep[edges], np.stack([rep[inverse[dup]], dup], axis=1)])
        graphs.append(Graph(m, pairs))
    return graphs


def delaunay3(points: np.ndarray) -> Graph:
    """Edge set of the Delaunay tetrahedralization of an (M, 3) point set.

    M = 2 yields the single edge, M = 3 the triangle. Coplanar inputs fall
    back to 2D Delaunay in the best-fit plane, collinear inputs to a sorted
    chain. Exact duplicate points are collapsed onto one representative each
    and reattached to it by an edge afterwards.
    """
    pts = _point_set(0, points)
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    return delaunay3_many([pts])[0]


def _oracle_edges(pts: np.ndarray) -> np.ndarray:
    """Brute-force Delaunay edges of an (M, d) point set: enumerate all
    (d+1)-point subsets, keep simplices whose circumsphere strictly
    contains no other point, union their edges."""
    m, d = pts.shape
    subsets = np.array(list(itertools.combinations(range(m), d + 1)), dtype=np.int64)
    centers, r2 = _circumspheres(pts[subsets])
    dist2 = ((pts[None, :, :] - centers[:, None, :]) ** 2).sum(-1)  # (T, M)
    rows = np.arange(len(subsets))[:, None]
    dist2[rows, subsets] = np.inf  # a simplex's own vertices sit on the sphere
    finite = np.isfinite(r2)
    empty = finite & ~(dist2 < r2[:, None] * _STRICT).any(1)
    return _edges_from_simplices(subsets[empty], m)


def delaunay_oracle(points: np.ndarray) -> Graph:
    """Brute-force Delaunay edge set: enumerate all 4-point subsets, keep
    tetrahedra whose circumsphere strictly contains no other point, union
    their edges. O(M^5); intended for M <= 40 in general position."""
    pts = _point_set(0, points)
    m = len(pts)
    if m < 4:
        raise ValueError("oracle needs at least 4 points")
    if m > ORACLE_MAX_POINTS:
        raise ValueError(f"oracle limited to {ORACLE_MAX_POINTS} points")
    return Graph(m, _oracle_edges(pts))


# ---------------------------------------------------------------------------
# grid embedding

def _snap_targets(positions: np.ndarray, gs: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid targets (M, 2) of an (M, 3) vertex set and the order it snaps
    in: the two principal components, sign-fixed and stretched over the
    grid (PC1 across columns), visited by descending distance from the
    centroid. A set of 0 or 1 vertices targets the centre of the grid."""
    m = len(positions)
    if m <= 1:
        return np.full((m, 2), (gs - 1) / 2.0), np.arange(m)
    ctr, vt, _ = _principal_frame(positions)
    axes = vt[:2]
    for i in range(2):  # fix the sign ambiguity of each axis
        j = int(np.argmax(np.abs(axes[i])))
        if axes[i, j] < 0:
            axes[i] = -axes[i]
    proj = ctr @ axes.T

    targets = np.empty((m, 2))
    for ax, out in ((0, 1), (1, 0)):  # PC1 spreads across columns
        lo, hi = proj[:, ax].min(), proj[:, ax].max()
        if hi - lo < 1e-12:
            targets[:, out] = (gs - 1) / 2.0
        else:
            targets[:, out] = (proj[:, ax] - lo) / (hi - lo) * (gs - 1)
    radius = np.linalg.norm(ctr, axis=1)
    return targets, np.argsort(-radius, kind="stable")


def _initial_cells(targets: np.ndarray, order: np.ndarray, sizes: np.ndarray,
                   gs: int) -> np.ndarray:
    """Snap the vertices of every graph to free flat cell indices, in
    lockstep: step i places vertex order[g, i] of every graph g with more
    than i vertices. targets (n, M, 2) and order (n, M) are padded to the
    largest graph; padding vertices keep cell -1.

    Around the rounded, clamped target, the first Chebyshev ring holding a
    free cell and the two rings past it are searched; the winner minimizes
    (squared distance to the target, row, col). Cells come in row-major
    order, so the first argmin breaks ties exactly as that key does. This
    is a ring-limited search, not the global nearest free cell: the two
    differ once the first hit lies five or more rings out.
    """
    rows, cols = np.divmod(np.arange(gs * gs), gs)
    free = np.ones((len(sizes), gs * gs), dtype=bool)
    flat = np.full(order.shape, -1, dtype=np.int64)
    anchors = np.clip(np.rint(targets), 0, gs - 1).astype(np.int64)
    far = gs + 2  # ring given to occupied cells: past any ring the search keeps
    for i in range(order.shape[1]):
        g = np.flatnonzero(sizes > i)
        v = order[g, i]
        (tr, tc), (ar, ac) = targets[g, v].T[:, :, None], anchors[g, v].T[:, :, None]
        ring = np.where(free[g], np.maximum(np.abs(rows - ar), np.abs(cols - ac)), far)
        d2 = (rows - tr) ** 2 + (cols - tc) ** 2
        d2[ring > ring.min(1, keepdims=True) + 2] = np.inf
        f = d2.argmin(1)
        free[g, f] = False
        flat[g, v] = f
    return flat


def grid_embed_many(graphs: list, positions: list, grid_size: int = GRID) -> list:
    """Injective assignments of the vertices of every graph to the cells of
    its own grid_size x grid_size grid, all run in lockstep. Each graph's
    position set must be (n_vertices, 3) and finite, or ValueError names it.

    Each graph's vertices are projected onto their two principal
    components, snapped to free cells in descending distance-from-centroid
    order, then improved by a local search over single-vertex moves and
    vertex swaps that only ever strictly reduces the total Manhattan edge
    length. A pass visits every vertex with neighbours in index order; the
    energy after each pass is recorded in the embedding's energy_trace, and
    a graph stops after a pass without improvement. Step (pass p, vertex u)
    makes that visit in every graph still running, so each graph gets the
    layout it would get alone.

    Manhattan distance splits into a row and a column part, so the search
    keeps two integer tables over padded vertices w and grid lines i:
    R[g, w, i], the summed row distance from line i to the neighbours of w,
    and C[g, w, i] for columns. Vertex u costs R[u, r] + C[u, c] at cell
    (r, c), and moving w changes only its neighbours' entries. Padding
    vertices have no edges and are never swap targets; padded neighbour
    lists point at a spare row past the last vertex.
    """
    gs = check_int("grid_size", grid_size, 1)
    if len(positions) != len(graphs):
        raise ValueError(f"{len(positions)} position sets for {len(graphs)} graphs")
    positions = [_point_set(k, p) for k, p in enumerate(positions)]
    for k, (graph, p) in enumerate(zip(graphs, positions)):
        if graph.n_vertices > gs * gs:
            raise ValueError(f"graph {k}: {graph.n_vertices} vertices do not fit "
                             f"a {gs}x{gs} grid")
        if len(p) != graph.n_vertices:
            raise ValueError(f"point set {k}: {len(p)} positions for "
                             f"{graph.n_vertices} vertices")
    n = len(graphs)
    if n == 0:
        return []
    sizes = np.array([g.n_vertices for g in graphs])
    spare = int(sizes.max())  # the padded vertex index past every graph
    vp = spare + 1
    targets = np.zeros((n, spare, 2))
    order = np.zeros((n, spare), dtype=np.int64)
    for k, (m, p) in enumerate(zip(sizes, positions)):
        targets[k, :m], order[k, :m] = _snap_targets(p, gs)
    flat = _initial_cells(targets, order, sizes, gs)
    placed = flat >= 0
    taken = np.zeros((n, gs * gs), dtype=bool)
    taken[np.nonzero(placed)[0], flat[placed]] = True
    pos = np.zeros((n, vp), dtype=np.int64)  # flat cell of every vertex, 0 for padding
    pos[:, :spare] = np.where(placed, flat, 0)

    adj = np.zeros((n, vp, vp), dtype=bool)
    for k, graph in enumerate(graphs):
        adj[k, graph.edges[:, 0], graph.edges[:, 1]] = True
    adj |= adj.transpose(0, 2, 1)
    deg = adj.sum(2)
    # each vertex's neighbours in index order, then the spare row
    first = np.argsort(~adj, axis=2, kind="stable")[:, :, :max(int(deg.max()), 1)]
    nbr = np.where(np.take_along_axis(adj, first, 2), first, spare)

    cells = np.stack(np.divmod(np.arange(gs * gs), gs), axis=1)  # (row, col) of each flat cell
    span = np.abs(np.arange(gs) - cells[:, :, None])  # span[f, 0 / 1, i]: |i - row|, |i - col|
    # float64 products of small integers are exact, and BLAS makes them fast
    S = (adj.astype(np.float64) @ span[pos].reshape(n, vp, 2 * gs)
         ).astype(np.int64).reshape(n, vp, 2, gs)  # S[..., 0, :] is R, S[..., 1, :] is C

    real = np.arange(vp) < sizes[:, None]
    every = np.arange(vp)
    never = np.iinfo(np.int64).max  # the cost of moving onto an occupied cell

    def lengths(g, rv, cv):
        """Edge length R[w, row_w] + C[w, col_w] of every padded vertex w
        of graphs g, whose rows and columns are rv and cv."""
        gc = g[:, None]
        return S[gc, every, 0, rv] + S[gc, every, 1, cv]

    def shift(g, w, f):
        """Move vertex w of each graph g to flat cell f and carry the
        change into the tables of its neighbours."""
        S[g[:, None], nbr[g, w]] += (span[f] - span[pos[g, w]])[:, None]
        pos[g, w] = f

    def energy(g):
        return np.where(real[g], lengths(g, *np.divmod(pos[g], gs)), 0).sum(1) // 2

    traces = [[int(e)] for e in energy(np.arange(n))]
    running = deg.any(1)  # a graph without edges keeps its snapped cells
    for _ in range(GRID_PASSES):
        if not running.any():
            break
        improved = np.zeros(n, dtype=bool)
        visits = ((deg > 0) & running[:, None]).T.copy()  # visits[u]: graphs that visit u
        for u in range(int(sizes[running].max())):
            g = np.flatnonzero(visits[u])
            if len(g) == 0:
                continue
            a = np.arange(len(g))
            fv = pos[g]
            rv, cv = np.divmod(fv, gs)
            fu, ru, cu = fv[:, u], rv[:, u], cv[:, u]
            Su = S[g, u]
            at = (Su[:, 0, :, None] + Su[:, 1, None, :]).reshape(len(g), -1)  # u's length per cell
            cur_u = at[a, fu]

            cost = np.where(taken[g], never, at)
            to = cost.argmin(1)
            move = cost[a, to] - cur_u

            swap = ((at[a[:, None], fv] - cur_u[:, None])
                    + (S[g, :, 0, ru] + S[g, :, 1, cu] - lengths(g, rv, cv)))
            # an edge u-v keeps its length when u and v swap cells, but
            # both table reads above counted it at length 0
            swap += 2 * np.where(adj[g, u], np.abs(rv - ru[:, None]) + np.abs(cv - cu[:, None]), 0)
            swap = np.where(real[g], swap, 1)
            swap[:, u] = 1
            v = swap.argmin(1)
            best_swap = swap[a, v]

            do_move = (move < 0) & ((best_swap >= 0) | (move <= best_swap))
            do_swap = ~do_move & (best_swap < 0)
            moved = do_move | do_swap
            if not moved.any():
                continue
            taken[g[do_move], fu[do_move]] = False
            taken[g[do_move], to[do_move]] = True
            gm = g[moved]
            shift(gm, u, np.where(do_move, to, fv[a, v])[moved])
            shift(g[do_swap], v[do_swap], fu[do_swap])
            improved[gm] = True
        for k, e in zip(np.flatnonzero(running), energy(np.flatnonzero(running))):
            traces[k].append(int(e))
        running &= improved
    return [GridEmbedding(gs, cells[pos[k, :m]], trace)
            for k, (m, trace) in enumerate(zip(sizes, traces))]


def grid_embed(graph: Graph, positions: np.ndarray, grid_size: int = GRID,
               seed: int = 0) -> GridEmbedding:
    """grid_embed_many of one graph. The layout is deterministic; seed is
    accepted for call compatibility and unused."""
    return grid_embed_many([graph], [positions], grid_size)[0]


# ---------------------------------------------------------------------------
# drawing

def _check_cells(cells: np.ndarray, gs: int, what: str) -> None:
    """Raise ValueError unless the (M, 2) cells lie inside a gs x gs grid
    and are distinct, i.e. their keys row * gs + col are."""
    if len(cells) and (cells.min() < 0 or cells.max() >= gs):
        raise ValueError(f"{what} has cells outside its {gs}x{gs} grid")
    if len(np.unique(cells[:, 0] * gs + cells[:, 1])) != len(cells):
        raise ValueError(f"{what} not injective")


def draw_image(cloud: PointCloud, hierarchy: ClusterHierarchy,
               top_embed: GridEmbedding, within_embeds: list) -> MappedImage:
    """Compose the final image: cluster i owns the pixel block of its top
    cell; member j of cluster i colors one pixel of that block with its
    encoded coordinates (t + 1) / 2. Every input point lands on exactly one
    pixel; the links live in the image's scatter record, and leak_map is a
    view of it."""
    k = hierarchy.k
    if len(within_embeds) != k or len(top_embed.cells) != k:
        raise ValueError("embedding does not match hierarchy")
    _check_cells(top_embed.cells, top_embed.grid_size, "top embedding")
    gs_in = within_embeds[0].grid_size
    pixels = []
    for i, (mem, emb) in enumerate(zip(hierarchy.members, within_embeds)):
        if len(emb.cells) != len(mem):
            raise ValueError(f"cluster {i}: embedding size mismatch")
        _check_cells(emb.cells, gs_in, f"cluster {i}: embedding")
        pixels.append(gs_in * top_embed.cells[i] + emb.cells)
    rows, cols = np.concatenate(pixels).T
    return leaky_image(cloud, top_embed.grid_size * gs_in, rows, cols,
                       np.concatenate(hierarchy.members))


def map_graphdraw(cloud: PointCloud, seed: int = 0) -> MappedImage:
    """Full pipeline: cluster, then triangulate and embed the centres and
    every cluster, empty and single-point ones included, in one
    delaunay3_many and one grid_embed_many call, and draw."""
    check_cloud_size(cloud.n)
    h = balanced_kmeans(cloud, seed=seed)
    point_sets = [h.centers] + [cloud.points[mem] for mem in h.members]
    top_embed, *within_embeds = grid_embed_many(delaunay3_many(point_sets), point_sets)
    return draw_image(cloud, h, top_embed, within_embeds)
