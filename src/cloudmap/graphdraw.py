"""Graph-drawing mapping: balanced KMeans into clusters, Delaunay
triangulation at two levels, and a hierarchical grid embedding that writes
point coordinates into a (grid*grid) x (grid*grid) 3-channel image.

The Delaunay edge sets are built by incremental Bowyer-Watson insertion
(3D tetrahedra, with 2D/1D fallbacks for flat or collinear inputs), run in
lockstep over all point sets of a map; a brute-force circumsphere
enumeration serves as the independent test oracle and as the fallback for
small sets the insertion cannot triangulate.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud
from .project import MappedImage, leaky_image

@dataclass(frozen=True)
class Graph:
    """Undirected graph: vertex count plus canonical (u < v) edge pairs."""
    n_vertices: int
    edges: np.ndarray  # (E, 2) int64, each row sorted, rows unique

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        e = np.sort(e, axis=1)
        if len(e):
            e = np.unique(e, axis=0)
            if (e[:, 0] == e[:, 1]).any():
                raise ValueError("self-loop in edge list")
            if e.max() >= self.n_vertices or e.min() < 0:
                raise ValueError("edge index out of range")
        object.__setattr__(self, "edges", e)


@dataclass
class ClusterHierarchy:
    centers: np.ndarray        # (K, 3)
    members: list              # K int arrays partitioning range(N)
    k: int
    top_edges: Graph | None = None    # Delaunay over centers
    within_edges: list | None = None  # K Graphs, one per cluster's members


@dataclass
class GridEmbedding:
    grid_size: int
    cells: np.ndarray            # (M, 2) int64 (row, col), injective
    energy_trace: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# balanced KMeans

def _kmeanspp_init(pts: np.ndarray, k: int, rng) -> np.ndarray:
    n = len(pts)
    centers = np.empty((k, 3))
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[i] = pts[rng.integers(n)]
        else:
            centers[i] = pts[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((pts - centers[i]) ** 2).sum(1))
    return centers


def cluster_cap(n: int, k: int, alpha: float) -> int:
    """Largest cluster balanced_kmeans allows for n points in k clusters."""
    return int(np.ceil(alpha * n / k))


def check_cloud_size(n: int, k: int = 32, alpha: float = 1.2, grid: int = 16) -> None:
    """Raise ValueError unless an n-point cloud fits map_graphdraw's grids:
    k clusters on the top grid, and clusters at their cap on the
    within-cluster grids. With the defaults that allows up to 6826 points."""
    cells = grid * grid
    if k > cells:
        raise ValueError(f"{k} clusters do not fit a {grid}x{grid} grid")
    cap = cluster_cap(n, k, alpha)
    if cap > cells:
        raise ValueError(f"graphdraw cannot map {n} points: clusters of up to {cap} "
                         f"points do not fit the {cells} cells of a {grid}x{grid} grid")


def balanced_kmeans(cloud: PointCloud, k: int = 32, alpha: float = 1.2,
                    seed: int = 0, max_iters: int = 50) -> ClusterHierarchy:
    """Lloyd iterations (kmeans++ init) followed by rebalancing.

    While any cluster exceeds the cap ceil(alpha*N/k), its member farthest
    from the cluster center is moved to the nearest center whose cluster is
    still below the cap. Centers are recomputed once after balancing, so
    every output cluster satisfies the cap.
    """
    pts = cloud.points
    n = len(pts)
    if n < k:
        raise ValueError(f"need at least {k} points, got {n}")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(pts, k, rng)

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        new_assign = d2.argmin(1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for i in range(k):
            sel = assign == i
            if sel.any():
                centers[i] = pts[sel].mean(0)

    cap = cluster_cap(n, k, alpha)
    d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
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

    for i in range(k):
        sel = assign == i
        if sel.any():
            centers[i] = pts[sel].mean(0)
    members = [np.flatnonzero(assign == i) for i in range(k)]
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


def _grown(a: np.ndarray, n: int, fill) -> np.ndarray:
    out = np.full((n,) + a.shape[1:], fill, dtype=a.dtype)
    out[:len(a)] = a
    return out


def _bowyer_watson_many(point_sets: list) -> list:
    """Incremental insertion in lockstep over point sets of one dimension d
    (2 or 3): step s inserts point s of every set that still has one.

    The simplices of all sets live in flat slot arrays: sorted vertex
    indices into the stacked coordinates (each set's super simplex, then
    its points), the owning set, circumcentre and squared radius, a live
    flag and a creation stamp. Dead and unused slots have r2 = -inf, so no
    point falls inside them; the free slots are reused first. A step finds
    every live simplex whose circumsphere contains its set's point, and
    the faces that occur once among them bound the cavity. Stamps order
    each set's simplices as a list would: survivors first, then the new
    ones in the order their faces are met. Returns each set's simplices
    as a (T, d+1) array of indices into that set.
    """
    d = point_sets[0].shape[1]
    ns = d + 1
    n_sets = len(point_sets)
    sizes = np.array([len(p) for p in point_sets])
    base = np.concatenate([[0], np.cumsum(sizes + ns)[:-1]])  # each set's first row
    coords = np.vstack([np.vstack([_super_simplex(p), p]) for p in point_sets])
    n_all = len(coords)
    face_cols = np.array([[j for j in range(ns) if j != k] for k in range(ns)])

    cap = 4 * n_all  # 3-D maps peak at about 5.4 slots per row, so they grow once
    verts = np.zeros((cap, ns), dtype=np.int64)
    owner = np.zeros(cap, dtype=np.int64)
    centers = np.zeros((cap, d))
    r2 = np.full(cap, -np.inf)
    live = np.zeros(cap, dtype=bool)
    stamp = np.zeros(cap, dtype=np.int64)
    verts[:n_sets] = base[:, None] + np.arange(ns)
    owner[:n_sets] = np.arange(n_sets)
    centers[:n_sets], r2[:n_sets] = _circumspheres(coords[verts[:n_sets]])
    live[:n_sets] = True
    next_stamp = 1  # super simplices have stamp 0
    top = n_sets  # slots at and past top were never used
    free = np.arange(n_sets, cap)

    for s in range(int(sizes.max())):
        active = s < sizes
        ip = base + ns + s  # the row each set inserts at this step
        p = coords[np.where(active, ip, 0)]
        o = owner[:top]
        dist2 = ((centers[:top] - p[o]) ** 2).sum(-1)
        bad = (dist2 < r2[:top] * _STRICT) & active[o]
        for j in np.flatnonzero(active & (np.bincount(o[bad], minlength=n_sets) == 0)):
            # numerical tie everywhere: fall back to the nearest
            # circumsphere, the oldest simplex on a tie
            cand = np.flatnonzero(live[:top] & (o == j))
            cand = cand[np.argsort(stamp[cand])]
            bad[cand[np.argmin(dist2[cand] - r2[cand])]] = True

        b = np.flatnonzero(bad)
        b = b[np.lexsort((stamp[b], o[b]))]
        faces = verts[b][:, face_cols].reshape(-1, d)
        keys = faces[:, 0]
        for k in range(1, d):
            keys = keys * n_all + faces[:, k]
        _, first, count = np.unique(keys, return_index=True, return_counts=True)
        pos = np.sort(first[count == 1])
        new_owner = o[b[pos // ns]]
        new_verts = np.concatenate([faces[pos], ip[new_owner][:, None]], axis=1)
        new_centers, new_r2 = _circumspheres(coords[new_verts])

        live[b] = False
        r2[b] = -np.inf
        free = np.concatenate([b, free])
        n_new = len(pos)
        if n_new > len(free):
            new_cap = 2 * cap + n_new
            verts, owner, stamp = (_grown(a, new_cap, 0) for a in (verts, owner, stamp))
            centers = _grown(centers, new_cap, 0.0)
            r2 = _grown(r2, new_cap, -np.inf)
            live = _grown(live, new_cap, False)
            free = np.concatenate([free, np.arange(cap, new_cap)])
            cap = new_cap
        slots, free = free[:n_new], free[n_new:]
        verts[slots] = new_verts
        owner[slots] = new_owner
        centers[slots] = new_centers
        r2[slots] = new_r2
        live[slots] = True
        stamp[slots] = next_stamp + np.arange(n_new)
        next_stamp += n_new
        top = max(top, int(slots.max()) + 1)

    o = owner[:top]
    keep = np.flatnonzero(live[:top] & (verts[:top, 0] >= base[o] + ns))
    keep = keep[np.argsort(o[keep], kind="stable")]
    local = verts[keep] - (base[o[keep]] + ns)[:, None]
    return np.split(local, np.cumsum(np.bincount(o[keep], minlength=n_sets))[:-1])


def _edges_from_simplices(simplices: np.ndarray, m: int) -> np.ndarray:
    """Sorted unique (u < v) edges of a (T, d+1) array of sorted simplices
    over m vertices."""
    a, b = np.triu_indices(simplices.shape[1], 1)
    keys = np.unique(simplices[:, a] * m + simplices[:, b])
    return np.stack(np.divmod(keys, m), axis=1)


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
        try:
            results = _bowyer_watson_many(work)
        except np.linalg.LinAlgError:
            # one set at a time, so that only the failing set moves on
            results = []
            for pts in work:
                try:
                    results.append(_bowyer_watson_many([pts])[0])
                except np.linalg.LinAlgError:
                    results.append(None)
        ran = [(i, _edges_from_simplices(simplices, len(point_sets[i])))
               for i, simplices in zip(pending, results) if simplices is not None]
        ok = _connected_many([len(point_sets[i]) for i, _ in ran], [e for _, e in ran])
        for (i, edges), good in zip(ran, ok):
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


def delaunay3_many(point_sets: list) -> list:
    """delaunay3 of every (M, 3) point set. The triangulations of each
    dimension (3-D sets and coplanar sets in their best-fit planes) run in
    one lockstep Bowyer-Watson pass."""
    prepared = []  # (m, rep, inverse, edges over unique points or None)
    tasks = {2: [], 3: []}  # dimension -> [(set index, coordinates)]
    for k, points in enumerate(point_sets):
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        m = len(pts)
        if m < 2:
            raise ValueError("need at least 2 points")
        uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        nu = len(uniq)
        rep = np.full(nu, m, dtype=np.int64)
        np.minimum.at(rep, inverse, np.arange(m))

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
    return delaunay3_many([points])[0]


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
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    m = len(pts)
    if m < 4:
        raise ValueError("oracle needs at least 4 points")
    if m > ORACLE_MAX_POINTS:
        raise ValueError(f"oracle limited to {ORACLE_MAX_POINTS} points")
    return Graph(m, _oracle_edges(pts))


# ---------------------------------------------------------------------------
# grid embedding

def _edge_energy(cells: np.ndarray, edges: np.ndarray) -> int:
    if len(edges) == 0:
        return 0
    return int(np.abs(cells[edges[:, 0]] - cells[edges[:, 1]]).sum())


def _cells(flat: np.ndarray, gs: int) -> np.ndarray:
    """(row, col) pairs of flat cell indices."""
    return np.stack(np.divmod(flat, gs), axis=1)


def _initial_cells(targets: np.ndarray, order: np.ndarray, gs: int) -> np.ndarray:
    """Snap each vertex, in the given order, to a free flat cell index.

    Around the rounded, clamped target, the first Chebyshev ring holding a
    free cell and the two rings past it are searched; the winner minimizes
    (squared distance to the target, row, col). Rows and columns of the
    free cells come in row-major order, so the first argmin breaks ties
    exactly as that key does. This is a ring-limited search, not the
    global nearest free cell: the two differ once the first hit lies five
    or more rings out.
    """
    rows, cols = np.divmod(np.arange(gs * gs), gs)
    free = np.ones(gs * gs, dtype=bool)
    flat = np.zeros(len(targets), dtype=np.int64)
    anchors = np.clip(np.rint(targets), 0, gs - 1).astype(np.int64)
    for v in order:
        tr, tc = targets[v]
        idx = np.flatnonzero(free)
        fr, fc = rows[idx], cols[idx]
        ring = np.maximum(np.abs(fr - anchors[v, 0]), np.abs(fc - anchors[v, 1]))
        d2 = (fr - tr) ** 2 + (fc - tc) ** 2
        d2[ring > ring.min() + 2] = np.inf
        f = idx[int(d2.argmin())]
        free[f] = False
        flat[v] = f
    return flat


def grid_embed(graph: Graph, positions: np.ndarray, grid_size: int = 16,
               seed: int = 0, max_passes: int = 1000) -> GridEmbedding:
    """Injective assignment of graph vertices to grid cells.

    Vertices are projected onto their two principal components, snapped to
    free cells in descending distance-from-centroid order, then improved by
    a local search over single-vertex moves and vertex swaps that only ever
    strictly reduces the total Manhattan edge length. The per-pass energies
    are recorded in the returned embedding's energy_trace. The layout is
    deterministic; seed is accepted for call compatibility and unused.

    The search keeps two integer tables up to date across moves:
    G[f, w], the Manhattan distance from flat cell f to the cell of vertex
    w, and GA = G @ A for the adjacency matrix A, so GA[f, u] is the total
    edge length vertex u would have at cell f.
    """
    m = graph.n_vertices
    gs = grid_size
    if m > gs * gs:
        raise ValueError(f"{m} vertices do not fit a {gs}x{gs} grid")
    pos = np.asarray(positions, dtype=np.float64).reshape(m, 3)

    ctr = pos - pos.mean(0)
    if m == 1:
        proj = np.zeros((1, 2))
    else:
        _, _, vt = np.linalg.svd(ctr, full_matrices=False)
        axes = vt[:2] if len(vt) >= 2 else np.vstack([vt, np.zeros((2 - len(vt), 3))])
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
    order = np.argsort(-radius, kind="stable")
    flat = _initial_cells(targets, order, gs)

    edges = graph.edges
    trace = [_edge_energy(_cells(flat, gs), edges)]
    if len(edges) == 0:
        return GridEmbedding(gs, _cells(flat, gs), trace)

    rows, cols = np.divmod(np.arange(gs * gs), gs)
    occ = np.full(gs * gs, -1, dtype=np.int64)
    occ[flat] = np.arange(m)
    G = np.abs(rows[:, None] - rows[flat]) + np.abs(cols[:, None] - cols[flat])
    A = np.zeros((m, m), dtype=np.int64)
    A[edges[:, 0], edges[:, 1]] = 1
    A[edges[:, 1], edges[:, 0]] = 1
    GA = G @ A
    nbrs = [np.flatnonzero(A[u]) for u in range(m)]
    vertices = np.arange(m)

    def place(w, f):
        """Put vertex w on flat cell f and carry the change into G and GA."""
        flat[w] = f
        occ[f] = w
        col = np.abs(rows - rows[f]) + np.abs(cols - cols[f])
        GA[:, nbrs[w]] += (col - G[:, w])[:, None]
        G[:, w] = col

    # caches, dropped on every change of layout: the free flat cells in
    # row-major order, and GA[flat, vertices], every vertex's edge length
    free = cur_v = None
    for _ in range(max_passes):
        improved = False
        for u in range(m):
            nb = nbrs[u]
            if len(nb) == 0:
                continue
            fu = flat[u]
            cur_u = GA[fu, u]

            if free is None:
                free = np.flatnonzero(occ < 0)
            best_move = None
            if len(free):
                cost = GA[free, u]
                k = int(cost.argmin())
                if cost[k] < cur_u:
                    best_move = (int(cost[k] - cur_u), int(free[k]))

            if cur_v is None:
                cur_v = GA[flat, vertices]
            swap_delta = (GA[flat, u] - cur_u) + (GA[fu] - cur_v)
            # an edge u-v keeps its length when u and v swap cells, but
            # both table reads above counted it at length 0
            swap_delta[nb] += 2 * G[fu, nb]
            swap_delta[u] = 1
            v = int(swap_delta.argmin())
            best_swap = (int(swap_delta[v]), v) if swap_delta[v] < 0 else None

            if best_move is not None and (best_swap is None or best_move[0] <= best_swap[0]):
                occ[fu] = -1
                place(u, best_move[1])
            elif best_swap is not None:
                v = best_swap[1]
                fv = flat[v]
                place(u, fv)
                place(v, fu)
            else:
                continue
            free = cur_v = None
            improved = True
        trace.append(_edge_energy(_cells(flat, gs), edges))
        if not improved:
            break
    return GridEmbedding(gs, _cells(flat, gs), trace)


# ---------------------------------------------------------------------------
# hierarchy assembly and drawing

def build_hierarchy(cloud: PointCloud, k: int = 32, alpha: float = 1.2,
                    seed: int = 0, max_iters: int = 50) -> ClusterHierarchy:
    """Cluster the cloud and attach both Delaunay levels, all triangulated
    in one delaunay3_many call."""
    h = balanced_kmeans(cloud, k=k, alpha=alpha, seed=seed, max_iters=max_iters)
    graphs = iter(delaunay3_many(
        [h.centers] + [cloud.points[mem] for mem in h.members if len(mem) >= 2]))
    h.top_edges = next(graphs)
    h.within_edges = [next(graphs) if len(mem) >= 2
                      else Graph(len(mem), np.empty((0, 2), dtype=np.int64))
                      for mem in h.members]
    return h


def draw_image(cloud: PointCloud, hierarchy: ClusterHierarchy,
               top_embed: GridEmbedding, within_embeds: list) -> MappedImage:
    """Compose the final image: cluster i owns the pixel block of its top
    cell; member j of cluster i colors one pixel of that block with its
    encoded coordinates (t + 1) / 2. Every input point lands on exactly one
    pixel; the links are recorded in leak_map."""
    k = hierarchy.k
    if len(within_embeds) != k or len(top_embed.cells) != k:
        raise ValueError("embedding does not match hierarchy")
    if len(np.unique(top_embed.cells, axis=0)) != k:
        raise ValueError("top embedding not injective")
    gs_in = within_embeds[0].grid_size
    pixels = []
    for i, (mem, emb) in enumerate(zip(hierarchy.members, within_embeds)):
        if len(emb.cells) != len(mem):
            raise ValueError(f"cluster {i}: embedding size mismatch")
        if len(mem) and len(np.unique(emb.cells, axis=0)) != len(mem):
            raise ValueError(f"cluster {i}: embedding not injective")
        pixels.append(gs_in * top_embed.cells[i] + emb.cells)
    rows, cols = np.concatenate(pixels).T
    return leaky_image(cloud, top_embed.grid_size * gs_in, rows, cols,
                       np.concatenate(hierarchy.members))


def map_graphdraw(cloud: PointCloud, k: int = 32, alpha: float = 1.2,
                  grid: int = 16, seed: int = 0, max_iters: int = 50) -> MappedImage:
    """Full pipeline: cluster, triangulate both levels, embed, draw."""
    check_cloud_size(cloud.n, k=k, alpha=alpha, grid=grid)
    h = build_hierarchy(cloud, k=k, alpha=alpha, seed=seed, max_iters=max_iters)
    top_embed = grid_embed(h.top_edges, h.centers, grid_size=grid, seed=seed)
    within_embeds = []
    for i, mem in enumerate(h.members):
        if len(mem) == 0:
            within_embeds.append(GridEmbedding(grid, np.empty((0, 2), dtype=np.int64)))
            continue
        within_embeds.append(
            grid_embed(h.within_edges[i], cloud.points[mem], grid_size=grid, seed=seed + i + 1))
    return draw_image(cloud, h, top_embed, within_embeds)


def write_edge_list(graph: Graph, path) -> None:
    """Debug dump, one "u v" pair per line."""
    with open(path, "w") as fh:
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")
