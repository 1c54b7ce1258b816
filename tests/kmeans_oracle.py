"""Frozen copy of balanced_kmeans as it was before its Lloyd steps became
whole-array passes in cloudmap.graphdraw. Tests use it as an oracle: the
rewrite must reproduce its centres and members exactly. Do not optimize
this file.
"""

import numpy as np

from cloudmap.graphdraw import KMEANS_ITERS, ClusterHierarchy


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


def kmeans_oracle(cloud, k: int = 32, alpha: float = 1.2, seed: int = 0) -> ClusterHierarchy:
    """Lloyd iterations (kmeans++ init) followed by rebalancing, one
    boolean mask per cluster and one (N, k, 3) broadcast per step."""
    pts = cloud.points
    n = len(pts)
    if n < k:
        raise ValueError(f"need at least {k} points, got {n}")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(pts, k, rng)

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        new_assign = d2.argmin(1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for i in range(k):
            sel = assign == i
            if sel.any():
                centers[i] = pts[sel].mean(0)

    cap = int(np.ceil(alpha * n / k))
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
