"""Frozen copy of the grid-embedding local search as it was before the
incremental-cost rewrite in cloudmap.graphdraw.grid_embed. Tests use it
as an oracle: the rewrite must reproduce its cells and energy trace
exactly. Do not optimize this file.
"""

import numpy as np

from cloudmap.graphdraw import Graph, GridEmbedding


def _nearest_free_cell(occ: np.ndarray, target: tuple, gs: int) -> tuple:
    """First free cell by expanding Chebyshev rings around the rounded
    target; the winner minimizes (squared distance to target, row, col).
    Two extra rings are scanned past the first hit so ring order cannot
    misrank true euclidean distance."""
    tr, tc = target
    r0 = min(max(int(round(tr)), 0), gs - 1)
    c0 = min(max(int(round(tc)), 0), gs - 1)
    best = None
    found_at = None
    for radius in range(2 * gs + 1):
        if found_at is not None and radius > found_at + 2:
            break
        rlo, rhi = r0 - radius, r0 + radius
        for r in range(max(rlo, 0), min(rhi, gs - 1) + 1):
            if r == rlo or r == rhi:
                cols = range(max(c0 - radius, 0), min(c0 + radius, gs - 1) + 1)
            else:
                cols = [c for c in (c0 - radius, c0 + radius) if 0 <= c < gs]
            for c in cols:
                if occ[r, c] >= 0:
                    continue
                key = ((r - tr) ** 2 + (c - tc) ** 2, r, c)
                if best is None or key < best:
                    best = key
                    if found_at is None:
                        found_at = radius
        if found_at is None and best is not None:
            found_at = radius
    if best is None:
        raise RuntimeError("no free cell available")
    return best[1], best[2]


def _edge_energy(cells: np.ndarray, edges: np.ndarray) -> int:
    if len(edges) == 0:
        return 0
    return int(np.abs(cells[edges[:, 0]] - cells[edges[:, 1]]).sum())


def grid_embed_oracle(graph: Graph, positions: np.ndarray, grid_size: int = 16,
                      seed: int = 0, max_passes: int = 1000) -> GridEmbedding:
    """Injective assignment of graph vertices to grid cells.

    Vertices are projected onto their two principal components, snapped to
    free cells in descending distance-from-centroid order, then improved by
    a local search over single-vertex moves and vertex swaps that only ever
    strictly reduces the total Manhattan edge length. The per-pass energies
    are recorded in the returned embedding's energy_trace.
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
    order = sorted(range(m), key=lambda v: (-radius[v], v))
    occ = np.full((gs, gs), -1, dtype=np.int64)
    cells = np.zeros((m, 2), dtype=np.int64)
    for v in order:
        r, c = _nearest_free_cell(occ, (targets[v, 0], targets[v, 1]), gs)
        occ[r, c] = v
        cells[v] = (r, c)

    edges = graph.edges
    adj = [[] for _ in range(m)]
    for a, b in edges:
        adj[int(a)].append(int(b))
        adj[int(b)].append(int(a))
    trace = [_edge_energy(cells, edges)]
    if len(edges) == 0:
        return GridEmbedding(gs, cells, trace)

    for _ in range(max_passes):
        improved = False
        for u in range(m):
            nb = np.array(adj[u], dtype=np.int64)
            if len(nb) == 0:
                continue
            nb_cells = cells[nb]
            cur_u = int(np.abs(cells[u] - nb_cells).sum())

            free = np.argwhere(occ < 0)
            best_move = None
            if len(free):
                cost = np.abs(free[:, None, :] - nb_cells[None, :, :]).sum((1, 2))
                delta = cost - cur_u
                k = int(np.lexsort((free[:, 1], free[:, 0], delta))[0])
                if delta[k] < 0:
                    best_move = (int(delta[k]), int(free[k, 0]), int(free[k, 1]))

            # swap deltas against every other vertex, vectorized
            s1 = np.abs(cells[:, None, :] - nb_cells[None, :, :]).sum((1, 2))
            per_v = np.abs(cells[edges[:, 0]] - cells[edges[:, 1]]).sum(1)
            cost_at_u = np.zeros(m, dtype=np.int64)
            du = np.abs(cells[u] - cells).sum(1)
            np.add.at(cost_at_u, edges[:, 0], du[edges[:, 1]])
            np.add.at(cost_at_u, edges[:, 1], du[edges[:, 0]])
            cur_v = np.zeros(m, dtype=np.int64)
            np.add.at(cur_v, edges[:, 0], per_v)
            np.add.at(cur_v, edges[:, 1], per_v)
            d_uv = du[nb]
            s1w = s1.copy()
            s1w[nb] += d_uv
            cost_at_u_w = cost_at_u.copy()
            cost_at_u_w[nb] += d_uv
            swap_delta = (s1w - cur_u) + (cost_at_u_w - cur_v)
            swap_delta[u] = 1
            v = int(swap_delta.argmin())
            best_swap = (int(swap_delta[v]), v) if swap_delta[v] < 0 else None

            if best_move is not None and (best_swap is None or best_move[0] <= best_swap[0]):
                _, r, c = best_move
                occ[cells[u, 0], cells[u, 1]] = -1
                occ[r, c] = u
                cells[u] = (r, c)
                improved = True
            elif best_swap is not None:
                v = best_swap[1]
                cu, cv = cells[u].copy(), cells[v].copy()
                cells[u], cells[v] = cv, cu
                occ[cv[0], cv[1]] = u
                occ[cu[0], cu[1]] = v
                improved = True
        trace.append(_edge_energy(cells, edges))
        if not improved:
            break
    return GridEmbedding(gs, cells, trace)
