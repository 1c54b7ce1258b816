"""Frozen copy of how sparse images were built and pooled before the
sparse mappers kept a scatter record: each mapper filled a zero float64
buffer, a leak mapper listed its links once per channel, and the
pipeline sum-pooled the buffer with f x f strided passes. Tests use it as
an oracle: record-built images, their leak maps and their net inputs must
equal it bit for bit. Do not simplify this file.

It shares with the package only the steps this copy does not cover: the
pixel floor and the encode of project.py, and graphdraw's clustering,
triangulation and grid embedding.
"""

import numpy as np

from cloudmap.graphdraw import (GRID, balanced_kmeans, check_cloud_size,
                                delaunay3_many, grid_embed_many)
from cloudmap.project import SIZE, _pixel_coords, encode


def basic_dense(cloud):
    """basic_project's occupancy buffer."""
    rows, cols = _pixel_coords(cloud.points, SIZE)
    data = np.zeros((SIZE, SIZE, 1), dtype=np.float64)
    data[rows, cols, 0] = 1.0
    return data


def leaky_dense(cloud, size, rows, cols, pts):
    """leaky_image's buffer and its (row, col, point, channel) links."""
    data = np.zeros((size, size, 3), dtype=np.float64)
    data[rows, cols] = encode(cloud.points[pts])
    links = np.column_stack([np.repeat(rows, 3), np.repeat(cols, 3),
                             np.repeat(pts, 3), np.tile(np.arange(3), len(pts))])
    return data, links


def basic_leaky_dense(cloud):
    """basic_project_leaky: the last writer of each pixel wins."""
    rows, cols = _pixel_coords(cloud.points, SIZE)
    _, first = np.unique((rows * SIZE + cols)[::-1], return_index=True)
    winners = cloud.n - 1 - first
    return leaky_dense(cloud, SIZE, rows[winners], cols[winners], winners)


def graphdraw_dense(cloud, seed):
    """map_graphdraw: member j of cluster i lights pixel
    GRID * top cell of i + within cell of j, in cluster order."""
    check_cloud_size(cloud.n)
    h = balanced_kmeans(cloud, seed=seed)
    point_sets = [h.centers] + [cloud.points[mem] for mem in h.members]
    top, *within = grid_embed_many(delaunay3_many(point_sets), point_sets)
    pixels = [GRID * top.cells[i] + emb.cells for i, emb in enumerate(within)]
    rows, cols = np.concatenate(pixels).T
    return leaky_dense(cloud, GRID * GRID, rows, cols, np.concatenate(h.members))


def window_sum(x, factor):
    """The pipeline's sparse net input: the factor x factor window sums,
    added as strided slices in row-major (i, j) order."""
    h, w, c = x.shape
    out = np.zeros((-(-h // factor), -(-w // factor), c))
    for i in range(factor):
        for j in range(factor):
            s = x[i::factor, j::factor]
            out[:s.shape[0], :s.shape[1]] += s
    return out
