"""Frozen copy of map_graphdraw's assembly as it was before every cluster
went down one path: the centres and the clusters of at least 2 points were
triangulated, smaller clusters got an edgeless placeholder graph, the
non-empty clusters were embedded and empty ones got a placeholder
embedding. Tests use it as an oracle: map_graphdraw must reproduce its
image and leak map exactly. Do not simplify this file.

The lockstep delaunay3_many and grid_embed_many give each set the result
it gets alone, so the copy triangulates and embeds one set at a time with
the frozen copies of those steps; it shares only balanced_kmeans and
draw_image with the package. Like the package, it gives a sliver cluster
that no jittered attempt triangulates the enumerated Delaunay edges.
"""

import numpy as np

from cloudmap.graphdraw import (GRID, Graph, GridEmbedding, balanced_kmeans,
                                check_cloud_size, draw_image)

from bowyer_watson_oracle import delaunay3_oracle
from grid_embed_oracle import grid_embed_oracle


def build_hierarchy_oracle(cloud, seed=0):
    """The clustering, the Delaunay graph of its centres and one graph per
    cluster."""
    h = balanced_kmeans(cloud, seed=seed)
    graphs = iter([delaunay3_oracle(pts, brute_force=True) for pts in
                   [h.centers] + [cloud.points[mem] for mem in h.members if len(mem) >= 2]])
    top_edges = next(graphs)
    within_edges = [next(graphs) if len(mem) >= 2
                    else Graph(len(mem), np.empty((0, 2), dtype=np.int64))
                    for mem in h.members]
    return h, top_edges, within_edges


def map_graphdraw_oracle(cloud, seed=0):
    """Cluster, triangulate both levels, embed the top graph and every
    non-empty cluster's graph, draw."""
    check_cloud_size(cloud.n)
    h, top_edges, within_edges = build_hierarchy_oracle(cloud, seed=seed)
    filled = [i for i, mem in enumerate(h.members) if len(mem)]
    embeds = iter([grid_embed_oracle(g, pos, grid_size=GRID) for g, pos in zip(
        [top_edges] + [within_edges[i] for i in filled],
        [h.centers] + [cloud.points[h.members[i]] for i in filled])])
    top_embed = next(embeds)
    within_embeds = [next(embeds) if len(mem)
                     else GridEmbedding(GRID, np.empty((0, 2), dtype=np.int64))
                     for mem in h.members]
    return draw_image(cloud, h, top_embed, within_embeds)
