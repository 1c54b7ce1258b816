import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudmap import graphdraw
from cloudmap.cloud import SYNTH_KINDS, PointCloud, augment, synth_shape
from cloudmap.graphdraw import (CLUSTERS, ClusterHierarchy, Graph,
                                GridEmbedding, balanced_kmeans,
                                check_cloud_size, delaunay3, delaunay3_many,
                                delaunay_oracle, draw_image, grid_embed,
                                grid_embed_many, map_graphdraw)
from cloudmap.project import GradPath

from bowyer_watson_oracle import bowyer_watson_oracle, delaunay3_oracle
from graphdraw_map_oracle import map_graphdraw_oracle
from grid_embed_oracle import grid_embed_oracle
from kmeans_oracle import kmeans_oracle


def edge_set(graph):
    return set(map(tuple, graph.edges))


# ---------------------------------------------------------------------------
# balanced kmeans

def test_cap_n64():
    cloud = PointCloud(np.random.default_rng(0).uniform(-1, 1, (64, 3)))
    h = balanced_kmeans(cloud, k=32, alpha=1.2, seed=0)
    assert max(len(m) for m in h.members) <= 3  # ceil(1.2*64/32)


def test_members_partition():
    cloud = PointCloud(np.random.default_rng(1).uniform(-1, 1, (300, 3)))
    h = balanced_kmeans(cloud, k=32, seed=0)
    allidx = np.sort(np.concatenate(h.members))
    assert np.array_equal(allidx, np.arange(300))


def test_separated_blobs_recovered():
    # 32 tight blobs on a well-spread shell; clustering must equal the
    # brute-force nearest-center assignment
    rng = np.random.default_rng(7)
    centers = rng.normal(0, 1, (32, 3))
    centers = 10.0 * centers / np.linalg.norm(centers, axis=1, keepdims=True)
    centers += rng.uniform(-1, 1, (32, 3))
    pts = np.concatenate([c + 0.01 * rng.normal(0, 1, (4, 3)) for c in centers])
    h = balanced_kmeans(PointCloud(pts), k=32, seed=3)
    d2 = ((pts[:, None, :] - h.centers[None]) ** 2).sum(-1)
    nearest = d2.argmin(1)
    for i, mem in enumerate(h.members):
        assert len(mem) == 4
        assert np.all(nearest[mem] == i)
        assert np.array_equal(np.sort(mem), mem[np.argsort(mem)])
        assert mem.max() - mem.min() == 3  # one blob = 4 consecutive points


def test_kmeans_deterministic():
    cloud = PointCloud(np.random.default_rng(2).uniform(-1, 1, (200, 3)))
    a = balanced_kmeans(cloud, seed=5)
    b = balanced_kmeans(cloud, seed=5)
    for ma, mb in zip(a.members, b.members):
        assert np.array_equal(ma, mb)


def test_kmeans_rejects_small_cloud():
    with pytest.raises(ValueError):
        balanced_kmeans(PointCloud(np.zeros((10, 3))), k=32)


def assert_same_clusters(got, want):
    assert np.array_equal(got.centers, want.centers)
    assert got.k == want.k and len(got.members) == len(want.members)
    for a, b in zip(got.members, want.members):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def kmeans_cloud(seed, n, levels):
    """n points uniform in [-1, 1]^3, or on a grid of `levels` values per
    axis, which repeats points and ties distances in argmin."""
    rng = np.random.default_rng(seed)
    if levels is None:
        return PointCloud(rng.uniform(-1, 1, (n, 3)))
    return PointCloud(rng.integers(0, levels, (n, 3)) / levels)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 260), st.sampled_from((None, 1, 2, 3)),
       st.floats(1.0, 2.0), st.integers(0, 2**32 - 1))
def test_kmeans_matches_frozen_oracle(k, extra, levels, alpha, seed):
    cloud = kmeans_cloud(seed, k + extra, levels)
    assert_same_clusters(balanced_kmeans(cloud, k=k, alpha=alpha, seed=seed),
                         kmeans_oracle(cloud, k=k, alpha=alpha, seed=seed))


# 24 points on the x axis whose cluster 5 empties at the second Lloyd step
# (k = 6, seed 11640) and stays empty when no cluster exceeds the cap
LLOYD_EMPTIES = [1.9, 2.2, 19.5, 19.5, 19.5, 22.2, 22.6, 22.6, 23.3, 23.3, 24.1, 24.1,
                 24.1, 26.2, 27.8, 28.4, 42.4, 48.9, 49.4, 55.6, 55.6, 57.0, 57.0, 58.2]


@pytest.mark.parametrize("alpha", [1.0, 6.0])
def test_kmeans_matches_oracle_when_a_cluster_empties(monkeypatch, alpha):
    pts = np.zeros((24, 3))
    pts[:, 0] = LLOYD_EMPTIES
    cloud = PointCloud(pts)
    empties = []
    recentre = graphdraw._recentre

    def spy(pts, assign, centers):
        empties.append(int((np.bincount(assign, minlength=len(centers)) == 0).sum()))
        return recentre(pts, assign, centers)

    monkeypatch.setattr(graphdraw, "_recentre", spy)
    got = balanced_kmeans(cloud, k=6, alpha=alpha, seed=11640)
    assert empties[0] == 0 and empties[1] == 1  # emptied by a Lloyd step
    assert_same_clusters(got, kmeans_oracle(cloud, k=6, alpha=alpha, seed=11640))
    assert (len(got.members[5]) == 0) == (alpha == 6.0)


@pytest.mark.parametrize("name, pts, k", [
    ("duplicates", np.repeat(np.random.default_rng(3).uniform(-1, 1, (20, 3)), 5, axis=0), 32),
    ("n == k", np.random.default_rng(4).uniform(-1, 1, (32, 3)), 32),
    ("coincident", np.full((50, 3), 0.25), 32),  # kmeans++ takes its total <= 0 branch
    # the third centre repeats a site, so its cluster is empty from the first step
    ("two sites", np.repeat([[0.0, 0, 0], [1, 1, 1]], 3, axis=0), 3),
])
def test_kmeans_matches_oracle_on_edge_cases(name, pts, k):
    cloud = PointCloud(pts)
    for seed in range(3):
        assert_same_clusters(balanced_kmeans(cloud, k=k, seed=seed),
                             kmeans_oracle(cloud, k=k, seed=seed))


# k and alpha break check_int and check_real first; an alpha whose cap
# cannot hold the cloud breaks the cap rule
@pytest.mark.parametrize("kw, message", [
    (dict(k=0), "^k must be an integer >= 1, got 0$"),
    (dict(k=-3), "^k must be an integer >= 1, got -3$"),
    (dict(alpha=float("nan")), "^alpha must be finite, got nan$"),
    (dict(alpha=float("inf")), "^alpha must be finite, got inf$"),
    *[(dict(alpha=a), rf"n=256 .*k=32 .*alpha={a}") for a in (0.5, 0.0, -1.0)],
])
def test_kmeans_rejects_bad_k_or_alpha_before_lloyd(monkeypatch, kw, message):
    def no_init(*a):
        raise AssertionError("kmeans++ ran")

    monkeypatch.setattr(graphdraw, "_kmeanspp_init", no_init)
    cloud = PointCloud(np.random.default_rng(5).uniform(-1, 1, (256, 3)))
    with pytest.raises(ValueError, match=message):
        balanced_kmeans(cloud, seed=0, **kw)


def test_kmeans_accepts_the_smallest_alpha_that_fits():
    # 256 points in 32 clusters fit only at a cap of 8: ceil(alpha * 8) >= 8
    cloud = PointCloud(np.random.default_rng(6).uniform(-1, 1, (256, 3)))
    h = balanced_kmeans(cloud, k=32, alpha=0.88, seed=0)
    assert [len(m) for m in h.members] == [8] * 32
    with pytest.raises(ValueError, match="alpha=0.875"):
        balanced_kmeans(cloud, k=32, alpha=0.875, seed=0)


def test_cap_property_random_clouds():
    for s in range(20):
        n = int(np.random.default_rng([20, s]).integers(64, 2049))
        pts = np.random.default_rng([21, s]).uniform(-1, 1, (n, 3))
        h = balanced_kmeans(PointCloud(pts), k=32, alpha=1.2, seed=s)
        cap = int(np.ceil(1.2 * n / 32))
        assert max(len(m) for m in h.members) <= cap


# ---------------------------------------------------------------------------
# delaunay

def test_graph_canonicalizes_edges():
    g = Graph(4, np.array([[2, 0], [0, 2], [1, 3]]))
    assert edge_set(g) == {(0, 2), (1, 3)}


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(0, 200), st.integers(0, 2**32 - 1))
def test_graph_edges_equal_row_unique(n, n_edges, seed):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, n_edges)
    v = (u + rng.integers(1, n, n_edges)) % n  # never u
    e = np.stack([u, v], axis=1)
    e = np.concatenate([e, e[:n_edges // 3, ::-1], e[:n_edges // 4]])  # reversed, repeated
    e = e[rng.permutation(len(e))]
    got = Graph(n, e).edges
    want = np.unique(np.sort(e, 1), axis=0).reshape(-1, 2)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("edges, match", [
    ([[1, 1]], "self-loop"),
    ([[0, 1], [2, 2]], "self-loop"),
    ([[0, 1], [3, 1]], "out of range"),
    ([[0, 1], [-1, 2]], "out of range"),
    ([[0, 1], [0, 1], [1, 0], [2, 5]], "out of range"),
])
def test_graph_rejects_bad_edges(edges, match):
    with pytest.raises(ValueError, match=match):
        Graph(3, np.array(edges))


def test_delaunay_rejects_single_point():
    with pytest.raises(ValueError):
        delaunay3(np.zeros((1, 3)))


def test_delaunay_two_points():
    g = delaunay3(np.array([[0.0, 0, 0], [1, 1, 1]]))
    assert edge_set(g) == {(0, 1)}


def test_delaunay_three_points():
    g = delaunay3(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0.5]]))
    assert edge_set(g) == {(0, 1), (0, 2), (1, 2)}


def test_delaunay_regular_tetrahedron():
    pts = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    g = delaunay3(pts)
    assert len(g.edges) == 6


def test_delaunay_tetrahedron_plus_centroid():
    pts = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1],
                    [0, 0, 0]])
    got = edge_set(delaunay3(pts))
    want = edge_set(delaunay_oracle(pts))
    assert got == want
    assert all((i, 4) in got for i in range(4))  # centroid reaches every corner


def test_delaunay_matches_oracle_m15():
    for s in range(50):
        pts = np.random.default_rng([30, s]).uniform(-1, 1, (15, 3))
        assert edge_set(delaunay3(pts)) == edge_set(delaunay_oracle(pts))


def test_delaunay_coplanar_fallback():
    pts = np.array([[0.0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1], [0.5, 0.4, 1]])
    g = delaunay3(pts)
    deg = np.bincount(g.edges.ravel(), minlength=5)
    assert np.all(deg >= 2)  # a 2D triangulation touches every vertex


def test_delaunay_collinear_chain():
    pts = np.array([[i * 1.0, i * 2.0, -i * 1.0] for i in (3, 0, 1, 4, 2)])
    g = delaunay3(pts)
    # chain in sorted order along the line: 1-2-4-0-3
    assert edge_set(g) == {(1, 2), (2, 4), (0, 4), (0, 3)}


def test_delaunay_duplicate_points_attach():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]])
    g = delaunay3(pts)
    assert (1, 4) in edge_set(g)  # duplicate rides its representative
    deg = np.bincount(g.edges.ravel(), minlength=5)
    assert np.all(deg >= 1)


def test_delaunay_cospherical_survives():
    # all points on the unit sphere (globally degenerate)
    rng = np.random.default_rng(4)
    pts = rng.normal(0, 1, (30, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    g = delaunay3(pts)
    deg = np.bincount(g.edges.ravel(), minlength=30)
    assert np.all(deg >= 3)


def map_point_sets(cloud, seed):
    """The point sets map_graphdraw triangulates and embeds: the cluster
    centres, then every cluster, empty and single-point ones included."""
    h = balanced_kmeans(cloud, seed=seed)
    return [h.centers] + [cloud.points[mem] for mem in h.members]


def retry_sets():
    """Thin sets whose first two Bowyer-Watson attempts fail validation and
    whose third, jittered by 1e-7 of the span, succeeds: a 3-D slab and a
    coplanar strip."""
    slab = np.random.default_rng([7, 177]).uniform(-1, 1, (30, 3))
    slab[:, 2] *= 1.5e-5
    strip = np.random.default_rng([7, 32]).uniform(-1, 1, (30, 3))
    strip[:, 1] *= 5e-6
    strip[:, 2] = 0.0
    return [slab, strip]


def degenerate_sets():
    """Coplanar cube faces, collinear chains, duplicate points and the
    cospherical set of test_delaunay_cospherical_survives."""
    sets = []
    cube = synth_shape("cube", 1024, seed=[70, 1]).points
    for axis in range(3):
        face = cube[cube[:, axis] == cube[:, axis].max()]
        sets += [face[:25], face[:7]]
    rng = np.random.default_rng(71)
    direction = rng.normal(size=3)
    sets.append(rng.normal(size=3) + rng.uniform(-1, 1, (9, 1)) * direction)
    sets.append(np.array([[i * 1.0, i * 2.0, -i * 1.0] for i in (3, 0, 1, 4, 2)]))
    general = rng.uniform(-1, 1, (12, 3))
    sets.append(np.vstack([general, general[[0, 3, 3]]]))
    sets.append(np.repeat(general[:2], 3, axis=0))
    sphere = np.random.default_rng(4).normal(0, 1, (30, 3))
    sets.append(sphere / np.linalg.norm(sphere, axis=1, keepdims=True))
    return sets


@pytest.mark.parametrize("n,seeds", [(256, (0, 1, 2)), (1024, (0, 1))])
def test_delaunay_matches_frozen_copy_on_map_sets(n, seeds):
    for ci, kind in enumerate(SYNTH_KINDS):
        for s in seeds:
            cloud = synth_shape(kind, n, seed=[s, 1, ci, 0])
            sets = map_point_sets(cloud, s)
            for i, (pts, g) in enumerate(zip(sets, delaunay3_many(sets))):
                if len(pts) < 2:
                    assert g.n_vertices == len(pts) and len(g.edges) == 0, (kind, n, s, i)
                else:
                    assert np.array_equal(g.edges, delaunay3_oracle(pts).edges), (kind, n, s, i)


def test_delaunay_matches_frozen_copy_on_degenerate_sets():
    sets = degenerate_sets() + retry_sets()
    for i, (pts, g) in enumerate(zip(sets, delaunay3_many(sets))):
        assert np.array_equal(g.edges, delaunay3_oracle(pts).edges), i
        assert np.array_equal(g.edges, delaunay3(pts).edges), i


def test_retry_sets_need_the_third_attempt(monkeypatch):
    real = graphdraw._bowyer_watson_many
    batches = []
    monkeypatch.setattr(graphdraw, "_bowyer_watson_many",
                        lambda sets: batches.append(len(sets)) or real(sets))
    for pts in retry_sets():
        attempts = []
        want = delaunay3_oracle(pts, attempts)
        batches.clear()
        got = delaunay3(pts)
        assert attempts == [0, 1, 2]
        assert batches == [1, 1, 1]
        assert np.array_equal(got.edges, want.edges)


def test_lockstep_simplices_match_frozen_copy():
    # Repeated points lie inside no circumsphere, so their insertion takes
    # the nearest-circumsphere fallback; rounded coordinates make its
    # candidates tie, which creation order has to break as the list did.
    # The rows of all sets interleave, so the sets also run reversed and
    # split across two calls, which interleave them differently.
    for d in (2, 3):
        rng = np.random.default_rng([72, d])
        sets = [rng.uniform(-1, 1, (int(rng.integers(d + 1, 40)), d)) for _ in range(12)]
        sets.append(np.array(list(np.ndindex(*(3,) * d)), dtype=float))  # cospherical cells
        for _ in range(12):
            pts = np.round(2 * rng.uniform(-1, 1, (int(rng.integers(d + 1, 20)), d))) / 2
            sets.append(np.vstack([pts, pts[rng.integers(0, len(pts), 4)]]))
        cases = [(i, pts, set(bowyer_watson_oracle(pts))) for i, pts in enumerate(sets)]
        half = len(cases) // 2
        for batch in (cases, cases[::-1], cases[:half], cases[half:]):
            got = graphdraw._bowyer_watson_many([pts for _, pts, _ in batch])
            for (i, _, want), simplices in zip(batch, got):
                assert set(map(tuple, simplices.tolist())) == want, (d, i)


def test_failed_small_set_falls_back_to_oracle(monkeypatch):
    empty = lambda work: [np.empty((0, 4), dtype=np.int64) for _ in work]
    monkeypatch.setattr(graphdraw, "_bowyer_watson_many", empty)
    pts = np.random.default_rng(74).uniform(-1, 1, (12, 3))
    assert np.array_equal(delaunay3(pts).edges, delaunay_oracle(pts).edges)
    with pytest.raises(RuntimeError, match="41 points after jitter retries; "
                                           "the brute-force fallback takes at most 40"):
        delaunay3(np.random.default_rng(75).uniform(-1, 1, (41, 3)))


@pytest.mark.parametrize("kind,n,seed,cluster", [("cylinder", 256, 51, 18),
                                                 ("cube", 512, 57, 12)])
def test_sliver_cluster_maps_through_oracle(kind, n, seed, cluster):
    # the frozen copy finds no interior simplex for this cluster on any attempt
    cloud = synth_shape(kind, n, seed=[seed, 1, SYNTH_KINDS.index(kind), 0])
    sets = map_point_sets(cloud, seed)
    pts = sets[1 + cluster]
    with pytest.raises(RuntimeError, match="after jitter retries"):
        delaunay3_oracle(pts)
    assert np.array_equal(delaunay3_many(sets)[1 + cluster].edges, delaunay_oracle(pts).edges)
    img = map_graphdraw(cloud, seed=seed)
    assert int((img.data.sum(2) > 0).sum()) == n


def point_set(kind, seed, m):
    rng = np.random.default_rng(seed)
    if kind == "pair":
        return rng.uniform(-1, 1, (2, 3))
    if kind == "triple":
        return rng.uniform(-1, 1, (3, 3))
    if kind == "collinear":
        return rng.normal(size=3) + rng.uniform(-1, 1, (m, 1)) * rng.normal(size=3)
    if kind == "coplanar":
        a, b = np.linalg.qr(rng.normal(size=(3, 2)))[0].T
        uv = rng.uniform(-1, 1, (m, 2))
        return rng.normal(size=3) + uv[:, :1] * a + uv[:, 1:] * b
    pts = rng.uniform(-1, 1, (m, 3))
    if kind == "duplicate":
        pts = np.vstack([pts, pts[rng.integers(0, m, 3)]])
    return pts


SET_KINDS = ("pair", "triple", "collinear", "coplanar", "duplicate", "general")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SET_KINDS), st.integers(0, 2**32 - 1),
                          st.integers(4, 30)), min_size=1, max_size=6))
def test_batch_equals_one_set_at_a_time(specs):
    sets = [point_set(*spec) for spec in specs]
    alone = [delaunay3(pts) for pts in sets]
    for batch, order in ((delaunay3_many(sets), alone),
                         (delaunay3_many(sets[::-1]), alone[::-1])):
        assert len(batch) == len(order)
        for got, want in zip(batch, order):
            assert got.n_vertices == want.n_vertices
            assert np.array_equal(got.edges, want.edges)


def test_oracle_rejects_big_inputs():
    with pytest.raises(ValueError):
        delaunay_oracle(np.zeros((41, 3)))


def test_oracle_tetrahedron():
    pts = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    assert len(delaunay_oracle(pts).edges) == 6


def with_value(shape, index, value):
    pts = np.random.default_rng(64).uniform(-1, 1, shape)
    pts[index] = value
    return pts


BAD_POINT_SETS = {
    "12x2": (np.zeros((12, 2)), r"expected an \(M, 3\) array, got shape \(12, 2\)"),
    "flat": (np.zeros(12), r"expected an \(M, 3\) array, got shape \(12,\)"),
    "3-d": (np.zeros((2, 2, 3)), r"expected an \(M, 3\) array, got shape \(2, 2, 3\)"),
    "nan": (with_value((8, 3), (5, 1), np.nan), "coordinates must be finite"),
    "inf": (with_value((8, 3), (0, 2), -np.inf), "coordinates must be finite"),
}


@pytest.mark.parametrize("case", BAD_POINT_SETS)
def test_point_set_entries_reject_bad_sets_before_any_svd(monkeypatch, case):
    # a wrong shape was reshaped into made-up points, and a non-finite
    # coordinate ended in numpy's SVD error or a graph leaving it out
    def no_svd(*args):
        raise AssertionError("an SVD ran")

    monkeypatch.setattr(graphdraw, "_principal_frame", no_svd)
    points, message = BAD_POINT_SETS[case]
    good = np.random.default_rng(65).uniform(-1, 1, (8, 3))
    graph = Graph(len(points), np.empty((0, 2), dtype=np.int64))
    calls = {
        0: [lambda: delaunay3(points), lambda: delaunay_oracle(points),
            lambda: grid_embed(graph, points)],
        1: [lambda: delaunay3_many([good, points]),
            lambda: grid_embed_many([Graph(8, [[0, 1]]), graph], [good, points])],
    }
    for k, entries in calls.items():
        for call in entries:
            with pytest.raises(ValueError, match=f"^point set {k}: {message}$"):
                call()


def test_grid_embed_needs_one_position_per_vertex():
    graph = Graph(2, [[0, 1]])
    for positions in (np.zeros((3, 3)), np.zeros((1, 3))):
        with pytest.raises(ValueError, match=rf"^point set 0: {len(positions)} positions "
                                             r"for 2 vertices$"):
            grid_embed(graph, positions)


def test_point_set_entries_take_empty_sets():
    empty = np.zeros((0, 3))
    assert delaunay3_many([empty])[0].n_vertices == 0
    emb = grid_embed(Graph(0, np.empty((0, 2), dtype=np.int64)), empty)
    assert emb.cells.shape == (0, 2)


# ---------------------------------------------------------------------------
# grid embedding

def rand_graph(m, seed):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1, 1, (m, 3))
    return delaunay3(pos), pos


def test_grid_embed_injective():
    g, pos = rand_graph(40, 0)
    emb = grid_embed(g, pos, grid_size=16, seed=0)
    assert len(np.unique(emb.cells, axis=0)) == 40
    assert emb.cells.min() >= 0 and emb.cells.max() < 16


def test_grid_embed_two_vertices_optimal():
    g = Graph(2, np.array([[0, 1]]))
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    emb = grid_embed(g, pos, grid_size=16, seed=0)
    dist = np.abs(emb.cells[0] - emb.cells[1]).sum()
    assert dist == 1


def test_grid_embed_full_grid_bijection():
    rng = np.random.default_rng(5)
    pos = rng.uniform(-1, 1, (256, 3))
    g = Graph(256, np.array([[i, (i + 1) % 256] for i in range(256)]))
    emb = grid_embed(g, pos, grid_size=16, seed=0)
    assert len(np.unique(emb.cells, axis=0)) == 256


def test_grid_embed_energy_monotone():
    for s in range(10):
        m = int(np.random.default_rng([40, s]).integers(5, 41))
        g, pos = rand_graph(m, [41, s])
        emb = grid_embed(g, pos, grid_size=16, seed=s)
        trace = emb.energy_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))


def test_grid_embed_path_of_collinear_points():
    pos = np.array([[i * 1.0, 0, 0] for i in range(5)])
    g = Graph(5, np.array([[i, i + 1] for i in range(4)]))
    emb = grid_embed(g, pos, grid_size=16, seed=0)
    energy = sum(np.abs(emb.cells[a] - emb.cells[b]).sum() for a, b in g.edges)
    # local search must improve on the spread-out initial snap and keep the
    # chain ordered along one axis
    assert energy < emb.energy_trace[0]
    cols = emb.cells[:, 1]
    assert np.all(np.diff(cols) >= 0) or np.all(np.diff(cols) <= 0)


def test_grid_embed_rejects_overfull():
    g = Graph(5, np.empty((0, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        grid_embed(g, np.zeros((5, 3)), grid_size=2)


def test_grid_embed_deterministic():
    g, pos = rand_graph(30, 9)
    a = grid_embed(g, pos, seed=1)
    b = grid_embed(g, pos, seed=1)
    assert np.array_equal(a.cells, b.cells)


def oracle_cases():
    """(name, graph, positions, grid_size) for the equivalence test: the
    top-level and within-cluster graphs of synthetic clouds of every kind,
    plus small and degenerate graphs on 2x2, 4x4 and 16x16 grids."""
    cases = []
    for n in (256, 1024):
        for ci, kind in enumerate(SYNTH_KINDS):
            c = synth_shape(kind, n, seed=[61, n, ci])
            sets = map_point_sets(c, ci)
            graphs = delaunay3_many(sets)
            cases.append((f"{kind}{n} top", graphs[0], sets[0], 16))
            cases += [(f"{kind}{n} cluster {i}", g, pts, 16)
                      for i, (g, pts) in enumerate(zip(graphs[1:], sets[1:]))
                      if len(pts)]
    rng = np.random.default_rng(62)
    empty = np.empty((0, 2), dtype=np.int64)
    cases.append(("m=1", Graph(1, empty), rng.uniform(-1, 1, (1, 3)), 16))
    cases.append(("no edges", Graph(12, empty), rng.uniform(-1, 1, (12, 3)), 16))
    pos = rng.uniform(-1, 1, (20, 3))
    cases.append(("isolated vertices", Graph(20, delaunay3(pos[:12]).edges), pos, 16))
    cases.append(("collinear path", Graph(6, [[i, i + 1] for i in range(5)]),
                  np.array([[i * 1.0, 0, 0] for i in range(6)]), 16))
    cases.append(("coincident", Graph(5, [[0, 1], [1, 2], [3, 4]]), np.zeros((5, 3)), 4))
    for gs in (2, 4):
        for m in sorted({2, 3, gs * gs - 1, gs * gs}):
            for s in range(3):
                pos = np.random.default_rng([63, gs, m, s]).uniform(-1, 1, (m, 3))
                g = delaunay3(pos) if m >= 2 else Graph(m, empty)
                cases.append((f"gs={gs} m={m} seed={s}", g, pos, gs))
    ring = Graph(64, [[i, (i + 1) % 64] for i in range(64)])
    cases.append(("full 8x8 ring", ring, rng.uniform(-1, 1, (64, 3)), 8))
    return cases


def test_grid_embed_matches_frozen_oracle():
    cases = oracle_cases()
    assert len(cases) >= 200
    wants = {}
    for name, g, pos, gs in cases:
        got = grid_embed(g, pos, grid_size=gs)
        want = wants[name] = grid_embed_oracle(g, pos, grid_size=gs)
        assert np.array_equal(got.cells, want.cells), name
        assert got.energy_trace == want.energy_trace, name
    # each grid size's cases again, all in one lockstep call
    for gs in sorted({case[3] for case in cases}):
        names, graphs, positions = zip(*[case[:3] for case in cases if case[3] == gs])
        for name, got in zip(names, grid_embed_many(graphs, positions, grid_size=gs)):
            assert np.array_equal(got.cells, wants[name].cells), name
            assert got.energy_trace == wants[name].energy_trace, name


GRAPH_KINDS = ("single", "no edges", "isolated", "coincident", "full", "delaunay")


def embed_case(kind, seed, m, gs):
    """(graph, positions) of one kind on a gs x gs grid; m is capped to fit."""
    rng = np.random.default_rng(seed)
    m = 1 if kind == "single" else gs * gs if kind == "full" else min(m, gs * gs)
    pos = rng.uniform(-1, 1, (m, 3))
    if kind == "coincident":  # two stacks of identical points
        pos = np.repeat(rng.uniform(-1, 1, (2, 3)), [m // 2, m - m // 2], axis=0)
    if m == 1 or kind == "no edges":
        return Graph(m, np.empty((0, 2), dtype=np.int64)), pos
    if kind == "isolated":  # the second half of the vertices has no edges
        return Graph(m, delaunay3(pos[:max(2, m // 2)]).edges), pos
    return delaunay3(pos), pos


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((2, 4, 8)),
       st.lists(st.tuples(st.sampled_from(GRAPH_KINDS), st.integers(0, 2**32 - 1),
                          st.integers(1, 40)), min_size=1, max_size=6))
def test_grid_embed_batch_equals_one_graph_at_a_time(gs, specs):
    cases = [embed_case(*spec, gs) for spec in specs]
    alone = [grid_embed_oracle(g, pos, grid_size=gs) for g, pos in cases]
    for batch, want in ((cases, alone), (cases[::-1], alone[::-1])):
        got = grid_embed_many([g for g, _ in batch], [pos for _, pos in batch], grid_size=gs)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a.cells, b.cells)
            assert a.energy_trace == b.energy_trace


def test_grid_embed_many_checks_every_graph_first(monkeypatch):
    calls = []
    for name in ("_snap_targets", "_initial_cells"):
        monkeypatch.setattr(graphdraw, name, lambda *a, name=name: calls.append(name))
    graphs = [rand_graph(10, s)[0] for s in range(5)]
    graphs[3] = Graph(17, np.empty((0, 2), dtype=np.int64))
    positions = [np.zeros((g.n_vertices, 3)) for g in graphs]
    with pytest.raises(ValueError, match="graph 3: 17 vertices do not fit a 4x4 grid"):
        grid_embed_many(graphs, positions, grid_size=4)
    with pytest.raises(ValueError, match="4 position sets for 5 graphs"):
        grid_embed_many(graphs, positions[:4], grid_size=16)
    assert calls == []
    assert grid_embed_many([], [], grid_size=4) == []


def frozen_map_cloud(kind, n, seed, aug_seed):
    """(cloud, map seed): a synthetic cloud, augmented unless aug_seed is
    None."""
    cloud = synth_shape(kind, n, seed=[seed, 1, SYNTH_KINDS.index(kind), 0])
    return (cloud if aug_seed is None else augment(cloud, seed=aug_seed)), seed


# clouds whose clusters include empty and single-point ones (augmentation
# seed 1 drops many points onto one), and a raw cloud
FROZEN_MAP_EXAMPLES = [("cone", 64, 0, 1), ("torus", 64, 1, 1), ("sphere", 64, 3, None)]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SYNTH_KINDS), st.sampled_from((64, 100, 128)),
       st.integers(0, 2**16), st.none() | st.integers(0, 2**16))
@example(*FROZEN_MAP_EXAMPLES[0])
@example(*FROZEN_MAP_EXAMPLES[1])
@example(*FROZEN_MAP_EXAMPLES[2])
@example("cylinder", 128, 373, 2508)  # a sliver cluster that takes the brute-force edges
def test_map_graphdraw_matches_frozen_assembly(kind, n, seed, aug_seed):
    cloud, seed = frozen_map_cloud(kind, n, seed, aug_seed)
    got = map_graphdraw(cloud, seed=seed)
    want = map_graphdraw_oracle(cloud, seed=seed)
    assert np.array_equal(got.data, want.data)
    assert np.array_equal(got.leak_map, want.leak_map)


def test_frozen_assembly_examples_hold_empty_and_single_point_clusters():
    sizes = []
    for case in FROZEN_MAP_EXAMPLES:
        cloud, seed = frozen_map_cloud(*case)
        sizes += [len(mem) for mem in balanced_kmeans(cloud, seed=seed).members]
    assert 0 in sizes and 1 in sizes


def test_map_graphdraw_embeds_in_one_call(monkeypatch):
    calls = []
    for name in ("delaunay3_many", "grid_embed_many"):
        real = getattr(graphdraw, name)
        monkeypatch.setattr(graphdraw, name, lambda sets, *a, name=name, real=real, **kw:
                            calls.append((name, len(sets))) or real(sets, *a, **kw))
    # the map must not triangulate or embed one set at a time
    monkeypatch.setattr(graphdraw, "delaunay3", None)
    monkeypatch.setattr(graphdraw, "grid_embed", None)
    cloud, seed = frozen_map_cloud(*FROZEN_MAP_EXAMPLES[0])
    sizes = [len(mem) for mem in balanced_kmeans(cloud, seed=seed).members]
    assert 0 in sizes and 1 in sizes
    map_graphdraw(cloud, seed=seed)
    assert calls == [("delaunay3_many", 1 + CLUSTERS), ("grid_embed_many", 1 + CLUSTERS)]


def test_lockstep_functions_take_empty_and_single_point_sets():
    rng = np.random.default_rng(76)
    empty, single = np.empty((0, 3)), rng.uniform(-1, 1, (1, 3))
    sets = [empty, rng.uniform(-1, 1, (2, 3)), single, rng.uniform(-1, 1, (5, 3)),
            rng.uniform(-1, 1, (30, 3)), empty, rng.uniform(-1, 1, (12, 3)), single]
    graphs = delaunay3_many(sets)
    embeds = grid_embed_many(graphs, sets)
    for i, (pts, g, emb) in enumerate(zip(sets, graphs, embeds)):
        if len(pts) < 2:
            assert g.n_vertices == len(pts) and g.edges.shape == (0, 2), i
            assert emb.cells.tolist() == [[7, 7]] * len(pts), i  # the cell nearest the centre
            assert emb.energy_trace == [0], i
        else:
            alone = delaunay3(pts)
            assert np.array_equal(g.edges, alone.edges), i
            want = grid_embed(alone, pts)
            assert np.array_equal(emb.cells, want.cells), i
            assert emb.energy_trace == want.energy_trace, i


# ---------------------------------------------------------------------------
# image composition

def test_draw_image_single_point_at_origin():
    cloud = PointCloud(np.zeros((1, 3)))
    h = ClusterHierarchy(centers=np.zeros((1, 3)), members=[np.array([0])], k=1)
    top = GridEmbedding(16, np.array([[3, 5]]))
    within = [GridEmbedding(16, np.array([[2, 7]]))]
    img = draw_image(cloud, h, top, within)
    assert img.data.shape == (256, 256, 3)
    lit = np.argwhere(img.data.sum(2) > 0)
    assert lit.tolist() == [[16 * 3 + 2, 16 * 5 + 7]]
    assert np.allclose(img.data[50, 87], [0.5, 0.5, 0.5])


def draw_image_loop_oracle(cloud, h, top, within):
    """Per-point reference for draw_image."""
    gs = within[0].grid_size
    size = top.grid_size * gs
    data = np.zeros((size, size, 3))
    links = []
    for i, mem in enumerate(h.members):
        r, c = top.cells[i]
        for j, pt in enumerate(mem):
            rr, cc = gs * r + within[i].cells[j, 0], gs * c + within[i].cells[j, 1]
            data[rr, cc, :] = np.clip((cloud.points[pt] + 1.0) / 2.0, 0.0, 1.0)
            links.extend((rr, cc, pt, ch) for ch in range(3))
    return data, np.array(links)


def test_draw_image_matches_loop_oracle():
    rng = np.random.default_rng(11)
    cloud = PointCloud(rng.uniform(-1.5, 1.5, (60, 3)))  # some coordinates clip
    members = np.array_split(rng.permutation(60), [0, 25, 25, 40])[1:]  # one empty
    h = ClusterHierarchy(centers=np.zeros((4, 3)), members=members, k=4)
    top = GridEmbedding(16, np.array([[3, 5], [0, 0], [15, 2], [7, 7]]))
    within = [GridEmbedding(16, np.stack(np.unravel_index(
        rng.choice(256, len(m), replace=False), (16, 16)), axis=1)) for m in members]
    img = draw_image(cloud, h, top, within)
    data, links = draw_image_loop_oracle(cloud, h, top, within)
    assert np.array_equal(img.data, data)
    assert np.array_equal(img.leak_map, links)


def test_draw_image_rejects_mismatched_embedding():
    cloud = PointCloud(np.zeros((1, 3)))
    h = ClusterHierarchy(centers=np.zeros((1, 3)), members=[np.array([0])], k=1)
    top = GridEmbedding(16, np.array([[0, 0]]))
    with pytest.raises(ValueError):
        draw_image(cloud, h, top, [GridEmbedding(16, np.empty((0, 2), dtype=np.int64))])


def test_draw_image_rejects_bad_embeddings():
    cloud = PointCloud(np.zeros((3, 3)))
    h = ClusterHierarchy(centers=np.zeros((2, 3)), members=[np.array([0, 1]), np.array([2])], k=2)
    top = GridEmbedding(16, np.array([[0, 0], [4, 1]]))
    within = [GridEmbedding(16, np.array([[2, 3], [3, 2]])), GridEmbedding(16, np.array([[0, 0]]))]
    draw_image(cloud, h, top, within)
    for bad_top, match in (([[4, 1], [4, 1]], "top embedding not injective"),
                           ([[0, 0], [16, 1]], "top embedding has cells outside"),
                           ([[0, 0], [1, -1]], "top embedding has cells outside")):
        with pytest.raises(ValueError, match=match):
            draw_image(cloud, h, GridEmbedding(16, np.array(bad_top)), within)
    for bad, match in (([[2, 3], [2, 3]], "cluster 0: embedding not injective"),
                       ([[2, 3], [3, 16]], "cluster 0: embedding has cells outside"),
                       ([[-1, 3], [3, 2]], "cluster 0: embedding has cells outside")):
        with pytest.raises(ValueError, match=match):
            draw_image(cloud, h, top, [GridEmbedding(16, np.array(bad)), within[1]])


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("kind", SYNTH_KINDS)
def test_map_graphdraw_equals_map_with_frozen_kmeans(monkeypatch, kind, n):
    cloud = synth_shape(kind, n, seed=[n, 1, SYNTH_KINDS.index(kind), 0])
    got = map_graphdraw(cloud, seed=3)
    monkeypatch.setattr(graphdraw, "balanced_kmeans", kmeans_oracle)
    want = map_graphdraw(cloud, seed=3)
    assert np.array_equal(got.data, want.data)
    assert np.array_equal(got.leak_map, want.leak_map)


def test_map_graphdraw_every_point_lit():
    for kind in ("sphere", "cube"):
        cloud = synth_shape(kind, 128, seed=3)
        img = map_graphdraw(cloud, seed=0)
        assert img.data.shape == (256, 256, 3)
        assert img.grad_path is GradPath.COORDINATE_LEAK
        assert int((img.data.sum(2) > 0).sum()) == 128
        assert len(img.leak_map) == 3 * 128


def test_map_graphdraw_intensities_decode():
    cloud = synth_shape("torus", 128, seed=5)
    img = map_graphdraw(cloud, seed=0)
    rows, cols, pts, chans = img.leak_map.T
    decoded = 2.0 * img.data[rows, cols, chans] - 1.0
    assert np.allclose(decoded, cloud.points[pts, chans], atol=1e-15)


def test_map_graphdraw_deterministic():
    cloud = synth_shape("cylinder", 128, seed=6)
    a = map_graphdraw(cloud, seed=2)
    b = map_graphdraw(cloud, seed=2)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.leak_map, b.leak_map)


def test_map_graphdraw_rejects_oversized_cloud():
    cloud = PointCloud(np.zeros((8193, 3)))
    with pytest.raises(ValueError):
        map_graphdraw(cloud)


def test_cloud_size_limit_follows_cluster_cap():
    # ceil(1.2 * N / 32) <= 16 * 16 holds up to N = 6826
    check_cloud_size(6826)
    with pytest.raises(ValueError, match="6827 points: clusters of up to 257"):
        check_cloud_size(6827)


def test_map_graphdraw_fails_before_clustering(monkeypatch):
    calls = []
    monkeypatch.setattr(graphdraw, "balanced_kmeans",
                        lambda *a, **kw: calls.append(a))
    cloud = PointCloud(np.random.default_rng(0).uniform(-1, 1, (7000, 3)))
    with pytest.raises(ValueError, match="cannot map 7000 points"):
        map_graphdraw(cloud)
    assert calls == []


def test_delaunay3_many_graphs_every_map_set():
    cloud = synth_shape("cone", 128, seed=7)
    sets = map_point_sets(cloud, 0)
    graphs = delaunay3_many(sets)
    assert len(graphs) == 1 + CLUSTERS
    assert graphs[0].n_vertices == CLUSTERS
    for pts, g in zip(sets, graphs):
        assert g.n_vertices == len(pts)
        assert (len(g.edges) >= 1) == (len(pts) >= 2)


def test_map_graphdraw_value_multiset_stable_under_relabel():
    cloud = synth_shape("cube", 128, seed=8)
    a = map_graphdraw(cloud, seed=1)
    b = map_graphdraw(cloud, seed=4)
    va = np.sort(a.data[a.data.sum(2) > 0], axis=0)
    vb = np.sort(b.data[b.data.sum(2) > 0], axis=0)
    assert np.allclose(va, vb)
