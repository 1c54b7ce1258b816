"""The benchmark's reference computations on tiny inputs worked out by
hand, and BENCHMARK.json against the metrics the benchmark prints.

    python3 -m pytest perfbench
"""

import json
from pathlib import Path

import numpy as np

import reference
import run
import tracer


def test_pixel_coords_floor_and_frame():
    pts = np.array([[-1.0, 1.0, 0.0], [0.6, -0.2, 0.0], [1.0, 0.0, 0.0]])
    rows, cols, inside = reference.pixel_coords(pts, 4)
    assert rows.tolist() == [0, 2, 2]
    assert cols.tolist() == [0, 3, 4]
    assert inside.tolist() == [True, True, False]


def test_compared_pixels_drops_the_border_only_for_outside_points():
    inside = np.array([[0.0, 0.0, 0.0]])
    assert reference.compared_pixels(inside, 4, 1).all()
    outside = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
    mask = reference.compared_pixels(outside, 4, 1)
    assert mask.tolist() == [[False] * 4, [False, True, True, False],
                             [False, True, True, False], [False] * 4]


def test_occupancy_ignores_outside_points():
    pts = np.array([[-1.0, 1.0, 0.3], [0.6, -0.2, -0.7], [1.0, 0.0, 0.0]])
    img = reference.occupancy(pts, 4)
    assert img.shape == (4, 4, 1)
    assert np.argwhere(img[:, :, 0]).tolist() == [[0, 0], [2, 3]]


def test_leaky_last_writer_wins_and_clips():
    pts = np.array([[0.1, 0.1, 0.5], [0.2, 0.2, -0.5], [-0.9, 0.9, 1.4]])
    img = reference.leaky(pts, 4)
    # points 0 and 1 both land on pixel (1, 2); point 1 is written last
    assert np.allclose(img[1, 2], [0.6, 0.6, 0.25])
    assert np.allclose(img[0, 0], [0.05, 0.95, 1.0])
    assert np.count_nonzero(img.any(axis=2)) == 2


def test_max_splat_keeps_the_brightest():
    # pixel (0, 0) at depth 0 (intensity 1), pixel (1, 1) at depth 1
    pts = np.array([[-0.9, 0.9, 1.0], [-0.4, 0.4, 0.0]])
    img = reference.max_splat(pts, 4, alpha=0.0, beta=1.0, splat=3)[:, :, 0]
    e = np.exp(-1.0)
    assert np.allclose(img, [[1, 1, e, 0], [1, 1, e, 0], [e, e, e, 0], [0, 0, 0, 0]])


def test_quantize_u8_rounds_half_to_even_and_clips():
    got = reference.quantize_u8([0.0, 0.5, 1.0, 1.2, -0.1, 0.2])
    assert got.tolist() == [0, 128, 255, 255, 0, 51]


def test_read_ppm_with_whitespace_valued_pixels(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P6\n2 1\n255\n" + bytes([10, 32, 3, 4, 5, 6]))
    assert reference.read_ppm(path).tolist() == [[[10, 32, 3], [4, 5, 6]]]


def test_entry_pool_averages_partial_blocks_over_present_pixels():
    x = np.arange(1.0, 10.0).reshape(3, 3, 1)
    assert reference.entry_pool(x, 2)[:, :, 0].tolist() == [[3.0, 4.5], [7.5, 9.0]]
    assert reference.entry_pool(x, 1) is x


def test_conv3x3_tap_offsets_and_zero_padding():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
    w = np.zeros((1, 3, 3, 1))
    w[0, 1, 1, 0] = 1.0    # the pixel itself
    w[0, 1, 2, 0] = 10.0   # its right neighbour
    out = reference.conv3x3(x, w, np.array([0.5]))
    assert out[:, :, 0].tolist() == [[21.5, 2.5], [43.5, 4.5]]


def test_maxpool2_drops_odd_edge_and_passes_thin_inputs():
    x = np.arange(9.0).reshape(3, 3, 1)
    assert reference.maxpool2(x).tolist() == [[[4.0]]]
    thin = np.arange(3.0).reshape(1, 3, 1)
    assert reference.maxpool2(thin) is thin


def test_tinynet_logits_by_hand():
    def conv(center, bias):
        w = np.zeros((1, 3, 3, 1))
        w[0, 1, 1, 0] = center
        return w, np.array([bias])
    params = {}
    for i, (center, bias) in enumerate([(1.0, 0.0), (1.0, 0.0), (2.0, -1.0)], start=1):
        params[f"conv{i}_w"], params[f"conv{i}_b"] = conv(center, bias)
    params["fc_w"] = np.array([[1.0, -1.0]])
    params["fc_b"] = np.array([0.0, 0.5])
    x = np.array([[1.0, -2.0], [3.0, 0.5]])[:, :, None]
    # relu -> [[1, 0], [3, 0.5]], pool -> 3; conv2 -> 3; conv3 -> 2*3 - 1 = 5
    assert reference.tinynet_logits(params, x, 1).tolist() == [5.0, -4.5]


def test_attack_summary():
    rows = [(0, 0, 1, 0.2), (1, 1, 1, 0.0), (2, 0, 0, 0.4)]
    clean, attacked, asr, l2 = reference.attack_summary(rows)
    assert np.allclose([clean, attacked, asr, l2], [200 / 3, 100 / 3, 50.0, 0.2])
    assert reference.attack_summary([(0, 1, 1, 0.0)])[2] == 0.0  # clean 0
    assert reference.attack_summary([(0, 0, 0, 0.0)])[2] == 0.0  # attack helped nothing


def test_simplex_edges():
    assert reference.simplex_edges([[3, 1, 2]]) == {(1, 2), (1, 3), (2, 3)}
    assert len(reference.simplex_edges([[0, 1, 2, 3], [1, 2, 3, 4]])) == 9


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
