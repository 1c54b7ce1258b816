import csv
import hashlib
import json
import os

import pytest

from cloudmap.cli import DEFAULT_CONFIG, load_config, main, validate_config
from cloudmap.imagefile import read_ppm


def write_config(tmp_path, **updates):
    cfg = {
        "dataset": {"classes": ["sphere", "cube", "torus"],
                    "train_per_class": 3, "test_per_class": 2, "points": 64},
        "train": {"epochs": 2, "batch_size": 4, "augment": False},
    }
    for key, val in updates.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def tree_digest(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for fname in sorted(filenames):
            full = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(full, root).encode())
            digest.update(open(full, "rb").read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# config handling

def test_default_config_is_valid():
    validate_config(load_config(None, {}))


def test_overrides_beat_file(tmp_path):
    path = write_config(tmp_path, seed=3, pipeline="leaky")
    cfg = load_config(path, {"seed": 9, "out": None})
    assert cfg["seed"] == 9          # flag wins
    assert cfg["pipeline"] == "leaky"  # file survives a None override
    assert cfg["dataset"]["points"] == 64
    assert cfg["train"]["lr"] == DEFAULT_CONFIG["train"]["lr"]  # merged


def test_validate_rejects_bad_pipeline():
    cfg = load_config(None, {})
    cfg["pipeline"] = "magic"
    with pytest.raises(ValueError):
        validate_config(cfg)


def test_validate_rejects_bad_kind():
    cfg = load_config(None, {})
    cfg["dataset"]["classes"] = ["sphere", "teapot"]
    with pytest.raises(ValueError):
        validate_config(cfg)


def test_validate_rejects_few_points():
    cfg = load_config(None, {})
    cfg["dataset"]["points"] = 8
    with pytest.raises(ValueError):
        validate_config(cfg)


def test_validate_rejects_negative_epsilon():
    cfg = load_config(None, {})
    cfg["epsilon"] = -0.1
    with pytest.raises(ValueError):
        validate_config(cfg)


def test_validate_rejects_unknown_dataset_type():
    cfg = load_config(None, {})
    cfg["dataset"]["type"] = "parquet"
    with pytest.raises(ValueError):
        validate_config(cfg)


def test_validate_rejects_graphdraw_cloud_over_grid_limit():
    cfg = load_config(None, {"pipeline": "graphdraw"})
    cfg["dataset"]["points"] = 6826
    validate_config(cfg)
    cfg["dataset"]["points"] = 7000
    with pytest.raises(ValueError, match="cannot map 7000 points"):
        validate_config(cfg)
    cfg["pipeline"] = "leaky"
    validate_config(cfg)  # the limit belongs to the graphdraw grids only


def test_graphdraw_oversized_config_writes_nothing(tmp_path, capsys):
    path = write_config(tmp_path, pipeline="graphdraw", dataset={"points": 7000})
    out = tmp_path / "out"
    rc = main(["dataset", "--config", path, "--out", str(out)])
    assert rc == 1
    assert "cannot map 7000 points" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_exits_nonzero(tmp_path, capsys):
    path = write_config(tmp_path, dataset={"points": 8})
    rc = main(["dataset", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dataset command

def test_dataset_counts_default_scale(tmp_path):
    # 5 classes x (100 train + 20 test) at 1024 points -> 600 XYZ files
    out = str(tmp_path / "out")
    rc = main(["dataset", "--out", out])
    assert rc == 0
    train = os.listdir(os.path.join(out, "dataset", "train"))
    test = os.listdir(os.path.join(out, "dataset", "test"))
    assert sum(f.endswith(".xyz") for f in train) == 500
    assert sum(f.endswith(".xyz") for f in test) == 100
    assert "labels.csv" in train and "labels.csv" in test


def test_dataset_rerun_byte_identical(tmp_path):
    path = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["dataset", "--config", path, "--out", out]) == 0
    first = tree_digest(out)
    assert main(["dataset", "--config", path, "--out", out]) == 0
    assert tree_digest(out) == first


def test_dataset_different_seed_differs(tmp_path):
    path = write_config(tmp_path)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    main(["dataset", "--config", path, "--out", out_a, "--seed", "0"])
    main(["dataset", "--config", path, "--out", out_b, "--seed", "1"])
    digest = [tree_digest(os.path.join(o, "dataset")) for o in (out_a, out_b)]
    assert digest[0] != digest[1]


def test_dataset_labels_csv_schema(tmp_path):
    path = write_config(tmp_path)
    out = str(tmp_path / "out")
    main(["dataset", "--config", path, "--out", out])
    lines = open(os.path.join(out, "dataset", "train", "labels.csv")).read().splitlines()
    assert lines[0] == "file,label,kind"
    assert lines[1].split(",") == ["sphere_0000.xyz", "0", "sphere"]
    assert len(lines) == 1 + 9


# ---------------------------------------------------------------------------
# train / eval / attack / export

@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    path = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["dataset", "--config", path, "--out", out]) == 0
    assert main(["train", "--config", path, "--out", out]) == 0
    return path, out


def test_train_writes_checkpoint_and_loss(run_dir):
    _, out = run_dir
    assert os.path.isfile(os.path.join(out, "ckpt_basic.bin"))
    assert os.path.isfile(os.path.join(out, "ckpt_basic.json"))
    lines = open(os.path.join(out, "loss_basic.csv")).read().splitlines()
    assert lines[0] == "epoch,mean_loss"
    assert len(lines) == 3  # header + 2 epochs


def test_eval_metrics_schema(run_dir):
    path, out = run_dir
    assert main(["eval", "--config", path, "--out", out]) == 0
    metrics = json.load(open(os.path.join(out, "metrics_basic.json")))
    assert set(metrics) == {"pipeline", "instance_accuracy", "class_accuracy"}
    assert metrics["pipeline"] == "basic"
    assert 0.0 <= metrics["instance_accuracy"] <= 100.0
    assert 0.0 <= metrics["class_accuracy"] <= 100.0


def test_attack_blocked_triple(run_dir):
    path, out = run_dir
    assert main(["attack", "--config", path, "--out", out]) == 0
    report = json.load(open(os.path.join(out, "attack_basic.json")))
    assert report["attacked_accuracy"] == report["clean_accuracy"]
    assert report["attack_success_rate"] == 0.0
    assert report["n_samples"] == 6
    csv_lines = open(os.path.join(out, "attack_basic.csv")).read().splitlines()
    assert len(csv_lines) == 7


def test_eval_rerun_identical(run_dir):
    path, out = run_dir
    metrics_path = os.path.join(out, "metrics_basic.json")
    main(["eval", "--config", path, "--out", out])
    first = open(metrics_path).read()
    main(["eval", "--config", path, "--out", out])
    assert open(metrics_path).read() == first


def test_export_images_one_per_class(run_dir):
    path, out = run_dir
    assert main(["export-images", "--config", path, "--out", out]) == 0
    img_dir = os.path.join(out, "images")
    names = sorted(os.listdir(img_dir))
    assert names == ["basic_class0.pgm", "basic_class1.pgm", "basic_class2.pgm"]


def test_export_graphdraw_lit_pixel_count(run_dir, capsys):
    path, out = run_dir
    rc = main(["export-images", "--config", path, "--out", out,
               "--pipeline", "graphdraw"])
    assert rc == 0
    capsys.readouterr()
    img = read_ppm(os.path.join(out, "images", "graphdraw_class0.ppm"))
    assert img.shape == (256, 256, 3)
    assert int((img.sum(axis=2) > 0).sum()) == 64  # one pixel per point


def test_eval_without_checkpoint_fails(tmp_path, capsys):
    path = write_config(tmp_path)
    out = str(tmp_path / "out")
    main(["dataset", "--config", path, "--out", out])
    rc = main(["eval", "--config", path, "--out", out, "--pipeline", "leaky"])
    assert rc == 1
    assert "train command" in capsys.readouterr().err


def test_train_without_dataset_fails(tmp_path, capsys):
    path = write_config(tmp_path)
    rc = main(["train", "--config", path, "--out", str(tmp_path / "empty")])
    assert rc == 1
    assert "dataset command" in capsys.readouterr().err


TET_OFF = "OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n3 0 1 3\n3 0 2 3\n3 1 2 3\n"


def test_off_dir_single_mesh_class_stays_in_train(tmp_path, capsys):
    meshes = {"a": 3, "b": 1}
    for kind, count in meshes.items():
        (tmp_path / "meshes" / kind).mkdir(parents=True)
        for i in range(count):
            (tmp_path / "meshes" / kind / f"m{i}.off").write_text(TET_OFF)
    path = write_config(tmp_path, dataset={"type": "off_dir",
                                           "path": str(tmp_path / "meshes"),
                                           "points": 64})
    out = str(tmp_path / "out")
    assert main(["dataset", "--config", path, "--out", out]) == 0
    capsys.readouterr()
    rows = {}
    for split in ("train", "test"):
        with open(os.path.join(out, "dataset", split, "labels.csv"), newline="") as fh:
            rows[split] = [row["kind"] for row in csv.DictReader(fh)]
    # file names restart at 0 in each split, so mesh identity shows in the
    # counts: every mesh lands in exactly one split
    for kind, count in meshes.items():
        assert rows["train"].count(kind) + rows["test"].count(kind) == count
    assert rows["test"] == ["a"]


def test_off_dir_without_path_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, dataset={"type": "off_dir"})
    out = tmp_path / "out"
    assert main(["dataset", "--config", path, "--out", str(out)]) == 1
    assert "error: an off_dir dataset needs the key 'path'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("frac", [0, 1, 1.5, -0.2])
def test_off_dir_rejects_test_fraction_outside_unit_interval(tmp_path, capsys, frac):
    (tmp_path / "meshes" / "a").mkdir(parents=True)
    for i in range(3):
        (tmp_path / "meshes" / "a" / f"m{i}.off").write_text(TET_OFF)
    path = write_config(tmp_path, dataset={"type": "off_dir", "path": str(tmp_path / "meshes"),
                                           "points": 64, "test_fraction": frac})
    out = tmp_path / "out"
    assert main(["dataset", "--config", path, "--out", str(out)]) == 1
    assert "test_fraction must lie strictly between 0 and 1" in capsys.readouterr().err
    assert not out.exists()
