import csv
import hashlib
import json
import os

import numpy as np
import pytest

from cloudmap.cli import DEFAULT_CONFIG, load_config, main, validate_config


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


def wrong_typed_leaves():
    """A (key, value) pair for every scalar leaf of DEFAULT_CONFIG, whose
    value has the wrong type: a number where the default is a string, a
    string elsewhere. The list dataset.classes has its own cases in
    test_config_that_would_fail_late_is_a_config_error."""
    parts = [("", DEFAULT_CONFIG)] + [(f"{name}.", part) for name, part
                                     in DEFAULT_CONFIG.items() if isinstance(part, dict)]
    return [(prefix + key, 1 if isinstance(default, str) else "1")
            for prefix, part in parts for key, default in part.items()
            if not isinstance(default, (dict, list))]


@pytest.mark.parametrize("key, value", [
    ("train.epochs", "2"), ("train.epochs", True), ("train.epochs", 2.0),
    ("train.batch_size", "4"), ("train.batch_size", 4.0),
    ("dataset.points", "256"), ("dataset.points", 256.0),
    ("epsilon", "0.1"), ("epsilon", True),
    ("train.augment", "false"), ("train.augment", 0), ("out", 5),
] + wrong_typed_leaves())
def test_validate_rejects_wrong_value_types(key, value):
    cfg = load_config(None, {})
    section, _, name = key.rpartition(".")
    (cfg[section] if section else cfg)[name] = value
    with pytest.raises(ValueError, match=f"^{key} must be (an integer|a number|true or false|a string), got"):
        validate_config(cfg)


def test_validate_accepts_ints_where_numbers_are_asked():
    cfg = load_config(None, {})
    cfg["epsilon"], cfg["train"]["lr"] = 0, 1
    validate_config(cfg)


@pytest.mark.parametrize("updates, key", [
    ({"train": {"epochs": "2"}}, "train.epochs"),
    ({"dataset": {"points": True}}, "dataset.points"),
    ({"epsilon": "0.1"}, "epsilon"),
    ({"dataset": {"type": "off_dir", "path": ["a"]}}, "dataset.path"),
])
def test_wrong_value_type_is_a_config_error(tmp_path, capsys, updates, key):
    path = write_config(tmp_path, **updates)
    out = tmp_path / "out"
    assert main(["dataset", "--config", path, "--out", str(out)]) == 1
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_synthetic_kinds_are_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, dataset={"classes": ["cube", "sphere", "cube"]})
    out = tmp_path / "out"
    assert main(["dataset", "--config", path, "--out", str(out)]) == 1
    assert "error: repeated shape kinds ['cube']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["dataset", "train"])
@pytest.mark.parametrize("updates, message", [
    ({"train": {"epochs": 0}}, "epochs must be an integer >= 1, got 0"),
    ({"train": {"lr_step": 0}}, "unknown config keys ['train.lr_step']"),
    ({"train": {"lr_step": -3}}, "unknown config keys ['train.lr_step']"),
    ({"dataset": {"classes": []}}, "dataset.classes must name at least one shape kind"),
    ({"dataset": {"classes": 5}}, "dataset.classes must be a list of strings, got 5"),
    ({"dataset": {"classes": [1, 2]}}, "dataset.classes must be a list of strings, got [1, 2]"),
    ({"train": {"lr": -0.01}}, "lr must be > 0"),
    ({"train": {"lr": 0}}, "lr must be > 0"),
    ({"train": {"lr_gamma": 0.0}}, "unknown config keys ['train.lr_gamma']"),
    ({"train": {"lr_gamma": -0.7}}, "unknown config keys ['train.lr_gamma']"),
    ({"train": {"weight_decay": -1e-4}}, "unknown config keys ['train.weight_decay']"),
    ({"train": {"epoch": 5}}, "unknown config keys ['train.epoch']"),
    ({"datset": {"points": 64}}, "unknown config keys ['datset']"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"dataset": 5}, "dataset must be an object, got 5"),
    ({"train": [1]}, "train must be an object, got [1]"),
    ({"epsilon": float("nan")}, "epsilon must be finite, got nan"),
    ({"epsilon": -0.1}, "epsilon must be finite and >= 0, got -0.1"),
    ({"train": {"lr": float("nan")}}, "train.lr must be finite, got nan"),
    ({"train": {"weight_decay": float("inf")}}, "unknown config keys ['train.weight_decay']"),
])
def test_config_that_would_fail_late_is_a_config_error(tmp_path, capsys, command,
                                                       updates, message):
    path = write_config(tmp_path, **updates)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, flags, message", [
    ("[1]", [], "the config must be an object, got [1]"),
    ('{"train": [1]}', ["--epochs", "2"], "train must be an object, got [1]"),
])
def test_config_file_of_the_wrong_shape_is_a_config_error(tmp_path, capsys, text,
                                                          flags, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["dataset", "--config", str(path), "--out", str(out), *flags]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_config_path_naming_a_directory_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["dataset", "--config", str(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
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
    raw = open(os.path.join(out, "images", "graphdraw_class0.ppm"), "rb").read()
    header = b"P6\n256 256\n255\n"
    assert raw.startswith(header)
    img = np.frombuffer(raw, dtype=np.uint8, offset=len(header)).reshape(256, 256, 3)
    assert int((img.sum(axis=2) > 0).sum()) == 64  # one pixel per point


def test_eval_without_checkpoint_fails(tmp_path, capsys):
    path = write_config(tmp_path)
    out = str(tmp_path / "out")
    main(["dataset", "--config", path, "--out", out])
    rc = main(["eval", "--config", path, "--out", out, "--pipeline", "leaky"])
    assert rc == 1
    assert "train command" in capsys.readouterr().err


def test_eval_on_truncated_checkpoint_fails(tmp_path, capsys):
    path = write_config(tmp_path, train={"epochs": 1})
    out = str(tmp_path / "out")
    assert main(["dataset", "--config", path, "--out", out]) == 0
    assert main(["train", "--config", path, "--out", out]) == 0
    bin_path = os.path.join(out, "ckpt_basic.bin")
    raw = open(bin_path, "rb").read()
    open(bin_path, "wb").write(raw[:-8])  # one value short
    capsys.readouterr()
    assert main(["eval", "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint ") and "values, its manifest needs" in err


def test_eval_on_checkpoint_missing_a_parameter_fails(tmp_path, capsys):
    path = write_config(tmp_path, train={"epochs": 1})
    out = str(tmp_path / "out")
    assert main(["dataset", "--config", path, "--out", out]) == 0
    assert main(["train", "--config", path, "--out", out]) == 0
    manifest_path = os.path.join(out, "ckpt_basic.json")
    manifest = json.loads(open(manifest_path).read())
    del manifest["params"]["fc_b"]
    open(manifest_path, "w").write(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint ") and "params.fc_b" in err


def test_eval_on_non_finite_test_cloud_fails(tmp_path, capsys):
    path = write_config(tmp_path, train={"epochs": 1})
    out = str(tmp_path / "out")
    assert main(["dataset", "--config", path, "--out", out]) == 0
    assert main(["train", "--config", path, "--out", out]) == 0
    xyz = os.path.join(out, "dataset", "test", "cube_0001.xyz")
    open(xyz, "a").write("nan 0 0\n")
    capsys.readouterr()
    assert main(["eval", "--config", path, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {xyz}: non-finite coordinate\n"


def test_eval_on_a_malformed_test_cloud_names_the_file(tmp_path, capsys):
    path = write_config(tmp_path, train={"epochs": 1})
    out = str(tmp_path / "out")
    assert main(["dataset", "--config", path, "--out", out]) == 0
    assert main(["train", "--config", path, "--out", out]) == 0
    xyz = os.path.join(out, "dataset", "test", "cube_0001.xyz")
    good = open(xyz).read()
    for bad_row in ("1 1\n", "1 1 x\n"):
        open(xyz, "w").write(good + bad_row)
        capsys.readouterr()
        assert main(["eval", "--config", path, "--out", out]) == 1, bad_row
        err = capsys.readouterr().err
        assert err.startswith(f"error: {xyz}: ") and err.count("\n") == 1, err


def test_train_without_dataset_fails(tmp_path, capsys):
    path = write_config(tmp_path)
    rc = main(["train", "--config", path, "--out", str(tmp_path / "empty")])
    assert rc == 1
    assert "dataset command" in capsys.readouterr().err


TET_OFF = "OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n3 0 1 3\n3 0 2 3\n3 1 2 3\n"


def write_off_dir(tmp_path, meshes, **dataset):
    """A folder of class folders, meshes[kind] tetrahedra each, and a config."""
    for kind, count in meshes.items():
        (tmp_path / "meshes" / kind).mkdir(parents=True)
        for i in range(count):
            (tmp_path / "meshes" / kind / f"m{i}.off").write_text(TET_OFF)
    return write_config(tmp_path, dataset={"type": "off_dir", "points": 64,
                                           "path": str(tmp_path / "meshes"), **dataset})


def split_kinds(out):
    rows = {}
    for split in ("train", "test"):
        with open(os.path.join(out, "dataset", split, "labels.csv"), newline="") as fh:
            rows[split] = [row["kind"] for row in csv.DictReader(fh)]
    return rows


def test_off_dir_single_mesh_class_stays_in_train(tmp_path, capsys):
    # b sorts last and has no test cloud, so a class count read off the
    # test labels would disagree with the checkpoint's
    meshes = {"a": 3, "b": 1}
    path = write_off_dir(tmp_path, meshes)
    out = str(tmp_path / "out")
    assert main(["dataset", "--config", path, "--out", out]) == 0
    rows = split_kinds(out)
    # file names restart at 0 in each split, so mesh identity shows in the
    # counts: every mesh lands in exactly one split
    for kind, count in meshes.items():
        assert rows["train"].count(kind) + rows["test"].count(kind) == count
    assert rows["test"] == ["a"]
    for command in ("train", "eval", "attack", "export-images"):
        assert main([command, "--config", path, "--out", out]) == 0, capsys.readouterr().err


def test_off_dir_split_keeps_a_train_mesh_per_class(tmp_path, capsys):
    # round(0.75 * 2) = 2 meshes would leave train empty
    path = write_off_dir(tmp_path, {"a": 2, "b": 2}, test_fraction=0.75)
    out = str(tmp_path / "out")
    assert main(["dataset", "--config", path, "--out", out]) == 0
    assert split_kinds(out) == {"train": ["a", "b"], "test": ["a", "b"]}
    assert main(["train", "--config", path, "--out", out]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("layout", [{}, {"a": ["notes.txt"]}, {"a": [], "b": ["m0.obj"]}])
def test_off_dir_without_meshes_is_a_config_error(tmp_path, capsys, layout):
    root = tmp_path / "meshes"
    root.mkdir()
    for kind, files in layout.items():
        (root / kind).mkdir()
        for fname in files:
            (root / kind / fname).write_text(TET_OFF)
    path = write_config(tmp_path, dataset={"type": "off_dir", "path": str(root), "points": 64})
    out = tmp_path / "out"
    assert main(["dataset", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: no class folder of {root} holds a .off file\n"
    assert not out.exists()


def test_train_on_a_dataset_of_another_class_list_fails(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["dataset", "--config", write_config(tmp_path), "--out", out]) == 0
    path = write_config(tmp_path, dataset={"classes": ["sphere", "cube"]})
    assert main(["train", "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    labels = os.path.join(out, "dataset", "train", "labels.csv")
    assert err == (f"error: {labels}: torus_0000.xyz is not class 2 of ['sphere', 'cube']; "
                   "run the dataset command again\n")
    assert not os.path.exists(os.path.join(out, "ckpt_basic.bin"))


@pytest.mark.parametrize("header, row, line", [
    ("file,label,kind", "sphere_0000.xyz", 3),
    ("file,label,kind", "sphere_0000.xyz,0", 3),
    ("file,label,kind", "sphere_0000.xyz,zero,sphere", 3),
    ("file,label", "sphere_0000.xyz,0", 2),  # no row has a kind
])
def test_eval_on_a_malformed_labels_row_names_the_file_and_row(tmp_path, capsys, header,
                                                               row, line):
    path = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["dataset", "--config", path, "--out", out]) == 0
    labels = os.path.join(out, "dataset", "test", "labels.csv")
    open(labels, "w").write(f"{header}\nsphere_0001.xyz,0,sphere\n{row}\n")
    capsys.readouterr()
    assert main(["eval", "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {labels}:{line}: expected a file, an integer label and a kind")


def test_every_command_on_an_empty_test_split_fails(tmp_path, capsys):
    # single-mesh classes stay in train, so the test split lists no cloud
    path = write_off_dir(tmp_path, {"a": 1, "b": 1})
    out = str(tmp_path / "out")
    assert main(["dataset", "--config", path, "--out", out]) == 0
    labels = os.path.join(out, "dataset", "test", "labels.csv")
    for command in ("eval", "attack", "export-images"):
        capsys.readouterr()
        assert main([command, "--config", path, "--out", out]) == 1, command
        assert capsys.readouterr().err == f"error: {labels} lists no clouds\n", command
    assert not os.path.exists(os.path.join(out, "images"))


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


@pytest.mark.parametrize("frac", ["0.5", True])
def test_off_dir_rejects_test_fraction_of_wrong_type(tmp_path, capsys, frac):
    (tmp_path / "meshes" / "a").mkdir(parents=True)
    path = write_config(tmp_path, dataset={"type": "off_dir", "path": str(tmp_path / "meshes"),
                                           "points": 64, "test_fraction": frac})
    out = tmp_path / "out"
    assert main(["dataset", "--config", path, "--out", str(out)]) == 1
    assert "error: dataset.test_fraction must be a number" in capsys.readouterr().err
    assert not out.exists()
