"""Experiment driver: build datasets, train a pipeline, evaluate it, run
the attack, export mapped images. Batch only; main validates the config
before any command writes anything. A run is deterministic given its seed
and a fixed BLAS thread count: TinyNet's matmuls add in an order that
follows the thread split (ROADMAP.md, item 7).

Config is a JSON file plus flag overrides. DEFAULT_CONFIG is the whole
schema: each key's default, whose type a value must have; a key it does
not list is an error. All outputs land under the config's out directory.
"""

import argparse
import copy
import csv
import json
import math
import os
import sys

from .attack import attack_suite, check_epsilon
from .cloud import (SYNTH_KINDS, load_off, normalize_unit, read_xyz,
                    sample_surface, synth_shape, write_xyz)
from .graphdraw import check_cloud_size
from .imagefile import write_pgm, write_ppm
from .net import (TrainConfig, evaluate, load_checkpoint, save_checkpoint,
                  train, write_loss_history)
from .pipeline import PIPELINE_NAMES, Pipeline, make_pipeline

# the train keys whose defaults and rules are TrainConfig's
_TRAIN_KEYS = ("epochs", "lr", "batch_size")

# dataset.path and dataset.test_fraction are read by off_dir datasets only
DEFAULT_CONFIG = {
    "seed": 0,
    "out": "runs/exp",
    "pipeline": "basic",
    "epsilon": 0.1,
    "dataset": {
        "type": "synthetic",
        "classes": list(SYNTH_KINDS),
        "train_per_class": 100,
        "test_per_class": 20,
        "points": 1024,
        "path": "",
        "test_fraction": 0.2,
    },
    "train": {**{key: getattr(TrainConfig, key) for key in _TRAIN_KEYS},
              "augment": True},
}


def _merge(cfg: dict, user, where: str) -> None:
    if not isinstance(user, dict):
        raise ValueError(f"{where} must be an object, got {user!r}")
    for key, val in user.items():
        if isinstance(cfg.get(key), dict):
            _merge(cfg[key], val, key)
        else:
            cfg[key] = val


def load_config(path: str | None, overrides: dict) -> dict:
    """DEFAULT_CONFIG, updated by the JSON file at path, then by the
    overrides that are not None, keyed "key" or "section.key"."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            _merge(cfg, json.load(fh), "the config")
    for key, val in overrides.items():
        if val is not None:
            section, _, name = key.rpartition(".")
            (cfg[section] if section else cfg)[name] = val
    return cfg


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", list: "a list of strings"}


def _has_type(val, default) -> bool:
    if isinstance(default, list):
        return isinstance(val, list) and all(isinstance(k, str) for k in val)
    # bool is an int subclass, but neither a count nor a number here
    return (isinstance(val, bool) == isinstance(default, bool)
            and isinstance(val, (int, float) if isinstance(default, float) else type(default)))


def _check_types(cfg: dict, schema: dict, where: str) -> None:
    if unknown := [where + name for name in cfg if name not in schema]:
        raise ValueError(f"unknown config keys {unknown}")
    for name, default in schema.items():
        if isinstance(default, dict):
            _check_types(cfg[name], default, f"{where}{name}.")
        elif not _has_type(cfg[name], default):
            raise ValueError(f"{where}{name} must be {_TYPE_NAMES[type(default)]}, "
                             f"got {cfg[name]!r}")
        elif isinstance(default, float) and not math.isfinite(cfg[name]):
            # json reads NaN and Infinity, which every range check lets through
            raise ValueError(f"{where}{name} must be finite, got {cfg[name]!r}")


def validate_config(cfg: dict) -> None:
    _check_types(cfg, DEFAULT_CONFIG, "")
    if cfg["pipeline"] not in PIPELINE_NAMES:
        raise ValueError(f"unknown pipeline {cfg['pipeline']!r}")
    ds = cfg["dataset"]
    if ds["type"] == "synthetic":
        if not ds["classes"]:
            raise ValueError("dataset.classes must name at least one shape kind")
        bad = [k for k in ds["classes"] if k not in SYNTH_KINDS]
        if bad:
            raise ValueError(f"unknown shape kinds {bad}")
        repeated = sorted({k for k in ds["classes"] if ds["classes"].count(k) > 1})
        if repeated:
            raise ValueError(f"repeated shape kinds {repeated}")
        if ds["train_per_class"] < 1 or ds["test_per_class"] < 1:
            raise ValueError("per-class counts must be >= 1")
    elif ds["type"] == "off_dir":
        if not ds["path"]:
            raise ValueError("an off_dir dataset needs the key 'path'")
        if not os.path.isdir(ds["path"]):
            raise ValueError(f"OFF directory not found: {ds['path']}")
        if not any(_off_files(os.path.join(ds["path"], kind)) for kind in _class_names(cfg)):
            raise ValueError(f"no class folder of {ds['path']} holds a .off file")
        if not 0 < ds["test_fraction"] < 1:
            raise ValueError("test_fraction must lie strictly between 0 and 1")
    else:
        raise ValueError(f"unknown dataset type {ds['type']!r}")
    if ds["points"] < 64:
        raise ValueError("points must be >= 64")
    if cfg["pipeline"] == "graphdraw":
        check_cloud_size(ds["points"])
    train_config(cfg)  # TrainConfig checks the train values
    check_epsilon(cfg["epsilon"])


def train_config(cfg: dict) -> TrainConfig:
    tr = cfg["train"]
    return TrainConfig(**{key: tr[key] for key in _TRAIN_KEYS}, seed=cfg["seed"],
                       augment_cfg=tr["augment"])


def _dataset_dir(cfg: dict, split: str) -> str:
    return os.path.join(cfg["out"], "dataset", split)


def _class_names(cfg: dict) -> list:
    """The classes in label order: shape kinds, or sorted class folders."""
    ds = cfg["dataset"]
    if ds["type"] == "synthetic":
        return list(ds["classes"])
    return sorted(d for d in os.listdir(ds["path"])
                  if os.path.isdir(os.path.join(ds["path"], d)))


def _off_files(folder: str) -> list:
    return sorted(f for f in os.listdir(folder) if f.endswith(".off"))


def _class_clouds(cfg: dict, ci: int, kind: str, split_idx: int) -> list:
    """Class ci's clouds in split 0 (train) or 1 (test). An off_dir class of
    2+ meshes keeps one or more in each split; a single mesh stays in train."""
    ds = cfg["dataset"]
    if ds["type"] == "synthetic":
        count = (ds["train_per_class"], ds["test_per_class"])[split_idx]
        return [synth_shape(kind, ds["points"], seed=[cfg["seed"], split_idx, ci, idx])
                for idx in range(count)]
    folder = os.path.join(ds["path"], kind)
    files = _off_files(folder)
    n_test = min(len(files) - 1, max(1, round(ds["test_fraction"] * len(files))))
    cut = len(files) - n_test
    chosen = files[cut:] if split_idx else files[:cut]
    return [normalize_unit(sample_surface(load_off(os.path.join(folder, fname)), ds["points"],
                                          seed=[cfg["seed"], split_idx, ci, idx]))
            for idx, fname in enumerate(chosen)]


def cmd_dataset(cfg: dict) -> None:
    for split_idx, split in enumerate(("train", "test")):
        out_dir = _dataset_dir(cfg, split)
        os.makedirs(out_dir, exist_ok=True)
        rows = []
        for ci, kind in enumerate(_class_names(cfg)):
            for idx, cloud in enumerate(_class_clouds(cfg, ci, kind, split_idx)):
                name = f"{kind}_{idx:04d}.xyz"
                write_xyz(cloud, os.path.join(out_dir, name))
                rows.append((name, ci, kind))
        with open(os.path.join(out_dir, "labels.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["file", "label", "kind"])
            writer.writerows(rows)
    print(f"dataset written under {os.path.join(cfg['out'], 'dataset')}")


def load_split(cfg: dict, split: str) -> list:
    out_dir = _dataset_dir(cfg, split)
    labels_path = os.path.join(out_dir, "labels.csv")
    if not os.path.isfile(labels_path):
        raise FileNotFoundError(
            f"{labels_path} not found; run the dataset command first")
    classes = _class_names(cfg)
    clouds = []
    with open(labels_path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            name, label, kind = (row.get(key) for key in ("file", "label", "kind"))
            if None in (name, label, kind) or not label.isdecimal():
                raise ValueError(f"{labels_path}:{reader.line_num}: expected a file, an "
                                 f"integer label and a kind, got {row}")
            label = int(label)
            if label >= len(classes) or classes[label] != kind:
                raise ValueError(f"{labels_path}: {name} is not class {label} of "
                                 f"{classes}; run the dataset command again")
            clouds.append(read_xyz(os.path.join(out_dir, name), label=label))
    if not clouds:
        raise ValueError(f"{labels_path} lists no clouds")
    return clouds


def _checkpoint_stem(cfg: dict) -> str:
    return os.path.join(cfg["out"], f"ckpt_{cfg['pipeline']}")


def cmd_train(cfg: dict) -> None:
    trainset = load_split(cfg, "train")
    tcfg = train_config(cfg)
    pipeline = make_pipeline(cfg["pipeline"], len(_class_names(cfg)),
                             seed=cfg["seed"], map_seed=cfg["seed"])
    _, history = train(pipeline, trainset, tcfg)
    stem = _checkpoint_stem(cfg)
    save_checkpoint(pipeline.net, stem)
    write_loss_history(history, os.path.join(cfg["out"], f"loss_{cfg['pipeline']}.csv"))
    print(f"checkpoint {stem}.bin, final loss {history[-1]:.6f}")


def _load_pipeline(cfg: dict):
    num_classes = len(_class_names(cfg))
    stem = _checkpoint_stem(cfg)
    if not os.path.isfile(stem + ".bin"):
        raise FileNotFoundError(f"{stem}.bin not found; run the train command first")
    net = load_checkpoint(stem)
    if net.num_classes != num_classes:
        raise ValueError(f"checkpoint has {net.num_classes} classes, "
                         f"the class list has {num_classes}")
    return Pipeline(cfg["pipeline"], net, cfg["seed"])


def cmd_eval(cfg: dict) -> None:
    testset = load_split(cfg, "test")
    pipeline = _load_pipeline(cfg)
    inst, cls = evaluate(pipeline.net, pipeline, testset)
    path = os.path.join(cfg["out"], f"metrics_{cfg['pipeline']}.json")
    with open(path, "w") as fh:
        json.dump({"pipeline": cfg["pipeline"], "instance_accuracy": inst,
                   "class_accuracy": cls}, fh, indent=1)
    print(f"instance {inst:.2f}%  class {cls:.2f}%  -> {path}")


def cmd_attack(cfg: dict) -> None:
    testset = load_split(cfg, "test")
    pipeline = _load_pipeline(cfg)
    report = attack_suite(pipeline, testset, epsilon=cfg["epsilon"])
    base = os.path.join(cfg["out"], f"attack_{cfg['pipeline']}")
    report.to_json(base + ".json")
    report.write_csv(base + ".csv")
    print(f"clean {report.clean_accuracy:.2f}%  attacked "
          f"{report.attacked_accuracy:.2f}%  ASR {report.attack_success_rate:.2f}%"
          f"  -> {base}.json")


def cmd_export_images(cfg: dict) -> None:
    testset = load_split(cfg, "test")
    pipeline = make_pipeline(cfg["pipeline"], len(_class_names(cfg)),
                             seed=cfg["seed"], map_seed=cfg["seed"])
    img_dir = os.path.join(cfg["out"], "images")
    os.makedirs(img_dir, exist_ok=True)
    seen = set()
    for cloud in testset:
        if cloud.label in seen:
            continue
        seen.add(cloud.label)
        image = pipeline.map_image(cloud)
        ext, write = (".pgm", write_pgm) if image.channels == 1 else (".ppm", write_ppm)
        path = os.path.join(img_dir, f"{cfg['pipeline']}_class{cloud.label}{ext}")
        write(image.data, path)
        print(path)


COMMANDS = {
    "dataset": cmd_dataset,
    "train": cmd_train,
    "eval": cmd_eval,
    "attack": cmd_attack,
    "export-images": cmd_export_images,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudmap",
        description="point cloud to image mapping experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--pipeline", choices=PIPELINE_NAMES)
        p.add_argument("--seed", type=int)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--epochs", type=int)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"out": args.out, "pipeline": args.pipeline, "seed": args.seed,
                 "epsilon": args.epsilon, "train.epochs": args.epochs}
    try:
        cfg = load_config(args.config, overrides)
        validate_config(cfg)
        COMMANDS[args.command](cfg)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
