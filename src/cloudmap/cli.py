"""Experiment driver: build datasets, train a pipeline, evaluate it, run
the attack, export mapped images. Batch only; every command validates its
config before writing anything and is deterministic given the seed.

Config is a JSON file plus flag overrides; see DEFAULT_CONFIG for the
schema and defaults. All outputs land under the config's out directory.
"""

import argparse
import copy
import csv
import json
import os
import sys
from dataclasses import replace

from .attack import attack_suite
from .cloud import (AugmentConfig, SYNTH_KINDS, load_off, normalize_unit,
                    read_xyz, sample_surface, synth_shape, write_xyz)
from .graphdraw import check_cloud_size
from .imagefile import write_pgm, write_ppm
from .net import (TrainConfig, evaluate, load_checkpoint, save_checkpoint,
                  train, write_loss_history)
from .pipeline import PIPELINE_NAMES, make_pipeline

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
    },
    "train": {
        "epochs": 40,
        "lr": 0.001,
        "lr_step": 20,
        "lr_gamma": 0.7,
        "batch_size": 16,
        "weight_decay": 0.0001,
        "augment": True,
    },
}


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        for key, val in user.items():
            if isinstance(val, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(val)
            else:
                cfg[key] = val
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    return cfg


def validate_config(cfg: dict) -> None:
    if cfg["pipeline"] not in PIPELINE_NAMES:
        raise ValueError(f"unknown pipeline {cfg['pipeline']!r}")
    ds = cfg["dataset"]
    if ds["type"] == "synthetic":
        bad = [k for k in ds["classes"] if k not in SYNTH_KINDS]
        if bad:
            raise ValueError(f"unknown shape kinds {bad}")
        if ds["train_per_class"] < 1 or ds["test_per_class"] < 1:
            raise ValueError("per-class counts must be >= 1")
        if ds["points"] < 64:
            raise ValueError("points must be >= 64")
    elif ds["type"] == "off_dir":
        if "path" not in ds:
            raise ValueError("an off_dir dataset needs the key 'path'")
        if not os.path.isdir(ds["path"]):
            raise ValueError(f"OFF directory not found: {ds['path']}")
        if ds.get("points", 1024) < 64:
            raise ValueError("points must be >= 64")
        if not 0 < ds.get("test_fraction", 0.2) < 1:
            raise ValueError("test_fraction must lie strictly between 0 and 1")
    else:
        raise ValueError(f"unknown dataset type {ds['type']!r}")
    if cfg["pipeline"] == "graphdraw":
        check_cloud_size(ds.get("points", 1024))
    tr = cfg["train"]
    if tr["epochs"] < 1 or tr["batch_size"] < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    if cfg["epsilon"] < 0:
        raise ValueError("epsilon must be >= 0")


def train_config(cfg: dict) -> TrainConfig:
    tr = cfg["train"]
    aug = AugmentConfig(seed=cfg["seed"]) if tr.get("augment", True) else None
    return TrainConfig(epochs=tr["epochs"], lr=tr["lr"], lr_step=tr["lr_step"],
                       lr_gamma=tr["lr_gamma"], batch_size=tr["batch_size"],
                       weight_decay=tr["weight_decay"], seed=cfg["seed"],
                       augment_cfg=aug)


def _dataset_dir(cfg: dict, split: str) -> str:
    return os.path.join(cfg["out"], "dataset", split)


def _class_names(cfg: dict) -> list:
    ds = cfg["dataset"]
    if ds["type"] == "synthetic":
        return list(ds["classes"])
    return sorted(d for d in os.listdir(ds["path"])
                  if os.path.isdir(os.path.join(ds["path"], d)))


def cmd_dataset(cfg: dict) -> None:
    validate_config(cfg)
    ds = cfg["dataset"]
    for split_idx, split in enumerate(("train", "test")):
        out_dir = _dataset_dir(cfg, split)
        os.makedirs(out_dir, exist_ok=True)
        rows = []
        if ds["type"] == "synthetic":
            count = ds["train_per_class"] if split == "train" else ds["test_per_class"]
            for ci, kind in enumerate(ds["classes"]):
                for idx in range(count):
                    cloud = synth_shape(kind, ds["points"],
                                        seed=[cfg["seed"], split_idx, ci, idx])
                    # labels are positions in the configured class list, so a
                    # subset of kinds still yields contiguous labels
                    cloud = replace(cloud, label=ci)
                    name = f"{kind}_{idx:04d}.xyz"
                    write_xyz(cloud, os.path.join(out_dir, name))
                    rows.append((name, cloud.label, kind))
        else:
            classes = _class_names(cfg)
            frac = ds.get("test_fraction", 0.2)
            for ci, kind in enumerate(classes):
                files = sorted(f for f in os.listdir(os.path.join(ds["path"], kind))
                               if f.endswith(".off"))
                n_test = max(1, int(round(frac * len(files)))) if len(files) > 1 else 0
                cut = len(files) - n_test
                chosen = files[cut:] if split == "test" else files[:cut]
                for idx, fname in enumerate(chosen):
                    mesh = load_off(os.path.join(ds["path"], kind, fname))
                    cloud = sample_surface(mesh, ds.get("points", 1024),
                                           seed=[cfg["seed"], split_idx, ci, idx])
                    cloud = normalize_unit(cloud)
                    cloud = replace(cloud, label=ci)
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
    clouds = []
    with open(labels_path, newline="") as fh:
        for row in csv.DictReader(fh):
            clouds.append(read_xyz(os.path.join(out_dir, row["file"]),
                                   label=int(row["label"])))
    return clouds


def _checkpoint_stem(cfg: dict) -> str:
    return os.path.join(cfg["out"], f"ckpt_{cfg['pipeline']}")


def _num_classes(clouds: list) -> int:
    return max(c.label for c in clouds) + 1


def cmd_train(cfg: dict) -> None:
    validate_config(cfg)
    trainset = load_split(cfg, "train")
    tcfg = train_config(cfg)
    pipeline = make_pipeline(cfg["pipeline"], _num_classes(trainset),
                             seed=cfg["seed"], map_seed=cfg["seed"])
    _, history = train(pipeline, trainset, tcfg)
    stem = _checkpoint_stem(cfg)
    save_checkpoint(pipeline.net, stem)
    write_loss_history(history, os.path.join(cfg["out"], f"loss_{cfg['pipeline']}.csv"))
    print(f"checkpoint {stem}.bin, final loss {history[-1]:.6f}")


def _load_pipeline(cfg: dict, num_classes: int):
    stem = _checkpoint_stem(cfg)
    if not os.path.isfile(stem + ".bin"):
        raise FileNotFoundError(f"{stem}.bin not found; run the train command first")
    net = load_checkpoint(stem)
    if net.num_classes != num_classes:
        raise ValueError(f"checkpoint has {net.num_classes} classes, "
                         f"dataset has {num_classes}")
    return make_pipeline(cfg["pipeline"], num_classes, seed=cfg["seed"],
                         net=net, map_seed=cfg["seed"])


def cmd_eval(cfg: dict) -> None:
    validate_config(cfg)
    testset = load_split(cfg, "test")
    pipeline = _load_pipeline(cfg, _num_classes(testset))
    inst, cls = evaluate(pipeline.net, pipeline, testset)
    path = os.path.join(cfg["out"], f"metrics_{cfg['pipeline']}.json")
    with open(path, "w") as fh:
        json.dump({"pipeline": cfg["pipeline"], "instance_accuracy": inst,
                   "class_accuracy": cls}, fh, indent=1)
    print(f"instance {inst:.2f}%  class {cls:.2f}%  -> {path}")


def cmd_attack(cfg: dict) -> None:
    validate_config(cfg)
    testset = load_split(cfg, "test")
    pipeline = _load_pipeline(cfg, _num_classes(testset))
    report = attack_suite(pipeline, testset, epsilon=cfg["epsilon"])
    base = os.path.join(cfg["out"], f"attack_{cfg['pipeline']}")
    report.to_json(base + ".json")
    report.write_csv(base + ".csv")
    print(f"clean {report.clean_accuracy:.2f}%  attacked "
          f"{report.attacked_accuracy:.2f}%  ASR {report.attack_success_rate:.2f}%"
          f"  -> {base}.json")


def cmd_export_images(cfg: dict) -> None:
    validate_config(cfg)
    testset = load_split(cfg, "test")
    pipeline = make_pipeline(cfg["pipeline"], _num_classes(testset),
                             seed=cfg["seed"], map_seed=cfg["seed"])
    img_dir = os.path.join(cfg["out"], "images")
    os.makedirs(img_dir, exist_ok=True)
    seen = set()
    for cloud in testset:
        if cloud.label in seen:
            continue
        seen.add(cloud.label)
        image = pipeline.map_image(cloud)
        name = f"{cfg['pipeline']}_class{cloud.label}"
        if image.channels == 1:
            path = os.path.join(img_dir, name + ".pgm")
            write_pgm(image.data[:, :, 0], path)
        else:
            path = os.path.join(img_dir, name + ".ppm")
            write_ppm(image.data, path)
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
                 "epsilon": args.epsilon}
    try:
        cfg = load_config(args.config, overrides)
        if args.epochs is not None:
            cfg["train"]["epochs"] = args.epochs
        COMMANDS[args.command](cfg)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
