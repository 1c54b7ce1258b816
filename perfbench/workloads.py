"""The benchmark's three workloads. Each builds its inputs from the seed
with cloud.synth_shape, runs whole rounds of calls into cloudmap's public
functions, and checks the outputs of its first round against the
computations in reference.py or against properties the method must have.

Functions are called through their module (net.train, not a bound
name) so the traced run sees these outer calls too.
"""

import contextlib
import copy
import csv
import io
import json
import math
import os
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np

from cloudmap import attack, cli, cloud, graphdraw, net, pipeline, project

import reference

EPSILON = 0.1
KINDS = cloud.SYNTH_KINDS
N_CLASSES = len(KINDS)


class Round:
    """Times one round's operations. An operation that raises is counted
    as failed; its time and work are left out of the rates."""

    def __init__(self):
        self.phase_s = defaultdict(float)
        self.work = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.wall_s = 0.0
        self.outputs = {}

    def call(self, phase, work, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is reported, not fatal
            self.failed += 1
            self.errors.append(f"{phase}: {exc!r}")
            return None
        self.phase_s[phase] += time.perf_counter() - t0
        self.work[phase] += work
        return result


def rate(rounds, phase):
    """Work per second in one phase: its work over its time, both summed
    over every round of the run."""
    seconds = sum(r.phase_s[phase] for r in rounds)
    return sum(r.work[phase] for r in rounds) / seconds if seconds else 0.0


def synth_set(seed, split, per_class, points):
    """per_class clouds of every kind, seeded [seed, split, class, index]
    as the CLI's dataset command seeds them."""
    return [cloud.synth_shape(kind, points, seed=[seed, split, ci, i])
            for ci, kind in enumerate(KINDS) for i in range(per_class)]


def fresh(pipe):
    """The pipeline with its own copy of the initial net, so that every
    round trains from the same weights."""
    return replace(pipe, net=copy.deepcopy(pipe.net))


def check_report(name, report, failures):
    rows = [(o["label"], o["clean_pred"], o["attacked_pred"], o["perturbation_l2"])
            for o in report.outcomes]
    clean, attacked, asr, _ = reference.attack_summary(rows)
    got = (report.clean_accuracy, report.attacked_accuracy, report.attack_success_rate)
    if not np.allclose(got, (clean, attacked, asr), rtol=0, atol=1e-9):
        failures.append(f"{name}: report {got} != recomputed {(clean, attacked, asr)}")


def check_image(name, got, want, mask, failures):
    if got.shape != want.shape:
        failures.append(f"{name}: image shape {got.shape} != {want.shape}")
    elif not np.allclose(got[mask], want[mask], rtol=0, atol=1e-12):
        bad = int((~np.isclose(got[mask], want[mask], rtol=0, atol=1e-12)).sum())
        failures.append(f"{name}: {bad} pixel values differ from the reference")


# ---------------------------------------------------------------------------

class TrainStatic:
    """basic, leaky and zbuffer at 256 points: net.train without
    augmentation, then net.evaluate, then attack.attack_suite."""
    PIPELINES = ("basic", "leaky", "zbuffer")
    POINTS = 256
    TRAIN_PER_CLASS = 8
    TEST_PER_CLASS = 8
    EPOCHS = 3
    BATCH = 8

    def setup(self, seed, run_dir):
        return {
            "train": synth_set(seed, 0, self.TRAIN_PER_CLASS, self.POINTS),
            "test": synth_set(seed, 1, self.TEST_PER_CLASS, self.POINTS),
            "pipes": [pipeline.make_pipeline(name, N_CLASSES, seed=seed)
                      for name in self.PIPELINES],
            "tcfg": net.TrainConfig(epochs=self.EPOCHS, batch_size=self.BATCH, seed=seed),
        }

    def run_round(self, ctx, index):
        r = Round()
        train, test = ctx["train"], ctx["test"]
        for pipe in ctx["pipes"]:
            p = fresh(pipe)
            trained = r.call("train", len(train) * self.EPOCHS, net.train,
                             p, train, ctx["tcfg"])
            r.call("eval", len(test), net.evaluate, p.net, p, test)
            report = r.call("attack", len(test), attack.attack_suite, p, test,
                            epsilon=EPSILON)
            history = None if trained is None else trained[1]
            r.outputs[p.name] = (p, history, report)
        return r

    def check(self, ctx, first):
        failures = []
        samples = ctx["test"][::self.TEST_PER_CLASS][:2]
        for name, (p, history, report) in first.outputs.items():
            if history is not None and not history[-1] < history[0]:
                failures.append(f"{name}: loss did not fall: {history}")
            if report is not None:
                check_report(name, report, failures)
                if p.grad_path is project.GradPath.BLOCKED:
                    moved = [o["sample"] for o in report.outcomes
                             if o["attacked_pred"] != o["clean_pred"]]
                    if moved:
                        failures.append(f"{name}: blocked attack changed samples {moved}")
            for c in samples:
                x = p.net_input(c)
                got = net.forward(p.net, x, downsample=p.downsample)
                want = reference.tinynet_logits(p.net.params, x, p.downsample)
                err = np.abs(got - want).max() / np.abs(want).max()
                if not err <= 1e-9:
                    failures.append(f"{name}: logits off the reference by {err:.3g} relative")
                image = p.map_image(c).data
                if name == "basic":
                    check_image(name, image, reference.occupancy(c.points, p.size),
                                reference.compared_pixels(c.points, p.size, 1), failures)
                elif name == "zbuffer":
                    z = p.zconfig
                    if z.view != "z":
                        failures.append(f"zbuffer: reference handles view z, not {z.view}")
                        continue
                    want_img = reference.max_splat(c.points, z.size, z.alpha, z.beta, z.splat)
                    mask = reference.compared_pixels(c.points, z.size, z.splat // 2 + 1)
                    check_image(name, image, want_img, mask, failures)
        return failures


# ---------------------------------------------------------------------------

class GraphdrawAttack:
    """graphdraw at 1024 points, one cloud per class, a fixed-seed net.
    For each cloud: one epoch of net.train without augmentation,
    net.evaluate, then attack.attack_suite."""
    POINTS = 1024
    K, ALPHA = 32, 1.2  # map_graphdraw's defaults, which the pipeline uses

    def setup(self, seed, run_dir):
        return {
            "clouds": synth_set(seed, 1, 1, self.POINTS),
            "pipe": pipeline.make_pipeline("graphdraw", N_CLASSES, seed=seed, map_seed=seed),
            "tcfg": net.TrainConfig(epochs=1, seed=seed),
        }

    def run_round(self, ctx, index):
        r = Round()
        p = fresh(ctx["pipe"])
        # one cloud at a time, so that every phase is sampled across the
        # whole round and a slow spell of the machine hits them alike
        reports = []
        for c in ctx["clouds"]:
            r.call("train", 1, net.train, p, [c], ctx["tcfg"])
            r.call("eval", 1, net.evaluate, p.net, p, [c])
            reports.append(r.call("attack", 1, attack.attack_suite, p, [c],
                                  epsilon=EPSILON))
        r.outputs["graphdraw"] = (p, reports)
        return r

    def check(self, ctx, first):
        failures = []
        p, reports = first.outputs["graphdraw"]
        for report in reports:
            if report is None:
                continue
            check_report("graphdraw", report, failures)
            for o in report.outcomes:
                # every coordinate moved by 0 or epsilon: L2 = epsilon * sqrt(moved)
                moved = (o["perturbation_l2"] / EPSILON) ** 2
                if abs(moved - round(moved)) > 1e-6 * max(moved, 1.0):
                    failures.append(f"graphdraw: class {o['label']} L2 "
                                    f"{o['perturbation_l2']} is not epsilon * sqrt(k)")
        for c in ctx["clouds"]:
            kind = KINDS[c.label]
            image = p.map_image(c)
            self._check_links(kind, c, image, failures)
            self._check_clusters(kind, c, p.map_seed, failures)
            if kind == "torus":
                self._check_gradient(p, c, image, failures)
        return failures

    def _check_links(self, kind, c, image, failures):
        """Each point owns one pixel, linked on all three channels, that
        holds its encoded coordinates; no other pixel is lit."""
        links = image.leak_map
        order = np.lexsort((links[:, 3], links[:, 2]))
        rows, cols, pts, chans = links[order].T
        n = c.n
        if len(links) != 3 * n or not (pts == np.repeat(np.arange(n), 3)).all() \
                or not (chans == np.tile(np.arange(3), n)).all():
            failures.append(f"graphdraw {kind}: leak_map is not 3 links per point")
            return
        r, col = rows[::3], cols[::3]
        if not ((rows.reshape(n, 3) == r[:, None]).all()
                and (cols.reshape(n, 3) == col[:, None]).all()):
            failures.append(f"graphdraw {kind}: a point links to more than one pixel")
            return
        if len(np.unique(r * image.width + col)) != n:
            failures.append(f"graphdraw {kind}: two points share a pixel")
        want = np.clip((c.points + 1.0) / 2.0, 0.0, 1.0)
        if not np.array_equal(image.data[r, col], want):
            failures.append(f"graphdraw {kind}: pixel values are not clip((p + 1) / 2)")
        lit = image.data.any(axis=2)
        lit[r, col] = False
        if lit.any():
            failures.append(f"graphdraw {kind}: {int(lit.sum())} lit pixels have no point")

    def _check_clusters(self, kind, c, map_seed, failures):
        h = graphdraw.balanced_kmeans(c, k=self.K, alpha=self.ALPHA, seed=map_seed)
        cap = math.ceil(self.ALPHA * c.n / self.K)
        sizes = [len(m) for m in h.members]
        if max(sizes) > cap:
            failures.append(f"graphdraw {kind}: cluster of {max(sizes)} > cap {cap}")
        if not np.array_equal(np.sort(np.concatenate(h.members)), np.arange(c.n)):
            failures.append(f"graphdraw {kind}: clusters do not partition the cloud")
        if kind != "torus":
            return  # other kinds have cospherical or coplanar clusters
        from scipy.spatial import ConvexHull, Delaunay
        for i, mem in enumerate(h.members):
            if len(mem) < 5:
                continue
            pts = c.points[mem]
            got = {tuple(e) for e in graphdraw.delaunay3(pts).edges.tolist()}
            want = reference.simplex_edges(Delaunay(pts).simplices)
            hull = reference.simplex_edges(ConvexHull(pts).simplices)
            # Missing convex-hull edges are a known fault of delaunay3 (see
            # CHANGES.md); any other difference fails the check.
            if got - want or (want - got) - hull:
                failures.append(f"graphdraw torus cluster {i}: edges differ from "
                                f"Delaunay: extra {sorted(got - want)}, "
                                f"missing {sorted(want - got - hull)}")

    def _check_gradient(self, p, c, image, failures):
        """input_point_gradient against central differences of the loss
        through project.remap_frozen, then fgsm against its sign."""
        label = c.label
        g = attack.input_point_gradient(p, c, label, image=image)

        def loss(points):
            data = project.remap_frozen(image, c.with_points(points))
            frozen = project.MappedImage(data, image.grad_path, image.leak_map,
                                         image.source_key)
            x = p.net_input_from_image(frozen)
            return net.loss_and_grad(p.net, x, label, downsample=p.downsample)[0]

        h = 1e-5
        unclipped = np.abs(c.points) < 1.0 - 10 * h
        for flat in np.argsort(-np.where(unclipped, np.abs(g), -1.0), axis=None)[:4]:
            i, k = np.unravel_index(flat, g.shape)
            plus, minus = c.points.copy(), c.points.copy()
            plus[i, k] += h
            minus[i, k] -= h
            fd = (loss(plus) - loss(minus)) / (2 * h)
            if not abs(fd - g[i, k]) <= 1e-7 + 1e-4 * abs(g[i, k]):
                failures.append(f"graphdraw: d loss / d p[{i},{k}] = {g[i, k]:.6g}, "
                                f"finite difference {fd:.6g}")
        result = attack.fgsm(p, c, label, epsilon=EPSILON)
        step = result.cloud.points - c.points
        if not np.allclose(np.abs(step)[step != 0], EPSILON, rtol=0, atol=1e-12):
            failures.append("graphdraw: fgsm moved a coordinate by neither 0 nor epsilon")
        if not np.allclose(step, EPSILON * np.sign(g), rtol=0, atol=1e-12):
            failures.append("graphdraw: fgsm step is not epsilon * sign(gradient)")


# ---------------------------------------------------------------------------

class CliLeaky:
    """In-process cli.main chain dataset -> train -> eval -> attack ->
    export-images for leaky at 1024 points with augmentation, each round
    into a fresh output directory."""
    POINTS = 1024
    TRAIN_PER_CLASS = 4
    TEST_PER_CLASS = 2
    EPOCHS = 2
    BATCH = 4
    STEPS = (("dataset", "dataset"), ("train", "train"), ("eval", "eval"),
             ("attack", "attack"), ("export-images", "export"))

    def setup(self, seed, run_dir):
        config = {
            "seed": seed, "pipeline": "leaky", "epsilon": EPSILON,
            "dataset": {"type": "synthetic", "classes": list(KINDS),
                        "train_per_class": self.TRAIN_PER_CLASS,
                        "test_per_class": self.TEST_PER_CLASS, "points": self.POINTS},
            "train": {"epochs": self.EPOCHS, "batch_size": self.BATCH, "augment": True},
        }
        config_path = os.path.join(run_dir, "config.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        return {
            "config": config_path,
            "run_dir": run_dir,
            "splits": {"train": synth_set(seed, 0, self.TRAIN_PER_CLASS, self.POINTS),
                       "test": synth_set(seed, 1, self.TEST_PER_CLASS, self.POINTS)},
        }

    def run_round(self, ctx, index):
        r = Round()
        out = os.path.join(ctx["run_dir"], f"round{index}")
        n_train = len(ctx["splits"]["train"])
        n_test = len(ctx["splits"]["test"])
        work = {"dataset": n_train + n_test, "train": n_train * self.EPOCHS,
                "eval": n_test, "attack": n_test, "export": N_CLASSES}
        for command, phase in self.STEPS:
            r.call(phase, work[phase], run_cli,
                   [command, "--config", ctx["config"], "--out", out])
        r.outputs["out"] = out
        r.outputs["ok"] = r.failed == 0
        return r

    def check(self, ctx, first):
        if not first.outputs["ok"]:
            return []  # failed operations are counted, their outputs not checked
        out = first.outputs["out"]
        failures = []
        splits = ctx["splits"]
        for split, clouds in splits.items():
            per_class = len(clouds) // N_CLASSES
            for j, c in enumerate(clouds):
                path = os.path.join(out, "dataset", split,
                                    f"{KINDS[c.label]}_{j % per_class:04d}.xyz")
                with open(path) as fh:
                    got = np.array([[float(v) for v in line.split()] for line in fh])
                if not np.array_equal(got, c.points):
                    failures.append(f"{path}: does not match synth_shape")

        stem = os.path.join(out, "ckpt_leaky")
        loaded = net.load_checkpoint(stem)
        with open(stem + ".json") as fh:
            shapes = json.load(fh)["params"]
        flat = np.fromfile(stem + ".bin", dtype="<f8")
        pos = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            if not np.array_equal(loaded.params[name], flat[pos:pos + size].reshape(shape)):
                failures.append(f"checkpoint: {name} reloads to different values")
            pos += size
        resaved = os.path.join(out, "resaved")
        net.save_checkpoint(loaded, resaved)
        with open(stem + ".bin", "rb") as a, open(resaved + ".bin", "rb") as b:
            if pos != len(flat) or a.read() != b.read():
                failures.append("checkpoint: save(load(checkpoint)) changes its bytes")

        base = os.path.join(out, "attack_leaky")
        with open(base + ".json") as fh:
            summary = json.load(fh)
        with open(base + ".csv", newline="") as fh:
            rows = [(int(row["label"]), int(row["clean_pred"]), int(row["attacked_pred"]),
                     float(row["perturbation_l2"])) for row in csv.DictReader(fh)]
        want = reference.attack_summary(rows)
        got = (summary["clean_accuracy"], summary["attacked_accuracy"],
               summary["attack_success_rate"], summary["mean_perturbation_l2"])
        if summary["n_samples"] != len(rows) or not np.allclose(got, want, rtol=1e-12, atol=1e-9):
            failures.append(f"attack: JSON {got} disagrees with its CSV rows {want}")

        size = pipeline.make_pipeline("leaky", N_CLASSES).size
        for c in splits["test"][::self.TEST_PER_CLASS]:
            path = os.path.join(out, "images", f"leaky_class{c.label}.ppm")
            got_img = reference.read_ppm(path)
            want_img = reference.quantize_u8(reference.leaky(c.points, size))
            mask = reference.compared_pixels(c.points, size, 1)
            if got_img.shape != want_img.shape or \
                    not np.array_equal(got_img[mask], want_img[mask]):
                failures.append(f"{path}: differs from the reference leaky image")
        return failures


def run_cli(argv):
    """One cli.main command with its progress lines discarded; a nonzero
    exit code is a failed operation."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cloudmap {' '.join(argv)} exited with {code}")


WORKLOADS = {
    "train_static": TrainStatic(),
    "graphdraw_attack": GraphdrawAttack(),
    "cli_leaky": CliLeaky(),
}
