"""Per-layer tracing for the traced benchmark run.

Each traced function is replaced by one wrapper in every cloudmap module
namespace (and module-level dict) that binds it, so a call is seen
whichever name it goes through: `attack.loss_and_grad` and `net.loss_and_grad`
share a wrapper. Pipeline methods are wrapped on the class. The wrapper
records calls and self time (time in the call minus time in traced calls
it made) plus three counts read from arguments and return values.
"""

import hashlib
import sys
import time
from collections import defaultdict

import numpy as np

# layer (cloudmap module) -> traced functions; the pipeline entries are
# methods of pipeline.Pipeline
LAYERS = {
    "cloud": ("synth_shape", "augment", "write_xyz", "read_xyz"),
    "project": ("basic_project", "basic_project_leaky"),
    "render": ("zbuffer", "positional_embedding", "adain"),
    "graphdraw": ("balanced_kmeans", "delaunay3", "grid_embed", "draw_image",
                  "map_graphdraw"),
    "pipeline": ("map_image", "net_input_from_image"),
    "net": ("forward", "loss_and_grad", "adam_step", "train", "evaluate",
            "predict", "save_checkpoint", "load_checkpoint"),
    "attack": ("input_point_gradient", "fgsm", "attack_suite"),
    "imagefile": ("write_ppm", "write_pgm"),
    "cli": ("cmd_dataset", "cmd_train", "cmd_eval", "cmd_attack",
            "cmd_export_images"),
}
SELF_TIME_ONLY = ("cli",)
COUNTS = {
    "graphdraw.grid_embed.passes": "count",
    "graphdraw.delaunay3.edges": "count",
    "pipeline.map_image.unique_ratio": "ratio",
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, names in LAYERS.items():
        for fn in names:
            if layer not in SELF_TIME_ONLY:
                units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    units.update(COUNTS)
    return units


def _points_key(cloud):
    return hashlib.sha1(np.ascontiguousarray(cloud.points).tobytes()).digest()


class Tracer:
    """Install with install(), mark round ends with end_round(), restore
    the originals with uninstall(), then read metrics()."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.rounds = 0
        self._stack = []
        self._round_keys = set()
        self._distinct_keys = 0
        self._patched = []

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - child[0]
                if self._stack:
                    self._stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result
        return traced

    def _after_grid_embed(self, args, result):
        self.counts["graphdraw.grid_embed.passes"] += len(result.energy_trace) - 1

    def _after_delaunay3(self, args, result):
        self.counts["graphdraw.delaunay3.edges"] += len(result.edges)

    def _after_map_image(self, args, result):
        self._round_keys.add(_points_key(args[1]))

    def install(self):
        after = {"graphdraw.grid_embed": self._after_grid_embed,
                 "graphdraw.delaunay3": self._after_delaunay3,
                 "pipeline.map_image": self._after_map_image}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "cloudmap" or n.startswith("cloudmap.")]
        pipeline_cls = sys.modules["cloudmap.pipeline"].Pipeline
        for layer, names in LAYERS.items():
            for fn_name in names:
                key = f"{layer}.{fn_name}"
                if layer == "pipeline":
                    original = pipeline_cls.__dict__[fn_name]
                    self._set(pipeline_cls, fn_name,
                              self._wrap(key, original, after.get(key)))
                    continue
                original = getattr(sys.modules[f"cloudmap.{layer}"], fn_name)
                wrapper = self._wrap(key, original, after.get(key))
                for mod in namespaces:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)
                        elif isinstance(value, dict):
                            for k, v in value.items():
                                if v is original:
                                    self._patched.append((value, k, original))
                                    value[k] = wrapper

    def _set(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched = []

    def end_round(self):
        self.rounds += 1
        self._distinct_keys += len(self._round_keys)
        self._round_keys = set()

    def metrics(self):
        """Per-round means of every per-layer metric; unique_ratio is the
        distinct clouds mapped within a round over map_image calls."""
        rounds = max(self.rounds, 1)
        out = {}
        for name in metric_units():
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls[base] / rounds
            elif kind == "self_s":
                out[name] = self.self_s[base] / rounds
            elif name == "pipeline.map_image.unique_ratio":
                maps = self.calls["pipeline.map_image"]
                out[name] = self._distinct_keys / maps if maps else 0.0
            else:
                out[name] = self.counts[name] / rounds
        return out
