"""Print a sha1 of every file the CI smoke chain writes, and one total, so
"outputs unchanged" is one command: run it on two trees and compare the
totals.

The chain is the one `.github/workflows/tier1.yml` runs: the `dataset`,
`train`, `eval`, `attack` and `export-images` commands for each of the
four pipelines, on the same tiny synthetic config. It runs in one process
through `cloudmap.cli.main`, in a temporary directory, with the package
imported from this checkout's `src`. BLAS gets one thread before numpy
loads, because TinyNet's matmuls add in an order that follows the thread
split (ROADMAP.md, item 7). Standard library plus the package; run from
anywhere:

    python tools/output_digest.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SMOKE_CONFIG = {
    "dataset": {"classes": ["sphere", "cube"], "train_per_class": 2,
                "test_per_class": 1, "points": 64},
    "train": {"epochs": 1, "batch_size": 2},
}


def tree_digests(root: Path) -> list:
    """(path relative to root, sha1 hex) of every file under root, sorted
    by path as `LC_ALL=C sort` orders them."""
    paths = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    return [(path, hashlib.sha1((root / path).read_bytes()).hexdigest()) for path in paths]


def total_digest(digests: list) -> str:
    """sha1 of the listing `sha1sum` would print for digests."""
    listing = "".join(f"{digest}  {path}\n" for path, digest in digests)
    return hashlib.sha1(listing.encode()).hexdigest()


def run_smoke_chain(out: Path) -> None:
    """Every command of every pipeline, each pipeline under out/smoke_<name>."""
    from cloudmap.cli import COMMANDS, main
    from cloudmap.pipeline import PIPELINE_NAMES

    config = out.parent / "smoke.json"
    config.write_text(json.dumps(SMOKE_CONFIG))
    for pipeline in PIPELINE_NAMES:
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(config), "--pipeline", pipeline,
                             "--out", str(out / f"smoke_{pipeline}")])
            if code:
                sys.exit(f"{command} --pipeline {pipeline} exited {code}")


def main() -> None:
    # before the package, and so numpy, is first imported
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        run_smoke_chain(out)
        digests = tree_digests(out)
    for path, digest in digests:
        print(f"{digest}  {path}")
    print(f"total {total_digest(digests)} ({len(digests)} files)")


if __name__ == "__main__":
    main()
