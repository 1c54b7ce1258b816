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

With --criteria it then also runs tests/test_acceptance.py under pytest,
at one BLAS thread with this checkout's `src`, and prints the ten
criterion lines and the sha1 of those lines:

    python tools/output_digest.py --criteria
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
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


def run_acceptance() -> str:
    """pytest's output over tests/test_acceptance.py, run in a child
    process that inherits this one's environment and imports `src`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        cwd=ROOT, env=env, capture_output=True, text=True).stdout


def criterion_lines(output: str) -> list:
    """The [PASS]/[FAIL] criterion lines of an acceptance run, each once,
    in criterion order; pytest prints a line again in a failure report."""
    lines = re.findall(r"^\[(?:PASS|FAIL)\] criterion \d+: .*$", output, re.MULTILINE)
    return sorted(dict.fromkeys(lines), key=lambda line: int(line.split()[2][:-1]))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--criteria", action="store_true",
                        help="also run the acceptance criteria and print their lines' sha1")
    args = parser.parse_args(argv)
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
    if args.criteria:
        output = run_acceptance()
        lines = criterion_lines(output)
        if not lines:
            sys.exit(f"the acceptance run printed no criterion line:\n{output}")
        listing = "".join(line + "\n" for line in lines)
        print(listing, end="")
        print(f"criteria {hashlib.sha1(listing.encode()).hexdigest()} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
