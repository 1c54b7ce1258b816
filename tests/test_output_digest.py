import hashlib
import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
spec = importlib.util.spec_from_file_location("output_digest", TOOL)
output_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digest)


def test_digests_of_a_two_file_tree_are_plain_sha1(tmp_path):
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "x.csv").write_bytes(b"epoch,mean_loss\n")
    (tmp_path / "a.json").write_bytes(b"{}")
    digests = output_digest.tree_digests(tmp_path)
    a, x = hashlib.sha1(b"{}").hexdigest(), hashlib.sha1(b"epoch,mean_loss\n").hexdigest()
    assert digests == [("a.json", a), ("b/x.csv", x)]
    listing = f"{a}  a.json\n{x}  b/x.csv\n".encode()
    assert output_digest.total_digest(digests) == hashlib.sha1(listing).hexdigest()


def test_criteria_prints_each_criterion_line_once_and_their_sha1(monkeypatch, capsys, tmp_path):
    # the acceptance run is stubbed: a failed criterion's line shows in its
    # failure report and again in the summary, and 10 sorts after 2
    lines = [f"[{'FAIL' if k == 2 else 'PASS'}] criterion {k}: detail {k}" for k in range(1, 11)]
    output = "\n".join(["..F.......", "____ test_criterion_2 ____",
                        "E   AssertionError: " + lines[1], "-- Captured stdout call --",
                        lines[1], "== acceptance criteria ==", *lines[9:], *lines[:9],
                        "1 failed, 9 passed in 40.00s", ""])

    def smoke_chain(out):
        out.mkdir(parents=True)
        (out / "a.json").write_bytes(b"{}")

    monkeypatch.setattr(output_digest, "run_smoke_chain", smoke_chain)
    monkeypatch.setattr(output_digest, "run_acceptance", lambda: output)
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in output_digest.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    output_digest.main(["--criteria"])
    listing = "".join(line + "\n" for line in lines)
    a = hashlib.sha1(b"{}").hexdigest()
    total = hashlib.sha1(f"{a}  a.json\n".encode()).hexdigest()
    assert capsys.readouterr().out == (
        f"{a}  a.json\ntotal {total} (1 files)\n" + listing
        + f"criteria {hashlib.sha1(listing.encode()).hexdigest()} (10 lines)\n")
