import hashlib
import importlib.util
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
