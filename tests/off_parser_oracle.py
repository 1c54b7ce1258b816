"""Frozen copy of load_off as it was when it read the file through a
generator of (line number, text) pairs, with one StopIteration handler per
read. Tests use it as an oracle: the parser that reads one list of rows by
index must return the same mesh, or raise an OffParseError with the same
text. Do not edit this file.
"""

from pathlib import Path

import numpy as np

from cloudmap.cloud import Mesh, OffParseError


def load_off_oracle(path) -> Mesh:
    """Parse an ASCII OFF file.

    Accepts both the conventional two-line header and the squashed variant
    where the counts share the first line with the "OFF" keyword (with or
    without a separating space). Faces with more than three vertices are
    fan-triangulated.
    """
    path = Path(path)
    lines = path.read_text().splitlines()

    def tokens():
        for lineno, raw in enumerate(lines, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield lineno, text

    it = tokens()
    try:
        lineno, header = next(it)
    except StopIteration:
        raise OffParseError(f"{path}:1: empty file")
    if not header.startswith("OFF"):
        raise OffParseError(f"{path}:{lineno}: missing OFF header")
    rest = header[3:].strip()
    if rest:
        counts_line, counts_lineno = rest, lineno
    else:
        try:
            counts_lineno, counts_line = next(it)
        except StopIteration:
            raise OffParseError(f"{path}:{lineno}: missing counts after header")
    parts = counts_line.split()
    if len(parts) < 2:
        raise OffParseError(f"{path}:{counts_lineno}: expected vertex/face counts")
    try:
        n_vert, n_face = int(parts[0]), int(parts[1])
    except ValueError:
        raise OffParseError(f"{path}:{counts_lineno}: non-numeric counts {parts[:3]}")

    vertices = np.empty((n_vert, 3), dtype=np.float64)
    for i in range(n_vert):
        try:
            lineno, text = next(it)
        except StopIteration:
            raise OffParseError(f"{path}:{len(lines)}: expected {n_vert} vertices, got {i}")
        fields = text.split()
        if len(fields) < 3:
            raise OffParseError(f"{path}:{lineno}: vertex line needs 3 coordinates")
        try:
            vertices[i] = [float(v) for v in fields[:3]]
        except ValueError:
            raise OffParseError(f"{path}:{lineno}: non-numeric vertex coordinate")
        if not np.isfinite(vertices[i]).all():
            raise OffParseError(f"{path}:{lineno}: non-finite vertex coordinate")

    faces = []
    for i in range(n_face):
        try:
            lineno, text = next(it)
        except StopIteration:
            raise OffParseError(f"{path}:{len(lines)}: expected {n_face} faces, got {i}")
        fields = text.split()
        try:
            k = int(fields[0])
            idx = [int(v) for v in fields[1:1 + k]]
        except (ValueError, IndexError):
            raise OffParseError(f"{path}:{lineno}: malformed face line")
        if len(idx) != k or k < 3:
            raise OffParseError(f"{path}:{lineno}: face needs at least 3 vertex indices")
        if any(j < 0 or j >= n_vert for j in idx):
            raise OffParseError(f"{path}:{lineno}: face index out of range")
        for j in range(1, k - 1):
            faces.append((idx[0], idx[j], idx[j + 1]))

    return Mesh(vertices, np.asarray(faces, dtype=np.int64).reshape(-1, 3))
