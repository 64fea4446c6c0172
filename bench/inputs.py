"""Seeded input generators and readers for the on-disk formats genval uses.

Every generator is a pure function of its seed and sizes, so two runs
with the same seed hand the program byte-identical inputs. The readers
parse EMBX and GMVI from their documented layouts, independently of the
genval package, so that the benchmark checks the program's files from
outside.
"""
from __future__ import annotations

import itertools
import json
import struct
from pathlib import Path

import numpy as np

EMBX_HEADER = struct.Struct("<4sIQII")  # magic, version, count, dim, dtype tag
GMVI_HEADER = struct.Struct("<4sIIIIQ")  # magic, version, M, subspace_dim, Ks, count

# separate random streams per generated file, so that resizing one
# input does not change the others
_STREAM_MATCHES = 1
_STREAM_PARTITION = 2
_STREAM_POINTS = 3
_STREAM_SAMPLE = 4


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def write_embx(path: Path, data: np.ndarray) -> None:
    data = np.ascontiguousarray(data, dtype="<f4")
    count, dim = data.shape
    with open(path, "wb") as fh:
        fh.write(EMBX_HEADER.pack(b"EMBX", 1, count, dim, 1))
        fh.write(data.tobytes())


def read_embx(path: Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    magic, version, count, dim, dtype = EMBX_HEADER.unpack_from(blob, 0)
    if (magic, version, dtype) != (b"EMBX", 1, 1):
        raise ValueError(f"{path}: not an EMBX v1 float32 file")
    if len(blob) != EMBX_HEADER.size + count * dim * 4:
        raise ValueError(f"{path}: size does not match its header")
    return np.frombuffer(blob, dtype="<f4", offset=EMBX_HEADER.size).reshape(count, dim)


def gmvi_size_error(path: Path, count: int) -> str | None:
    """Why a GMVI file's size or row count disagrees with its header, or None."""
    blob = Path(path).read_bytes()
    if len(blob) < GMVI_HEADER.size:
        return f"{path.name}: {len(blob)} bytes is shorter than the header"
    magic, version, m, sub_dim, ks, n = GMVI_HEADER.unpack_from(blob, 0)
    if (magic, version) != (b"GMVI", 1):
        return f"{path.name}: not a GMVI v1 file"
    width = 1 if ks <= 256 else 2
    expected = GMVI_HEADER.size + m * ks * sub_dim * 4 + n * m * width
    if len(blob) != expected:
        return f"{path.name}: {len(blob)} bytes, header implies {expected}"
    if n != count:
        return f"{path.name}: header count {n}, corpus has {count} rows"
    return None


def write_replay_matches(path: Path, seed: int, n: int, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Write an m-row, k-wide match JSONL file over n training rows.

    Row centres follow a Zipf law over a seeded permutation of the
    training rows, so a few rows collect most of the credit, as with a
    generator that copies part of its training set. Each row's k
    indices are distinct and its distances ascend. Returns the
    (indices, distances) tables as written.
    """
    r = rng(seed, _STREAM_MATCHES)
    hot = r.permutation(n)
    centres = hot[np.minimum(r.zipf(1.3, size=m) - 1, n - 1)]
    # strictly increasing offsets keep the k indices of a row distinct
    offsets = np.cumsum(r.integers(1, 8, size=(m, k)), axis=1)
    indices = (centres[:, None] + offsets) % n
    distances = np.sort(r.gamma(4.0, 2.0, size=(m, k)), axis=1)
    line = (
        '{"gen_index": %d, "matches": ['
        + ", ".join(['{"train_index": %d, "distance": %.9g}'] * k)
        + "]}\n"
    )
    with open(path, "w") as fh:
        for j, (idx_row, dist_row) in enumerate(zip(indices.tolist(), distances.tolist())):
            fh.write(line % (j, *itertools.chain.from_iterable(zip(idx_row, dist_row))))
    return indices, distances


def write_partition(path: Path, seed: int, n: int) -> None:
    """Split rows 0..n-1 into two seeded random halves, groups v1 and v2."""
    perm = rng(seed, _STREAM_PARTITION).permutation(n)
    half = n // 2
    groups = {"v1": sorted(perm[:half].tolist()), "v2": sorted(perm[half:].tolist())}
    Path(path).write_text(json.dumps(groups) + "\n")


def write_point_sets(source: Path, target: Path, seed: int, count: int, dim: int) -> None:
    """Two Gaussian point sets for the transport step; the target is shifted."""
    r = rng(seed, _STREAM_POINTS)
    write_embx(source, r.standard_normal((count, dim)))
    write_embx(target, r.standard_normal((count, dim)) + 0.5)


def sample_rows(seed: int, m: int, count: int) -> np.ndarray:
    """Sorted distinct row numbers in [0, m) for spot checks."""
    return np.sort(rng(seed, _STREAM_SAMPLE).choice(m, size=min(count, m), replace=False))
