"""The binary container rule that EMBX and GMVI share: a magic, a u32
version, the format's fields, then arrays that fill the file exactly.
Each corruption must raise the same FormatError from both loaders,
naming the file and the first bad byte."""
import re
import struct

import numpy as np
import pytest

from genval import (
    Codebook,
    CorruptionError,
    EmbeddingMatrix,
    FormatError,
    PQCodes,
    load_embeddings,
    load_index,
    save_embeddings,
    save_index,
)


def write_embx(path):
    save_embeddings(EmbeddingMatrix(np.arange(6, dtype=np.float32).reshape(3, 2)), path)


def write_gmvi(path, ks=3, codes=((0, 1), (2, 0))):
    centroids = np.arange(2 * ks, dtype=np.float32).reshape(2, ks, 1)
    save_index(Codebook(centroids), PQCodes(np.array(codes, dtype=np.uint16)), path)


# name: (writer, loader, header bytes)
FORMATS = {
    "embx": (write_embx, load_embeddings, 24),
    "gmvi": (write_gmvi, load_index, 28),
}


def flip(blob, at):
    return blob[:at] + bytes([blob[at] ^ 0x20]) + blob[at + 1:]


def set_u32(blob, at, value):
    return blob[:at] + struct.pack("<I", value) + blob[at + 4:]


# (id, mutate(blob) -> corrupt blob, message(header, size) for the original size)
CORRUPTIONS = [
    ("short-header", lambda b: b[:10],
     lambda h, n: f"truncated header, file ends at byte 10 but the header needs {h} bytes"),
    *[(f"magic-{i}", lambda b, i=i: flip(b, i), lambda h, n, i=i: f"bad magic at byte {i}, ")
      for i in range(4)],
    ("version", lambda b: set_u32(b, 4, 2), lambda h, n: "unsupported version 2 at byte 4"),
    ("one-short", lambda b: b[:-1],
     lambda h, n: f"wrong size at byte {n - 1}, expected {n} bytes total, found {n - 1}"),
    ("one-extra", lambda b: b + b"\x00",
     lambda h, n: f"wrong size at byte {n}, expected {n} bytes total, found {n + 1}"),
]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mutate, message", [c[1:] for c in CORRUPTIONS], ids=[c[0] for c in CORRUPTIONS])
def test_both_loaders_report_a_corruption_alike(tmp_path, fmt, mutate, message):
    write, load, header = FORMATS[fmt]
    path = tmp_path / f"file.{fmt}"
    write(path)
    blob = path.read_bytes()
    path.write_bytes(mutate(blob))
    with pytest.raises(FormatError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}: {message(header, len(blob))}")


@pytest.mark.parametrize("fmt, offset, value", [
    ("embx", 16, 0),  # dim
    ("gmvi", 8, 0),  # num_subspaces
    ("gmvi", 12, 0),  # subspace_dim
    ("gmvi", 16, 0),  # codebook_size
    ("gmvi", 16, 65537),
])
def test_field_checks_name_their_byte(tmp_path, fmt, offset, value):
    write, load, _ = FORMATS[fmt]
    path = tmp_path / f"file.{fmt}"
    write(path)
    path.write_bytes(set_u32(path.read_bytes(), offset, value))
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: .*byte {offset}\b"):
        load(path)


@pytest.mark.parametrize("ks, width", [(256, 1), (257, 2)])
def test_index_code_width_follows_the_documented_layout(tmp_path, ks, width):
    """28-byte header, M*Ks*subspace_dim float32 centroids, then count*M
    codes of one byte up to 256 centroids and two bytes beyond."""
    path = tmp_path / "i.gmvi"
    codes = [(0, ks - 1), (ks - 1, 1), (2, 0)]
    write_gmvi(path, ks, codes)
    assert path.stat().st_size == 28 + 2 * ks * 1 * 4 + 3 * 2 * width
    _, back = load_index(path)
    assert back.codes.dtype.itemsize == width
    np.testing.assert_array_equal(back.codes, codes)



def test_index_non_finite_centroid_names_the_file(tmp_path):
    path = tmp_path / "i.gmvi"
    write_gmvi(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:28] + struct.pack("<f", np.nan) + blob[32:])
    with pytest.raises(CorruptionError, match=rf"^{re.escape(str(path))}: codebook contains non-finite"):
        load_index(path)
