"""Text inputs, read with the standard library alone: every line input
(CSV embeddings, match streams, value CSVs) goes through ``read_lines``
and every JSON input (config, partition) through ``read_json``, so that
all of them decode, split and report a bad byte alike."""
from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path

from .errors import FormatError


def open_text(path):
    """The file at ``path`` (the string ``-``: stdin) opened for
    ``read_lines``: UTF-8 whatever the locale, a byte that is not UTF-8
    kept as a lone surrogate, and every \\r\\n, \\r or \\n read as \\n."""
    if path != "-":
        return open(path, encoding="utf-8", errors="surrogateescape")
    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape", newline=None)
    return nullcontext(sys.stdin)


def read_lines(fh, where: str):
    """Yield the lines of the text stream ``fh`` without their newlines,
    less an empty last one, split 64 KiB of text and the rest of its last
    line at a time. A byte that is not UTF-8 is a ``FormatError``
    "``where`` line N: ...", raised once the lines before it are yielded."""
    lineno = 0
    while chunk := fh.read(1 << 16) + fh.readline():
        lines = chunk.removesuffix("\n").split("\n")
        if not chunk.isascii():
            try:
                chunk.encode("utf-8")
            except UnicodeEncodeError as exc:
                good = chunk.count("\n", 0, exc.start)
                yield from lines[:good]
                raise FormatError(f"{where} line {lineno + good + 1}: malformed record, byte "
                                  f"0x{ord(chunk[exc.start]) & 0xFF:02x} is not UTF-8") from None
        lineno += len(lines)
        yield from lines


def read_json(path, what: str):
    """The JSON value in the file at ``path`` (a file even if named
    ``-``), read by ``read_lines`` as every text input is; every error
    names the file and ``what`` it should hold."""
    try:
        with open_text(Path(path)) as fh:
            return json.loads("\n".join(read_lines(fh, f"{path}:")))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{path}: {what} is not valid JSON: nested too deeply") from None
