"""Deterministic text/CSV output helpers (atomic writes, 17-digit floats).

Every artifact goes through atomic_write_text, which takes the text whole
or as an iterable of chunks and writes each chunk as it arrives.  Table
writers hand it CHUNK_ROWS rows at a time, so a table costs one block of
text in memory, not the whole table.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

CHUNK_ROWS = 4096  # rows formatted into one block of text per write


def fmt(value) -> str:
    """Render a cell: floats with 17 significant digits, else str()."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def column_blocks(row: str, *columns: np.ndarray) -> Iterator[str]:
    """Equal-length columns as text, CHUNK_ROWS rows per block, each block
    one %-format of row repeated, whose conversions take one value per
    column in order (such as "2,0.5,%.17g,%.17g\\n")."""
    for start in range(0, len(columns[0]), CHUNK_ROWS):
        block = np.column_stack([c[start : start + CHUNK_ROWS] for c in columns]).ravel().tolist()
        yield (row * (len(block) // len(columns))) % tuple(block)


def atomic_write_text(path: str | os.PathLike, text: str | Iterable[str]) -> Path:
    """Write text, a str or an iterable of str chunks, to path via a temp
    file + rename, so readers never see a partial file.  Each chunk is
    written as it arrives; if the iterable raises, the temp file is removed
    and an existing file at path is left as it was.  Any OSError, from
    creating path's directory on, is raised as one naming path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "w") as fh:
                fh.writelines((text,) if isinstance(text, str) else text)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
    return path


def csv_text(text: str) -> str:
    """A free-text CSV cell (such as an error message), quoted as RFC 4180
    asks when it holds a comma, quote or newline."""
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write rows as CSV with a fixed column order and 17-digit floats,
    formatting CHUNK_ROWS rows per block."""

    def chunks():
        yield ",".join(header) + "\n"
        it = iter(rows)
        while block := list(itertools.islice(it, CHUNK_ROWS)):
            yield "".join([",".join([fmt(cell) for cell in row]) + "\n" for row in block])

    return atomic_write_text(path, chunks())
