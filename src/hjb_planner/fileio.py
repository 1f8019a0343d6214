"""Deterministic text/CSV output helpers (atomic writes, 17-digit floats)."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Sequence


def fmt(value) -> str:
    """Render a cell: floats with 17 significant digits, else str()."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def atomic_write_text(path: str | os.PathLike, text: str) -> Path:
    """Write text to path via a temp file + rename so readers never see
    a partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)
    return path


def csv_text(text: str) -> str:
    """A free-text CSV cell (such as an error message), quoted as RFC 4180
    asks when it holds a comma, quote or newline."""
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write rows as CSV with a fixed column order and 17-digit floats."""
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    return atomic_write_text(path, "\n".join(lines) + "\n")
