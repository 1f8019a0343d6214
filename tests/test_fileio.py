import itertools
import math

import numpy as np
import pytest

from hjb_planner.fileio import CHUNK_ROWS, atomic_write_text, column_blocks, fmt, write_csv
from hjb_planner.simulate import write_trace


def test_raising_chunk_iterator_leaves_target_unchanged(tmp_path):
    target = tmp_path / "table.csv"

    def chunks():
        yield "a,b\n"
        yield "1,2\n" * CHUNK_ROWS
        raise RuntimeError("stub: row source failed")

    with pytest.raises(RuntimeError, match="stub: row source failed"):
        atomic_write_text(target, chunks())
    assert list(tmp_path.iterdir()) == []

    target.write_bytes(b"old,bytes\r\n\x00")
    with pytest.raises(RuntimeError, match="stub: row source failed"):
        atomic_write_text(target, chunks())
    assert target.read_bytes() == b"old,bytes\r\n\x00"
    assert list(tmp_path.iterdir()) == [target]


def test_failed_replace_is_named_and_leaves_no_temp_file(tmp_path):
    # the target is a directory: the temp file is written, the rename fails
    target = tmp_path / "table.csv"
    target.mkdir()
    with pytest.raises(OSError, match=r"^failed writing .*table\.csv: ") as excinfo:
        atomic_write_text(target, "a,b\n")
    assert isinstance(excinfo.value.__cause__, IsADirectoryError)
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


def test_chunks_and_str_write_the_same_bytes(tmp_path):
    parts = ["x\n", "", "1,2\n" * 3, "tail"]
    one = atomic_write_text(tmp_path / "one.txt", "".join(parts))
    many = atomic_write_text(tmp_path / "many.txt", iter(parts))
    assert many == tmp_path / "many.txt"
    assert one.read_bytes() == many.read_bytes() == b"x\n1,2\n1,2\n1,2\ntail"


def test_write_csv_past_one_chunk_equals_one_shot_join(tmp_path):
    # ints, strings and floats over more than two blocks, fed as a generator
    rows = [(i, f"s{i % 7}", i / 3.0, -math.inf if i % 11 == 0 else 1e-300 * i)
            for i in range(2 * CHUNK_ROWS + 5)]
    header = ["k", "name", "x", "y"]
    write_csv(tmp_path / "rows.csv", header, (row for row in rows))
    expected = "\n".join([",".join(header)] + [",".join(fmt(c) for c in row) for row in rows])
    assert (tmp_path / "rows.csv").read_text() == expected + "\n"


def test_write_trace_past_one_chunk_equals_one_shot_join(tmp_path):
    rng = np.random.default_rng(5)
    trace = rng.standard_normal((CHUNK_ROWS + 17, 5)) * 10.0 ** rng.integers(-300, 300, (1, 5))
    trace[3] = [0.0, -0.0, 5e-324, math.nan, math.inf]
    trace[CHUNK_ROWS] = [-math.inf, 1e16, -5e-324, 1e16 + 2.0, -0.0]
    write_trace(tmp_path / "trace.csv", trace, 3)
    lines = ["t,y_1,y_2,y_3,cost"]
    lines += [",".join(format(v, ".17g") for v in row) for row in trace.tolist()]
    assert (tmp_path / "trace.csv").read_text() == "\n".join(lines) + "\n"
    # the block formatter's %.17g gives write_csv's format(v, ".17g") bytes,
    # across a block boundary
    blocks = column_blocks(",".join(["%.17g"] * 5) + "\n", *trace.T)
    atomic_write_text(tmp_path / "blocks.csv", itertools.chain([lines[0] + "\n"], blocks))
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "trace.csv").read_bytes()
