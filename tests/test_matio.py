import os
import threading

import numpy as np
import pytest

from fmbs import DimensionError, ParseError, load_matrix, save_matrix
from fmbs.matio import _HEADER, BINARY_VERSION, MAGIC


def test_text_identity_example(tmp_path):
    path = tmp_path / "ident.csv"
    path.write_text("2,2\n1,0\n0,1\n")
    assert np.array_equal(load_matrix(path), np.eye(2))


def test_text_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 8, size=(5, 3))
    path = tmp_path / "m.csv"
    save_matrix(path, a, fmt="csv")
    assert np.array_equal(load_matrix(path), a)  # shortest-repr text is value-exact


def test_binary_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((7, 4))
    path = tmp_path / "m.bin"
    save_matrix(path, a)
    back = load_matrix(path)
    assert back.tobytes() == a.tobytes()


def test_binary_layout(tmp_path):
    path = tmp_path / "m.bin"
    save_matrix(path, np.eye(2))
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    assert blob[4] == BINARY_VERSION
    assert len(blob) == _HEADER.size + 4 * 8


def test_truncated_binary_names_byte_counts(tmp_path):
    path = tmp_path / "m.bin"
    save_matrix(path, np.eye(3))
    blob = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(blob[:-5])
    with pytest.raises(ParseError) as err:
        load_matrix(tmp_path / "cut.bin")
    assert str(_HEADER.size + 9 * 8) in str(err.value)
    assert str(_HEADER.size + 9 * 8 - 5) in str(err.value)


def test_binary_bad_version(tmp_path):
    path = tmp_path / "m.bin"
    save_matrix(path, np.eye(2))
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError):
        load_matrix(path)


def test_text_row_count_mismatch(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("3,2\n1,0\n0,1\n")
    with pytest.raises(DimensionError):
        load_matrix(path)


def test_text_column_count_mismatch(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("2,2\n1,0\n0,1,5\n")
    with pytest.raises(DimensionError):
        load_matrix(path)


def test_text_bad_token_reports_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("2,2\n1,0\n0,oops\n")
    with pytest.raises(ParseError) as err:
        load_matrix(path)
    assert ":3:" in str(err.value)


def test_text_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("2 by 2\n")
    with pytest.raises(ParseError):
        load_matrix(path)


def test_text_nonfinite_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\nnan,1\n")
    with pytest.raises(ParseError):
        load_matrix(path)


@pytest.mark.parametrize("blob, message", [
    (b"\xff\xfe rows", "neither magic-tagged binary nor utf-8 text"),
    (MAGIC + bytes([BINARY_VERSION]) + bytes(8), "truncated header"),
    (_HEADER.pack(MAGIC, BINARY_VERSION, 0, 3), "dimensions must be positive, got 0x3"),
    (_HEADER.pack(MAGIC, BINARY_VERSION, 1, 2) + np.array([np.nan, 1.0]).tobytes(), "must be finite"),
    (b"a,b\n1,2\n", "header must be two integers"),
    (b"0,3\n", "dimensions must be positive, got 0x3"),
], ids=["not-utf8", "short-header", "binary-zero-dim", "binary-nan", "text-header-words",
        "text-header-zero"])
def test_malformed_file_raises_parse_error(tmp_path, blob, message):
    path = tmp_path / "m.dat"
    path.write_bytes(blob)
    with pytest.raises(ParseError, match=message):
        load_matrix(path)


def test_empty_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_matrix(path)


def test_save_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "m.x", np.eye(2), fmt="parquet")


def test_binary_io_holds_one_copy(tmp_path, traced_peak):
    # load reads straight into the result and save writes the array's own
    # buffer, so neither holds a second copy of the matrix
    a = np.random.default_rng(2).standard_normal((1000, 100))
    path = tmp_path / "m.bin"
    assert traced_peak(lambda: save_matrix(path, a)) <= 0.1 * a.nbytes
    assert traced_peak(lambda: load_matrix(path)) <= 1.1 * a.nbytes
    assert load_matrix(path).tobytes() == a.tobytes()


def test_binary_from_pipe(tmp_path):
    # a pipe has no size to check up front: it is read to the end, and a
    # short one names the same byte counts as a short file
    a = np.random.default_rng(3).standard_normal((50, 4))
    save_matrix(tmp_path / "m.bin", a)
    blob = (tmp_path / "m.bin").read_bytes()
    for data in (blob, blob[:-5]):
        fifo = tmp_path / "m.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            if data == blob:
                assert load_matrix(fifo).tobytes() == a.tobytes()
            else:
                with pytest.raises(ParseError, match=f"expected {len(blob)} bytes .* got {len(data)}$"):
                    load_matrix(fifo)
        finally:
            writer.join()
            fifo.unlink()


@pytest.mark.parametrize("rows, cols", [(2**40, 2**40), (10**6, 10**5)])
def test_binary_pipe_with_oversized_header(tmp_path, rows, cols):
    # a pipe's size is unknown before the result is allocated, so a header
    # too large to allocate is refused naming its dimensions (a host that
    # overcommits 745 GiB names them in the size check instead); only the
    # header is written, so the writer never meets a closed pipe
    fifo = tmp_path / "m.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, daemon=True,
                              args=(_HEADER.pack(MAGIC, BINARY_VERSION, rows, cols),))
    writer.start()
    try:
        with pytest.raises(ParseError, match=f"{rows}x{cols}"):
            load_matrix(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_regular_file_too_large_to_allocate_is_not_a_parse_error(tmp_path, monkeypatch):
    # a regular file whose size matches its header is well formed, so failing
    # to allocate it is the host's limit, not bad input
    path = tmp_path / "m.bin"
    save_matrix(path, np.eye(2))

    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "empty", refuse)
    with pytest.raises(MemoryError):
        load_matrix(path)
