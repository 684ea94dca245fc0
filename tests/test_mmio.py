"""Tests for Matrix Market I/O."""

import io

import numpy as np
import pytest

from repro.formats.convert import csr_from_dense
from repro.formats.mmio import read_matrix_market, write_matrix_market


def random_dense(n, seed=0, density=0.3):
    rng = np.random.default_rng(seed)
    return (rng.random((n, n)) < density).astype(np.float32)


class TestRoundtrip:
    def test_pattern_roundtrip(self):
        dense = random_dense(12, seed=1)
        buf = io.StringIO()
        write_matrix_market(buf, csr_from_dense(dense), pattern=True)
        buf.seek(0)
        back = read_matrix_market(buf)
        assert np.array_equal(back.to_dense(), dense)

    def test_real_roundtrip(self):
        dense = random_dense(10, seed=2) * 2.5
        buf = io.StringIO()
        write_matrix_market(buf, csr_from_dense(dense), pattern=False)
        buf.seek(0)
        back = read_matrix_market(buf)
        assert np.allclose(back.to_dense(), dense, atol=1e-5)

    def test_file_roundtrip(self, tmp_path):
        dense = random_dense(8, seed=3)
        path = tmp_path / "m.mtx"
        write_matrix_market(path, csr_from_dense(dense), comment="test")
        back = read_matrix_market(path)
        assert np.array_equal(back.to_dense(), dense)


class TestReader:
    def test_symmetric_mirrors_entries(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n"
            "2 1\n"
            "3 3\n"
        )
        m = read_matrix_market(io.StringIO(text))
        dense = m.to_dense()
        assert dense[1, 0] == 1 and dense[0, 1] == 1
        assert dense[2, 2] == 1  # diagonal not duplicated
        assert m.nnz == 3

    def test_integer_field(self):
        text = (
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 1\n"
            "1 2 7\n"
        )
        m = read_matrix_market(io.StringIO(text))
        assert m.to_dense()[0, 1] == 7.0

    def test_comments_skipped(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "% a comment\n"
            "% another\n"
            "2 2 1\n"
            "1 1\n"
        )
        assert read_matrix_market(io.StringIO(text)).nnz == 1

    def test_bad_header(self):
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO("not a header\n1 1 0\n"))

    def test_unsupported_format(self):
        with pytest.raises(ValueError):
            read_matrix_market(
                io.StringIO("%%MatrixMarket matrix array real general\n")
            )

    def test_unsupported_field(self):
        with pytest.raises(ValueError):
            read_matrix_market(
                io.StringIO(
                    "%%MatrixMarket matrix coordinate complex general\n"
                )
            )

    def test_entry_count_mismatch(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n"
            "1 1\n"
        )
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO(text))

    def test_more_entries_than_header_names_the_line(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "% one comment\n"
            "2 2 1\n"
            "1 1\n"
            "2 2\n"
        )
        with pytest.raises(ValueError, match="line 5"):
            read_matrix_market(io.StringIO(text))

    def test_short_entry_names_the_line(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n"
            "1 1\n"
            "2\n"
        )
        with pytest.raises(ValueError, match="line 4"):
            read_matrix_market(io.StringIO(text))

    def test_real_entry_without_value_names_the_line(self):
        # Used to be stored silently as weight 1.0.
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 0.5\n"
            "2 1\n"
        )
        with pytest.raises(ValueError, match="line 4"):
            read_matrix_market(io.StringIO(text))
