import ast
import os
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import koafusion
from koafusion import vol1
from koafusion.errors import ContractViolation
from koafusion.vol1 import read_vol1, write_file, write_vol1


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint16])
    def test_roundtrip_preserves_values_and_spacing(self, tmp_path, dtype):
        rng = np.random.default_rng(7)
        data = (rng.random((5, 4, 3)) * 100).astype(dtype)
        path = tmp_path / "vol.vol1"
        write_vol1(path, data, spacing=(0.5, 0.25, 2.0))
        back, spacing = read_vol1(path)
        assert back.dtype == dtype
        assert_array_equal(back, data)
        assert spacing == (0.5, 0.25, 2.0)

    def test_roundtrip_2d_and_4d(self, tmp_path):
        for shape, spacing in [((6, 7), (1.0, 2.0)), ((3, 4, 2, 5), (1, 1, 1, 1))]:
            data = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
            path = tmp_path / "v.vol1"
            write_vol1(path, data, spacing=spacing)
            back, sp = read_vol1(path)
            assert_array_equal(back, data)
            assert len(sp) == len(shape)

    def test_payload_is_row_major(self, tmp_path):
        # last axis must vary fastest in the byte stream
        data = np.arange(6, dtype=np.float64).reshape(2, 3)
        path = tmp_path / "v.vol1"
        write_vol1(path, data, spacing=(1, 1))
        raw = path.read_bytes()
        payload = np.frombuffer(raw[-48:], dtype="<f8")
        assert_array_equal(payload, [0, 1, 2, 3, 4, 5])


class TestContracts:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.vol1"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ContractViolation):
            read_vol1(path)

    def test_unknown_scalar_code_rejected(self, tmp_path):
        data = np.zeros((2, 2), dtype=np.float32)
        path = tmp_path / "v.vol1"
        write_vol1(path, data, spacing=(1, 1))
        raw = bytearray(path.read_bytes())
        raw[4 + 1 + 8 + 16] = 99  # scalar-code byte after magic/ndim/extents/spacing
        path.write_bytes(bytes(raw))
        with pytest.raises(ContractViolation):
            read_vol1(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ContractViolation):
            write_vol1(tmp_path / "v.vol1", np.zeros((2, 2), dtype=np.int64), spacing=(1, 1))

    def test_spacing_length_must_match(self, tmp_path):
        with pytest.raises(ContractViolation):
            write_vol1(tmp_path / "v.vol1", np.zeros((2, 2), dtype=np.float64), spacing=(1, 1, 1))

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "v.vol1"
        write_vol1(path, np.zeros((4, 4), dtype=np.float64), spacing=(1, 1))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ContractViolation):
            read_vol1(path)

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "v.vol1"
        write_vol1(path, np.zeros((4, 4), dtype=np.float64), spacing=(1, 1))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ContractViolation, match="payload length"):
            read_vol1(path)

    def test_header_cut_at_every_offset_rejected(self, tmp_path):
        path = tmp_path / "v.vol1"
        write_vol1(path, np.zeros((2, 3, 4), dtype=np.float32), spacing=(1, 1, 1))
        raw = path.read_bytes()
        header = 4 + 1 + 3 * 4 + 3 * 8 + 1
        for cut in range(header + 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(ContractViolation):
                read_vol1(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ContractViolation, match="cannot read"):
            read_vol1(tmp_path / "absent.vol1")


class _Interrupt(Exception):
    pass


class TestWriteFile:
    def test_creates_parents_and_writes_every_chunk(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.bin"
        assert write_file(path, iter([b"ab", b"", b"cd"])) == path
        assert path.read_bytes() == b"abcd"
        assert sorted(p.name for p in path.parent.iterdir()) == ["out.bin"]

    def test_replaces_an_existing_file_whole(self, tmp_path):
        path = tmp_path / "out.bin"
        write_file(path, [b"old contents"])
        write_file(path, [b"new"])
        assert path.read_bytes() == b"new"

    def test_failure_while_writing_leaves_old_file(self, tmp_path):
        path = tmp_path / "out.bin"
        write_file(path, [b"old"])

        def chunks():
            yield b"half of the new"
            raise _Interrupt

        with pytest.raises(_Interrupt):
            write_file(path, chunks())
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failed_replace_leaves_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.bin"
        write_file(path, [b"old"])

        def replace(src, dst):
            raise _Interrupt

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(_Interrupt):
            write_vol1(path, np.zeros((2, 2)), spacing=(1, 1))
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def _open_mode(call: ast.Call):
    """The mode argument of an ``open`` call: ``open(path, mode)`` or ``path.open(mode)``."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    index = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[index] if len(call.args) > index else None


def test_write_file_is_the_only_writer():
    """Outside ``vol1.write_file`` no package module opens a file for writing or calls
    ``write_text``/``write_bytes``; every artifact goes through the one whole-file writer."""
    writer = next(node for node in ast.walk(ast.parse(Path(vol1.__file__).read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name == "write_file")
    writer_lines = range(writer.lineno, writer.end_lineno + 1)
    allowed, offenders = [], []
    for path in sorted(Path(koafusion.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if name == "open":
                mode = _open_mode(node)
                writes = mode is not None and not (
                    isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+"))
            else:
                writes = name in ("write_text", "write_bytes")
            if writes:
                inside = path.name == "vol1.py" and node.lineno in writer_lines
                (allowed if inside else offenders).append(f"{path.name}:{node.lineno}")
    assert not offenders, f"files written outside vol1.write_file: {offenders}"
    assert len(allowed) == 1  # the scan does see the writer's own open(partial, "wb")
