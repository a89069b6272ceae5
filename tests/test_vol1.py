import numpy as np
import pytest
from numpy.testing import assert_array_equal

from koafusion.errors import ContractViolation
from koafusion.vol1 import read_vol1, write_vol1


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
