import numpy as np
import pytest

from rtdenoise.pfm import PfmError, read_pfm, write_pfm


def test_rgb_roundtrip_bit_exact(tmp_path):
    rs = np.random.default_rng(0)
    img = rs.normal(size=(5, 7, 3)).astype(np.float32)
    img[0, 0, 0] = np.inf
    path = tmp_path / "x.pfm"
    write_pfm(path, img)
    back = read_pfm(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, img)  # inf included


def test_scalar_roundtrip(tmp_path):
    img = np.arange(12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "g.pfm"
    write_pfm(path, img)
    assert np.array_equal(read_pfm(path), img)


def test_big_endian_rejected(tmp_path):
    path = tmp_path / "be.pfm"
    with open(path, "wb") as f:
        f.write(b"Pf\n2 2\n1.0\n" + np.zeros(4, dtype=">f4").tobytes())
    with pytest.raises(PfmError, match="endianness"):
        read_pfm(path)


def test_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.pfm"
    path.write_bytes(b"P6\n2 2\n-1.0\n")
    with pytest.raises(PfmError, match="magic"):
        read_pfm(path)
    path.write_bytes(b"Pf\n2 2\n-1.0\n\x00\x00")
    with pytest.raises(PfmError, match="truncated"):
        read_pfm(path)


@pytest.mark.parametrize("content,message", [
    (b"", "^unexpected end of file in PFM header$"),
    (b"Pf\n2", "^malformed PFM header in .*bad.pfm: unexpected end of file in PFM header$"),
    (b"Pf\n2 two\n-1.0\n", "^malformed PFM header in .*bad.pfm: invalid literal"),
    (b"Pf\n2 2\nscale\n", "^malformed PFM header in .*bad.pfm: could not convert"),
    (b"Pf\n0 2\n-1.0\n", "^bad PFM dimensions 0x2 in .*bad.pfm$"),
    (b"PF\n2 -1\n-1.0\n", "^bad PFM dimensions 2x-1 in .*bad.pfm$"),
])
def test_bad_header_rejected(tmp_path, content, message):
    path = tmp_path / "bad.pfm"
    path.write_bytes(content)
    with pytest.raises(PfmError, match=message):
        read_pfm(path)


def test_header_larger_than_file_rejected_before_reading(tmp_path):
    # the header claims 1.2e17 bytes of payload; only 16 follow it
    path = tmp_path / "huge.pfm"
    path.write_bytes(b"PF\n100000000 100000000\n-1.0\n" + bytes(16))
    with pytest.raises(PfmError, match=f"^truncated PFM payload in {path}$"):
        read_pfm(path)


def test_wrong_channel_count_rejected():
    with pytest.raises(PfmError, match="channels"):
        write_pfm("/tmp/never.pfm", np.zeros((2, 2, 2), dtype=np.float32))


@pytest.mark.parametrize("scale", [b"nan", b"-nan", b"inf", b"-inf"])
def test_non_finite_scale_rejected(tmp_path, scale):
    # NaN compares False with 0, so a sign test alone reads it as little-endian
    path = tmp_path / "nan.pfm"
    path.write_bytes(b"Pf\n2 2\n" + scale + b"\n" + np.zeros(4, dtype="<f4").tobytes())
    with pytest.raises(PfmError, match=f"non-finite PFM scale.*{path.name}"):
        read_pfm(path)
