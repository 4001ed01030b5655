import numpy as np
import pytest

from rtdenoise.metrics import mse, ssim, write_report


def test_ssim_identical_is_exactly_one():
    img = np.random.default_rng(0).random((16, 16, 3))
    assert ssim(img, img) == 1.0


def test_ssim_constant_offset_matches_single_window_oracle():
    a = np.full((12, 12), 0.2)
    b = np.full((12, 12), 0.7)
    # hand-rolled single-window oracle: constant images, variances are zero
    am = 0.2 / 1.2  # exposure mapping x/(1+x)
    bm = 0.7 / 1.7
    c1, c2 = 0.01**2, 0.03**2
    oracle = ((2 * am * bm + c1) * c2) / ((am * am + bm * bm + c1) * (0.0 + c2))
    assert ssim(a, b) == pytest.approx(oracle, abs=1e-12)


def test_ssim_anticorrelated_binary_nonpositive():
    ys, xs = np.mgrid[0:16, 0:16]
    a = ((xs + ys) % 2).astype(np.float64)
    b = 1.0 - a
    # windowed oracle on one 8x8 window (all windows are identical here)
    am = a / (1.0 + a)
    bm = b / (1.0 + b)
    wa, wb = am[:8, :8], bm[:8, :8]
    mu_a, mu_b = wa.mean(), wb.mean()
    cov = (wa * wb).mean() - mu_a * mu_b
    c1, c2 = 0.01**2, 0.03**2
    oracle = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / \
        ((mu_a**2 + mu_b**2 + c1) * (wa.var() + wb.var() + c2))
    got = ssim(a, b)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got <= 0.0


def test_ssim_symmetry():
    rs = np.random.default_rng(1)
    a = rs.random((20, 20, 3)) * 2
    b = rs.random((20, 20, 3)) * 2
    assert abs(ssim(a, b) - ssim(b, a)) < 1e-9


def test_ssim_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        ssim(np.zeros((8, 8)), np.zeros((8, 9)))
    with pytest.raises(ValueError, match="window"):
        ssim(np.zeros((4, 4)), np.zeros((4, 4)))


def test_mse_basics():
    assert mse(np.zeros((4, 4)), np.zeros((4, 4))) == 0.0
    assert mse(np.zeros((4, 4)), np.ones((4, 4))) == 1.0


def test_mse_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^dimension mismatch: \(4, 4\) vs \(4, 5\)$"):
        mse(np.zeros((4, 4)), np.zeros((4, 5)))


def test_mse_single_pixel_oracle():
    a = np.zeros((10, 10, 3))
    b = a.copy()
    b[3, 7, 1] = 0.5
    assert mse(a, b) == pytest.approx(0.5**2 / (10 * 10 * 3), abs=1e-15)


def test_write_report_json_and_csv(tmp_path):
    records = [{"scene": "s", "ssim": 0.9}, {"scene": "t", "ssim": 0.8}]
    write_report(records, tmp_path / "r.json")
    write_report(records, tmp_path / "r.csv")
    import json
    assert json.loads((tmp_path / "r.json").read_text())[0]["ssim"] == 0.9
    assert "scene,ssim" in (tmp_path / "r.csv").read_text().replace("\r", "").splitlines()[0]
