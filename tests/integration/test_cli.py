"""Tests for the CSV command-line interface."""

import numpy as np
import pytest

from repro.cli import load_csv, main, save_csv


@pytest.fixture
def csv_dataset(tmp_path, blobs2):
    x, y = blobs2
    path = tmp_path / "data.csv"
    save_csv(path, x, y)
    return path, x, y


class TestCsvIO:
    def test_roundtrip(self, csv_dataset):
        path, x, y = csv_dataset
        x2, y2 = load_csv(path)
        np.testing.assert_allclose(x2, x, atol=1e-9)
        np.testing.assert_array_equal(y2, y)

    def test_header_detected(self, tmp_path):
        path = tmp_path / "with_header.csv"
        path.write_text("f1,f2,label\n1.0,2.0,0\n3.0,4.0,1\n")
        x, y = load_csv(path)
        assert x.shape == (2, 2)
        np.testing.assert_array_equal(y, [0, 1])

    def test_label_column_override(self, tmp_path):
        path = tmp_path / "front_label.csv"
        path.write_text("0,1.0,2.0\n1,3.0,4.0\n")
        x, y = load_csv(path, label_column=0)
        np.testing.assert_array_equal(y, [0, 1])
        np.testing.assert_allclose(x[0], [1.0, 2.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_non_integer_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.5\n2.0,0.7\n")
        with pytest.raises(ValueError, match="integer class labels"):
            load_csv(path)
        # Close to a whole number is not one: a cast would truncate 2.99... to 2.
        path.write_text("1.0,2.9999999999\n2.0,1.0\n")
        with pytest.raises(ValueError, match="integer class labels"):
            load_csv(path)


class TestCommands:
    def test_sample_gbabs(self, csv_dataset, tmp_path, capsys):
        path, x, _ = csv_dataset
        out = tmp_path / "sampled.csv"
        code = main(["sample", str(path), "--out", str(out), "--seed", "0"])
        assert code == 0
        xs, ys = load_csv(out)
        assert 0 < xs.shape[0] < x.shape[0]
        assert "borderline" in capsys.readouterr().out

    def test_sample_srs_requires_ratio(self, csv_dataset, tmp_path):
        path, _, _ = csv_dataset
        with pytest.raises(SystemExit):
            main(["sample", str(path), "--method", "srs",
                  "--out", str(tmp_path / "o.csv")])

    def test_sample_srs_with_ratio(self, csv_dataset, tmp_path):
        path, x, _ = csv_dataset
        out = tmp_path / "srs.csv"
        main(["sample", str(path), "--method", "srs", "--ratio", "0.5",
              "--out", str(out)])
        xs, _ = load_csv(out)
        assert xs.shape[0] == x.shape[0] // 2

    def test_granulate_with_save(self, csv_dataset, tmp_path, capsys):
        path, _, _ = csv_dataset
        balls_path = tmp_path / "balls.npz"
        code = main(["granulate", str(path), "--save", str(balls_path)])
        assert code == 0
        assert balls_path.exists()
        out = capsys.readouterr().out
        assert "n_balls" in out

        from repro.core.granular_ball import GranularBallSet

        restored = GranularBallSet.load(balls_path)
        assert len(restored) > 0

    def test_info(self, csv_dataset, capsys):
        path, x, _ = csv_dataset
        code = main(["info", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert f"samples:  {x.shape[0]}" in out
        assert "GBABS sampling ratio" in out

    def test_projection_dims_flag(self, csv_dataset, tmp_path):
        path, _, _ = csv_dataset
        out = tmp_path / "proj.csv"
        code = main(["sample", str(path), "--out", str(out),
                     "--projection-dims", "1"])
        assert code == 0
        assert out.exists()
