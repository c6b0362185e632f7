"""FrozenPredictor: parity with the in-memory classifier, shared mmap."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.classifiers.gb_classifier import GranularBallClassifier
from repro.serving import FrozenPredictor

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestParity:
    @pytest.mark.parametrize("include_orphans", [True, False])
    def test_bit_identical_to_classifier(self, moons, tmp_path, include_orphans):
        x, y = moons
        clf = GranularBallClassifier(
            rho=5, random_state=3, include_orphans=include_orphans
        ).fit(x, y)
        path = tmp_path / "model.gba"
        clf.freeze(path)
        gen = np.random.default_rng(42)
        queries = gen.normal(0.5, 1.5, (700, 2))
        with FrozenPredictor.load(path) as frozen:
            for batch in (queries, queries[:1], x, x[:17]):
                expected = clf.predict(batch)
                got = frozen.predict(batch)
                np.testing.assert_array_equal(got, expected)
                assert got.dtype == expected.dtype

    def test_parity_on_imbalanced_multiclass(self, blobs3, tmp_path):
        x, y = blobs3
        clf = GranularBallClassifier(rho=7, random_state=1).fit(x, y)
        path = tmp_path / "model.gba"
        clf.freeze(path)
        gen = np.random.default_rng(5)
        queries = gen.normal(1.0, 2.0, (300, 3))
        with FrozenPredictor.load(path) as frozen:
            np.testing.assert_array_equal(
                frozen.predict(queries), clf.predict(queries)
            )

    def test_classes_and_meta_exposed(self, fitted_clf, artifact_path):
        with FrozenPredictor.load(artifact_path) as frozen:
            np.testing.assert_array_equal(
                frozen.classes_, fitted_clf.classes_
            )
            assert frozen.n_balls == fitted_clf.n_balls_
            assert frozen.n_features == 2
            assert frozen.meta["params"]["rho"] == fitted_clf.rho
            assert frozen.nbytes == artifact_path.stat().st_size


class TestValidation:
    def test_feature_mismatch_rejected(self, artifact_path):
        with FrozenPredictor.load(artifact_path) as frozen:
            with pytest.raises(ValueError, match="features"):
                frozen.predict(np.zeros((3, 5)))

    def test_non_classifier_artifact_rejected(self, tmp_path):
        from repro.serving.artifact import write_artifact

        path = tmp_path / "other.gba"
        write_artifact(path, {"stuff": np.zeros(3)}, {"kind": "other"})
        with pytest.raises(ValueError, match="kind"):
            FrozenPredictor.load(path)

    def test_missing_arrays_rejected(self, tmp_path):
        from repro.serving.artifact import write_artifact

        path = tmp_path / "partial.gba"
        write_artifact(
            path,
            {"centers": np.zeros((2, 2))},
            {"kind": "granular-ball-classifier"},
        )
        with pytest.raises(ValueError, match="missing arrays"):
            FrozenPredictor.load(path)


_READER_SCRIPT = """
import sys
import numpy as np
from repro.serving import FrozenPredictor

artifact, queries, out = sys.argv[1], sys.argv[2], sys.argv[3]
with FrozenPredictor.load(artifact) as frozen:
    labels = frozen.predict(np.load(queries))
with open(out, "wb") as handle:
    handle.write(labels.tobytes())
"""


class TestSharedMapping:
    def test_two_reader_processes_agree_byte_for_byte(
        self, fitted_clf, artifact_path, queries, tmp_path
    ):
        """Two independent processes mmap one artifact and produce the
        exact same bytes as each other and as the in-process classifier."""
        queries_path = tmp_path / "queries.npy"
        np.save(queries_path, queries)
        outputs = [tmp_path / f"labels-{i}.bin" for i in range(2)]
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _READER_SCRIPT,
                 str(artifact_path), str(queries_path), str(out)],
                env=_env(),
            )
            for out in outputs
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        blobs = [out.read_bytes() for out in outputs]
        assert blobs[0] == blobs[1]
        expected = fitted_clf.predict(queries).astype(np.int64).tobytes()
        assert blobs[0] == expected

    def test_mapped_arrays_share_the_file_buffer(self, artifact_path):
        with FrozenPredictor.load(artifact_path) as frozen:
            # Zero-copy: the centers view has no own data allocation.
            assert not frozen._centers.flags.owndata
            assert not frozen._centers.flags.writeable
