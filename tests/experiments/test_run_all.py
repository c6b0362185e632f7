"""Tests for the run_all CLI entry point."""

import json

import pytest

from repro.experiments.run_all import _jsonable, main


class TestJsonable:
    def test_numpy_containers(self):
        import numpy as np

        obj = {
            "arr": np.array([1.0, 2.0]),
            "scalar": np.float64(3.5),
            "nested": {"i": np.int64(2), "t": (np.array([1]),)},
        }
        out = _jsonable(obj)
        assert json.dumps(out)  # round-trips through json
        assert out["arr"] == [1.0, 2.0]
        assert out["nested"]["i"] == 2


class TestMainCLI:
    def test_table1_runs_and_saves_json(self, tmp_path, capsys):
        code = main(["table1", "--json", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "table1" in out and "banana" in out
        saved = json.loads((tmp_path / "table1.json").read_text())
        assert len(saved["rows"]) == 13

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_unknown_profile_errors(self):
        with pytest.raises(SystemExit):
            main(["table1", "--profile", "huge"])


@pytest.fixture
def restore_store():
    """Re-install the session store after a test that re-points it."""
    from repro.experiments.runner import configure_store, get_store

    original = get_store()
    yield
    configure_store(store=original)


class TestDistributedCoordinator:
    def test_distributed_rejects_no_cache(self):
        with pytest.raises(SystemExit):
            main(["table2", "--distributed", "--no-cache"])

    def test_no_cache_with_store_keeps_disk_layer_off(self, tmp_path,
                                                      restore_store):
        """Regression: --store must not silently re-enable the disk layer
        the user just disabled with --no-cache."""
        code = main(["table1", "--no-cache", "--store", str(tmp_path)])
        assert code == 0
        from repro.experiments.runner import get_store

        assert not get_store().persist

    def test_distributed_mem_store_fails_fast(self, capsys, restore_store):
        """mem:// was a per-process store that workers could never share;
        it is now an unknown scheme, and both --workers and
        --workers-external modes must refuse it up front as a usage error
        instead of planning a grid no worker can see."""
        for mode in (["--workers", "1"], ["--workers-external"]):
            with pytest.raises(SystemExit) as exc:
                main(["table2", "--distributed", *mode,
                      "--store", "mem://isolated"])
            assert exc.value.code == 2
            assert "unknown store URL scheme 'mem'" in capsys.readouterr().err

    def test_profile_store_url_selects_the_store(self, tmp_path,
                                                 restore_store, monkeypatch):
        """A profile's store_url field re-points the process store when no
        explicit flag or environment override is present."""
        from repro.experiments import run_all
        from repro.experiments.config import QUICK
        from repro.experiments.runner import get_store

        url = f"file://{tmp_path}/store"
        monkeypatch.delenv("REPRO_CELLSTORE_DIR", raising=False)
        monkeypatch.setitem(
            run_all._PROFILES, "quick", QUICK.scaled(store_url=url)
        )
        assert main(["table1"]) == 0
        assert get_store().url == url

    def test_cellstore_off_beats_profile_store_url(self, tmp_path,
                                                   restore_store, monkeypatch):
        """Regression: the REPRO_CELLSTORE=off kill switch must not be
        silently undone by a profile-level store_url default."""
        from repro.experiments import run_all
        from repro.experiments.config import QUICK
        from repro.experiments.runner import configure_store, get_store

        monkeypatch.setenv("REPRO_CELLSTORE", "off")
        monkeypatch.delenv("REPRO_CELLSTORE_DIR", raising=False)
        monkeypatch.setitem(
            run_all._PROFILES, "quick",
            QUICK.scaled(store_url=f"file://{tmp_path}/store"),
        )
        configure_store(root=None)  # what the off switch yields at startup
        assert main(["table1"]) == 0
        assert not get_store().persist
        assert not (tmp_path / "store").exists()

    def test_external_wait_times_out_cleanly(self, tmp_path, capsys,
                                             restore_store):
        """--workers-external with nobody working: the coordinator plans,
        writes the manifest for the (absent) fleet and fails fast on
        --timeout instead of hanging."""
        code = main([
            "table2", "--workers-external", "--store", str(tmp_path),
            "--timeout", "0.2", "--poll", "0.05",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "pending" in out
        # The manifest is in place, so late workers could still pick the
        # grid up and a re-run would assemble it.
        assert list(tmp_path.glob("plan-*.plan"))

    def test_distributed_with_complete_store_just_assembles(
        self, tmp_path, capsys, restore_store
    ):
        """When every cell is already in the store the coordinator spawns
        nothing and renders from hits (the resume path)."""
        from repro.experiments import dispatch
        from repro.experiments.config import QUICK
        from repro.experiments.runner import configure_store
        from tests.experiments.test_store import make_result

        store = configure_store(root=tmp_path)
        for unit in dispatch.plan_grid(QUICK, ["table2"]):
            store.put("cell", unit.key, make_result())
        code = main([
            "table2", "--distributed", "--store", str(tmp_path),
            "--timeout", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "no pending cells" in out
        assert "table2" in out
