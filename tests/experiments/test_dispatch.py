"""Tests for grid serialisation into distributed work manifests."""

import json
import sys
import time

import pytest

from repro.experiments import dispatch
from repro.experiments.config import ExperimentConfig, QUICK
from repro.experiments.executor import CellSpec, cell_key_for
from repro.experiments.store import CellStore
from repro.experiments.tables import TABLE2_METHODS

TINY = ExperimentConfig(
    name="tiny-dispatch",
    size_factor=0.05,
    datasets=("S2", "S5"),
    n_splits=2,
    n_repeats=2,
    n_estimators=3,
)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("cfg", [TINY, QUICK])
    def test_to_from_dict_exact(self, cfg):
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_dict_is_json_ready(self):
        assert json.loads(json.dumps(TINY.to_dict())) == TINY.to_dict()

    def test_store_url_never_ships_in_manifests(self):
        """store_url is deployment config: excluding it from to_dict keeps
        the manifest profile payload identical to what pre-backend
        releases parse (their from_dict rejects unknown fields)."""
        cfg = TINY.scaled(store_url="file:///somewhere")
        payload = cfg.to_dict()
        assert "store_url" not in payload
        # The round trip loses only the deployment field.
        assert ExperimentConfig.from_dict(payload) == TINY

    def test_from_dict_drops_unknown_fields(self):
        """Regression: a manifest from a *newer* coordinator (extra profile
        fields) must parse, not be healed away as corrupt — deleting it
        would livelock a mixed-version fleet."""
        payload = TINY.to_dict()
        payload["field_from_the_future"] = 42
        assert ExperimentConfig.from_dict(payload) == TINY


class TestGridSpecs:
    def test_table2_grid_shape(self):
        specs = dispatch.grid_specs(TINY, ["table2"])
        assert len(specs) == len(TINY.datasets) * len(TABLE2_METHODS)
        assert specs[0] == CellSpec("S2", "gbabs", "dt")

    def test_derived_experiments_share_their_source_grid(self):
        assert dispatch.grid_specs(TINY, ["table3"]) == dispatch.grid_specs(
            TINY, ["table2"]
        )
        assert dispatch.grid_specs(TINY, ["fig7_fig8"]) == dispatch.grid_specs(
            TINY, ["table4"]
        )

    def test_overlapping_experiments_deduplicate(self):
        both = dispatch.grid_specs(TINY, ["table2", "table3"])
        assert both == dispatch.grid_specs(TINY, ["table2"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="fig99"):
            dispatch.grid_specs(TINY, ["fig99"])

    def test_default_covers_every_grid_experiment(self):
        specs = dispatch.grid_specs(TINY)
        table4 = set(dispatch.grid_specs(TINY, ["table4"]))
        fig9 = set(dispatch.grid_specs(TINY, ["fig9"]))
        assert table4 <= set(specs) and fig9 <= set(specs)


class TestPlanGrid:
    def test_units_carry_key_spec_and_config(self):
        units = dispatch.plan_grid(TINY, ["table2"])
        for unit in units:
            assert unit.cfg == TINY
            assert unit.key == cell_key_for(TINY, unit.spec)

    def test_key_level_deduplication(self):
        """rho=None and rho=cfg.rho name the same cell; one unit results."""
        units = dispatch.plan_grid(TINY, ["table2", "fig10_fig11"])
        keys = [u.key for u in units]
        assert len(keys) == len(set(keys))
        explicit = cell_key_for(TINY, CellSpec("S2", "gbabs", "dt", rho=TINY.rho))
        assert keys.count(explicit) == 1


class TestManifests:
    def test_round_trip(self, tmp_path):
        units = dispatch.plan_grid(TINY, ["table2"])
        path = dispatch.write_manifest(tmp_path, TINY, units)
        assert path.exists() and path.suffix == ".plan"
        loaded = dispatch.load_manifests(tmp_path)
        assert [u.key for u in loaded] == [u.key for u in units]
        assert [u.spec for u in loaded] == [u.spec for u in units]
        assert all(u.cfg == TINY for u in loaded)

    def test_content_keyed_rewrite_is_idempotent(self, tmp_path):
        units = dispatch.plan_grid(TINY, ["table2"])
        first = dispatch.write_manifest(tmp_path, TINY, units)
        second = dispatch.write_manifest(tmp_path, TINY, units)
        assert first == second
        assert len(list(tmp_path.glob("plan-*.plan"))) == 1

    def test_corrupt_manifest_self_heals(self, tmp_path):
        units = dispatch.plan_grid(TINY, ["table2"])
        path = dispatch.write_manifest(tmp_path, TINY, units)
        path.write_text("{torn")
        assert dispatch.load_manifests(tmp_path) == []
        assert not path.exists()  # deleted for the coordinator to rewrite

    def test_units_deduplicate_across_manifests(self, tmp_path):
        dispatch.write_manifest(
            tmp_path, TINY, dispatch.plan_grid(TINY, ["table2"])
        )
        dispatch.write_manifest(
            tmp_path, TINY, dispatch.plan_grid(TINY, ["table2", "fig10_fig11"])
        )
        loaded = dispatch.load_manifests(tmp_path)
        keys = [u.key for u in loaded]
        assert len(keys) == len(set(keys))

    def test_empty_manifest_refused(self, tmp_path):
        with pytest.raises(ValueError):
            dispatch.write_manifest(tmp_path, TINY, [])

    def test_missing_directory_loads_nothing(self, tmp_path):
        assert dispatch.load_manifests(tmp_path / "nope") == []

    def test_parse_cache_serves_unchanged_files(self, tmp_path):
        """Manifests are immutable once renamed in: repeated polls must
        not re-parse them (O(grid) JSON decoding per poll round)."""
        units = dispatch.plan_grid(TINY, ["table2"])
        path = dispatch.write_manifest(tmp_path, TINY, units)
        first = dispatch.load_manifests(tmp_path)
        cached = dispatch._MANIFEST_CACHE[(f"file://{tmp_path}", path.name)][1]
        assert dispatch.load_manifests(tmp_path)[0] is cached[0]
        assert [u.key for u in first] == [u.key for u in units]

    def test_prune_removes_only_completed_grids(self, tmp_path):
        from tests.experiments.test_store import make_result

        done_units = dispatch.plan_grid(TINY, ["table2"])
        open_units = dispatch.plan_grid(TINY, ["fig9"])
        done_path = dispatch.write_manifest(tmp_path, TINY, done_units)
        open_path = dispatch.write_manifest(tmp_path, TINY, open_units)
        store = CellStore(tmp_path)
        for unit in done_units:
            store.put("cell", unit.key, make_result())
        assert dispatch.prune_manifests(store) == 1
        assert not done_path.exists()
        assert open_path.exists()
        # Idempotent: nothing more to prune.
        assert dispatch.prune_manifests(store) == 0


class TestWait:
    def test_pending_shrinks_as_results_land(self, tmp_path):
        units = dispatch.plan_grid(TINY, ["table2"])
        store = CellStore(None)
        assert dispatch.pending_units(store, units) == units
        from tests.experiments.test_store import make_result

        store.put("cell", units[0].key, make_result())
        assert dispatch.pending_units(store, units) == units[1:]

    def test_wait_times_out(self):
        units = dispatch.plan_grid(TINY, ["table2"])
        with pytest.raises(TimeoutError, match="pending"):
            dispatch.wait_for_grid(
                CellStore(None), units, poll=0.01, timeout=0.05
            )

    def test_wait_aborts_when_fleet_dies(self):
        units = dispatch.plan_grid(TINY, ["table2"])
        with pytest.raises(RuntimeError, match="no live workers"):
            dispatch.wait_for_grid(
                CellStore(None), units, poll=0.01, should_abort=lambda: True
            )

    def test_wait_returns_when_complete(self):
        from tests.experiments.test_store import make_result

        units = dispatch.plan_grid(TINY, ["table2"])
        store = CellStore(None)
        for unit in units:
            store.put("cell", unit.key, make_result())
        progress = []
        dispatch.wait_for_grid(
            store, units, poll=0.01,
            on_progress=lambda done, total: progress.append((done, total)),
        )
        assert progress == [(len(units), len(units))]

    def test_on_poll_sees_queue_depth_every_round(self):
        """The autoscaler's feed: every poll round reports the still-
        pending units, including the final empty one."""
        from tests.experiments.test_store import make_result

        units = dispatch.plan_grid(TINY, ["table2"])
        store = CellStore(None)
        depths = []

        def on_poll(remaining):
            depths.append(len(remaining))
            if remaining:  # land one cell per round
                store.put("cell", remaining[0].key, make_result())

        dispatch.wait_for_grid(store, units, poll=0.0, on_poll=on_poll)
        assert depths == list(range(len(units), -1, -1))


class TestElasticFleet:
    """Queue-depth autoscaling on top of the supervisor."""

    CMD = [sys.executable, "-c", "import time; time.sleep(60)"]

    def make(self, **kwargs):
        return dispatch.FleetSupervisor(
            [list(self.CMD)],
            command_factory=lambda index: list(self.CMD),
            **kwargs,
        )

    def test_scales_up_with_queue_depth_and_clamps_at_ceiling(self):
        sup = self.make(min_workers=1, max_workers=3, scale_threshold=2)
        sup.start()
        try:
            sup.autoscale(1000)
            assert sup.live_count() == 3
            assert sup.scale_ups == 2
            sup.autoscale(1000)  # already at the ceiling: no-op
            assert sup.live_count() == 3
            assert sup.scale_ups == 2
        finally:
            sup.terminate()

    def test_shallow_queue_spawns_nothing(self):
        sup = self.make(min_workers=1, max_workers=3, scale_threshold=4)
        sup.start()
        try:
            sup.autoscale(4)  # exactly one worker's worth of depth
            assert sup.live_count() == 1
            assert sup.scale_ups == 0
        finally:
            sup.terminate()

    def test_retires_newest_when_queue_drains(self):
        sup = self.make(min_workers=1, max_workers=3, scale_threshold=1)
        sup.start()
        try:
            sup.autoscale(3)
            assert sup.live_count() == 3
            sup.autoscale(0)
            assert sup.scale_downs == 2
            deadline = time.monotonic() + 10.0
            while sup.live_count() > 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert sup.live_count() == 1
            sup.poll()  # observe the retirement exits
            retired = [e for e in sup.summary() if e["retired"]]
            assert len(retired) == 2
            assert all(e["restarts"] == 0 for e in retired)
            assert all(not e["running"] for e in retired)
            # The floor worker keeps the fleet alive.
            assert not sup.fleet_dead()
        finally:
            sup.terminate()

    def test_autoscale_is_noop_on_fixed_fleets(self):
        sup = dispatch.FleetSupervisor([list(self.CMD)])
        sup.start()
        try:
            sup.autoscale(1000)
            assert sup.live_count() == 1
            assert sup.scale_ups == 0
        finally:
            sup.terminate()

