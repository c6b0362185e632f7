"""Unit tests for the vectorised granulation engine building blocks."""

import numpy as np
import pytest

from repro.core.engine import (
    BallCenterIndex,
    CandidateScan,
    GranularBallSetBuilder,
    NeighbourLists,
    _prefix_slack,
)
from repro.core.granular_ball import GranularBallSet
from repro.core.neighbors import distances_to
from repro.core.rdgbg import RDGBG


class TestGranularBallSetBuilder:
    def test_build_matches_list_construction(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 3))
        builder = GranularBallSetBuilder(3, 20, capacity=2)
        chunks = [np.array([0, 1, 2]), np.array([3]), np.array([4, 5])]
        for i, chunk in enumerate(chunks):
            builder.add(x[chunk[0]], float(i), i % 2, chunk)
        assert len(builder) == 3
        ball_set = builder.build()
        assert len(ball_set) == 3
        np.testing.assert_array_equal(ball_set.sizes, [3, 1, 2])
        np.testing.assert_array_equal(ball_set.labels, [0, 1, 0])
        np.testing.assert_array_equal(
            ball_set.member_indices, np.concatenate(chunks)
        )
        np.testing.assert_array_equal(ball_set.members_of(2), [4, 5])
        # growth by doubling must not corrupt earlier rows
        np.testing.assert_array_equal(ball_set.centers[0], x[0])

    def test_empty_build(self):
        ball_set = GranularBallSetBuilder(4, 10).build()
        assert len(ball_set) == 0
        assert ball_set.n_source_samples == 10


class TestShrinkingPoolAndScan:
    """``CandidateScan`` over the pool of undivided rows, a mask that shrinks
    as balls and noise leave it."""

    def _brute_prefix(self, x, alive_idx, ci, k):
        """Reference: full stable sort over the alive pool minus ci."""
        others = alive_idx[alive_idx != ci]
        dist = distances_to(x[ci], x[others])
        order = np.argsort(dist, kind="stable")
        return others[order][:k], dist[order][:k]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("tie_heavy", [False, True])
    def test_prefix_matches_legacy_sort(self, seed, tie_heavy):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(120, 4))
        if tie_heavy:
            x = np.round(x, 1)  # force many duplicate distances
        lists = NeighbourLists(x, 8, _prefix_slack(4))
        # drop a batch from the pool so the scan must skip them
        dead = rng.choice(120, size=30, replace=False)
        dead = dead[dead != 7]
        pool = np.ones(120, dtype=bool)
        pool[dead] = False
        alive_idx = np.flatnonzero(pool)
        scan = CandidateScan(lists, 7, pool)
        for k in (1, 5, 40, 200):
            got_idx, got_dist, cutoff = scan.prefix(k)
            want_idx, want_dist = self._brute_prefix(x, alive_idx, 7, got_idx.size)
            np.testing.assert_array_equal(got_idx, want_idx)
            np.testing.assert_array_equal(got_dist, want_dist)
            assert got_idx.size >= min(k, alive_idx.size - 1)
            # the prefix holds every pool row within its cutoff
            _, all_dist = self._brute_prefix(x, alive_idx, 7, None)
            assert got_idx.size == np.count_nonzero(all_dist <= cutoff)

    def test_exclude_mid_scan(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 3))
        pool = np.ones(50, dtype=bool)
        scan = CandidateScan(NeighbourLists(x, 8, _prefix_slack(3)), 0, pool)
        first, _, _ = scan.prefix(1)
        scan.exclude(int(first[0]))
        got_idx, _, _ = scan.prefix(5)
        assert int(first[0]) not in got_idx
        alive_idx = np.setdiff1d(np.arange(50), [first[0]])
        want_idx, _ = self._brute_prefix(x, alive_idx, 0, got_idx.size)
        np.testing.assert_array_equal(got_idx, want_idx)
        assert scan.n_available == 48


class TestNeighbourLists:
    """Each row's list must be the head of a full stable argsort of the other
    rows: exactly the rows within its complete distance, at least k of
    them unless the row is crowded by near-tied duplicates."""

    K = 32

    def _check(self, x, k=K):
        lists = NeighbourLists(x, k, _prefix_slack(x.shape[1]))
        n = x.shape[0]
        keep = np.ones(n, dtype=bool)
        for i in range(n):
            others = np.delete(np.arange(n), i)
            dist = distances_to(x[i], x[others])
            order = np.argsort(dist, kind="stable")
            got_idx, got_dist, complete = lists.alive(i, keep)
            m = np.count_nonzero(dist <= complete)
            np.testing.assert_array_equal(got_idx, others[order][:m])
            np.testing.assert_array_equal(got_dist, dist[order][:m])
            if complete == -np.inf:
                assert np.count_nonzero(dist == dist[order][k - 1]) > 1
            else:
                assert m >= min(k, n - 1)
        return lists

    def test_ties_across_the_kth_distance(self):
        rng = np.random.default_rng(0)
        x = np.round(rng.normal(size=(150, 2)), 0)  # a few lattice points
        x[:40] = x[0]  # more than K copies of one point
        lists = self._check(x)
        assert np.diff(lists.offsets)[:40].min() > self.K  # extended through ties

    def test_crowded_rows_get_an_empty_list(self):
        x = np.zeros((200, 3))  # every row ties with 199 others
        x[150:] = 1.0
        lists = self._check(x)
        assert np.all(lists.complete[:150] == -np.inf)
        assert np.all(np.diff(lists.offsets)[:150] == 0)

    @pytest.mark.parametrize("n", [1, 2, K, K + 1, K + 2, 300])
    def test_sizes_around_k(self, n):
        rng = np.random.default_rng(n)
        x = np.round(rng.normal(size=(n, 3)), 1)
        lists = self._check(x)
        if n <= self.K + 1:
            assert np.all(lists.complete == np.inf)

    def test_blocks_do_not_change_lists(self, monkeypatch):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(90, 4))
        whole = NeighbourLists(x, 8, _prefix_slack(4))
        monkeypatch.setattr(NeighbourLists, "_BLOCK_BYTES", 8 * 90 * 7)
        blocked = NeighbourLists(x, 8, _prefix_slack(4))
        for name in ("offsets", "idx", "dist", "complete"):
            np.testing.assert_array_equal(getattr(whole, name), getattr(blocked, name))

    def test_alive_filters_in_order(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 2))
        lists = NeighbourLists(x, 10, _prefix_slack(2))
        keep = rng.random(80) < 0.5
        full_idx, full_dist, complete = lists.alive(5, np.ones(80, dtype=bool))
        idx, dist, same = lists.alive(5, keep)
        assert same == complete
        np.testing.assert_array_equal(idx, full_idx[keep[full_idx]])
        np.testing.assert_array_equal(dist, full_dist[keep[full_idx]])


class TestBallCenterIndex:
    @pytest.mark.parametrize("m", [1, 50, 500])
    def test_conflict_radius_matches_linear_scan(self, m):
        rng = np.random.default_rng(m)
        centers = rng.normal(size=(m, 3)) * 5
        radii = rng.uniform(0.01, 0.8, size=m)
        index = BallCenterIndex(3)
        for c, r in zip(centers, radii):
            index.add(c, float(r))
        for _ in range(25):
            q = rng.normal(size=3) * 5
            want = float((distances_to(q, centers) - radii).min())
            assert index.conflict_radius(q) == want

    def test_empty_index_returns_inf(self):
        assert BallCenterIndex(2).conflict_radius(np.zeros(2)) == np.inf

    def test_incremental_adds_after_tree_build(self):
        # adds beyond the last rebuild must still be scanned exactly
        rng = np.random.default_rng(9)
        index = BallCenterIndex(2)
        centers, radii = [], []
        for i in range(400):
            c = rng.normal(size=2) * 3
            r = float(rng.uniform(0.01, 0.5))
            centers.append(c)
            radii.append(r)
            index.add(c, r)
            if i % 37 == 0:
                q = rng.normal(size=2) * 3
                mat = np.vstack(centers)
                want = float((distances_to(q, mat) - np.asarray(radii)).min())
                assert index.conflict_radius(q) == want


class TestSoABallSetViews:
    def test_cached_properties_are_stable_objects(self, blobs2):
        x, y = blobs2
        ball_set = RDGBG(random_state=0).generate(x, y).ball_set
        assert ball_set.centers is ball_set.centers  # cached, not rebuilt
        assert ball_set.radii is ball_set.radii
        assert ball_set.labels is ball_set.labels
        assert ball_set.sizes is ball_set.sizes

    def test_select_roundtrip(self, blobs2):
        x, y = blobs2
        ball_set = RDGBG(random_state=0).generate(x, y).ball_set
        keep = ~ball_set.orphan_mask
        sub = ball_set.select(keep)
        assert len(sub) == int(keep.sum())
        assert sub.n_source_samples == ball_set.n_source_samples
        kept = np.flatnonzero(keep)
        np.testing.assert_array_equal(sub.radii, ball_set.radii[kept])
        for j, i in enumerate(kept):
            np.testing.assert_array_equal(
                sub.members_of(j), ball_set.members_of(int(i))
            )

    def test_members_of_matches_ball_objects(self, blobs3):
        x, y = blobs3
        ball_set = RDGBG(random_state=2).generate(x, y).ball_set
        for i, ball in enumerate(ball_set):
            np.testing.assert_array_equal(ball.indices, ball_set.members_of(i))

    def test_from_arrays_rejects_mismatched_offsets(self):
        with pytest.raises(ValueError):
            GranularBallSet.from_arrays(
                centers=np.zeros((2, 2)),
                radii=np.array([1.0, 1.0]),
                labels=np.array([0, 1]),
                flat_indices=np.array([0, 1, 2]),
                offsets=np.array([1, 2]),  # 2 offsets for 2 balls: invalid
                n_source_samples=3,
            )
