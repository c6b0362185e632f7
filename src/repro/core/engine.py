"""Vectorised granulation engine: the data structures under RD-GBG.

A straight-line reading of Algorithm 1 recomputes a full-pool distance scan
and ``argsort`` per candidate centre and rebuilds a ``vstack``-ed centre
matrix per conflict-radius query, giving ``O(m·n·(p + log n))`` with large
constant factors (``tests/core/reference_rdgbg.py`` keeps that reading as the
parity oracle).  :meth:`repro.core.rdgbg.RDGBG.generate` runs on these
structures instead:

* :class:`GranularBallSetBuilder` — incremental struct-of-arrays ball
  storage (centre matrix, radius/label vectors, flattened member indices),
  materialised into a :class:`~repro.core.granular_ball.GranularBallSet`
  without per-ball object churn;
* :class:`ShrinkingPool` — the undivided sample set ``U`` as compacted
  ascending-index arrays with a cached squared-norm vector, so per-candidate
  distance estimates are one BLAS matrix-vector product instead of a
  gather + subtract + reduce over the whole pool;
* :class:`CandidateScan` — tie-exact *sorted-prefix* selection: squared
  distances are estimated from the norm cache, a conservatively slacked
  threshold (see :func:`_prefix_slack`) picks a candidate superset, and only
  that superset gets the exact ``distances_to`` kernel + stable sort.  The
  returned prefix is bit-identical to the head of a full stable
  ``argsort`` — including duplicate-distance tie order — which is what makes
  the output reproducible against the full-sort oracle;
* :class:`BallCenterIndex` — conflict-radius (``r_conf``, Eqs. 4–6) queries
  over existing ball centres served by a cKDTree rebuilt amortised, with the
  final gap always recomputed by the exact kernel so the clipped radii match
  a linear scan's floats.

Exactness argument for the prefix selection: for every pool row the
estimated squared distance ``||x_i||² - 2·x_i·c + ||c||²`` differs from the
exact kernel's ``Σ(x_i - c)²`` by at most ``slack = 16(p+4)·eps·(max‖x‖² +
‖c‖²)``.  Any row whose estimate exceeds ``t₀ + 2·slack`` (``t₀`` = k-th
smallest estimate) therefore has exact squared distance strictly above
``t₀ + slack``, while the k estimate-smallest rows sit at or below it — so
the rows with exact distance ``≤ sqrt(t₀ + slack)`` are all inside the
candidate superset, form a true prefix of the global sorted order, and
number at least ``k``.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.core.granular_ball import GranularBallSet
from repro.core.neighbors import distances_to

__all__ = [
    "GranularBallSetBuilder",
    "ShrinkingPool",
    "CandidateScan",
    "BallCenterIndex",
]


def _prefix_slack(n_features: int) -> float:
    """Conservative bound on |norm-cache estimate - exact squared distance|.

    Scaled by ``max‖x‖² + ‖c‖²`` at query time; covers the accumulation
    error of the cached norms, the BLAS dot product and the exact kernel's
    own reduction with an order-of-magnitude margin.
    """
    return 16.0 * (n_features + 4) * float(np.finfo(np.float64).eps)


class GranularBallSetBuilder:
    """Incrementally grows struct-of-arrays granular-ball storage.

    Centre/radius/label arrays grow by doubling; member index chunks are
    concatenated once at :meth:`build`, so generation never accumulates
    ``GranularBall`` objects.
    """

    def __init__(self, n_features: int, n_source_samples: int, capacity: int = 128):
        self._p = int(n_features)
        self._n_source = int(n_source_samples)
        cap = max(int(capacity), 4)
        self._centers = np.empty((cap, self._p), dtype=np.float64)
        self._radii = np.empty(cap, dtype=np.float64)
        self._labels = np.empty(cap, dtype=np.intp)
        self._chunks: list[np.ndarray] = []
        self._m = 0

    def __len__(self) -> int:
        return self._m

    @property
    def centers(self) -> np.ndarray:
        """View of the centres added so far, shape ``(m, p)``."""
        return self._centers[: self._m]

    @property
    def radii(self) -> np.ndarray:
        """View of the radii added so far, shape ``(m,)``."""
        return self._radii[: self._m]

    def add(
        self, center: np.ndarray, radius: float, label: int, indices: np.ndarray
    ) -> int:
        """Append one ball; returns its index in generation order."""
        m = self._m
        if m == self._radii.size:
            new_cap = 2 * m
            self._centers = np.resize(self._centers, (new_cap, self._p))
            self._radii = np.resize(self._radii, new_cap)
            self._labels = np.resize(self._labels, new_cap)
        self._centers[m] = center
        self._radii[m] = radius
        self._labels[m] = label
        self._chunks.append(np.asarray(indices, dtype=np.intp))
        self._m = m + 1
        return m

    def build(self) -> GranularBallSet:
        """Materialise the accumulated balls as a :class:`GranularBallSet`."""
        m = self._m
        if m == 0:
            return GranularBallSet([], n_source_samples=self._n_source)
        sizes = np.array([c.size for c in self._chunks], dtype=np.intp)
        return GranularBallSet.from_arrays(
            centers=self._centers[:m].copy(),
            radii=self._radii[:m].copy(),
            labels=self._labels[:m].copy(),
            flat_indices=np.concatenate(self._chunks),
            offsets=np.cumsum(sizes)[:-1],
            n_source_samples=self._n_source,
        )


class ShrinkingPool:
    """The undivided sample set ``U`` as compacted ascending-index arrays.

    Rows are tombstoned on removal and physically compacted once a quarter
    of the pool is dead, so removal is O(#removed) amortised while the
    feature block stays contiguous for the BLAS estimate kernel.  The
    ascending index order is load-bearing: it is what makes stable sorts
    over pool slices reproduce the full-sort tie order.
    """

    def __init__(self, x: np.ndarray):
        self.idx = np.arange(x.shape[0], dtype=np.intp)
        self.x = np.array(x, dtype=np.float64, order="C", copy=True)
        self.sq = np.einsum("ij,ij->i", self.x, self.x)
        self.alive = np.ones(x.shape[0], dtype=bool)
        self.n_alive = x.shape[0]
        self.sq_max = float(self.sq.max()) if x.shape[0] else 0.0
        self._dead: list[int] = []

    def position_of(self, global_i: int) -> int:
        """Row position of a (live) global sample index."""
        return int(np.searchsorted(self.idx, global_i))

    def dead_positions(self) -> list[int]:
        """Tombstoned row positions awaiting compaction."""
        return self._dead

    def kill(self, global_indices: np.ndarray, compact: bool = True) -> None:
        """Remove samples from the pool (ball members or detected noise).

        ``compact=False`` defers physical compaction — required while a
        :class:`CandidateScan` holds row positions into the current layout.
        """
        pos = np.searchsorted(self.idx, np.asarray(global_indices, dtype=np.intp))
        self.alive[pos] = False
        self._dead.extend(pos.tolist())
        self.n_alive -= pos.size
        if compact and len(self._dead) * 4 > self.idx.size and self.idx.size > 64:
            keep = self.alive
            self.idx = self.idx[keep]
            self.x = np.ascontiguousarray(self.x[keep])
            self.sq = self.sq[keep]
            self.alive = np.ones(self.idx.size, dtype=bool)
            self.sq_max = float(self.sq.max()) if self.idx.size else 0.0
            self._dead = []


class CandidateScan:
    """Sorted-prefix nearest-neighbour view of the pool for one candidate.

    Estimates all squared distances with the pool's norm cache (one BLAS
    matvec), then serves exact ``(distance, index)``-sorted prefixes of any
    requested length from a slack-guarded candidate superset.  Prefixes are
    bit-identical to the head of a full stable sort (see the module
    docstring for the exactness argument).
    """

    def __init__(self, pool: ShrinkingPool, ci: int, slack_coeff: float):
        self._pool = pool
        pos = pool.position_of(ci)
        self._center = pool.x[pos]
        approx = pool.sq - 2.0 * (pool.x @ self._center) + pool.sq[pos]
        dead = pool.dead_positions()
        if dead:
            approx[dead] = np.inf
        approx[pos] = np.inf
        self._approx = approx
        self._slack = slack_coeff * (pool.sq_max + float(pool.sq[pos]))

    @property
    def n_available(self) -> int:
        """Pool rows other than the candidate itself."""
        return self._pool.n_alive - 1

    def exclude(self, global_i: int) -> None:
        """Drop one more row (e.g. a neighbour removed as noise mid-scan)."""
        self._approx[self._pool.position_of(global_i)] = np.inf

    def prefix(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact sorted prefix of length >= min(k, n_available).

        Returns ``(global_indices, distances)`` ordered exactly as the head
        of a stable full ``argsort``, extended through any distance ties at
        the boundary.
        """
        navail = self.n_available
        k = min(int(k), navail)
        if k <= 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
        pool = self._pool
        if k >= navail:
            cand = np.flatnonzero(self._approx < np.inf)
            cutoff = np.inf
        else:
            t0 = float(np.partition(self._approx, k - 1)[k - 1])
            cand = np.flatnonzero(self._approx <= t0 + 2.0 * self._slack)
            cutoff = float(np.sqrt(t0 + self._slack))
        # The shared exact kernel keeps the floats structurally coupled to
        # the full-sort oracle — bit-parity must not hinge on a private copy.
        dist = distances_to(self._center, pool.x[cand])
        # cand is ascending in global index, so a stable sort on distance
        # reproduces the full sort's (distance, index) tie order exactly.
        order = np.argsort(dist, kind="stable")
        dist = dist[order]
        cand = cand[order]
        if cutoff != np.inf:
            stop = int(np.searchsorted(dist, cutoff, side="right"))
            dist = dist[:stop]
            cand = cand[:stop]
        return pool.idx[cand], dist


class BallCenterIndex:
    """Existing-ball geometry for conflict-radius (``r_conf``) queries.

    Maintains struct-of-arrays centres/radii; small sets are scanned
    directly, large sets go through a cKDTree rebuilt amortised (whenever
    the unindexed tail outgrows the indexed part).  Pruned candidates are
    always re-measured with the exact kernel, so the returned minimum gap
    is bit-identical to a linear scan.
    """

    _FULL_SCAN_BELOW = 192

    def __init__(self, n_features: int):
        self._centers = np.empty((64, int(n_features)), dtype=np.float64)
        self._radii = np.empty(64, dtype=np.float64)
        self._m = 0
        self._tree: cKDTree | None = None
        self._n_indexed = 0
        self._r_max_indexed = 0.0

    def __len__(self) -> int:
        return self._m

    def add(self, center: np.ndarray, radius: float) -> None:
        """Register a newly created ball."""
        m = self._m
        if m == self._radii.size:
            self._centers = np.resize(self._centers, (2 * m, self._centers.shape[1]))
            self._radii = np.resize(self._radii, 2 * m)
        self._centers[m] = center
        self._radii[m] = radius
        self._m = m + 1

    def conflict_radius(self, c: np.ndarray) -> float:
        """``min_i dist(c, c_i) - r_i`` over all registered balls.

        Exactly equals ``(distances_to(c, centers) - radii).min()``: the
        tree only prunes, never measures.
        """
        m = self._m
        if m == 0:
            return np.inf
        centers = self._centers[:m]
        radii = self._radii[:m]
        if m < self._FULL_SCAN_BELOW:
            return float((distances_to(c, centers) - radii).min())

        if m - self._n_indexed > self._n_indexed:
            self._tree = cKDTree(centers.copy())
            self._n_indexed = m
            self._r_max_indexed = float(radii.max())
        assert self._tree is not None

        # Exact gaps for the unindexed tail plus the tree's nearest centre
        # give an initial bound; any indexed centre that could still improve
        # it lies within best + r_max of the query.
        best = np.inf
        tail = self._n_indexed
        if tail < m:
            best = float((distances_to(c, centers[tail:m]) - radii[tail:m]).min())
        _, i1 = self._tree.query(c, k=1)
        i1 = int(i1)
        g1 = float(distances_to(c, centers[i1 : i1 + 1])[0] - radii[i1])
        best = min(best, g1)
        bound = best + self._r_max_indexed
        if bound > 0:
            cand = self._tree.query_ball_point(c, bound * (1.0 + 1e-9) + 1e-12)
            cand_arr = np.asarray(cand, dtype=np.intp)
            if cand_arr.size:
                gaps = distances_to(c, centers[cand_arr]) - radii[cand_arr]
                best = min(best, float(gaps.min()))
        return best
