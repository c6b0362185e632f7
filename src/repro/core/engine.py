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
* :class:`NeighbourLists` — every row's exact nearest neighbours, built
  once per ``generate`` in one blocked BLAS pass: at least ``k`` rows in
  ``(distance, index)`` order together with the distance up to which the
  list is complete.  Filtered to the undivided rows, a list is an exact
  prefix of that candidate's sorted pool, which decides almost every
  candidate without touching the pool;
* :class:`CandidateScan` — the fallback: the same tie-exact *sorted-prefix*
  selection over the current undivided rows, for a candidate whose list
  is too short, can be widened to any length;
* :class:`BallCenterIndex` — conflict-radius (``r_conf``, Eqs. 4–6) queries
  over existing ball centres served by a cKDTree rebuilt amortised, with the
  final gap always recomputed by the exact kernel so the clipped radii match
  a linear scan's floats.

Exactness argument for the prefix selection, shared by the lists and the
scan: for every row the estimated squared distance ``||x_i||² - 2·x_i·c +
||c||²`` (squared norms cached, one BLAS product) differs from the exact
kernel's ``Σ(x_i - c)²`` by at most ``slack = 16(p+4)·eps·(max‖x‖² +
‖c‖²)``.  Any row whose estimate exceeds ``t₀ + 2·slack`` (``t₀`` = k-th
smallest estimate) therefore has exact squared distance strictly above
``t₀ + slack``, while the k estimate-smallest rows sit at or below it — so
the rows with exact distance ``≤ sqrt(t₀ + slack)`` are all inside the
candidate superset.  Only that superset gets the exact ``distances_to``
kernel and a stable sort, and the rows within the cutoff form a true
prefix of the global ``(distance, index)`` order — duplicate-distance tie
order included — and number at least ``k``.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.core.granular_ball import GranularBallSet
from repro.core.neighbors import distances_to

__all__ = [
    "GranularBallSetBuilder",
    "NeighbourLists",
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


class NeighbourLists:
    """Every row's exact nearest neighbours, found once per dataset.

    Row ``i``'s list holds, in ``(distance, index)`` order, exactly the other
    rows whose ``distances_to`` distance is at most ``complete[i]``
    (``sqrt(t₀ + slack)`` of the module docstring): at least ``k`` of them,
    ties at the k-th distance included.  Estimates come from one BLAS
    product per block of rows, sized so the transient block stays near
    ``_BLOCK_BYTES`` whatever ``n``.  A row with more than ``_MAX_FACTOR *
    k`` near-tied candidates (many duplicate rows) gets an empty list
    complete to ``-inf`` instead, so memory stays ``O(n·k)``.  Lists are
    stored as CSR arrays; the squared norms and per-row slacks are kept
    for :class:`CandidateScan`.
    """

    _BLOCK_BYTES = 1 << 20
    _MAX_FACTOR = 4

    def __init__(self, x: np.ndarray, k: int, slack_coeff: float):
        n = x.shape[0]
        self.x = x = np.ascontiguousarray(x, dtype=np.float64)
        self.sq = sq = np.einsum("ij,ij->i", x, x)
        self.slack = slack = slack_coeff * (float(sq.max()) + sq)
        self.complete = np.full(n, np.inf)
        counts = np.zeros(n + 1, dtype=np.intp)
        idx_parts, dist_parts = [], []
        step = max(1, self._BLOCK_BYTES // (8 * n))
        for lo in range(0, n, step):
            rows = np.arange(lo, min(lo + step, n))
            # The estimate less its row constant ||x_i||², which no
            # comparison within a row needs.
            est = (-2.0 * x[rows]) @ x.T
            est += sq
            est[np.arange(rows.size), rows] = np.inf
            if n - 1 > k:
                t0 = np.partition(est, k - 1, axis=1)[:, k - 1]
                self.complete[rows] = np.sqrt(t0 + sq[rows] + slack[rows])
                within = est <= (t0 + 2.0 * slack[rows])[:, None]
            else:
                within = est < np.inf
            row_of, cols = np.divmod(np.flatnonzero(within), n)
            crowded = np.bincount(row_of, minlength=rows.size) > self._MAX_FACTOR * k
            if crowded.any():
                self.complete[rows[crowded]] = -np.inf
                kept = ~crowded[row_of]
                row_of, cols = row_of[kept], cols[kept]
            bounds = np.searchsorted(row_of, np.arange(rows.size + 1))
            near = x[cols]
            dist = np.concatenate([
                distances_to(x[i], near[bounds[r] : bounds[r + 1]])
                for r, i in enumerate(rows)
            ])
            # cols ascend within each row, so the stable lexsort keeps the
            # full sort's (distance, index) order.
            order = np.lexsort((dist, row_of))
            dist, row_of, cols = dist[order], row_of[order], cols[order]
            keep = dist <= self.complete[rows][row_of]
            idx_parts.append(cols[keep])
            dist_parts.append(dist[keep])
            counts[rows + 1] = np.bincount(row_of[keep], minlength=rows.size)
        self.offsets = np.cumsum(counts)
        self.idx = np.concatenate(idx_parts)
        self.dist = np.concatenate(dist_parts)

    def alive(self, i: int, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Row ``i``'s list entries with ``keep`` set, and its complete distance.

        If ``keep`` marks the pool, the entries are an exact prefix of the
        pool's ``(distance, index)`` order holding every kept row within the
        complete distance.
        """
        lo, hi = self.offsets[i], self.offsets[i + 1]
        live = keep[self.idx[lo:hi]]
        return self.idx[lo:hi][live], self.dist[lo:hi][live], float(self.complete[i])


class CandidateScan:
    """Sorted-prefix nearest-neighbour view of the pool for one candidate.

    Gathers the pool rows other than ``ci`` (ascending), estimates their
    squared distances from the lists' norm cache (one BLAS matvec), then
    serves exact ``(distance, index)``-sorted prefixes of any requested
    length from a slack-guarded candidate superset.  Prefixes are
    bit-identical to the head of a full stable sort (see the module
    docstring for the exactness argument).
    """

    def __init__(self, lists: NeighbourLists, ci: int, pool: np.ndarray):
        rows = np.flatnonzero(pool)
        self._rows = rows[rows != ci]
        self._x = lists.x[self._rows]
        self._center = lists.x[ci]
        self._approx = lists.sq[self._rows] - 2.0 * (self._x @ self._center)
        self._approx += lists.sq[ci]
        self._slack = float(lists.slack[ci])
        self.n_available = self._rows.size

    def exclude(self, i: int) -> None:
        """Drop one more row (e.g. a neighbour removed as noise mid-scan)."""
        self._approx[np.searchsorted(self._rows, i)] = np.inf
        self.n_available -= 1

    def prefix(self, k: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Exact sorted prefix of length >= min(k, n_available).

        Returns ``(indices, distances, cutoff)`` ordered exactly as the head
        of a stable full ``argsort``: every pool row within ``cutoff`` of the
        candidate, so ties at the boundary are included.
        """
        k = min(int(k), self.n_available)
        if k <= 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64), np.inf
        if k >= self.n_available:
            cand = np.flatnonzero(self._approx < np.inf)
            cutoff = np.inf
        else:
            t0 = float(np.partition(self._approx, k - 1)[k - 1])
            cand = np.flatnonzero(self._approx <= t0 + 2.0 * self._slack)
            cutoff = float(np.sqrt(t0 + self._slack))
        # The shared exact kernel keeps the floats structurally coupled to
        # the full-sort oracle — bit-parity must not hinge on a private copy.
        dist = distances_to(self._center, self._x[cand])
        # cand is ascending in index, so a stable sort on distance
        # reproduces the full sort's (distance, index) tie order exactly.
        order = np.argsort(dist, kind="stable")
        dist = dist[order]
        cand = cand[order]
        if cutoff != np.inf:
            stop = int(np.searchsorted(dist, cutoff, side="right"))
            dist = dist[:stop]
            cand = cand[:stop]
        return self._rows[cand], dist, cutoff


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
