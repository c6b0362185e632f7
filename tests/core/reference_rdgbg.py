"""Reference RD-GBG: the straight-line full-sort reading of Algorithm 1.

``RDGBG.generate`` decides each candidate from a slack-guarded sorted prefix
of its neighbours (a neighbour list built once, or a scan of the undivided
rows) and answers conflict-radius queries from a spatial index.  This
subclass keeps the
original formulation (a full distance scan and stable ``argsort`` of the
undivided set per candidate, the centre matrix rebuilt per conflict query,
``GranularBall`` objects accumulated in a list) so property tests can
require the two to produce bit-identical results.  ``generate`` and the
candidate draw (one stable sort of T by class per round) are its own; the
detection, radius-clipping and membership rules and input validation are
inherited.
"""

from __future__ import annotations

import numpy as np

from repro.core.granular_ball import GranularBall, GranularBallSet
from repro.core.neighbors import distances_to
from repro.core.rdgbg import RDGBG, RDGBGResult


class ReferenceRDGBG(RDGBG):
    """RD-GBG grown by a full sort of the undivided set per candidate."""

    def generate(self, x: np.ndarray, y: np.ndarray) -> RDGBGResult:
        x, y = self._validate(x, y)
        n = x.shape[0]
        rng = np.random.default_rng(self.random_state)
        in_u = np.ones(n, dtype=bool)       # undivided sample set U
        in_l = np.zeros(n, dtype=bool)      # low-density sample set L (⊆ U)
        is_noise = np.zeros(n, dtype=bool)  # removed as class noise
        balls: list[GranularBall] = []

        n_iterations = 0
        while True:
            t_idx = np.flatnonzero(in_u & ~in_l)
            if t_idx.size == 0:
                break
            n_iterations += 1
            for ci in self._draw_by_sort(t_idx, y, rng):
                if not in_u[ci] or in_l[ci]:
                    continue
                self._grow(ci, x, y, in_u, in_l, is_noise, balls)

        orphan_idx = np.flatnonzero(in_u)
        for oi in orphan_idx:
            balls.append(GranularBall(center=x[oi].copy(), radius=0.0,
                                      label=int(y[oi]),
                                      indices=np.array([oi], dtype=np.intp)))
        return RDGBGResult(
            ball_set=GranularBallSet(balls, n_source_samples=n),
            noise_indices=np.flatnonzero(is_noise),
            orphan_indices=orphan_idx,
            n_iterations=n_iterations,
        )

    @staticmethod
    def _draw_by_sort(
        t_idx: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> list[int]:
        """One random candidate centre per class in T, larger classes first.

        Groups T by class with a single stable argsort: within each class
        the candidates keep ascending index order, and each class pool is
        byte-identical to the boolean-mask selection ``t_idx[y[t_idx] ==
        cls]``.
        """
        y_t = y[t_idx]
        grouped = np.argsort(y_t, kind="stable")
        sorted_y = y_t[grouped]
        starts = np.concatenate(
            ([0], np.flatnonzero(sorted_y[1:] != sorted_y[:-1]) + 1, [y_t.size])
        )
        counts = np.diff(starts)
        order = np.argsort(-counts, kind="stable")
        candidates = []
        for j in order:
            pool = t_idx[grouped[starts[j] : starts[j + 1]]]
            candidates.append(int(rng.choice(pool)))
        return candidates

    def _grow(self, ci, x, y, in_u, in_l, is_noise, balls) -> None:
        """Centre detection + ball construction for one candidate."""
        u_idx = np.flatnonzero(in_u)
        others = u_idx[u_idx != ci]
        if others.size == 0:
            in_l[ci] = True
            return

        dist = distances_to(x[ci], x[others])
        order = np.argsort(dist, kind="stable")
        sorted_idx = others[order]
        sorted_dist = dist[order]

        if y[sorted_idx[0]] != y[ci]:
            verdict, sorted_idx, sorted_dist = self._detect_center(
                ci, y, in_u, in_l, is_noise, sorted_idx, sorted_dist
            )
            if not verdict:
                return
            if sorted_idx.size == 0:
                in_l[ci] = True
                return

        # The homogeneous neighbour prefix ω caps membership so distance
        # ties with heterogeneous neighbours can never break purity.
        homo = y[sorted_idx] == y[ci]
        omega = int(homo.size if homo.all() else np.argmin(homo))
        if omega == 0:
            in_l[ci] = True
            return
        r_conf = np.inf
        if self.enforce_no_overlap and balls:
            centers = np.vstack([ball.center for ball in balls])
            radii = np.array([ball.radius for ball in balls])
            r_conf = float((distances_to(x[ci], centers) - radii).min())
        radius = self._clip_radius(sorted_dist, omega, r_conf)
        if radius <= 0.0:
            in_l[ci] = True
            return

        members = self._collect_members(ci, sorted_idx, sorted_dist, omega, radius)
        balls.append(GranularBall(center=x[ci].copy(), radius=float(radius),
                                  label=int(y[ci]), indices=members))
        in_u[members] = False
        in_l[members] = False
