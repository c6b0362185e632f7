"""Restricted diffusion-based granular-ball generation (RD-GBG, Algorithm 1).

The generator covers a labelled dataset with *pure, non-overlapping* granular
balls.  Each iteration it

1. picks one random candidate centre per class still undivided (larger
   classes first),
2. runs *local-density centre detection* (Eq. 2 and the three rules of
   §IV-B1), which doubles as class-noise detection,
3. grows a ball around each eligible centre by *restricted diffusion*: the
   radius is the locally consistent radius ``CR(c)`` (Eq. 3) clipped by the
   conflict radius ``r_conf(c)`` to the nearest existing ball (Eqs. 4–6), so
   the new ball is pure and cannot overlap any previous ball,

until every undivided sample is a low-density sample, at which point the
remaining samples become radius-0 *orphan* balls.

Two ablation switches mirror the design choices the paper motivates:
``detect_noise=False`` disables the noise-removal rules, and
``enforce_no_overlap=False`` drops the conflict-radius clipping (recovering
the overlap behaviour of earlier GBG methods).

``generate`` runs on the data structures of :mod:`repro.core.engine`:
struct-of-arrays ball storage, every row's exact neighbour list built once
in a blocked BLAS pass, a tie-exact prefix scan of the undivided rows for
the few candidates a list cannot decide, and a spatial index over ball
centres for conflict-radius queries.  A candidate's list, filtered to the
undivided rows, is an exact prefix of its sorted pool; the rules need no
more than a prefix that reaches the first neighbour of another label, or
passes ``r_conf``, within the list's complete distance.  The
candidate-selection rules (`_detect_center`), the radius clipping
(`_clip_radius`) and member collection (`_collect_members`) are the
algorithm's rule kernels; the straight-line full-sort implementation in
``tests/core/reference_rdgbg.py`` inherits them and is the bit-parity
oracle for this loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import (
    BallCenterIndex,
    CandidateScan,
    GranularBallSetBuilder,
    NeighbourLists,
    _prefix_slack,
)
from repro.core.granular_ball import GranularBallSet
from repro.preprocessing import check_labels

__all__ = ["RDGBG", "RDGBGResult"]

# Relative slack applied when collecting members at distance exactly r.
_RADIUS_RTOL = 1e-12

# Neighbour-list and first-scan length (at least rho + 1, so the detection
# rules see the same effective neighbourhood as a full sort of the pool).
_MIN_PREFIX = 32


def _member_limit(radius: float) -> float:
    """Distance within which undivided rows of the run join a ball of ``radius``."""
    return radius * (1.0 + _RADIUS_RTOL) + 1e-15


@dataclass
class RDGBGResult:
    """Everything produced by one RD-GBG run.

    Attributes
    ----------
    ball_set:
        The generated balls (pure, non-overlapping, partitioning the kept
        samples).
    noise_indices:
        Indices of samples removed as detected class noise.
    orphan_indices:
        Indices that ended as radius-0 single-sample balls (the low-density
        and leftover samples of the paper's completeness criterion).
    n_iterations:
        Number of global iterations of the outer loop.
    """

    ball_set: GranularBallSet
    noise_indices: np.ndarray
    orphan_indices: np.ndarray
    n_iterations: int


class RDGBG:
    """Restricted diffusion-based granular-ball generator.

    Parameters
    ----------
    rho:
        Density tolerance ``ρ``: the neighbourhood size used by the
        local-density centre detection rules.  The paper sweeps
        ``ρ ∈ {3, 5, …, 19}`` (Figs. 10–11) and uses 5 in its examples.
    random_state:
        Seed for the per-class random centre choice; fixes the (otherwise
        randomised) output completely.
    detect_noise:
        Apply the ``h(c,l)`` noise-removal rules.  Disabling this is
        ablation A2 of DESIGN.md.
    enforce_no_overlap:
        Clip radii by the conflict radius so balls never overlap.  Disabling
        this is ablation A1.
    """

    def __init__(
        self,
        rho: int = 5,
        random_state: int | None = None,
        detect_noise: bool = True,
        enforce_no_overlap: bool = True,
    ):
        if rho < 2:
            raise ValueError("rho must be >= 2 so the detection rules are distinct")
        self.rho = int(rho)
        self.random_state = random_state
        self.detect_noise = bool(detect_noise)
        self.enforce_no_overlap = bool(enforce_no_overlap)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def generate(self, x: np.ndarray, y: np.ndarray) -> RDGBGResult:
        """Run Algorithm 1 on the dataset ``(x, y)``.

        Parameters
        ----------
        x:
            Feature matrix of shape ``(n, p)``.
        y:
            Integer labels of shape ``(n,)``.

        Returns
        -------
        RDGBGResult
        """
        x, y = self._validate(x, y)
        n, p = x.shape
        rng = np.random.default_rng(self.random_state)
        in_u = np.ones(n, dtype=bool)       # undivided sample set U
        in_l = np.zeros(n, dtype=bool)      # low-density sample set L (⊆ U)
        is_noise = np.zeros(n, dtype=bool)  # removed as class noise

        builder = GranularBallSetBuilder(p, n)
        index = BallCenterIndex(p) if self.enforce_no_overlap else None
        lists = NeighbourLists(x, max(self.rho + 1, _MIN_PREFIX), _prefix_slack(p))
        # Rows of T (= U minus L) per class, ascending; a row never re-enters T.
        by_class = [np.flatnonzero(y == cls) for cls in np.unique(y)]

        n_iterations = 0
        while True:
            in_t = in_u & ~in_l
            by_class = [rows[in_t[rows]] for rows in by_class]
            if not any(rows.size for rows in by_class):
                break
            n_iterations += 1
            for ci in self._draw_candidates(by_class, rng):
                if not in_u[ci] or in_l[ci]:
                    # Swallowed by a ball generated earlier in this round.
                    continue
                self._process_candidate(
                    ci, x, y, in_u, in_l, is_noise, lists, index, builder
                )

        # Completeness: leftover (all low-density) samples become orphan GBs.
        orphan_idx = np.flatnonzero(in_u)
        for oi in orphan_idx:
            builder.add(x[oi].copy(), 0.0, int(y[oi]), np.array([oi], dtype=np.intp))

        return RDGBGResult(
            ball_set=builder.build(),
            noise_indices=np.flatnonzero(is_noise),
            orphan_indices=orphan_idx,
            n_iterations=n_iterations,
        )

    def _validate(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if x.ndim != 2:
            raise ValueError("x must be a 2-D feature matrix")
        if y.shape != (x.shape[0],):
            raise ValueError("y must be 1-D and aligned with x")
        if x.shape[0] == 0:
            raise ValueError("cannot granulate an empty dataset")
        if not np.isfinite(x).all():
            raise ValueError("x contains NaN or infinite values")
        return x, check_labels(y)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _process_candidate(
        self,
        ci: int,
        x: np.ndarray,
        y: np.ndarray,
        in_u: np.ndarray,
        in_l: np.ndarray,
        is_noise: np.ndarray,
        lists: NeighbourLists,
        index: BallCenterIndex | None,
        builder: GranularBallSetBuilder,
    ) -> None:
        """Centre detection + ball construction for a single candidate.

        Works on an exact sorted prefix of the undivided neighbours and the
        distance up to which it is complete: the candidate's list while it
        holds rho + 1 undivided rows (or the whole pool), then a
        :class:`CandidateScan` widened until the prefix decides the ball.
        """
        scan = None
        sorted_idx, sorted_dist, complete = lists.alive(ci, in_u)
        if sorted_idx.size <= self.rho:
            # Too short for the detection rules unless it is the whole pool.
            n_others = int(np.count_nonzero(in_u)) - 1
            if n_others == 0:
                in_l[ci] = True
                return
            if sorted_idx.size < n_others:
                scan = CandidateScan(lists, ci, in_u)
                sorted_idx, sorted_dist, complete = scan.prefix(
                    max(self.rho + 1, _MIN_PREFIX)
                )
        y_ci = y[ci]

        if y[sorted_idx[0]] != y_ci:
            nn = int(sorted_idx[0])
            verdict, sorted_idx, sorted_dist = self._detect_center(
                ci, y, in_u, in_l, is_noise, sorted_idx, sorted_dist
            )
            if not verdict:
                return
            # h == 1: the nearest neighbour was removed as noise; the
            # shortened arrays are exactly the prefix of the updated pool.
            if scan is not None:
                scan.exclude(nn)
            if sorted_idx.size == 0:
                in_l[ci] = True
                return

        # The prefix decides the ball once it reaches the first heterogeneous
        # neighbour (which bounds the homogeneous run ω), covers the pool, or
        # passes r_conf (every later row then lies beyond the clipped
        # radius) — provided no row past its complete distance could still
        # fall inside the member threshold.  Otherwise widen it.
        r_conf = index.conflict_radius(x[ci]) if index is not None else np.inf
        while True:
            homo = y[sorted_idx] == y_ci
            omega = int(homo.size) if homo.all() else int(np.argmin(homo))
            if omega == 0:
                in_l[ci] = True
                return
            radius = self._clip_radius(sorted_dist, omega, r_conf)
            if (
                (omega < homo.size or r_conf < sorted_dist[-1])
                and _member_limit(radius) <= complete
            ) or sorted_idx.size == np.count_nonzero(in_u) - 1:
                break
            if scan is None:
                scan = CandidateScan(lists, ci, in_u)
            sorted_idx, sorted_dist, complete = scan.prefix(4 * sorted_idx.size)

        if radius <= 0.0:
            # Centre sits on the edge of the undivided set; defer it.
            in_l[ci] = True
            return

        members = self._collect_members(ci, sorted_idx, sorted_dist, omega, radius)
        builder.add(x[ci].copy(), float(radius), int(y_ci), members)
        if index is not None:
            index.add(x[ci], float(radius))
        in_u[members] = False
        in_l[members] = False

    @staticmethod
    def _draw_candidates(
        by_class: list[np.ndarray], rng: np.random.Generator
    ) -> list[int]:
        """One random candidate centre per class in T, larger classes first.

        ``by_class`` holds each class's rows of T in ascending index order,
        classes in ascending label order, so each pool is byte-identical to
        the boolean-mask selection ``t_idx[y[t_idx] == cls]`` and the RNG
        consumption (one ``choice`` per class, larger classes first, class
        value breaking count ties) is reproducible across implementations.
        """
        counts = np.array([rows.size for rows in by_class])
        return [
            int(rng.choice(by_class[j]))
            for j in np.argsort(-counts, kind="stable")
            if counts[j]
        ]

    def _detect_center(
        self,
        ci: int,
        y: np.ndarray,
        in_u: np.ndarray,
        in_l: np.ndarray,
        is_noise: np.ndarray,
        sorted_idx: np.ndarray,
        sorted_dist: np.ndarray,
    ) -> tuple[bool, np.ndarray, np.ndarray]:
        """Apply the local-density centre detection rules (§IV-B1).

        Called only when the candidate's nearest neighbour is heterogeneous.
        Returns ``(eligible, sorted_idx, sorted_dist)`` with the neighbour
        arrays possibly shortened when the nearest neighbour was removed as
        noise (the ``h == 1`` rule).  ``sorted_idx`` may be any sorted prefix
        of the undivided neighbours as long as it holds at least
        ``min(rho, pool size)`` entries, which is what lets ``generate``
        apply it to partial prefixes and the full-sort oracle to the
        whole pool.
        """
        if not self.detect_noise:
            # Without noise handling the candidate simply cannot anchor a
            # pure ball; treat it as low density.
            in_l[ci] = True
            return False, sorted_idx, sorted_dist

        rho_eff = min(self.rho, sorted_idx.size)
        if rho_eff < 2:
            # Too few neighbours to distinguish noise from low density;
            # defer the candidate rather than risk deleting a real sample.
            in_l[ci] = True
            return False, sorted_idx, sorted_dist
        h = int(np.sum(y[sorted_idx[:rho_eff]] != y[ci]))
        if h == rho_eff:
            # All ρ nearest neighbours disagree: the candidate is class noise.
            in_u[ci] = False
            in_l[ci] = False
            is_noise[ci] = True
            return False, sorted_idx, sorted_dist
        if h == 1:
            # Lone dissenting nearest neighbour is the noise sample.
            nn = sorted_idx[0]
            in_u[nn] = False
            in_l[nn] = False
            is_noise[nn] = True
            return True, sorted_idx[1:], sorted_dist[1:]
        # 1 < h < ρ: the candidate is a low-density sample.
        in_l[ci] = True
        return False, sorted_idx, sorted_dist

    @staticmethod
    def _clip_radius(sorted_dist: np.ndarray, omega: int, r_conf: float) -> float:
        """``CR(c)`` (Eq. 3) clipped by the conflict radius (Eqs. 4–6)."""
        cr = float(sorted_dist[omega - 1])
        if cr <= r_conf:
            return cr
        # Restricted maximum consistent radius r_max (Eq. 6): the farthest
        # undivided sample not crossing into an existing ball.  Because the
        # first heterogeneous neighbour lies at distance >= CR > r_conf, any
        # sample within r_conf is homogeneous and purity is preserved.
        within = sorted_dist[:omega] <= r_conf
        if not np.any(within):
            return 0.0
        return float(sorted_dist[:omega][within].max())

    @staticmethod
    def _collect_members(
        ci: int,
        sorted_idx: np.ndarray,
        sorted_dist: np.ndarray,
        omega: int,
        radius: float,
    ) -> np.ndarray:
        """Member indices of a new ball: the centre plus the in-radius prefix.

        Membership is capped at the homogeneous prefix ω: a heterogeneous
        neighbour can sit at *exactly* the radius distance (tied distances),
        and Eq. 7 must never absorb it into a pure ball.
        """
        member_mask = sorted_dist[:omega] <= _member_limit(radius)
        return np.concatenate(
            (np.array([ci], dtype=np.intp), sorted_idx[:omega][member_mask])
        )
