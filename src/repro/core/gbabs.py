"""GB-based approximate borderline sampling (GBABS, Algorithm 2).

GBABS runs RD-GBG to cover the dataset with pure, non-overlapping granular
balls and then keeps only the samples that approximate the class boundaries:

1. the centres of all balls act as positional summaries of the data,
2. along every feature dimension the centres are sorted; whenever two
   *adjacent* centres carry different labels, both balls are flagged as
   *borderline GBs* (§IV-C, Fig. 4),
3. from each heterogeneous adjacent pair the boundary-facing extreme members
   are sampled: the member with the largest coordinate (along that
   dimension) of the left ball and the member with the smallest coordinate
   of the right ball.

The union of the selected samples — without duplicates — is the sampled
dataset.  Because RD-GBG already removed detected class noise and GBABS never
samples the interior of a class, the method simultaneously compresses,
denoises and boundary-focuses the training set.

**High-dimensional extension.**  The paper's conclusion flags the
``O(p·m·log m)`` axis scan as the bottleneck in high-dimensional feature
spaces and leaves a faster variant to future work.  ``projection_dims=k``
implements the natural candidate: scan ``k`` random unit directions
(Johnson–Lindenstrauss style) instead of the ``p`` coordinate axes, reducing
the scan to ``O(k·m·log m)`` while preserving the heterogeneous-adjacency
geometry in expectation.  Ablation A4 benchmarks it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.granular_ball import GranularBallSet
from repro.core.rdgbg import RDGBG, RDGBGResult
from repro.preprocessing import check_labels

__all__ = ["GBABS", "BorderlineReport"]


@dataclass
class BorderlineReport:
    """Diagnostics of one GBABS run.

    Attributes
    ----------
    n_samples:
        Size of the input dataset.
    n_balls:
        Number of granular balls generated by RD-GBG.
    n_borderline_balls:
        Number of balls flagged as borderline in at least one scan
        direction.
    n_selected:
        Number of unique borderline samples returned.
    n_noise_removed:
        Samples dropped by RD-GBG's noise detection.
    sampling_ratio:
        ``n_selected / n_samples`` — the quantity plotted in Figs. 6 and 10.
    borderline_pairs_per_dim:
        Heterogeneous adjacent centre pairs found in each scan direction
        (feature axes by default, random projections with
        ``projection_dims``).
    """

    n_samples: int
    n_balls: int
    n_borderline_balls: int
    n_selected: int
    n_noise_removed: int
    sampling_ratio: float
    borderline_pairs_per_dim: np.ndarray


class GBABS:
    """Granular-ball approximate borderline sampler.

    Implements the sampler interface used across :mod:`repro.sampling`
    (``fit_resample(x, y) -> (x_sampled, y_sampled)``) so it can be swapped
    against SRS, SMOTE, GGBS, etc. in the evaluation harness.

    Parameters
    ----------
    rho:
        Density tolerance forwarded to :class:`~repro.core.rdgbg.RDGBG`.
    random_state:
        Seed forwarded to RD-GBG and to the random projections (when used).
    sample_all_balls:
        Ablation A3: when True, every ball (not only borderline ones)
        contributes its per-dimension extreme members, mimicking GGBS's
        uniform per-GB sampling on top of RD-GBG balls.
    projection_dims:
        When set to ``k < p``, borderline detection scans ``k`` random unit
        directions instead of the ``p`` feature axes — the high-dimensional
        speed-up sketched as future work in the paper's conclusion.
        ``None`` (default) reproduces the paper's axis scan exactly.
    generator:
        Optional pre-configured :class:`RDGBG` instance; overrides ``rho`` /
        ``random_state`` for granulation when given (used by the ablation
        benchmarks, and by the parity tests to run the full-sort oracle).

    Attributes
    ----------
    sample_indices_:
        Sorted indices (into the input) of the selected samples.
    ball_set_:
        The :class:`GranularBallSet` generated by RD-GBG.
    borderline_ball_indices_:
        Indices (into ``ball_set_``) of balls flagged as borderline.
    rdgbg_result_:
        Full :class:`RDGBGResult` of the generation stage.
    report_:
        :class:`BorderlineReport` with run diagnostics.
    """

    def __init__(
        self,
        rho: int = 5,
        random_state: int | None = None,
        sample_all_balls: bool = False,
        projection_dims: int | None = None,
        generator: RDGBG | None = None,
    ):
        if projection_dims is not None and projection_dims < 1:
            raise ValueError("projection_dims must be >= 1 when given")
        self.rho = int(rho)
        self.random_state = random_state
        self.sample_all_balls = bool(sample_all_balls)
        self.projection_dims = projection_dims
        self.generator = generator

        self.sample_indices_: np.ndarray | None = None
        self.ball_set_: GranularBallSet | None = None
        self.borderline_ball_indices_: np.ndarray | None = None
        self.rdgbg_result_: RDGBGResult | None = None
        self.report_: BorderlineReport | None = None

    # ------------------------------------------------------------------

    def fit_resample(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Run Algorithm 2 and return the borderline-sampled dataset."""
        x = np.asarray(x, dtype=np.float64)
        y = check_labels(y)
        generator = self.generator or RDGBG(rho=self.rho, random_state=self.random_state)
        result = generator.generate(x, y)
        self.rdgbg_result_ = result
        self.ball_set_ = result.ball_set

        selected, borderline_balls, pairs_per_dim = self._select_borderline(
            x, result.ball_set
        )
        self.sample_indices_ = selected
        self.borderline_ball_indices_ = borderline_balls
        self.report_ = BorderlineReport(
            n_samples=x.shape[0],
            n_balls=len(result.ball_set),
            n_borderline_balls=int(borderline_balls.size),
            n_selected=int(selected.size),
            n_noise_removed=int(result.noise_indices.size),
            sampling_ratio=float(selected.size) / max(x.shape[0], 1),
            borderline_pairs_per_dim=pairs_per_dim,
        )
        return x[selected], y[selected]

    # ------------------------------------------------------------------

    def _scan_coordinates(
        self, x: np.ndarray, centers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates used for the borderline scan.

        The paper's Algorithm 2 scans the raw feature axes; with
        ``projection_dims`` both samples and centres are projected onto
        seeded random unit directions first.
        """
        p = x.shape[1]
        k = self.projection_dims
        if k is None or k >= p:
            return x, centers
        rng = np.random.default_rng(
            None if self.random_state is None else self.random_state + 7919
        )
        directions = rng.normal(size=(p, k))
        directions /= np.linalg.norm(directions, axis=0, keepdims=True) + 1e-12
        return x @ directions, centers @ directions

    def _select_borderline(
        self, x: np.ndarray, ball_set: GranularBallSet
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Borderline centre recognition + extreme-member selection.

        Returns ``(sample_indices, borderline_ball_indices, pairs_per_dim)``.
        """
        m = len(ball_set)
        labels = ball_set.labels
        x_coords, c_coords = self._scan_coordinates(x, ball_set.centers)
        n_dims = x_coords.shape[1]

        selected: set[int] = set()
        borderline = np.zeros(m, dtype=bool)
        pairs_per_dim = np.zeros(n_dims, dtype=np.intp)

        if m == 1:
            # A single ball has no heterogeneous neighbour; nothing is
            # borderline.  (Degenerate single-class datasets.)
            return (
                np.empty(0, dtype=np.intp),
                np.empty(0, dtype=np.intp),
                pairs_per_dim,
            )

        for dim in range(n_dims):
            order = np.argsort(c_coords[:, dim], kind="stable")
            lab = labels[order]
            het = np.flatnonzero(lab[:-1] != lab[1:])
            pairs_per_dim[dim] = het.size
            for pos in het:
                left_ball = int(order[pos])
                right_ball = int(order[pos + 1])
                borderline[left_ball] = True
                borderline[right_ball] = True
                if self.sample_all_balls:
                    continue
                selected.add(
                    self._extreme_member(x_coords, ball_set, left_ball, dim, "max")
                )
                selected.add(
                    self._extreme_member(x_coords, ball_set, right_ball, dim, "min")
                )

        if self.sample_all_balls:
            # Ablation: every ball contributes both extremes in every dim.
            for bi in range(m):
                for dim in range(n_dims):
                    selected.add(
                        self._extreme_member(x_coords, ball_set, bi, dim, "max")
                    )
                    selected.add(
                        self._extreme_member(x_coords, ball_set, bi, dim, "min")
                    )

        return (
            np.array(sorted(selected), dtype=np.intp),
            np.flatnonzero(borderline),
            pairs_per_dim,
        )

    @staticmethod
    def _extreme_member(
        x_coords: np.ndarray,
        ball_set: GranularBallSet,
        ball_index: int,
        dim: int,
        which: str,
    ) -> int:
        """Member of a ball with the extreme scan coordinate along ``dim``.

        The "max" extreme of the left ball and the "min" extreme of the right
        ball are the members facing the separation point between the two
        heterogeneous adjacent balls (Fig. 4(e) of the paper).
        """
        members = ball_set.members_of(ball_index)
        coords = x_coords[members, dim]
        pos = int(np.argmax(coords)) if which == "max" else int(np.argmin(coords))
        return int(members[pos])
