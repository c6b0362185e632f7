"""Core contribution of the paper: RD-GBG generation and GBABS sampling.

The public surface of this package is:

* :class:`~repro.core.granular_ball.GranularBall` — a single pure ball.
* :class:`~repro.core.granular_ball.GranularBallSet` — the output of a
  granular-ball generation run, with geometry/consistency helpers.
* :class:`~repro.core.rdgbg.RDGBG` — restricted diffusion-based granular-ball
  generation (Algorithm 1 of the paper).
* :class:`~repro.core.gbabs.GBABS` — granular-ball approximate borderline
  sampling (Algorithm 2 of the paper).
* :mod:`repro.core.engine` — the vectorised data structures RD-GBG runs
  on, among them :class:`~repro.core.engine.GranularBallSetBuilder` (SoA
  ball storage).
"""

from repro.core.granular_ball import GranularBall, GranularBallSet
from repro.core.neighbors import NearestNeighbors, pairwise_distances
from repro.core.rdgbg import RDGBG, RDGBGResult
from repro.core.engine import GranularBallSetBuilder
from repro.core.gbabs import GBABS, BorderlineReport

__all__ = [
    "GranularBall",
    "GranularBallSet",
    "GranularBallSetBuilder",
    "NearestNeighbors",
    "pairwise_distances",
    "RDGBG",
    "RDGBGResult",
    "GBABS",
    "BorderlineReport",
]
