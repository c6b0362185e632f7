"""Nearest-neighbour primitives shared by the granulation and sampling code.

Everything in this module is a thin, well-tested wrapper around numpy /
``scipy.spatial``.  The granular-ball algorithms need two access patterns:

* exact distances from one point to a set of rows (RD-GBG's neighbour
  lists and prefix scans), served by :func:`distances_to`, and
* bulk k-NN queries over a static matrix (SMOTE, Tomek links, kNN
  classifier), served by :class:`NearestNeighbors`.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "pairwise_distances",
    "distances_to",
    "NearestNeighbors",
]


def pairwise_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distance matrix between rows of ``a`` and rows of ``b``.

    Parameters
    ----------
    a:
        Array of shape ``(n, p)``.
    b:
        Array of shape ``(m, p)``.  Defaults to ``a`` itself.

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(n, m)`` with non-negative distances.
    """
    a = np.asarray(a, dtype=np.float64)
    b = a if b is None else np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("pairwise_distances expects 2-D arrays")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"feature dimensions differ: {a.shape[1]} != {b.shape[1]}"
        )
    # ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y, clipped for numeric safety.
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def distances_to(point: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Euclidean distances from a single ``point`` to every row of ``pool``."""
    point = np.asarray(point, dtype=np.float64)
    pool = np.asarray(pool, dtype=np.float64)
    if point.ndim != 1:
        raise ValueError("point must be 1-D")
    diff = pool - point[None, :]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


class NearestNeighbors:
    """k-nearest-neighbour index with a scikit-learn-like interface.

    Uses a KD-tree for low/medium dimensional data and falls back to a
    brute-force distance matrix in high dimensions, where KD-trees degrade
    to linear scans with extra overhead.

    Parameters
    ----------
    n_neighbors:
        Default number of neighbours returned by :meth:`kneighbors`.
    brute_force_dim:
        Dimensionality at or above which brute force is used.
    """

    def __init__(self, n_neighbors: int = 5, brute_force_dim: int = 30):
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        self.n_neighbors = int(n_neighbors)
        self.brute_force_dim = int(brute_force_dim)
        self._fit_x: np.ndarray | None = None
        self._tree: cKDTree | None = None

    def fit(self, x: np.ndarray) -> "NearestNeighbors":
        """Index the rows of ``x`` for subsequent queries."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("fit expects a 2-D array")
        if x.shape[0] == 0:
            raise ValueError("cannot index an empty dataset")
        self._fit_x = x
        if x.shape[1] < self.brute_force_dim:
            self._tree = cKDTree(x)
        else:
            self._tree = None
        return self

    @property
    def n_indexed_(self) -> int:
        """Number of indexed rows (available after :meth:`fit`)."""
        self._check_fitted()
        assert self._fit_x is not None
        return self._fit_x.shape[0]

    def kneighbors(
        self,
        query: np.ndarray | None = None,
        n_neighbors: int | None = None,
        exclude_self: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distances and indices of the nearest indexed rows for each query.

        Parameters
        ----------
        query:
            Array of shape ``(m, p)``; defaults to the indexed matrix itself.
        n_neighbors:
            Number of neighbours; defaults to the constructor value.
        exclude_self:
            When querying the fit matrix against itself, drop the trivial
            zero-distance self match (standard for SMOTE / Tomek links).

        Returns
        -------
        (distances, indices):
            Both of shape ``(m, k)``, rows sorted by increasing distance.
        """
        self._check_fitted()
        assert self._fit_x is not None
        if query is None:
            query = self._fit_x
        query = np.asarray(query, dtype=np.float64)
        k = self.n_neighbors if n_neighbors is None else int(n_neighbors)
        if k < 1:
            raise ValueError("n_neighbors must be >= 1")
        k_eff = k + 1 if exclude_self else k
        k_eff = min(k_eff, self.n_indexed_)

        if self._tree is not None:
            dist, idx = self._tree.query(query, k=k_eff)
            if k_eff == 1:
                dist = dist[:, None]
                idx = idx[:, None]
        else:
            full = pairwise_distances(query, self._fit_x)
            idx = np.argsort(full, axis=1, kind="stable")[:, :k_eff]
            dist = np.take_along_axis(full, idx, axis=1)

        if exclude_self:
            dist, idx = self._drop_self(dist, idx)
            dist, idx = dist[:, :k], idx[:, :k]
        return dist, idx

    @staticmethod
    def _drop_self(dist: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Remove the self match (assumed at distance 0, column 0) per row.

        Handles duplicate points gracefully: the first zero-distance column is
        treated as "self" whether or not the index matches the row number.
        """
        m, k = dist.shape
        rows = np.arange(m)
        cols = np.arange(k)[None, :]
        self_col = np.where(idx == rows[:, None], cols, k)
        first_self = self_col.min(axis=1)
        # Rows where the query point is not among its own neighbours (possible
        # with duplicates) just drop the last column instead.
        first_self = np.where(first_self == k, k - 1, first_self)
        keep = cols != first_self[:, None]
        out_dist = dist[keep].reshape(m, k - 1)
        out_idx = idx[keep].reshape(m, k - 1)
        return out_dist, out_idx

    def _check_fitted(self) -> None:
        if self._fit_x is None:
            raise RuntimeError("NearestNeighbors instance is not fitted yet")
