"""Reference CART split search: the per-node argsort + one-hot cumsum tree.

``DecisionTreeClassifier`` presorts every feature once (a forest's tree
sorts just its drawn features per node) and scores boundaries from integer
class counts.  This subclass keeps the original
per-node formulation (argsort each candidate feature at every node, score
every boundary through float one-hot cumsums and two einsums) so property
tests can require the two to grow bit-identical trees.  Only ``fit`` and the
split search are overridden; hyperparameter handling, label encoding and
prediction are inherited.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import check_fit_inputs
from repro.classifiers.tree import DecisionTreeClassifier

_LEAF = -1


class ReferenceDecisionTree(DecisionTreeClassifier):
    """Gini CART grown by the per-node argsort reference split search."""

    def fit(self, x: np.ndarray, y: np.ndarray) -> "ReferenceDecisionTree":
        x, y = check_fit_inputs(x, y)
        encoded = self._encode_labels(y)
        n, p = x.shape
        k = self.classes_.size
        onehot = np.zeros((n, k), dtype=np.float64)
        onehot[np.arange(n), encoded] = 1.0
        self._rng = np.random.default_rng(self.random_state)
        self._n_subset_features = self._resolve_max_features(p)

        # Growable flat node arrays.
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[np.ndarray] = []

        max_depth = np.inf if self.max_depth is None else self.max_depth
        stack = [(np.arange(n, dtype=np.intp), 0, _LEAF, False)]
        while stack:
            idx, depth, parent, is_right = stack.pop()
            node_id = self._new_node(onehot[idx].sum(axis=0))
            if parent != _LEAF:
                if is_right:
                    self._right[parent] = node_id
                else:
                    self._left[parent] = node_id

            counts = self._value[node_id]
            pure = np.count_nonzero(counts) <= 1
            if (
                pure
                or depth >= max_depth
                or idx.size < self.min_samples_split
            ):
                continue
            split = self._best_split(x, onehot, idx)
            if split is None:
                continue
            feat, thr = split
            self._feature[node_id] = feat
            self._threshold[node_id] = thr
            go_left = x[idx, feat] <= thr
            stack.append((idx[~go_left], depth + 1, node_id, True))
            stack.append((idx[go_left], depth + 1, node_id, False))

        self.feature_ = np.asarray(self._feature, dtype=np.intp)
        self.threshold_ = np.asarray(self._threshold, dtype=np.float64)
        self.children_left_ = np.asarray(self._left, dtype=np.intp)
        self.children_right_ = np.asarray(self._right, dtype=np.intp)
        self.value_ = np.vstack(self._value)
        self.n_nodes_ = self.feature_.size
        del self._feature, self._threshold, self._left, self._right, self._value
        return self

    def _new_node(self, counts: np.ndarray) -> int:
        self._feature.append(_LEAF)
        self._threshold.append(np.nan)
        self._left.append(_LEAF)
        self._right.append(_LEAF)
        self._value.append(counts)
        return len(self._feature) - 1

    def _best_split(
        self, x: np.ndarray, onehot: np.ndarray, idx: np.ndarray
    ) -> tuple[int, float] | None:
        """Best (feature, threshold) by weighted Gini decrease, or None.

        All features in the (possibly subsampled) candidate set are scored
        at once: labels are sorted along each feature, left-side class
        counts come from a single cumsum, and the split objective
        ``n_l·gini_l + n_r·gini_r = n - Σ l²/n_l - Σ r²/n_r`` is minimised
        over every valid boundary between distinct values.
        """
        n_node = idx.size
        p = x.shape[1]
        if self._n_subset_features < p:
            feats = self._rng.choice(p, size=self._n_subset_features, replace=False)
        else:
            feats = np.arange(p)

        sub_x = x[np.ix_(idx, feats)]                    # (n, f)
        order = np.argsort(sub_x, axis=0, kind="stable")  # (n, f)
        sorted_vals = np.take_along_axis(sub_x, order, axis=0)
        sorted_onehot = onehot[idx][order]                # (n, f, K)

        left_counts = np.cumsum(sorted_onehot, axis=0)    # (n, f, K)
        total = left_counts[-1]                           # (f, K)

        boundaries = left_counts[:-1]                     # split after row i
        n_left = np.arange(1, n_node, dtype=np.float64)[:, None]
        n_right = n_node - n_left
        sum_l2 = np.einsum("ifk,ifk->if", boundaries, boundaries)
        right_counts = total[None, :, :] - boundaries
        sum_r2 = np.einsum("ifk,ifk->if", right_counts, right_counts)
        # Weighted impurity up to the constant n_node; lower is better.
        objective = -sum_l2 / n_left - sum_r2 / n_right

        distinct = sorted_vals[1:] > sorted_vals[:-1]
        msl = self.min_samples_leaf
        if msl > 1:
            pos_ok = (n_left >= msl) & (n_right >= msl)
            valid = distinct & pos_ok
        else:
            valid = distinct
        if not valid.any():
            return None

        # Like scikit-learn, any impure node with a valid boundary is split,
        # even at zero Gini gain (required for XOR-like structure where the
        # first cut alone does not reduce impurity).
        objective = np.where(valid, objective, np.inf)
        flat_best = np.argmin(objective)
        row, col = np.unravel_index(flat_best, objective.shape)

        thr = 0.5 * (sorted_vals[row, col] + sorted_vals[row + 1, col])
        # Midpoints can round onto the upper value; keep the comparison
        # consistent with `<= thr` partitioning.
        if thr >= sorted_vals[row + 1, col]:
            thr = sorted_vals[row, col]
        return int(feats[col]), float(thr)
