"""CART decision tree (Breiman et al., 1984) with Gini impurity.

This is the workhorse classifier of the paper's evaluation (Tables II–IV and
Figs. 9–11 all use DT), so the split search is vectorised and sorts once:
``fit`` argsorts every feature at the root, and each split hands its
children stable partitions of the parent's per-feature sorted rows.  A tree
drawing a random feature subset per node (``max_features``, the random
forest) instead sorts each node's rows along just the drawn features, which
costs less than partitioning all p.  Tie order never matters: only
boundaries between distinct values are scored.  Every boundary is scored
from exact int64 class counts rather than float one-hot cumsums, and the
trees are bit-identical to the per-node argsort, one-hot formulation that
``tests/classifiers/reference_tree.py`` keeps as the oracle of
``tests/property/test_tree_properties.py``.  Defaults mirror scikit-learn's
``DecisionTreeClassifier`` (unbounded depth, Gini, two-sample minimum
split).

The fitted tree is stored as flat arrays (``feature``, ``threshold``,
``children_left``, ``children_right``, ``value``) so prediction is a
vectorised level-synchronous descent rather than per-sample recursion.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import BaseClassifier, check_fit_inputs, validate_fitted

__all__ = ["DecisionTreeClassifier"]

_LEAF = -1


class DecisionTreeClassifier(BaseClassifier):
    """Gini CART classifier.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until purity or ``min_samples_*``
        stops (the scikit-learn default the paper uses).
    min_samples_split:
        Minimum node size eligible for splitting.
    min_samples_leaf:
        Minimum samples in each child of a split.
    max_features:
        ``None`` (all features), ``"sqrt"``, ``"log2"`` or an int — the
        per-node random feature subset used by random forests.
    random_state:
        Seed for the feature subsampling (only relevant with
        ``max_features``).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | None = None,
    ):
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.random_state = random_state

    # ------------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        x, y = check_fit_inputs(x, y)
        encoded = self._encode_labels(y)
        n, p = x.shape
        k = self.classes_.size
        xt = np.ascontiguousarray(x.T)
        self._rng = np.random.default_rng(self.random_state)
        self._n_subset_features = self._resolve_max_features(p)

        # Per node, in creation order: [feature, threshold, left, right, counts].
        nodes: list[list] = []
        # A node is its rows, (g, m), and its class counts.  Without feature
        # subsets row j lists them by ascending feature j (g = p), and stable
        # partitions keep children sorted; with them g = 1, in any order.
        if self._n_subset_features < p:
            order = np.arange(n)[None]
        else:
            order = np.argsort(xt, axis=1)
        go_left = np.empty(n, dtype=bool)  # split side, by row id
        max_depth = np.inf if self.max_depth is None else self.max_depth
        stack = [(order, np.bincount(encoded, minlength=k), 0, _LEAF, False)]
        while stack:
            order, counts, depth, parent, is_right = stack.pop()
            if parent != _LEAF:
                nodes[parent][3 if is_right else 2] = len(nodes)
            node = [_LEAF, np.nan, _LEAF, _LEAF, counts]
            nodes.append(node)

            pure = np.count_nonzero(counts) <= 1
            if pure or depth >= max_depth or order.shape[1] < self.min_samples_split:
                continue
            split = self._count_split(xt, encoded, order, counts)
            if split is None:
                continue
            feat, thr = split
            node[:2] = split
            rows = order[0]
            to_left = xt[feat, rows] <= thr
            go_left[rows] = to_left
            side = go_left[order].ravel()
            left_counts = np.bincount(encoded[rows[to_left]], minlength=k)
            node_id = len(nodes) - 1
            stack.append((order.compress(~side).reshape(len(order), -1),
                          counts - left_counts, depth + 1, node_id, True))
            stack.append((order.compress(side).reshape(len(order), -1),
                          left_counts, depth + 1, node_id, False))

        feature, threshold, left, right, value = zip(*nodes)
        self.feature_ = np.asarray(feature, dtype=np.intp)
        self.threshold_ = np.asarray(threshold, dtype=np.float64)
        self.children_left_ = np.asarray(left, dtype=np.intp)
        self.children_right_ = np.asarray(right, dtype=np.intp)
        self.value_ = np.vstack(value).astype(np.float64)
        self.n_nodes_ = self.feature_.size
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(x)
        return self.classes_[np.argmax(proba, axis=1)]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class distribution of the reached leaf, per query row."""
        validate_fitted(self)
        leaf = self.apply(x)
        counts = self.value_[leaf]
        return counts / counts.sum(axis=1, keepdims=True)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf node index reached by each query row (vectorised descent)."""
        validate_fitted(self)
        x = np.asarray(x, dtype=np.float64)
        node = np.zeros(x.shape[0], dtype=np.intp)
        while True:
            feat = self.feature_[node]
            active = feat != _LEAF
            if not active.any():
                return node
            rows = np.flatnonzero(active)
            f = feat[rows]
            go_left = x[rows, f] <= self.threshold_[node[rows]]
            node[rows] = np.where(
                go_left,
                self.children_left_[node[rows]],
                self.children_right_[node[rows]],
            )

    @property
    def depth_(self) -> int:
        """Depth of the fitted tree (root = 0)."""
        validate_fitted(self)
        if not self.n_nodes_:
            return 0
        # Level-order frontier walk: one array pass per level instead of a
        # Python loop over every node.
        depth = 0
        frontier = np.array([0], dtype=np.intp)
        while True:
            internal = frontier[self.feature_[frontier] != _LEAF]
            if internal.size == 0:
                return depth
            frontier = np.concatenate(
                (self.children_left_[internal], self.children_right_[internal])
            )
            depth += 1

    # ------------------------------------------------------------------

    def _resolve_max_features(self, p: int) -> int:
        spec = self.max_features
        if spec is None:
            return p
        if spec == "sqrt":
            return max(1, int(np.sqrt(p)))
        if spec == "log2":
            return max(1, int(np.log2(p)))
        if isinstance(spec, (int, np.integer)):
            if not 1 <= spec <= p:
                raise ValueError("integer max_features out of range")
            return int(spec)
        raise ValueError(f"unsupported max_features spec: {spec!r}")

    def _count_split(
        self, xt: np.ndarray, encoded: np.ndarray, order: np.ndarray,
        counts: np.ndarray,
    ) -> tuple[int, float] | None:
        """Best (feature, threshold) by weighted Gini decrease, or None.

        ``order`` (g, m) is the node's rows (see ``fit``) and ``counts`` its
        class totals t.  Along each candidate feature the q-th row of class c
        (in feature order) turns ``l_c² = (q - 1)²`` into ``q²`` as it joins
        the left side, so ``Σ l²`` is a prefix sum of ``2q - 1`` and ``Σ r² =
        Σ t² - 2·Σ t_c·l_c + Σ l²``, all exact int64.  The split objective
        ``n_l·gini_l + n_r·gini_r = m - Σ l²/n_l - Σ r²/n_r`` is minimised
        over every valid boundary between distinct values.
        """
        p, n = xt.shape
        m = order.shape[1]
        # Flat indices into the C-contiguous (p, n) feature-major matrix.
        if self._n_subset_features < p:
            feats = self._rng.choice(p, size=self._n_subset_features, replace=False)
            # A forest tree's node rows come in any order (see ``fit``):
            # sort them along just the drawn features.
            order = order[0][xt.take(order + n * feats[:, None]).argsort(axis=1)]
        else:
            feats = np.arange(p)
        f = feats.size
        sorted_vals = xt.take(order + n * feats[:, None])  # (f, m)

        # Boundary i splits after row i: i + 1 rows go left, m - i - 1 right.
        msl = self.min_samples_leaf
        valid = sorted_vals[:, 1:] > sorted_vals[:, :-1]  # (f, m - 1)
        valid[:, : msl - 1] = False
        valid[:, m - msl :] = False
        if not valid.any():
            return None

        classes = encoded[order]                          # (f, m)
        # A stable sort by class (radix, on the narrow dtype) lists each
        # class's rows in feature order: entry j is the q-th of its class,
        # q = j + 1 - (start of the class).
        narrow = classes.astype(np.min_scalar_type(counts.size - 1))
        by_class = narrow.argsort(axis=1, kind="stable")
        q = np.arange(1, m + 1) - np.repeat(counts.cumsum() - counts, counts)
        l2_step = np.empty(f * m, dtype=np.intp)
        l2_step[by_class + m * np.arange(f)[:, None]] = 2 * q - 1
        sum_l2 = l2_step.reshape(f, m).cumsum(axis=1)[:, :-1]
        cross = counts[classes].cumsum(axis=1)[:, :-1]    # Σ t_c·l_c
        sum_r2 = counts @ counts - 2 * cross + sum_l2
        n_left = np.arange(1, m, dtype=np.float64)
        n_right = m - n_left
        # Weighted impurity up to the constant m; lower is better.  The sums
        # (< m² < 2**53) convert to float64 exactly, as one-hot counts did.
        objective = -sum_l2 / n_left - sum_r2 / n_right

        # Like scikit-learn, any impure node with a valid boundary is split,
        # even at zero Gini gain (required for XOR-like structure where the
        # first cut alone does not reduce impurity).
        objective[~valid] = np.inf
        # Row-major (boundary, candidate): lowest boundary, then candidate.
        row, col = divmod(int(np.argmin(objective.T)), f)

        lo, hi = sorted_vals[col, row], sorted_vals[col, row + 1]
        thr = 0.5 * (lo + hi)
        # Midpoints can round onto the upper value; keep the comparison
        # consistent with `<= thr` partitioning.
        if thr >= hi:
            thr = lo
        return int(feats[col]), float(thr)
