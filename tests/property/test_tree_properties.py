"""Property-based tests of the CART tree and samplers (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.classifiers.tree import DecisionTreeClassifier
from repro.datasets import load_dataset
from repro.evaluation.cross_validation import stratified_kfold_indices
from repro.sampling.smote import SMOTE
from repro.sampling.srs import SimpleRandomSampler
from tests.classifiers.reference_tree import ReferenceDecisionTree

#: Few distinct values, so quantised columns tie heavily: signed zeros, and
#: two adjacent floats whose midpoint rounds onto the upper one.
_ULP_ABOVE_ONE = np.nextafter(1.0, 2.0)
_LEVELS = (-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0,
           _ULP_ABOVE_ONE, np.nextafter(_ULP_ABOVE_ONE, 2.0))
_TREE_ARRAYS = ("feature_", "threshold_", "children_left_", "children_right_", "value_")


@st.composite
def distinct_row_datasets(draw):
    """Datasets with unique rows (CART can memorise them perfectly)."""
    n = draw(st.integers(min_value=5, max_value=50))
    p = draw(st.integers(min_value=1, max_value=4))
    x = draw(
        arrays(
            np.float64,
            (n, p),
            elements=st.floats(
                min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
            ),
            unique=True,
        )
    )
    y = draw(arrays(np.int64, (n,), elements=st.integers(0, 2)))
    return x, y


@st.composite
def tie_heavy_datasets(draw):
    """Continuous, quantised and constant columns, duplicated rows with
    their own (possibly conflicting) labels, and 1–7 non-contiguous classes."""
    n = draw(st.integers(min_value=1, max_value=40))
    p = draw(st.integers(min_value=1, max_value=9))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["continuous", "quantised", "constant"]),
                              min_size=p, max_size=p)):
        if kind == "continuous":
            columns.append(draw(arrays(np.float64, n, elements=st.floats(
                min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False))))
        elif kind == "quantised":
            columns.append(np.array(draw(st.lists(
                st.sampled_from(_LEVELS), min_size=n, max_size=n))))
        else:
            columns.append(np.full(n, draw(st.sampled_from(_LEVELS))))
    x = np.column_stack(columns)
    copies = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n))
    x = np.vstack([x, x[copies]])
    labels = draw(st.lists(st.integers(min_value=-50, max_value=50),
                           min_size=1, max_size=7, unique=True))
    y = np.array(draw(st.lists(st.sampled_from(labels),
                               min_size=x.shape[0], max_size=x.shape[0])))
    return x, y


def assert_same_tree(tree, reference):
    for name in _TREE_ARRAYS:
        got, want = getattr(tree, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        # Bytewise, so NaN leaf thresholds and signed zeros compare too.
        assert got.tobytes() == want.tobytes(), name


@given(
    tie_heavy_datasets(),
    st.sampled_from([1, 3]),
    st.sampled_from([None, 1, 2, 4]),
    st.sampled_from([None, "sqrt"]),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=200, deadline=None)
def test_tree_matches_reference(data, min_samples_leaf, max_depth,
                                max_features, seed):
    """The integer-count split search grows the reference tree bit for bit,
    presorted or, with the seeded feature subsets forests use, sorted per
    node."""
    x, y = data
    params = dict(min_samples_leaf=min_samples_leaf, max_depth=max_depth,
                  max_features=max_features, random_state=seed)
    assert_same_tree(DecisionTreeClassifier(**params).fit(x, y),
                     ReferenceDecisionTree(**params).fit(x, y))


@pytest.mark.parametrize("max_features", [None, "sqrt"])
def test_tree_matches_reference_on_s8_fold(max_features):
    """Grid-sized case: a 2/3 training fold of S8@0.4 (16 features, 7
    classes, ~3.6k rows), fit with the defaults the paper's DT uses and
    as one seeded random-forest tree."""
    x, y = load_dataset("S8", size_factor=0.4, random_state=0)
    train, _ = stratified_kfold_indices(y, n_splits=3, random_state=0)[0]
    params = dict(max_features=max_features, random_state=0)
    tree = DecisionTreeClassifier(**params).fit(x[train], y[train])
    assert tree.n_nodes_ > 100
    assert_same_tree(tree, ReferenceDecisionTree(**params).fit(x[train], y[train]))


@given(distinct_row_datasets())
@settings(max_examples=40, deadline=None)
def test_unbounded_tree_memorises_distinct_rows(data):
    x, y = data
    # `unique=True` above guarantees distinct elements across the whole
    # array; distinct rows is implied.
    tree = DecisionTreeClassifier().fit(x, y)
    assert tree.score(x, y) == 1.0


@given(distinct_row_datasets(), st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_max_depth_is_hard_bound(data, depth):
    x, y = data
    tree = DecisionTreeClassifier(max_depth=depth).fit(x, y)
    assert tree.depth_ <= depth


@given(distinct_row_datasets())
@settings(max_examples=30, deadline=None)
def test_predictions_are_seen_labels(data):
    x, y = data
    tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
    assert set(np.unique(tree.predict(x))) <= set(np.unique(y))


@given(
    distinct_row_datasets(),
    st.floats(min_value=0.1, max_value=1.0),
    st.integers(min_value=0, max_value=99),
)
@settings(max_examples=40, deadline=None)
def test_srs_ratio_property(data, ratio, seed):
    x, y = data
    sampler = SimpleRandomSampler(ratio=ratio, random_state=seed)
    xs, _ = sampler.fit_resample(x, y)
    expected = max(1, int(round(ratio * x.shape[0])))
    assert xs.shape[0] == expected


@given(distinct_row_datasets(), st.integers(min_value=0, max_value=99))
@settings(max_examples=30, deadline=None)
def test_smote_balances_everything(data, seed):
    x, y = data
    assume(np.unique(y).size >= 2)
    xs, ys = SMOTE(random_state=seed).fit_resample(x, y)
    counts = np.bincount(ys.astype(int))
    counts = counts[counts > 0]
    assert (counts == counts.max()).all()
    # Originals are always kept.
    assert xs.shape[0] >= x.shape[0]
