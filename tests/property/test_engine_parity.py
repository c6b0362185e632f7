"""RD-GBG/oracle parity: the vectorised loop must be bit-identical.

``RDGBG.generate`` replaces full-pool sorts with slack-guarded prefix
selection and linear conflict scans with a spatial index, so these tests
are the contract that none of that changed a single float: every ball
(centre, radius, label, member order), every noise/orphan index and the
iteration count must match the full-sort oracle ``ReferenceRDGBG``
exactly, across seeds, densities and both ablation switches — including
tie-heavy quantised data where stable sort order is what decides
membership.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.gbabs import GBABS
from repro.core.rdgbg import RDGBG
from tests.core.reference_rdgbg import ReferenceRDGBG


def _run_pair(x, y, **kwargs):
    reference = ReferenceRDGBG(**kwargs).generate(x, y)
    engine = RDGBG(**kwargs).generate(x, y)
    return reference, engine


def _assert_identical(reference, engine):
    a, b = reference.ball_set, engine.ball_set
    assert len(a) == len(b)
    np.testing.assert_array_equal(a.centers, b.centers)
    np.testing.assert_array_equal(a.radii, b.radii)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.sizes, b.sizes)
    # member order within each ball is part of the contract (it encodes the
    # full stable sort's tie order)
    np.testing.assert_array_equal(a.member_indices, b.member_indices)
    np.testing.assert_array_equal(reference.noise_indices, engine.noise_indices)
    np.testing.assert_array_equal(reference.orphan_indices, engine.orphan_indices)
    assert reference.n_iterations == engine.n_iterations


FIXTURES = ["blobs2", "blobs3", "moons", "noisy_blobs2", "imbalanced2"]


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("seed", [0, 1, 42])
def test_engine_bit_identical_on_fixtures(fixture, seed, request):
    x, y = request.getfixturevalue(fixture)
    reference, engine = _run_pair(x, y, rho=5, random_state=seed)
    _assert_identical(reference, engine)


@pytest.mark.parametrize("rho", [2, 3, 9, 19])
def test_engine_bit_identical_across_rho(moons, rho):
    x, y = moons
    reference, engine = _run_pair(x, y, rho=rho, random_state=7)
    _assert_identical(reference, engine)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"detect_noise": False},
        {"enforce_no_overlap": False},
        {"detect_noise": False, "enforce_no_overlap": False},
    ],
)
def test_engine_bit_identical_under_ablations(noisy_blobs2, kwargs):
    x, y = noisy_blobs2
    reference, engine = _run_pair(x, y, rho=5, random_state=3, **kwargs)
    _assert_identical(reference, engine)


@pytest.mark.parametrize("seed", [0, 5])
def test_engine_bit_identical_on_tied_distances(seed):
    """Quantised coordinates create massive distance ties; stable order must
    survive the prefix selection."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(300, 3)), 1)
    y = rng.integers(0, 3, size=300)
    reference, engine = _run_pair(x, y, rho=5, random_state=seed)
    _assert_identical(reference, engine)


def test_engine_bit_identical_with_duplicate_rows():
    rng = np.random.default_rng(11)
    base = rng.normal(size=(60, 2))
    x = np.vstack([base, base[:30]])  # exact duplicates
    y = np.concatenate([np.repeat([0, 1], 30), np.repeat(0, 30)])
    reference, engine = _run_pair(x, y, rho=3, random_state=2)
    _assert_identical(reference, engine)


def test_engine_bit_identical_on_larger_run():
    """Large enough to trigger pool compaction and cKDTree conflict pruning."""
    rng = np.random.default_rng(17)
    n = 1500
    centers = rng.normal(size=(6, 4)) * 4
    x = np.vstack([rng.normal(c, 1.1, size=(n // 6, 4)) for c in centers])
    y = np.repeat(np.arange(6) % 3, n // 6)
    perm = rng.permutation(x.shape[0])
    reference, engine = _run_pair(x[perm], y[perm], rho=5, random_state=23)
    _assert_identical(reference, engine)


def test_engine_bit_identical_when_noise_removal_extends_the_prefix():
    """Each unit vector's nearest neighbour is the origin, a lone sample of
    another class: the first candidate removes it as noise (the h == 1
    rule) and must then extend its neighbour prefix without it."""
    p = 20
    x = np.vstack([np.zeros((1, p)), np.eye(p), -np.eye(p)])
    y = np.concatenate([[1], np.zeros(2 * p, dtype=int)])
    reference, engine = _run_pair(x, y, rho=5, random_state=0)
    _assert_identical(reference, engine)


@pytest.mark.parametrize("fixture", ["moons", "noisy_blobs2"])
def test_engine_preserves_invariants(fixture, request):
    x, y = request.getfixturevalue(fixture)
    result = RDGBG(rho=5, random_state=0).generate(x, y)
    ball_set = result.ball_set
    assert ball_set.is_partition()
    assert np.all(ball_set.purity_against(y) == 1.0)
    assert ball_set.max_overlap() <= 1e-9
    covered = set(ball_set.member_indices.tolist())
    noise = set(result.noise_indices.tolist())
    assert covered | noise == set(range(x.shape[0]))
    assert covered.isdisjoint(noise)


def test_gbabs_identical_across_backends(moons):
    """GBABS selects the same samples over RD-GBG and over the oracle."""
    x, y = moons
    a = GBABS(generator=ReferenceRDGBG(rho=5, random_state=0))
    b = GBABS(rho=5, random_state=0)
    xa, ya = a.fit_resample(x, y)
    xb, yb = b.fit_resample(x, y)
    np.testing.assert_array_equal(a.sample_indices_, b.sample_indices_)
    np.testing.assert_array_equal(xa, xb)
    np.testing.assert_array_equal(ya, yb)
    np.testing.assert_array_equal(
        a.borderline_ball_indices_, b.borderline_ball_indices_
    )


#: Few distinct coordinates, so distances tie heavily.
_LEVELS = (-1.5, -0.5, 0.0, 0.5, 1.0, 2.0)


@st.composite
def _small_datasets(draw):
    """Quantised, continuous and constant columns; duplicated rows that keep
    or flip their label; one to three classes; sizes down to a single row,
    so n <= rho is drawn often."""
    n = draw(st.integers(min_value=1, max_value=40))
    p = draw(st.integers(min_value=1, max_value=4))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["quantised", "continuous", "constant"]),
                              min_size=p, max_size=p)):
        if kind == "quantised":
            columns.append(np.array(draw(st.lists(
                st.sampled_from(_LEVELS), min_size=n, max_size=n))))
        elif kind == "continuous":
            columns.append(np.array(draw(st.lists(st.floats(
                min_value=-20, max_value=20, allow_nan=False, allow_infinity=False),
                min_size=n, max_size=n))))
        else:
            columns.append(np.full(n, draw(st.sampled_from(_LEVELS))))
    x = np.column_stack(columns)
    n_classes = draw(st.integers(min_value=1, max_value=3))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    copies = np.array(draw(st.lists(st.integers(0, n - 1), max_size=n)), dtype=np.intp)
    flips = np.array(draw(st.lists(st.integers(0, n_classes), min_size=copies.size,
                                   max_size=copies.size)), dtype=y.dtype)
    # A flip equal to n_classes keeps the copy's label; others may conflict.
    copy_labels = np.where(flips == n_classes, y[copies], flips)
    return np.vstack([x, x[copies]]), np.concatenate([y, copy_labels])


@st.composite
def _clustered_datasets(draw):
    """Up to 200 rows in one to four clusters, most larger than a neighbour
    list (32 rows), each mostly one label, with exact duplicates or lattice
    ties inside and labels sprinkled between.  RD-GBG then meets the list
    path's fallbacks: same-label runs longer than a list, lists emptied by
    the balls of a neighbouring cluster, ties at a list's last distance
    (the member threshold past its complete distance) and the h == 1 noise
    rule on a list prefix.  The pinned examples force each one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(min_value=1, max_value=4))
    n_classes = draw(st.integers(min_value=1, max_value=3))
    xs, ys = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        m = draw(st.sampled_from([1, 5, 40, 70]))
        centre = rng.choice(_LEVELS, size=p)
        spread = draw(st.sampled_from(["lattice", 0.0, 0.05, 0.6]))
        if spread == "lattice":
            # Shells of many equidistant rows at unit scale: ties at a
            # list's last distance, where the member threshold passes it.
            rows = np.tile(centre, (m, 1))
            rows[:, :2] += 0.5 * rng.integers(-2, 3, size=(m, min(p, 2)))
        else:
            rows = centre * draw(st.sampled_from([1.0, 8.0]))
            rows = rows + spread * rng.normal(size=(m, p))
            if draw(st.booleans()):
                rows = np.round(rows, 1)
        purity = draw(st.sampled_from([1.0, 0.9, 0.7]))
        labels = np.where(rng.random(m) < purity, draw(st.integers(0, n_classes - 1)),
                          rng.integers(0, n_classes, size=m))
        xs.append(rows)
        ys.append(labels)
    return np.vstack(xs), np.concatenate(ys)


def adversarial_datasets():
    """Small tie-heavy draws for the detection rules, and clustered draws
    larger than a neighbour list for the list path's fallbacks."""
    return st.one_of(_small_datasets(), _clustered_datasets())


def _lattice(seed):
    """60 rows on a 1-D lattice of spacing 0.5, about 30% of them a second
    label: shells of about 12 equidistant rows, so a list ends inside a
    shell and a member threshold passes the list's complete distance."""
    rng = np.random.default_rng(seed)
    x = 0.5 * rng.integers(-2, 3, size=(60, 1)).astype(np.float64)
    return x, (rng.random(60) < 0.3).astype(np.intp)


def _blob_beside_mixed(seed):
    """A tight 50-row blob of one label beside 20 scattered rows of two:
    the blob's same-label run is longer than a list, its balls empty the
    scattered rows' lists, and the h == 1 rule fires on a list prefix."""
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(0.0, 0.05, size=(50, 2)), rng.normal(3.0, 0.8, size=(20, 2))])
    y = np.concatenate([np.zeros(50, dtype=np.intp), (rng.random(20) < 0.5).astype(np.intp)])
    return x, y


@given(
    adversarial_datasets(),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.booleans(),
)
# Pinned draws that force each fallback of the list path on every run.
@example(_lattice(0), 5, 0, True, True)
@example(_blob_beside_mixed(11), 5, 0, True, False)
@settings(max_examples=80, deadline=None)
def test_engine_matches_oracle_on_adversarial_inputs(
    data, rho, seed, detect_noise, enforce_no_overlap
):
    x, y = data
    kwargs = dict(rho=rho, random_state=seed, detect_noise=detect_noise,
                  enforce_no_overlap=enforce_no_overlap)
    reference, engine = _run_pair(x, y, **kwargs)
    _assert_identical(reference, engine)

    ball_set = engine.ball_set
    assert np.all(ball_set.purity_against(y) == 1.0)
    assert ball_set.is_partition()
    covered = set(ball_set.member_indices.tolist())
    noise = set(engine.noise_indices.tolist())
    assert covered.isdisjoint(noise)
    assert covered | noise == set(range(x.shape[0]))
    if enforce_no_overlap:
        assert ball_set.max_overlap() <= 1e-9

    oracle_sampler = GBABS(generator=ReferenceRDGBG(**kwargs))
    sampler = GBABS(generator=RDGBG(**kwargs))
    oracle_sampler.fit_resample(x, y)
    sampler.fit_resample(x, y)
    np.testing.assert_array_equal(sampler.sample_indices_, oracle_sampler.sample_indices_)
