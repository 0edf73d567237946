"""Property-based tests (hypothesis) for anonymizers and privacy metrics."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymize.base import build_release
from repro.anonymize.clustering import GreedyClusterAnonymizer
from repro.anonymize.datafly import DataflyAnonymizer
from repro.anonymize.kanonymity import anonymity_level, is_k_anonymous
from repro.anonymize.mdav import MDAVAnonymizer, _mdav_groups
from repro.anonymize.mondrian import MondrianAnonymizer
from repro.dataset.io import render_csv
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.statistics import standardize_matrix
from repro.dataset.table import Table
from repro.metrics.dissimilarity import mean_square_dissimilarity
from repro.metrics.utility import discernibility_cost

from mdav_reference import seed_mdav_groups
from partitions import classes_of
from test_golden_columnar import seed_build_release


def _random_table(values: list[list[float]]) -> Table:
    schema = Schema(
        [
            Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT),
            Attribute("q1", AttributeRole.QUASI_IDENTIFIER),
            Attribute("q2", AttributeRole.QUASI_IDENTIFIER),
            Attribute("sensitive", AttributeRole.SENSITIVE),
        ]
    )
    rows = [
        {"name": f"person {i}", "q1": row[0], "q2": row[1], "sensitive": row[2]}
        for i, row in enumerate(values)
    ]
    return Table.from_rows(schema, rows)


row_strategy = st.lists(
    st.lists(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False),
        min_size=3,
        max_size=3,
    ),
    min_size=4,
    max_size=24,
)


class TestMDAVProperties:
    @given(row_strategy, st.integers(min_value=2, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_partition_is_valid_and_release_k_anonymous(self, rows, k):
        table = _random_table(rows)
        if k > table.num_rows:
            return
        result = MDAVAnonymizer().anonymize(table, k)
        covered = sorted(i for c in classes_of(result.labels) for i in c)
        assert covered == list(range(table.num_rows))
        assert result.minimum_class_size >= k
        assert is_k_anonymous(result.release, k)
        assert anonymity_level(result.release) >= k

    @given(
        st.integers(min_value=6, max_value=40),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_group_size_bounds(self, n, k, seed):
        if k > n:
            return
        points = np.random.default_rng(seed).normal(size=(n, 3))
        sizes = np.bincount(_mdav_groups(points, k))
        assert sum(sizes) == n
        assert min(sizes) >= k
        assert max(sizes) <= 2 * k - 1


@st.composite
def tie_heavy_points(draw) -> np.ndarray:
    """Point matrices full of exact and near ties, where rounding decides MDAV.

    Integer grids, normals rounded to 0.1, a few base rows tiled in random
    order (shifted far from the origin, where the centroid's rounding is
    largest next to the spread) and a constant column; optionally
    standardized like the anonymizer's input.
    """
    dimension = draw(st.integers(min_value=1, max_value=10))
    count = draw(st.integers(min_value=1, max_value=200))
    kind = draw(st.sampled_from(["grid", "rounded", "bases", "constant"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "grid":
        points = rng.integers(0, 3, size=(count, dimension)).astype(float)
    elif kind == "bases":
        bases = np.round(rng.normal(size=(int(rng.integers(1, 5)), dimension)), 1)
        tiled = np.tile(bases, (count // bases.shape[0] + 1, 1))[:count]
        points = rng.permutation(tiled) + 10.0 ** draw(st.integers(min_value=0, max_value=3))
    else:
        points = np.round(rng.normal(size=(count, dimension)), 1)
        if kind == "constant":
            points[:, int(rng.integers(dimension))] = 0.7
    if draw(st.booleans()):
        points, _, _ = standardize_matrix(points)
    return points


class TestMDAVKernelEquivalence:
    """The filter-and-verify kernel picks exactly the seed loop's groups."""

    @given(tie_heavy_points(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=300, deadline=None)
    def test_groups_equal_seed_loop(self, points, k):
        before = points.copy()
        assert classes_of(_mdav_groups(points, k)) == [
            tuple(sorted(g)) for g in seed_mdav_groups(points, k)
        ]
        assert np.array_equal(points, before)


class TestMondrianProperties:
    @given(row_strategy, st.integers(min_value=2, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_partition_respects_k(self, rows, k):
        table = _random_table(rows)
        if k > table.num_rows:
            return
        result = MondrianAnonymizer().anonymize(table, k)
        assert result.minimum_class_size >= k
        assert sum(result.class_sizes) == table.num_rows


def _assert_valid_partition(result, table, k, suppression_exempt=()):
    """The invariants every partitioning anonymizer must satisfy.

    Classes are pairwise disjoint, cover every row exactly once, and each
    class has at least ``k`` members — except classes holding suppressed rows
    (Datafly), which may be smaller.
    """
    assert result.labels.shape == (table.num_rows,)  # one class per row
    classes = classes_of(result.labels)
    assert all(classes)  # ids 0..m-1, none unused
    exempt = set(suppression_exempt)
    for equivalence_class in classes:
        if set(equivalence_class) & exempt:
            continue
        assert len(equivalence_class) >= k


class TestCrossAnonymizerInvariants:
    """Partition invariants pinned across all four partitioning schemes."""

    @given(row_strategy, st.integers(min_value=2, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_mdav_partition_invariants(self, rows, k):
        table = _random_table(rows)
        if k > table.num_rows:
            return
        result = MDAVAnonymizer().anonymize(table, k)
        _assert_valid_partition(result, table, k)
        # MDAV's fixed-size grouping additionally bounds classes above.
        assert max(result.class_sizes) <= 2 * k - 1

    @given(row_strategy, st.integers(min_value=2, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_mondrian_partition_invariants(self, rows, k):
        table = _random_table(rows)
        if k > table.num_rows:
            return
        result = MondrianAnonymizer().anonymize(table, k)
        _assert_valid_partition(result, table, k)

    @given(row_strategy, st.integers(min_value=2, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_clustering_partition_invariants(self, rows, k):
        table = _random_table(rows)
        if k > table.num_rows:
            return
        result = GreedyClusterAnonymizer().anonymize(table, k)
        _assert_valid_partition(result, table, k)

    @given(row_strategy, st.integers(min_value=2, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_datafly_partition_invariants(self, rows, k):
        table = _random_table(rows)
        if k > table.num_rows:
            return
        result = DataflyAnonymizer(max_suppression_fraction=1.0).anonymize(table, k)
        _assert_valid_partition(result, table, k, suppression_exempt=result.suppressed)


@st.composite
def labelled_tables(draw) -> tuple[Table, np.ndarray, int]:
    """A table with float, integer and categorical QIs plus a partition of it.

    The partition is a row→class label array whose classes all hold at least
    ``k`` rows, numbered in a random order over randomly shuffled rows.
    """
    k = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=k, max_value=30))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
    q1 = draw(st.lists(st.one_of(floats, st.sampled_from([0.1, 0.3, -0.0])),
                       min_size=count, max_size=count))
    q2 = draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=count, max_size=count))
    city = draw(st.lists(st.sampled_from(["Albany", "Boston", "Cairo"]),
                         min_size=count, max_size=count))
    schema = Schema(
        [
            Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT),
            Attribute("q1", AttributeRole.QUASI_IDENTIFIER),
            Attribute("q2", AttributeRole.QUASI_IDENTIFIER),
            Attribute("city", AttributeRole.QUASI_IDENTIFIER, AttributeKind.CATEGORICAL),
            Attribute("sensitive", AttributeRole.SENSITIVE),
        ]
    )
    table = Table.from_rows(
        schema,
        [
            {"name": f"person {i}", "q1": q1[i], "q2": q2[i], "city": city[i], "sensitive": i}
            for i in range(count)
        ],
    )
    classes = int(rng.integers(1, count // k + 1))
    sizes = np.full(classes, k) + np.bincount(
        rng.integers(0, classes, size=count - classes * k), minlength=classes
    )
    labels = np.empty(count, dtype=np.intp)
    labels[rng.permutation(count)] = np.repeat(rng.permutation(classes), sizes)
    return table, labels, k


class TestBuildReleaseProperties:
    """``build_release`` over labels equals the seed's per-class, per-cell loop."""

    @given(labelled_tables(), st.sampled_from(["interval", "centroid"]))
    @settings(max_examples=80, deadline=None)
    def test_matches_seed_release(self, case, style):
        table, labels, k = case
        release = build_release(table, labels, k, style=style)
        reference = seed_build_release(table, classes_of(labels), k, style=style)
        assert release == reference
        assert render_csv(release) == render_csv(reference)


class TestMetricProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e5, max_value=1e5, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_dissimilarity_nonnegative_and_zero_on_identity(self, values):
        vector = np.asarray(values, dtype=float)
        assert mean_square_dissimilarity(vector, vector) == 0.0
        shifted = vector + 1.0
        assert mean_square_dissimilarity(vector, shifted) > 0.0

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=20),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=60)
    def test_discernibility_cost_bounds(self, sizes, k):
        total = sum(sizes)
        cost = discernibility_cost(sizes, total_records=total, k=k)
        # lower bound: every record in a size-1 class at k=1; upper bound: one
        # giant class (n^2) or full penalty (n * n)
        assert total <= cost <= float(total) ** 2
