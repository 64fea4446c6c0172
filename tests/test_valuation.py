import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from genval import (
    EmbeddingMatrix,
    MatchTables,
    aggregate_values,
    batch_match,
    discount_scores,
)
from genval.errors import ConfigError, CorruptionError, ValidationError
from genval.valuation import MASS_TOLERANCE


def tables(dist_rows, idx_rows):
    return MatchTables(np.asarray(dist_rows, float), np.asarray(idx_rows))


# ------------------------------------------------------------------- scores


def test_singleton_row():
    np.testing.assert_array_equal(discount_scores([3.7]), [1.0])


def test_constant_rows_are_uniform():
    for c in (0.0, 1.0, 123.5):
        np.testing.assert_allclose(discount_scores([c, c, c]), [1 / 3] * 3, rtol=1e-15)


def test_two_point_row_against_high_precision_oracle():
    got = discount_scores([1.0, 2.0])
    want = reference.mp_softmax([1.0, 2.0])
    np.testing.assert_allclose(got, want, atol=1e-6)
    # the stated decimals for this instance
    np.testing.assert_allclose(got, [0.731059, 0.268941], atol=1e-6)


def test_zero_five_row_against_oracle():
    got = discount_scores([0.0, 5.0])
    np.testing.assert_allclose(got, reference.mp_softmax([0.0, 5.0]), atol=1e-6)
    np.testing.assert_allclose(got, [0.993307, 0.006693], atol=1e-6)


def test_rows_normalize(rng):
    for _ in range(200):
        d = rng.uniform(0, 30, size=rng.integers(1, 12))
        assert abs(discount_scores(d).sum() - 1.0) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(
    d=st.lists(st.floats(0, 40, allow_nan=False), min_size=1, max_size=10),
    shift=st.floats(0, 25, allow_nan=False),
)
def test_shift_invariance(d, shift):
    base = discount_scores(d)
    np.testing.assert_allclose(discount_scores([x + shift for x in d]), base, atol=1e-9)
    down = min(d)  # shifting to put the minimum at zero stays in-domain
    np.testing.assert_allclose(discount_scores([x - down for x in d]), base, atol=1e-9)


def test_rank_consistency(rng):
    d = np.sort(rng.uniform(0, 10, size=8))
    s = discount_scores(d)
    assert np.all(np.diff(s) <= 0)
    strict = np.diff(d) > 0
    assert np.all(np.diff(s)[strict] < 0)


def test_temperature_sharpens_top_score():
    d = [0.5, 1.0, 3.0]
    betas = [0.25, 1.0, 4.0, 16.0]
    tops = [discount_scores(d, temperature=b)[0] for b in betas]
    assert all(a < b for a, b in zip(tops, tops[1:]))
    # a constant row is immune to temperature
    np.testing.assert_allclose(
        discount_scores([2.0, 2.0], temperature=9.0), [0.5, 0.5], rtol=1e-15
    )


def test_huge_distances_stay_finite():
    s = discount_scores([1e8, 1e8 + 1.0])
    assert np.isfinite(s).all()
    np.testing.assert_allclose(s, reference.mp_softmax([0.0, 1.0]), atol=1e-9)


@pytest.mark.parametrize(
    "bad",
    [[], [-1.0], [np.nan], [np.inf], [1.0, -0.5],
     np.zeros((3, 0)), np.zeros((2, 2, 2)), 3.7, [[1.0], [-1.0]], [[0.5, np.nan]]],
)
def test_score_input_validation(bad):
    with pytest.raises(ValidationError):
        discount_scores(bad)


def test_table_rows_equal_lone_rows(rng):
    d = rng.uniform(0, 30, size=(7, 5))
    for tau in (0.25, 1.0, 4.0):
        table = discount_scores(d, temperature=tau)
        assert table.shape == (7, 5)
        for j in range(7):
            lone = discount_scores(d[j], temperature=tau)
            assert table[j].tobytes() == lone.tobytes()
            np.testing.assert_allclose(
                table[j], reference.softmax_scores(d[j].tolist(), tau), atol=1e-12
            )


def test_temperature_validation():
    with pytest.raises(ConfigError):
        discount_scores([1.0], temperature=0.0)
    with pytest.raises(ConfigError):
        discount_scores([1.0], temperature=-2.0)


# ------------------------------------------------------------- aggregation


def test_single_row_aggregate(rng):
    d = np.sort(rng.uniform(0, 4, size=5))
    t = tables([d], [np.arange(5)])
    res = aggregate_values(t, n=5)
    np.testing.assert_allclose(res.values, discount_scores(d), atol=1e-12)
    assert res.values.sum() == pytest.approx(1.0, abs=1e-9)


def test_unmatched_training_point_gets_zero():
    t = tables([[1.0, 2.0]], [[0, 2]])
    res = aggregate_values(t, n=4)
    assert res.values[1] == 0.0
    assert res.values[3] == 0.0


def test_hand_instance_phi_vector():
    """Rows ([1,2] -> {0,1}) and ([1,1] -> {2,3}) over four training points."""
    t = tables([[1.0, 2.0], [1.0, 1.0]], [[0, 1], [2, 3]])
    res = aggregate_values(t, n=4)
    want = reference.mp_softmax([1.0, 2.0]) + [0.5, 0.5]
    np.testing.assert_allclose(res.values, want, atol=1e-9)
    np.testing.assert_allclose(res.values, [0.731059, 0.268941, 0.5, 0.5], atol=1e-6)
    assert res.values.sum() == pytest.approx(2.0, abs=2 * MASS_TOLERANCE)


def test_mass_conservation_random(rng):
    for _ in range(30):
        m, k, n = int(rng.integers(1, 9)), int(rng.integers(1, 5)), 12
        t = tables(
            np.sort(rng.uniform(0, 6, size=(m, k)), axis=1),
            rng.integers(0, n, size=(m, k)),
        )
        res = aggregate_values(t, n=n)
        assert abs(res.values.sum() - m) <= MASS_TOLERANCE * m


def test_matches_naive_pipeline(rng):
    train_rows = rng.standard_normal((9, 4)).astype(np.float32)
    gen_rows = rng.standard_normal((6, 4)).astype(np.float32)
    t = batch_match(
        EmbeddingMatrix(train_rows), EmbeddingMatrix(gen_rows), k=3
    )
    res = aggregate_values(t, n=9)
    want = reference.pipeline_values(train_rows.tolist(), gen_rows.tolist(), k=3)
    np.testing.assert_allclose(res.values, want, atol=1e-9)


def test_ranking_descending_value_ties_by_index():
    res = aggregate_values(tables([[1.0, 1.0]], [[3, 1]]), n=5)
    # indices 1 and 3 both score 0.5; everything else zero
    assert res.ranking.tolist() == [1, 3, 0, 2, 4]


def test_equal_values_rank_in_index_order():
    t = tables([[2.0, 2.0, 2.0]], [[0, 1, 2]])
    res = aggregate_values(t, n=3)
    assert res.ranking.tolist() == [0, 1, 2]
    np.testing.assert_allclose(res.values[res.ranking], [1 / 3] * 3)


@settings(deadline=None)
@given(
    rows=st.lists(
        st.lists(st.tuples(st.integers(0, 39), st.sampled_from([0.0, 0.5, 2.0])), min_size=3, max_size=3),
        min_size=1, max_size=16,
    ),
)
def test_ranking_is_the_lexsort_by_value_then_index(rows):
    """Three distances and at most 48 matches of 40 rows give many tied
    values and exact zeros; the ranking is the two-key sort's (numpy's
    default quicksort is not, at 40 rows)."""
    res = aggregate_values(tables([[d for _, d in r] for r in rows], [[i for i, _ in r] for r in rows]), n=40)
    assert res.ranking.tolist() == np.lexsort((np.arange(40), -res.values)).tolist()


def test_out_of_range_index_is_corruption():
    t = tables([[1.0]], [[9]])
    with pytest.raises(CorruptionError, match=r"row 0"):
        aggregate_values(t, n=4)
    with pytest.raises(CorruptionError):
        aggregate_values(tables([[1.0]], [[-1]]), n=4)


def test_result_arrays_are_frozen():
    res = aggregate_values(tables([[0.5]], [[0]]), n=2)
    with pytest.raises(ValueError):
        res.values[0] = 7.0
    with pytest.raises(ValueError):
        res.ranking[0] = 1


def test_a_record_freezes_a_view_and_leaves_the_callers_array_writeable():
    """A record built on the caller's own array copies nothing and keeps
    its data read-only, and the caller's array stays writeable."""
    a = np.zeros((2, 2), np.float32)
    d, i = np.zeros((2, 1)), np.zeros((2, 1), np.int64)
    matrix, match = EmbeddingMatrix(a), MatchTables(d, i)
    for given, kept in ((a, matrix.data), (d, match.distances), (i, match.indices)):
        assert given.flags.writeable and not kept.flags.writeable
        assert np.shares_memory(given, kept)

