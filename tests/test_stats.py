import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import traced_peak
from genval import (
    EmbeddingMatrix,
    exact_wasserstein,
    welch_t_test,
)
from genval.errors import ValidationError
from genval.stats import (
    MAX_TRANSPORT_POINTS,
    _hungarian,
    regularized_incomplete_beta,
    student_t_sf,
)


def mat(rows):
    return EmbeddingMatrix(np.asarray(rows, dtype=np.float32))


# ----------------------------------------------------- incomplete beta / sf


def test_beta_endpoints():
    assert regularized_incomplete_beta(0.0, 2.5, 3.5) == 0.0
    assert regularized_incomplete_beta(1.0, 2.5, 3.5) == 1.0


def test_beta_against_mpmath(rng):
    import mpmath

    for _ in range(120):
        a = float(rng.uniform(0.05, 40))
        b = float(rng.uniform(0.05, 40))
        x = float(rng.uniform(0, 1))
        want = float(mpmath.betainc(a, b, 0, x, regularized=True))
        assert regularized_incomplete_beta(x, a, b) == pytest.approx(
            want, abs=1e-11, rel=1e-10
        )


def test_beta_complement_identity(rng):
    for _ in range(60):
        a, b = rng.uniform(0.1, 20, size=2)
        x = float(rng.uniform(0, 1))
        total = regularized_incomplete_beta(x, a, b) + regularized_incomplete_beta(
            1 - x, b, a
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_t_tail_closed_forms():
    for t in (-3.0, -0.7, 0.0, 0.4, 1.0, 2.5, 8.0):
        assert student_t_sf(t, 1.0) == pytest.approx(
            reference.t_sf_closed_form(t, 1), abs=1e-10
        )
        assert student_t_sf(t, 2.0) == pytest.approx(
            reference.t_sf_closed_form(t, 2), abs=1e-10
        )


def test_t_tail_against_mpmath(rng):
    for _ in range(80):
        t = float(rng.uniform(-6, 6))
        df = float(rng.uniform(0.5, 200))
        assert student_t_sf(t, df) == pytest.approx(
            reference.mp_student_t_sf(t, df), abs=1e-11
        )


def test_t_tail_basic_shape():
    assert student_t_sf(0.0, 7.0) == pytest.approx(0.5, abs=1e-14)
    for t in (0.3, 1.7, 4.0):
        assert student_t_sf(-t, 11.0) == pytest.approx(
            1.0 - student_t_sf(t, 11.0), abs=1e-12
        )
    with pytest.raises(ValidationError):
        student_t_sf(1.0, 0.0)


# -------------------------------------------------------------------- welch


def test_identical_samples():
    res = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert res.t_statistic == pytest.approx(0.0, abs=1e-14)
    assert res.p_one_sided == pytest.approx(0.5, abs=1e-12)


def test_derived_four_point_example():
    a, b = [1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0]
    res = welch_t_test(a, b)
    t_ref, df_ref, p_ref = reference.welch(a, b)
    assert res.t_statistic == pytest.approx(t_ref, abs=1e-12)
    assert res.degrees_of_freedom == pytest.approx(df_ref, abs=1e-12)
    assert res.p_one_sided == pytest.approx(p_ref, abs=1e-12)
    # the stated values for this instance
    assert res.t_statistic == pytest.approx(1.0954, abs=1e-3)
    assert res.degrees_of_freedom == 6.0
    assert res.p_one_sided == pytest.approx(0.158, abs=1e-3)


def test_against_oracle_random_pairs(rng):
    for _ in range(60):
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=rng.integers(2, 25))
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=rng.integers(2, 25))
        res = welch_t_test(a, b)
        t_ref, df_ref, p_ref = reference.welch(a.tolist(), b.tolist())
        assert res.t_statistic == pytest.approx(t_ref, rel=1e-10)
        assert res.degrees_of_freedom == pytest.approx(df_ref, rel=1e-10)
        assert res.p_one_sided == pytest.approx(p_ref, abs=1e-10)


def test_shift_invariance(rng):
    a = rng.normal(size=9)
    b = rng.normal(size=7)
    base = welch_t_test(a, b)
    moved = welch_t_test(a + 17.25, b + 17.25)
    assert moved.t_statistic == pytest.approx(base.t_statistic, abs=1e-9)
    assert moved.degrees_of_freedom == pytest.approx(base.degrees_of_freedom, abs=1e-9)
    assert moved.p_one_sided == pytest.approx(base.p_one_sided, abs=1e-9)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
    offset=st.floats(-50, 50),
)
def test_antisymmetry_and_affine_invariance(seed, scale, offset):
    r = np.random.default_rng(seed)
    a = r.normal(size=int(r.integers(2, 12)))
    b = r.normal(size=int(r.integers(2, 12)))
    if a.var(ddof=1) == 0 and b.var(ddof=1) == 0:  # pragma: no cover
        return
    fwd = welch_t_test(a, b)
    rev = welch_t_test(b, a)
    assert fwd.t_statistic == pytest.approx(-rev.t_statistic, abs=1e-12)
    assert fwd.p_one_sided + rev.p_one_sided == pytest.approx(1.0, abs=1e-9)
    aff = welch_t_test(a * scale + offset, b * scale + offset)
    assert aff.t_statistic == pytest.approx(fwd.t_statistic, rel=1e-9, abs=1e-9)
    assert aff.degrees_of_freedom == pytest.approx(
        fwd.degrees_of_freedom, rel=1e-9
    )
    assert aff.p_one_sided == pytest.approx(fwd.p_one_sided, abs=1e-9)


def test_welch_input_validation():
    with pytest.raises(ValidationError):
        welch_t_test([1.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        welch_t_test([1.0, 1.0], [2.0, 2.0])  # both variances zero
    with pytest.raises(ValidationError):
        welch_t_test([1.0, 2.0], [0.0, np.nan])


def bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


def welch_pairs():
    """Sample pairs for the numpy-free Welch test: every length to 300,
    two lengths past numpy's 8192-value blocks, skewed, near-overflow,
    all -0.0, float32 and 2-D samples."""
    r = np.random.default_rng(11)
    for n in range(2, 301):
        yield r.standard_normal(n) + r.uniform(-3, 3), r.lognormal(0, 2, n)
    for n in (4097, 100_003):
        yield r.lognormal(0, 3, n), r.standard_normal(n) * 10.0 ** r.uniform(-5, 5, n)
    for n in (2, 9, 17, 300):
        yield 10.0 ** r.uniform(150, 200, n) * r.choice([-1, 1], n), r.standard_normal(n)
        yield np.full(n, -0.0), r.standard_normal(n)
    yield r.standard_normal(1000).astype(np.float32), r.standard_normal(999).astype(np.float32)
    yield r.standard_normal((30, 7)), r.standard_normal((4, 5, 6)).tolist()


def test_welch_matches_numpy_bit_for_bit():
    """Without numpy, the test gives numpy's float64 means, variances,
    t and df bit for bit, and the p they give; where numpy's statistics
    leave float64's range, it refuses the samples."""
    for a, b in welch_pairs():
        want = reference.welch_numpy(a, b)
        if not all(map(math.isfinite, want)):
            with pytest.raises(ValidationError, match="values too large for a float64 variance"):
                welch_t_test(a, b)
            continue
        res = welch_t_test(a, b)
        assert bits(res.mean_a, res.mean_b, res.var_a, res.var_b, res.t_statistic,
                    res.degrees_of_freedom) == bits(*want)
        assert res.p_one_sided == student_t_sf(want[4], want[5])
        assert (res.n_a, res.n_b) == (np.size(a), np.size(b))
    with pytest.raises(ValidationError, match="sample too small: need >= 2 per group, got 1 and 2"):
        welch_t_test(np.ones((1, 1)), [1.0, 2.0])


@pytest.mark.parametrize("a, b, message", [
    ([1e100, 3e100], [1e100, 5e100], "too large"),  # (sa + sb) ** 2 overflows
    ([1e200, 3e200], [1e200, 5e200], "too large"),  # the variances overflow
    ([1e308, 1e308], [1e308, -1e308], "too large"),
    ([1e-160, 3e-160], [1e-160, 5e-160], "too small"),  # df is 0 / 0
])
def test_welch_statistics_beyond_float64_are_a_validation_error(a, b, message):
    with pytest.raises(ValidationError, match=f"values {message} for a float64 variance"):
        welch_t_test(a, b)


def test_one_degenerate_group_is_fine():
    # a constant group is legal as long as the other one varies
    res = welch_t_test([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
    assert math.isfinite(res.t_statistic)
    assert 0.0 < res.p_one_sided < 0.5


# -------------------------------------------------------------- wasserstein


def test_transport_identity():
    pts = mat([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
    res = exact_wasserstein(pts, pts, p=2)
    assert res.cost == pytest.approx(0.0, abs=1e-12)
    # any zero-cost pairing is acceptable; cost is the contract
    d = np.linalg.norm(
        pts.data[np.arange(3)] - pts.data[res.assignment], axis=1
    )
    np.testing.assert_allclose(d, 0.0, atol=1e-12)


def test_transport_1d_shifted_pair():
    src = mat([[0.0], [1.0]])
    tgt = mat([[1.0], [2.0]])
    assert exact_wasserstein(src, tgt, p=1).cost == pytest.approx(1.0, abs=1e-12)
    # with p=2 the crossing pairing costs sqrt(2) > 1, so in-order wins
    res2 = exact_wasserstein(src, tgt, p=2)
    assert res2.cost == pytest.approx(1.0, abs=1e-12)
    assert res2.assignment.tolist() == [0, 1]


def test_matches_permutation_brute_force(rng):
    for trial in range(25):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(1, 4))
        p = int(rng.integers(1, 3))
        src = rng.uniform(-3, 3, size=(n, d)).astype(np.float32)
        tgt = rng.uniform(-3, 3, size=(n, d)).astype(np.float32)
        got = exact_wasserstein(mat(src), mat(tgt), p=p)
        want_cost, _ = reference.min_cost_perm(src.tolist(), tgt.tolist(), p=p)
        assert got.cost == pytest.approx(want_cost, rel=1e-9, abs=1e-12)
        assert sorted(got.assignment.tolist()) == list(range(n))


def test_hungarian_keeps_its_tie_choices():
    """Among several optimal assignments the solver's choice reaches
    ``wasserstein --assignment``; it must stay that of the frozen copy.
    Every third instance has integer costs in {0, 1, 2, 3}, full of ties."""
    for seed in range(330):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 40
        if seed % 3 == 0:
            cost = rng.integers(0, 4, size=(n, n)).astype(np.float64)
        else:
            cost = rng.uniform(0, 10, size=(n, n)) ** (1 + seed % 2)
        got = _hungarian(cost)
        want = reference.hungarian(cost)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (seed, n)


def test_metric_axioms(rng):
    for _ in range(15):
        n = int(rng.integers(2, 7))
        A = mat(rng.uniform(-2, 2, size=(n, 2)))
        B = mat(rng.uniform(-2, 2, size=(n, 2)))
        C = mat(rng.uniform(-2, 2, size=(n, 2)))
        for p in (1, 2):
            ab = exact_wasserstein(A, B, p=p).cost
            ba = exact_wasserstein(B, A, p=p).cost
            assert ab >= 0
            assert ab == pytest.approx(ba, abs=1e-9)
            assert exact_wasserstein(A, A, p=p).cost == pytest.approx(0.0, abs=1e-9)
            ac = exact_wasserstein(A, C, p=p).cost
            cb = exact_wasserstein(C, B, p=p).cost
            assert ab <= ac + cb + 1e-9


def test_transport_validation(rng):
    a = mat(rng.standard_normal((3, 2)))
    b = mat(rng.standard_normal((4, 2)))
    with pytest.raises(ValidationError, match="unbalanced"):
        exact_wasserstein(a, b)
    with pytest.raises(ValidationError):
        exact_wasserstein(a, mat(rng.standard_normal((3, 5))))
    with pytest.raises(ValidationError):
        exact_wasserstein(a, mat(rng.standard_normal((3, 2))), p=3)
    big = mat(rng.standard_normal((MAX_TRANSPORT_POINTS + 1, 2)))
    with pytest.raises(ValidationError, match="exceeds cap"):
        exact_wasserstein(big, big)


def test_transport_scratch_is_one_row_of_differences(rng):
    """Guards peak memory: the cost matrix is built one row at a time,
    not from an (n, n, d) difference (33 MiB at 256 x 64)."""
    src = mat(rng.standard_normal((256, 64)))
    tgt = mat(rng.standard_normal((256, 64)))
    peak = traced_peak(lambda: exact_wasserstein(src, tgt, p=2))
    assert peak < 4 << 20, f"peak {peak / 2**20:.2f} MiB"


def test_transport_handles_duplicate_points():
    src = mat([[0.0], [0.0], [5.0]])
    tgt = mat([[0.0], [5.0], [5.0]])
    res = exact_wasserstein(src, tgt, p=1)
    assert res.cost == pytest.approx(5.0 / 3.0, rel=1e-12)
