import math

import numpy as np
import pytest

from walshlab.errors import BudgetError
from walshlab.olevskii import (
    ROW_ABS_SUM_LIMIT,
    check_orthogonality,
    dense_matrix,
    entry,
    matvec,
    rmatvec,
    row_abs_sum,
    row_entries,
)

INV_SQRT2 = 2.0 ** -0.5


def test_k1_matrix():
    a = dense_matrix(1)
    assert np.allclose(a, [[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]])


def test_k2_rows():
    a = dense_matrix(2)
    assert np.allclose(a[0], [0.5, 0.5, INV_SQRT2, 0.0])
    assert np.allclose(a[2], [0.5, -0.5, 0.0, INV_SQRT2])


def test_k2_column4_support():
    # j = 4 decomposes as s=1, nu=2: nonzero only on rows 3 (+) and 4 (-)
    values = [entry(2, i, 4) for i in range(1, 5)]
    assert [e.sign for e in values] == [0, 0, 1, -1]
    assert values[2].value(2) == pytest.approx(INV_SQRT2)


def test_entry_value_reproducible_from_sign_and_scale():
    for k in (1, 2, 3, 5):
        a = dense_matrix(k)
        for i in range(1, (1 << k) + 1):
            for j in range(1, (1 << k) + 1):
                e = entry(k, i, j)
                assert e.value(k) == pytest.approx(a[i - 1, j - 1], abs=1e-15)


def test_entry_range_errors():
    with pytest.raises(IndexError):
        entry(2, 0, 1)
    with pytest.raises(IndexError):
        entry(2, 5, 1)
    with pytest.raises(IndexError):
        entry(2, 1, 5)


def test_rows_have_one_nonzero_per_band():
    for k in (1, 2, 4, 6):
        for i in (1, 1 << (k - 1), 1 << k):
            cols = row_entries(k, i)
            assert len(cols) == k + 1
            bands = sorted((j - 1).bit_length() - 1 for j, _ in cols[1:])
            assert bands == list(range(k))


def test_orthogonality_exact_is_literal_zero():
    for k in range(1, 9):
        assert check_orthogonality(k, exact=True) == 0.0


def test_orthogonality_float():
    assert check_orthogonality(1) < 1e-15
    assert check_orthogonality(2) < 1e-15
    assert check_orthogonality(8) <= 1e-12


def test_orthogonality_cap():
    with pytest.raises(BudgetError):
        check_orthogonality(11)
    assert check_orthogonality(11, cap=11) <= 1e-12


def test_row_abs_sum_values():
    assert row_abs_sum(1) == pytest.approx(2 * INV_SQRT2, abs=1e-12)
    assert row_abs_sum(2) == pytest.approx(0.5 + 0.5 + INV_SQRT2, abs=1e-12)
    # increases towards 1 + sqrt(2), never past 2.4143
    prev = 0.0
    for k in range(1, 31):
        value = row_abs_sum(k)
        assert prev < value <= 2.4143
        prev = value
    assert abs(row_abs_sum(30) - ROW_ABS_SUM_LIMIT) < 1e-3


def test_row_abs_sum_uniform_over_rows():
    for k in (1, 2, 4, 7):
        base = row_abs_sum(k, 1)
        a = dense_matrix(k)
        assert np.allclose(np.abs(a).sum(axis=1), base, atol=1e-12)
        for i in (2, 1 << (k - 1), 1 << k):
            assert row_abs_sum(k, i) == base


def _row_mask(k, rows):
    w = np.zeros(1 << k)
    w[[i - 1 for i in rows]] = 1.0
    return w


def test_rmatvec_row_sum_examples():
    assert rmatvec(1, _row_mask(1, {1})) == pytest.approx([INV_SQRT2, INV_SQRT2])
    assert rmatvec(1, _row_mask(1, {1, 2})) == pytest.approx([2 * INV_SQRT2, 0.0])
    with pytest.raises(ValueError):
        rmatvec(1, np.ones(1))


def test_rmatvec_l2_preservation():
    rng = np.random.default_rng(5)
    for k in (2, 4, 6):
        size = 1 << k
        for _ in range(5):
            m = int(rng.integers(1, size + 1))
            rows = set(rng.choice(size, size=m, replace=False) + 1)
            coeffs = rmatvec(k, _row_mask(k, rows))
            assert np.sqrt(np.sum(coeffs**2)) == pytest.approx(
                math.sqrt(m), abs=1e-12
            )
    # all rows selected: column sums have l2 norm 2^(k/2)
    coeffs = rmatvec(3, _row_mask(3, range(1, 9)))
    assert np.sqrt(np.sum(coeffs**2)) == pytest.approx(2 ** 1.5, abs=1e-12)


def test_matvec_rmatvec_match_dense():
    rng = np.random.default_rng(17)
    for k in (1, 2, 3, 5, 8):
        a = dense_matrix(k)
        v = rng.normal(size=1 << k)
        assert np.allclose(matvec(k, v), a @ v, atol=1e-12)
        assert np.allclose(rmatvec(k, v), a.T @ v, atol=1e-12)


def reference_matvec(k, c):
    """A c with each band spread by np.kron: band entry nu times the
    +1/-1 halves of its run of 2^(k-s) rows."""
    out = np.full(1 << k, c[0] * 2.0 ** (-k / 2.0))
    sign_pair = np.array([1.0, -1.0])
    for s in range(k):
        band = c[(1 << s) : (1 << (s + 1))]
        spread = np.kron(band, np.repeat(sign_pair, 1 << (k - s - 1)))
        out += spread * 2.0 ** ((s - k) / 2.0)
    return out


def test_matvec_equals_kron_reference_exactly():
    rng = np.random.default_rng(23)
    for k in range(0, 11):
        for _ in range(20):
            v = rng.normal(size=1 << k)
            assert np.array_equal(matvec(k, v), reference_matvec(k, v))


def test_batched_rmatvec_equals_stacked_rows_exactly():
    rng = np.random.default_rng(29)
    for k in range(0, 11):
        w = rng.normal(size=(7, 1 << k))
        stacked = np.stack([rmatvec(k, row) for row in w])
        assert np.array_equal(rmatvec(k, w), stacked)
        assert np.array_equal(rmatvec(k, w.reshape(7, 1, 1 << k))[:, 0], stacked)
    with pytest.raises(ValueError):
        rmatvec(2, np.ones((3, 5)))
