import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcong.series import (
    QSeries,
    Ring,
    RingMismatchError,
    ZZ,
    congruent_upto,
    mod_ring,
)


def S(coeffs, ring=ZZ):
    return QSeries.make(coeffs, ring)


class TestConstruction:
    def test_make_exact(self):
        s = S([1, 2, 3])
        assert s.order == 2
        assert s.coeffs == (1, 2, 3)

    def test_make_reduces_mod_ring(self):
        s = S([5, -1], mod_ring(4))
        assert s.coeffs == (1, 3)

    def test_zero_series(self):
        s = S([0])
        assert s.order == 0 and s.is_zero()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            QSeries(ZZ, ())

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            Ring(1)

    def test_coefficient_beyond_order(self):
        with pytest.raises(IndexError):
            S([1, 2])[2]


class TestAddSubScale:
    def test_add(self):
        assert (S([1, 1]) + S([1, -1])).coeffs == (2, 0)

    def test_scale(self):
        assert S([1, 1]).scale(-2).coeffs == (-2, -2)

    def test_sub_self_is_zero(self):
        f = S([3, 1, 4, 1, 5])
        assert (f - f).is_zero()

    def test_order_is_min(self):
        assert (S([1, 2, 3]) + S([1, 1])).order == 1

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            S([1]) + S([1], mod_ring(4))


class TestMul:
    def test_telescoping_product(self):
        # (1-q)(1+q+q^2+q^3) = 1 - q^4, truncated to order 3 -> 1
        out = S([1, -1, 0, 0]) * S([1, 1, 1, 1])
        assert out.coeffs == (1, 0, 0, 0)

    def test_truncation_drops_high_terms(self):
        assert (S([0, 2]) * S([0, 3])).coeffs == (0, 0)

    def test_mod_ring_mul(self):
        out = S([1, 3], mod_ring(4)) * S([1, 3], mod_ring(4))
        assert out.coeffs == (1, 2)

    def test_scalar_mul(self):
        assert (3 * S([1, 1])).coeffs == (3, 3)


class TestPowInvert:
    def test_pow_square(self):
        assert (S([1, 1, 0]) ** 2).coeffs == (1, 2, 1)

    def test_pow_zero(self):
        assert (S([5, 7, 9]) ** 0).coeffs == (1, 0, 0)

    def test_pow_negative_geometric(self):
        assert (S([1, -1, 0, 0]) ** -1).coeffs == (1, 1, 1, 1)

    def test_invert_geometric(self):
        assert S([1, -1, 0, 0, 0]).invert().coeffs == (1, 1, 1, 1, 1)

    def test_invert_one(self):
        assert S([1, 0, 0]).invert().coeffs == (1, 0, 0)

    def test_invert_requires_unit(self):
        with pytest.raises(ValueError):
            S([2, 1]).invert()
        with pytest.raises(ValueError):
            S([2, 1], mod_ring(4)).invert()

    def test_invert_unit_mod_m(self):
        s = S([3, 1], mod_ring(8))
        prod = s * s.invert()
        assert prod.coeffs == (1, 0)


class TestReindexing:
    def test_dilate(self):
        assert S([1, 1]).dilate(3).coeffs == (1, 0, 0, 1)

    def test_dilate_identity(self):
        f = S([1, 2, 3])
        assert f.dilate(1) is f

    def test_shift_up(self):
        assert S([1, 1]).shift(2).coeffs == (0, 0, 1, 1)

    def test_shift_down(self):
        assert S([0, 0, 1, 5]).shift(-2).coeffs == (1, 5)

    def test_shift_down_nonzero_errors(self):
        with pytest.raises(ValueError):
            S([1, 1]).shift(-1)

    def test_extract(self):
        assert S([1, 2, 3, 4]).extract(2, 1).coeffs == (2, 4)

    def test_extract_identity(self):
        f = S([1, 2, 3])
        assert f.extract(1, 0).coeffs == f.coeffs


class TestCongruentUpto:
    def test_equal_series_any_modulus(self):
        f = S([1, 2, 3, 4])
        for m in (2, 3, 5, 8):
            assert congruent_upto(f, f, m, 3)

    def test_counterexample_reported(self):
        res = congruent_upto(S([1, 1]), S([1, 0]), 2, 1)
        assert not res and res.index == 1

    def test_range_exceeds_order(self):
        with pytest.raises(ValueError):
            congruent_upto(S([1]), S([1]), 2, 5)

    def test_mod_ring_must_refine(self):
        a = S([1, 1], mod_ring(4))
        with pytest.raises(RingMismatchError):
            congruent_upto(a, a, 8, 1)
        assert congruent_upto(a, a, 2, 1)

    def test_exact_reports_first_differing_index(self):
        a, b = S([1, 2, 3, 4, 5]), S([1, 2, 7, 4, 9])
        res = congruent_upto(a, b, None, 4)
        assert not res and res.index == 2
        assert congruent_upto(a, b, None, 1)
        # 3 and 7 agree mod 4, so the mod-4 check only fails at n=4
        assert congruent_upto(a, b, 4, 4).index is None
        assert congruent_upto(a, S([1, 2, 7, 4, 10]), 4, 4).index == 4

    def test_exact_requires_same_ring(self):
        a = S([1, 2, 3])
        with pytest.raises(RingMismatchError):
            congruent_upto(a, S([1, 2, 3], mod_ring(5)), None, 2)
        assert congruent_upto(S([1, 2], mod_ring(5)), S([6, 7], mod_ring(5)), None, 1)


# ---------------------------------------------------------------------------
# property tests

small_series = st.lists(st.integers(-50, 50), min_size=1, max_size=65).map(
    lambda cs: QSeries.make(cs, ZZ)
)


@settings(max_examples=60, deadline=None)
@given(small_series, small_series, small_series)
def test_mul_associative_and_commutative(a, b, c):
    assert (a * b).coeffs == (b * a).coeffs
    n = min(a.order, b.order, c.order)
    lhs = ((a * b) * c).truncate(n)
    rhs = (a * (b * c)).truncate(n)
    assert lhs.coeffs == rhs.coeffs


@settings(max_examples=60, deadline=None)
@given(small_series, small_series, st.integers(2, 64))
def test_reduction_is_ring_homomorphism(a, b, m):
    lhs = (a * b).reduce_mod(m)
    rhs = a.reduce_mod(m) * b.reduce_mod(m)
    assert lhs.coeffs == rhs.coeffs


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=48),
    st.sampled_from([1, -1]),
)
def test_invert_is_two_sided_inverse(tail, unit):
    a = QSeries.make([unit] + tail[1:], ZZ)
    prod = a * a.invert()
    assert prod.coeffs == QSeries.one(a.order).coeffs


@settings(max_examples=60, deadline=None)
@given(small_series, st.integers(1, 6))
def test_extract_recombine(a, k):
    k = min(k, a.order + 1)  # every residue class must own a certified index
    parts = [a.extract(k, r).dilate(k, cap=a.order + k).shift(r) for r in range(k)]
    n = min(p.order for p in parts)
    acc = QSeries.zero(n, ZZ)
    for p in parts:
        acc = acc + p.truncate(n)
    assert acc.coeffs == a.coeffs[: n + 1]


@settings(max_examples=60, deadline=None)
@given(small_series, st.integers(1, 5))
def test_dilate_structure(a, k):
    d = a.dilate(k, cap=a.order * k)
    for j in range(d.order + 1):
        if j % k == 0:
            assert d[j] == a[j // k]
        else:
            assert d[j] == 0


def test_kronecker_matches_schoolbook():
    # force both convolution paths on the same operands
    from qcong.series import _conv_kronecker, _conv_schoolbook
    import random

    rng = random.Random(7)
    for _ in range(20):
        la, lb = rng.randint(1, 120), rng.randint(1, 120)
        a = [rng.randint(-10**6, 10**6) for _ in range(la)]
        b = [rng.randint(-10**6, 10**6) for _ in range(lb)]
        n_out = min(la, lb) - 1
        assert _conv_kronecker(a, b, n_out) == _conv_schoolbook(a, b, n_out)

    big = 10**40
    cases = [
        ([-rng.randint(1, 10**6) for _ in range(90)],
         [rng.randint(-10**6, 10**6) for _ in range(70)]),  # all negative
        ([0] * 80, [rng.randint(-10**6, 10**6) for _ in range(80)]),  # all zero
        # equal extremes: the middle slots reach exactly the width bound
        ([big] * 100, [big] * 100),
        ([-big] * 100, [big] * 100),
        # 362^2 * 64 is just below 2^23, the most 3-byte signed slots hold
        ([-362] * 64, [362] * 64),
        ([362] * 64, [362] * 64),
        # 511^2 * 64 has 24 bits, so the sign bit needs a fourth byte
        ([-511] * 64, [511] * 64),
        # non-negative residues mod 24, above the schoolbook cutoff
        ([rng.randint(0, 23) for _ in range(300)],
         [rng.randint(0, 23) for _ in range(250)]),
        ([23] * 300, [23] * 300),
    ]
    for a, b in cases:
        full = len(a) + len(b) - 2
        for n_out in (0, min(len(a), len(b)) // 2, min(len(a), len(b)) - 1,
                      full, full + 7):
            assert _conv_kronecker(a, b, n_out) == _conv_schoolbook(a, b, n_out)
