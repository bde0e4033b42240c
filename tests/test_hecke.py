import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcong.arith import ModularityReport, kronecker, modularity_check
from qcong.etaq import EtaQuotient
from qcong.hecke import (
    ETA4_20_CONTEXT,
    ETA6_4_CONTEXT,
    apply_tp,
    eigen_check,
    eta4_20,
    eta6_4,
    newman_check,
    newman_series,
    vanishing_class_check,
)
from qcong.series import QSeries, ZZ


class TestApplyTp:
    def test_first_coefficient_of_image(self):
        a = eta6_4(49)
        image = apply_tp(a, 7, ETA6_4_CONTEXT)
        assert image[1] == a[7] == -4

    def test_eigen_relation_pins_a49(self):
        # lambda(7) * a(7) - chi(7) * 7 * a(1) with lambda(7) = a(7) = -4
        a = eta6_4(49)
        assert a[49] == (-4) * (-4) - 7 * 1

    def test_zero_series_maps_to_zero(self):
        z = QSeries.zero(30, ZZ)
        assert apply_tp(z, 5, ETA6_4_CONTEXT).is_zero()

    def test_insufficient_order_rejected(self):
        with pytest.raises(ValueError):
            apply_tp(eta6_4(20), 7, ETA6_4_CONTEXT, n_max=10)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(-20, 20), min_size=22, max_size=40),
        st.lists(st.integers(-20, 20), min_size=22, max_size=40),
        st.integers(-5, 5),
        st.integers(-5, 5),
    )
    def test_linearity(self, xs, ys, alpha, beta):
        n = min(len(xs), len(ys)) - 1
        a = QSeries.make(xs[: n + 1], ZZ)
        b = QSeries.make(ys[: n + 1], ZZ)
        combo = a.scale(alpha) + b.scale(beta)
        lhs = apply_tp(combo, 3, ETA6_4_CONTEXT)
        rhs = apply_tp(a, 3, ETA6_4_CONTEXT).scale(alpha) + apply_tp(
            b, 3, ETA6_4_CONTEXT
        ).scale(beta)
        assert lhs.coeffs == rhs.coeffs


class TestEigenforms:
    @pytest.mark.parametrize("p,lam", [(5, 0), (7, -4), (11, 0), (13, 2)])
    def test_eta6_4_eigenvalues(self, p, lam):
        a = eta6_4(p * 40)
        res = eigen_check(a, p, ETA6_4_CONTEXT, n_max=40)
        assert res and res.eigenvalue == lam

    @pytest.mark.parametrize("p", [3, 7, 11])
    def test_eta4_20_eigenvalue_zero_off_class(self, p):
        # lambda(p) = 0 whenever p is not 1 mod 4
        a = eta4_20(p * 40)
        res = eigen_check(a, p, ETA4_20_CONTEXT, n_max=40)
        assert res and res.eigenvalue == 0

    def test_eta4_20_split_prime(self):
        a = eta4_20(13 * 40)
        res = eigen_check(a, 13, ETA4_20_CONTEXT, n_max=40)
        assert res and res.eigenvalue == a[13]

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            eigen_check(QSeries.make([0, 2, 1], ZZ), 2, ETA6_4_CONTEXT, n_max=1)

    def test_non_eigenform_detected(self):
        from qcong.etaq import pochhammer

        # f(1) itself is not an eigenform for this context
        res = eigen_check(pochhammer(1, 200, ZZ).shift(1).truncate(200), 5,
                          ETA6_4_CONTEXT, n_max=40)
        assert not res

    def test_two_case_recursion_p5(self):
        # for p = 5 (eigenvalue 0): a(25n + 5r) = 0 when 5 does not divide n,
        # and a(25n) = -5 a(n)
        a = eta6_4(500)
        for n in range(1, 501):
            if n % 25 == 0:
                assert a[n] == -5 * a[n // 25]
            elif n % 5 == 0:
                assert a[n] == 0


class TestVanishingClass:
    def test_eta6_4_support(self):
        assert vanishing_class_check(eta6_4(300), 6, 1, 300)

    def test_eta4_20_support(self):
        assert vanishing_class_check(eta4_20(300), 4, 1, 300)

    def test_f1_fails_immediately(self):
        from qcong.etaq import pochhammer

        res = vanishing_class_check(pochhammer(1, 50, ZZ), 6, 1, 50)
        assert not res and res.index == 0


class TestNewman:
    def test_u8_spot_value(self):
        u = newman_series("f1f3", 8)
        # u(7*1+1) = u(1)^2 - (-1)(3|7) u(0) = 1 - 1 = 0
        assert u[8] == 0 and u[1] == -1 and u[0] == 1

    @pytest.mark.parametrize("p", [7, 13])
    def test_f1f3_recursion(self, p):
        assert newman_check("f1f3", p, 30)

    @pytest.mark.parametrize("p", [5, 13])
    def test_f1f5_recursion(self, p):
        assert newman_check("f1f5", p, 30)

    def test_wrong_residue_class_rejected(self):
        with pytest.raises(ValueError, match="mod 4"):
            newman_check("f1f5", 7, 10)
        with pytest.raises(ValueError, match="mod 6"):
            newman_check("f1f3", 5, 10)

    def test_unknown_product_rejected(self):
        with pytest.raises(ValueError):
            newman_check("f1f7", 29, 5)


class TestDerivedContexts:
    """The contexts are the modularity reports of the two eta-quotients."""

    def test_reports_carry_weight_and_level(self):
        assert isinstance(ETA6_4_CONTEXT, ModularityReport)
        assert isinstance(ETA4_20_CONTEXT, ModularityReport)
        assert (ETA6_4_CONTEXT.weight, ETA6_4_CONTEXT.level) == (2, 36)
        assert (ETA4_20_CONTEXT.weight, ETA4_20_CONTEXT.level) == (1, 80)

    @pytest.mark.parametrize("ctx,top", [(ETA6_4_CONTEXT, 6**4), (ETA4_20_CONTEXT, -20)])
    def test_character_matches_printed_symbol(self, ctx, top):
        for d in range(1, 501):
            expected = 0 if math.gcd(d, ctx.level) > 1 else kronecker(top, d)
            assert ctx.character(d) == expected, f"d={d}"

    def test_half_integral_weight_rejected(self):
        report = modularity_check(EtaQuotient.of({1: 1}), 1)
        with pytest.raises(ValueError, match="integral weight"):
            apply_tp(QSeries.zero(30, ZZ), 3, report)
        with pytest.raises(ValueError, match="integral weight"):
            eigen_check(eta6_4(30), 3, report, n_max=10)

    def test_eigen_check_needs_a_coefficient(self):
        with pytest.raises(ValueError, match="n_max >= 1"):
            eigen_check(eta6_4(300), 5, ETA6_4_CONTEXT, n_max=0)
