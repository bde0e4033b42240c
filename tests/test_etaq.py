import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcong.catalogue import builtin_catalogue
from qcong.etaq import (
    BiregularSpec,
    EtaQuotient,
    biregular_factors,
    biregular_gf,
    expand_monomial,
    materialize_eta,
    overpartition_gf,
    pochhammer,
    pochhammer_product,
    regular_overpartition_gf,
)
from qcong.series import ZZ, Ring, mod_ring


class TestPochhammer:
    def test_f1_low_order(self):
        # prod (1 - q^n) = 1 - q - q^2 + q^5 + q^7 - ...
        assert pochhammer(1, 7, ZZ).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)

    def test_f2_low_order(self):
        assert pochhammer(2, 3, ZZ).coeffs == (1, 0, -1, 0)

    def test_order_zero(self):
        assert pochhammer(1, 0, ZZ).coeffs == (1,)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_pentagonal_equals_finite_product(self, m):
        fast = pochhammer(m, 200, ZZ)
        slow = pochhammer(m, 200, ZZ, method="product")
        assert fast.coeffs == slow.coeffs

    def test_dilation_of_f1_is_f2(self):
        f1 = pochhammer(1, 100, ZZ)
        f2 = pochhammer(2, 200, ZZ, method="product")
        assert f1.dilate(2, cap=200).coeffs == f2.coeffs

    def test_f1f3_product_values(self):
        prod = pochhammer(1, 8, ZZ) * pochhammer(3, 8, ZZ)
        assert prod.coeffs[:6] == (1, -1, -1, -1, 1, 2)
        assert prod[8] == 0


class TestExpandMonomial:
    def test_constant(self):
        assert expand_monomial(1, 0, {}, 4, ZZ).coeffs == (1, 0, 0, 0, 0)

    def test_shift_beyond_order_warns_zero(self):
        with pytest.warns(UserWarning):
            s = expand_monomial(1, 9, {1: 1}, 4, ZZ)
        assert s.is_zero() and s.order == 4

    def test_inverse_square(self):
        # 1/f(1)^2 counts partitions into parts of two colours
        s = expand_monomial(1, 0, {1: -2}, 7, ZZ)
        assert s.coeffs == (1, 2, 5, 10, 20, 36, 65, 110)


class TestBiregularSpec:
    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            BiregularSpec(2, 4)

    def test_rejects_unit(self):
        with pytest.raises(ValueError):
            BiregularSpec(1, 3)

    def test_allows_part(self):
        spec = BiregularSpec(2, 9)
        assert [p for p in range(1, 12) if spec.allows_part(p)] == [1, 3, 5, 7, 11]


class TestGeneratingFunctions:
    def test_overpartitions_prefix(self):
        s = overpartition_gf(4, ZZ)
        assert s.coeffs == (1, 2, 4, 8, 14)  # fourteen overpartitions of 4

    def test_regular_overpartitions_ell2(self):
        s = regular_overpartition_gf(2, 3, ZZ)
        assert s.coeffs == (1, 2, 2, 4)

    def test_biregular_2_9_prefix(self):
        s = biregular_gf(BiregularSpec(2, 9), 5, ZZ)
        assert s.coeffs == (1, 2, 2, 4, 6, 8)

    def test_biregular_5_2_value(self):
        s = biregular_gf(BiregularSpec(5, 2), 3, ZZ)
        assert s[0] == 1 and s[3] == 4

    @pytest.mark.parametrize(
        "pair", [(2, 9), (5, 2), (5, 4), (8, 3), (4, 9), (3, 4), (5, 8)]
    )
    def test_coefficients_non_negative(self, pair):
        s = biregular_gf(BiregularSpec(*pair), 40, ZZ)
        assert all(c >= 0 for c in s.coeffs)

    def test_mod_ring_matches_exact_reduction(self):
        spec = BiregularSpec(2, 9)
        exact = biregular_gf(spec, 60, ZZ)
        mod = biregular_gf(spec, 60, mod_ring(8))
        assert exact.reduce_mod(8).coeffs == mod.coeffs


class TestMaterializeEta:
    def test_eta6_pow4(self):
        series, e = materialize_eta(EtaQuotient.of({6: 4}), 14, ZZ)
        assert e == 1
        assert series[1] == 1 and series[7] == -4 and series[13] == 2

    def test_eta4_eta20(self):
        series, e = materialize_eta(EtaQuotient.of({4: 1, 20: 1}), 25, ZZ)
        assert e == 1
        got = {n: c for n, c in enumerate(series.coeffs) if c}
        assert got[1] == 1 and got[5] == -1 and got[9] == -1 and got[25] == 1

    def test_fractional_power_rejected(self):
        with pytest.raises(ValueError, match="1"):
            materialize_eta(EtaQuotient.of({1: 1}), 10, ZZ)

    def test_support_of_eta6_pow4(self):
        series, _ = materialize_eta(EtaQuotient.of({6: 4}), 500, ZZ)
        for n, c in enumerate(series.coeffs):
            if n % 6 != 1:
                assert c == 0

    def test_level_divisibility_enforced(self):
        with pytest.raises(ValueError):
            EtaQuotient.of({5: 1}, level=36)


def test_pochhammer_product_handles_mixed_signs():
    # f(2)/f(1)^2 assembled from the shared helper
    direct = pochhammer_product({2: 1, 1: -2}, 10, ZZ)
    manual = pochhammer(2, 10, ZZ) * pochhammer(1, 10, ZZ).invert() ** 2
    assert direct.coeffs == manual.coeffs


def _catalogue_lcms() -> dict[BiregularSpec, int]:
    lcms: dict[BiregularSpec, int] = {}
    for claim in builtin_catalogue():
        lcms[claim.spec] = math.lcm(lcms.get(claim.spec, 1), claim.modulus)
    return lcms


CATALOGUE_LCMS = _catalogue_lcms()


def _eta_product(spec: BiregularSpec, order: int, ring: Ring):
    # the reference: the eta-product expanded factor by factor
    return pochhammer_product(biregular_factors(spec), order, ring)


class TestThetaBuild:
    """``biregular_gf`` builds a theta quotient; the eta-product expansion of
    ``biregular_factors`` is the independent path it must agree with."""

    @pytest.mark.parametrize("spec", list(CATALOGUE_LCMS), ids=str)
    def test_catalogue_spec_exact(self, spec):
        assert biregular_gf(spec, 1500, ZZ) == _eta_product(spec, 1500, ZZ)

    @pytest.mark.parametrize("spec", list(CATALOGUE_LCMS), ids=str)
    def test_catalogue_spec_mod_lcm(self, spec):
        ring = Ring(CATALOGUE_LCMS[spec])
        assert biregular_gf(spec, 6000, ring) == _eta_product(spec, 6000, ring)

    @pytest.mark.parametrize("ring", [ZZ, Ring(8)], ids=repr)
    @pytest.mark.parametrize("order", [0, 1, 4])
    def test_orders_below_both_moduli(self, order, ring):
        # below q^5 no part is excluded: the overpartition numbers
        spec = BiregularSpec(5, 8)
        series = biregular_gf(spec, order, ring)
        assert series == _eta_product(spec, order, ring)
        assert series == overpartition_gf(order, ring)


class TestLatticeBuild:
    """In Z/2, Z/4 and Z/8 ``biregular_gf`` writes the series as lattice
    sums; the Z/24 division build, reduced, is the cross-check."""

    @pytest.mark.parametrize("m", [2, 4, 8])
    @pytest.mark.parametrize("spec", list(CATALOGUE_LCMS), ids=str)
    def test_catalogue_spec(self, spec, m):
        division = biregular_gf(spec, 6000, Ring(24))
        lattice = biregular_gf(spec, 6000, Ring(m))
        assert lattice.ring == Ring(m)
        assert lattice.coeffs == tuple(c % m for c in division.coeffs)

    def test_2_9_to_the_deepest_catalogue_index(self):
        order = 59125
        division = biregular_gf(BiregularSpec(2, 9), order, Ring(24))
        lattice = biregular_gf(BiregularSpec(2, 9), order, Ring(8))
        assert lattice.coeffs == tuple(c % 8 for c in division.coeffs)


class TestNegativeOrder:
    @pytest.mark.parametrize("ring", [ZZ, Ring(3), Ring(8)], ids=repr)
    def test_biregular_gf(self, ring):
        with pytest.raises(ValueError, match="order must be >= 0"):
            biregular_gf(BiregularSpec(2, 9), -1, ring)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("method", ["pentagonal", "product"])
    def test_pochhammer(self, m, method):
        with pytest.raises(ValueError, match="order must be >= 0"):
            pochhammer(m, -1, ZZ, method)


coprime_pairs = st.tuples(st.integers(2, 40), st.integers(2, 40)).filter(
    lambda pair: math.gcd(*pair) == 1
)


@settings(max_examples=60, deadline=None)
@given(
    coprime_pairs,
    st.integers(0, 400),
    st.sampled_from([ZZ, Ring(2), Ring(3), Ring(4), Ring(8), Ring(24)]),
)
def test_theta_build_matches_eta_product(pair, order, ring):
    spec = BiregularSpec(*pair)
    assert biregular_gf(spec, order, ring) == _eta_product(spec, order, ring)


class TestPhiFactors:
    @pytest.mark.parametrize("l", [1, 2, 3, 7])
    def test_single_phi_is_the_theta_series(self, l):
        from qcong.etaq import phi_factors

        order = 120
        want = [0] * (order + 1)
        k = 0
        while l * k * k <= order:
            want[l * k * k] = 1 if k == 0 else 2 * (-1) ** k
            k += 1
        got = pochhammer_product(phi_factors((l,)), order, ZZ)
        assert list(got.coeffs) == want
