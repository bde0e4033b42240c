"""Every relation is two series compared by ``congruent_upto``: the claim
verifiers, the Hecke and Newman checks and the oracle comparison report the
index where a perturbed series first differs, and no relation passes on an
empty range."""

import pytest

from qcong import hecke, oracle
from qcong.catalogue import KNOWN_FAILING, claim_by_id
from qcong.claims import (
    FAMILY_THEOREMS,
    MultiplicativeClaim,
    NewmanConditionalClaim,
    SeriesCongruenceClaim,
    VanishingClaim,
    build_series,
    instantiate_family,
    series_key,
    verify_claim,
)
from qcong.derivations import REFUTED, SPEC29, SPEC52, SPEC54, all_derivations
from qcong.dissect import expr
from qcong.etaq import BiregularSpec, pochhammer
from qcong.hecke import (
    ETA4_20_CONTEXT,
    ETA6_4_CONTEXT,
    eigen_check,
    eta4_20,
    eta6_4,
    newman_check,
    vanishing_class_check,
)
from qcong.oracle import compare_series_vs_oracle
from qcong.series import QSeries, ZZ, congruent_upto


def bump(series: QSeries, index: int, by: int = 1) -> QSeries:
    coeffs = list(series.coeffs)
    coeffs[index] = series.ring.reduce(coeffs[index] + by)
    return QSeries(series.ring, tuple(coeffs))


class TestEmptyRanges:
    def test_congruent_upto_rejects_negative_n_max(self):
        a = QSeries.make([1, 2, 3])
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            congruent_upto(a, a, 2, -1)
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            congruent_upto(a, a, None, -1)
        assert congruent_upto(a, a, None, 0)

    def test_claim_with_n_max_below_n_min_rejected(self):
        with pytest.raises(ValueError, match="empty or negative"):
            VanishingClaim("x", SPEC29, 3, 0, 8, 0, n_min=1)
        with pytest.raises(ValueError, match="empty or negative"):
            VanishingClaim("x", SPEC29, 6, 3, 4, 5, n_min=-1)
        for make in (
            lambda: VanishingClaim("x", SPEC29, 6, 3, 4, -1),
            lambda: SeriesCongruenceClaim("x", SPEC29, 6, 1, 8, expr((2, 0, {1: 4})), -1),
            lambda: MultiplicativeClaim("x", SPEC29, (150, 25), (6, 1), -5, 8, -1),
            lambda: NewmanConditionalClaim("x", SPEC29, 7, 0, 3, 6, -1),
        ):
            with pytest.raises(ValueError, match="empty or negative"):
                make()
        assert VanishingClaim("x", SPEC29, 3, 0, 8, 1, n_min=1).n_max == 1


class TestClaimsAsSeries:
    """A verifier given a counting series with one coefficient changed
    reports that coefficient's n and residues."""

    def gf_for(self, claim):
        return build_series([claim])[series_key(claim)]

    def test_vanishing_from_n_min(self):
        claim = VanishingClaim("x", BiregularSpec(4, 9), 3, 0, 8, 30, n_min=1)
        gf = self.gf_for(claim)
        assert verify_claim(claim, gf).status == "pass"
        report = verify_claim(claim, bump(gf, 3 * 13, 3))
        assert report.status == "fail"
        assert report.counterexample == (13, 3)
        assert report.range_checked == "n in [1, 30]"
        # n = 0 lies below the range, so changing it changes nothing
        assert verify_claim(claim, bump(gf, 0, 3)).status == "pass"

    def test_vanishing_with_residue_above_step(self):
        # b >= a: the component is a slice, which extract would reject
        claim = VanishingClaim("x", SPEC29, 6, 9, 4, 20)
        gf = self.gf_for(claim)
        assert [gf[6 * n + 9] % 4 for n in range(21)] == [0] * 21
        report = verify_claim(claim, bump(gf, 6 * 13 + 9))
        assert report.counterexample == (13, 1)

    def test_multiplicative_reports_both_sides(self):
        claim = claim_by_id("thm2.p5.k1")
        gf = self.gf_for(claim)
        report = verify_claim(claim, bump(gf, 150 * 13 + 25))
        assert report.status == "fail"
        assert report.counterexample == (
            13, (gf[150 * 13 + 25] + 1) % 8, gf[6 * 13 + 1] % 8)

    def test_series_congruence_reports_both_sides(self):
        claim = claim_by_id("eq13a")
        gf = self.gf_for(claim)
        report = verify_claim(claim, bump(gf, 6 * 13 + 1))
        n, got, expected = report.counterexample
        assert n == 13 and got == (gf[6 * 13 + 1] + 1) % 8
        assert (got - expected) % 8 == 1

    def test_newman_conditional_skips_the_excluded_class(self):
        claim = claim_by_id("thm4.12.t4.p13")  # 13 | 4n + 1 exactly at n == 3 (mod 13)
        gf = self.gf_for(claim)
        report = verify_claim(claim, bump(gf, claim.a * 13 + claim.b))
        assert report.status == "fail" and report.counterexample == (13, 1)
        # 0..13 holds 14 indices, one of them (n=3) excluded
        assert report.range_checked == "n in [0, 60], 13 admissible"
        report = verify_claim(claim, bump(gf, claim.a * 3 + claim.b))
        assert report.status == "pass"
        assert report.range_checked == "n in [0, 60], 56 admissible"


class TestHeckeAsSeries:
    def test_eigen_check_reports_perturbed_index(self):
        a = eta6_4(7 * 40)
        assert eigen_check(a, 7, ETA6_4_CONTEXT, 40)
        res = eigen_check(bump(a, 13), 7, ETA6_4_CONTEXT, 40)
        assert not res and res.failure_index == 13 and res.eigenvalue is None
        assert res.detail == "T_7 image differs from -4 * series at n=13"

    def test_vanishing_class_check_reports_perturbed_index(self):
        f3 = pochhammer(3, 100, ZZ)  # supported on n == 0 (mod 3)
        assert vanishing_class_check(f3, 3, 0, 100)
        res = vanishing_class_check(bump(f3, 13, 5), 3, 0, 100)
        assert not res and res.index == 13
        assert res.detail == "nonzero coefficient 5 at n=13"
        # 13 == 1 (mod 4) lies on the support class of eta(4z)eta(20z)
        assert vanishing_class_check(bump(eta4_20(100), 13, 5), 4, 1, 100)
        assert not vanishing_class_check(bump(eta4_20(100), 14, 5), 4, 1, 100)

    def test_vanishing_class_check_rejects_residue_outside_class_range(self):
        with pytest.raises(ValueError):
            vanishing_class_check(eta6_4(30), 6, 7, 30)

    def test_newman_check_reports_perturbed_index(self, monkeypatch):
        u = hecke.newman_series("f1f5", 13 * 30 + 3)
        monkeypatch.setattr(hecke, "newman_series",
                            lambda product, order: bump(u, 13 * 13 + 3).truncate(order))
        res = newman_check("f1f5", 13, 30)
        assert not res and res.index == 13
        assert res.detail == (f"u(13*13+3) = {u[13 * 13 + 3] + 1}, "
                              f"expected {u[13 * 13 + 3]}")


class TestOracleAsSeries:
    def test_tampered_table_reports_n_got_expected(self, monkeypatch):
        spec = BiregularSpec(2, 9)
        honest = oracle._weighted_counts

        def tampered(n_max, allowed):
            counts = honest(n_max, allowed)
            counts[13] += 7
            return counts

        count_13 = honest(40, spec.allows_part)[13]
        monkeypatch.setattr(oracle, "_weighted_counts", tampered)
        report = compare_series_vs_oracle(spec, 40)
        assert not report.ok
        assert report.mismatches == ((13, count_13, count_13 + 7),)


class TestRefutationsWrittenOnce:
    def test_thm8_1a_t3_is_record_eq9_5_t3(self):
        claim = claim_by_id("thm8.1a.t3")
        record = {d.id: d for d in all_derivations()}["eq9.5[t=3]"]
        assert (claim.spec, claim.a, claim.b, claim.modulus) == (
            record.spec, record.step, record.residue, record.modulus)
        assert KNOWN_FAILING["thm8.1a.t3"] == REFUTED["eq9.5[t=3]"]

    def test_coro4_9_ex_t4_is_thm4_8_t4_p7_j1(self):
        a, b = claim_by_id("coro4.9.ex.t4"), claim_by_id("thm4.8.t4.p7.j1")
        assert (a.spec, a.a, a.b, a.modulus) == (b.spec, b.a, b.b, b.modulus)
        assert KNOWN_FAILING["coro4.9.ex.t4"] == KNOWN_FAILING["thm4.8.t4.p7.j1"]


class TestFamilyConstants:
    def test_specs_come_from_derivations(self):
        assert FAMILY_THEOREMS["thm3.2"]["spec"] is SPEC29
        assert FAMILY_THEOREMS["thm3.6"]["spec"] is SPEC29
        assert FAMILY_THEOREMS["thm18"]["spec"] is SPEC52
        assert FAMILY_THEOREMS["thm5.8"]["spec"] is SPEC54

    @pytest.mark.parametrize("theorem", sorted(FAMILY_THEOREMS))
    def test_primes_one_mod_stride_excluded(self, theorem):
        stride = FAMILY_THEOREMS[theorem]["stride"]
        p = 13  # 13 == 1 (mod 4) and (mod 6)
        with pytest.raises(ValueError, match=f"excluded class 1 mod {stride}"):
            instantiate_family(theorem, [p], 1, 3)

    def test_newman_scale(self):
        f1f3 = claim_by_id("thm10a.p7")
        f1f5 = claim_by_id("thm4.12.t4.p13")
        assert (f1f3.scale, f1f3.a, f1f3.b, f1f3.hyp_index) == (3, 126, 21, 21)
        assert (f1f5.scale, f1f5.a, f1f5.b, f1f5.hyp_index) == (1, 52, 13, 13)
