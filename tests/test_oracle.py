import pytest

from qcong.catalogue import KNOWN_FAILING, claim_by_id
from qcong.claims import MultiplicativeClaim, SeriesCongruenceClaim, verify_claim
from qcong.derivations import REFUTED, all_derivations, verify_derivation
from qcong.dissect import eval_expr
from qcong.etaq import BiregularSpec, biregular_gf, overpartition_gf
from qcong.oracle import (
    compare_series_vs_oracle,
    count_biregular,
    count_overpartitions,
    count_overpartitions_explicit,
)
from qcong.series import ZZ, Ring

SPECS = [(2, 9), (5, 2), (5, 4), (8, 3), (4, 9), (3, 4), (5, 8)]


class TestCountBiregular:
    def test_empty_partition(self):
        for pair in SPECS:
            assert count_biregular(BiregularSpec(*pair), 0) == 1

    def test_2_9_small_values(self):
        spec = BiregularSpec(2, 9)
        # n=3: [3], [1,1,1] with one overlinable first copy each
        assert count_biregular(spec, 3) == 4
        # n=5: [5], [3,1,1], [1^5]
        assert count_biregular(spec, 5) == 8

    def test_positive_whenever_one_is_allowed(self):
        spec = BiregularSpec(5, 2)
        assert all(count_biregular(spec, n) >= 1 for n in range(30))


class TestExplicitEnumeration:
    def test_overpartitions_of_four(self):
        assert count_overpartitions_explicit(4) == 14

    def test_base_cases(self):
        assert count_overpartitions_explicit(0) == 1
        assert count_overpartitions_explicit(1) == 2

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            count_overpartitions_explicit(26)

    def test_shortcut_matches_explicit_unrestricted(self):
        for n in range(21):
            assert count_overpartitions(n) == count_overpartitions_explicit(n)

    def test_shortcut_matches_explicit_biregular(self):
        spec = BiregularSpec(2, 9)
        for n in range(16):
            assert count_biregular(spec, n) == count_overpartitions_explicit(n, spec)


class TestSeriesAgreement:
    def test_overpartition_gf_matches_explicit(self):
        series = overpartition_gf(20, ZZ)
        for n in range(21):
            assert series[n] == count_overpartitions_explicit(n)

    @pytest.mark.parametrize("pair", SPECS)
    def test_compare_series_vs_oracle(self, pair):
        report = compare_series_vs_oracle(BiregularSpec(*pair), n_max=40)
        assert report.ok, report.mismatches


class TestRefutationsConfirmed:
    """Each refutation the engine reports is reproduced by brute-force counts
    at the coefficient indices its counterexample reads."""

    @pytest.mark.parametrize("claim_id", sorted(KNOWN_FAILING))
    def test_known_failing_claim(self, claim_id):
        claim = claim_by_id(claim_id)
        report = verify_claim(claim)
        assert report.status == "fail", report
        n, *engine = report.counterexample
        m = claim.modulus
        if isinstance(claim, MultiplicativeClaim):
            lhs, rhs = (count_biregular(claim.spec, a * n + b)
                        for a, b in (claim.lhs, claim.rhs))
            assert [lhs % m, rhs % m] == engine
            assert (lhs - claim.factor * rhs) % m
        elif isinstance(claim, SeriesCongruenceClaim):
            count = count_biregular(claim.spec, claim.a * n + claim.b)
            assert count % m == engine[0] != engine[1]  # engine[1]: the target
        else:  # a progression said to vanish mod m
            count = count_biregular(claim.spec, claim.a * n + claim.b)
            assert count % m == engine[0] != 0

    @pytest.mark.parametrize("record_id", sorted(REFUTED))
    def test_refuted_record(self, record_id):
        (d,) = [d for d in all_derivations() if d.id == record_id]
        result = verify_derivation(d)
        assert not result.ok, result
        n = result.index
        index = d.step * n + d.residue
        ring = Ring(d.modulus)
        count = count_biregular(d.spec, index)
        assert count % d.modulus == biregular_gf(d.spec, index, ring)[index]
        target = 0 if d.rhs is None else eval_expr(d.rhs, n, ring)[n]
        assert count % d.modulus != target
