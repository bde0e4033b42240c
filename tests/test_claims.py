import json

import pytest

from qcong.catalogue import KNOWN_FAILING, RESTATES, builtin_catalogue, claim_by_id
from qcong.claims import (
    CLAIM_INDEX_LIMIT,
    MultiplicativeClaim,
    NewmanConditionalClaim,
    SeriesCongruenceClaim,
    VanishingClaim,
    build_series,
    instantiate_family,
    reports_to_json,
    run_catalogue,
    search_congruences,
    series_key,
    verify_claim,
    verify_multiplicative,
    verify_newman_conditional,
    verify_series_congruence,
    verify_vanishing,
)
from qcong.derivations import REFUTED, all_derivations, verify_derivation
from qcong.dissect import expr
from qcong.etaq import BiregularSpec, biregular_gf
from qcong.series import ZZ, Ring

SPEC29 = BiregularSpec(2, 9)
SPEC52 = BiregularSpec(5, 2)


class TestVanishing:
    def test_prop31a_passes_and_witness_value(self):
        claim = claim_by_id("prop3.1a")
        report = verify_vanishing(claim)
        assert report.status == "pass"
        # the n=0 term is 4 itself, not 0: divisible by 4 but not by 8
        from qcong.oracle import count_biregular

        assert count_biregular(SPEC29, 3) == 4

    def test_prop51_passes(self):
        report = verify_vanishing(claim_by_id("prop5.1"))
        assert report.status == "pass"

    def test_failing_vanishing_reports_counterexample(self):
        bogus = VanishingClaim("bogus", SPEC29, 6, 1, 4, 10)
        report = verify_vanishing(bogus)
        assert report.status == "fail"
        n, value = report.counterexample
        assert n == 0 and value == 2  # B(2,9)(1) = 2

    def test_n_min_respected(self):
        claim = claim_by_id("thm8.1a.t2")
        assert claim.n_min == 1
        assert verify_vanishing(claim).status == "pass"


class TestSeriesCongruence:
    def test_eq13a(self):
        assert verify_series_congruence(claim_by_id("eq13a")).status == "pass"

    def test_eq47_t3_fails_at_documented_index(self):
        report = verify_series_congruence(claim_by_id("eq4.7.t3"))
        assert report.status == "fail"
        assert report.counterexample[0] == 2

    def test_eq47_mod4_weakening_passes(self):
        from dataclasses import replace

        weakened = replace(claim_by_id("eq4.7.t3"), id="eq4.7.t3@4", modulus=4)
        assert verify_series_congruence(weakened).status == "pass"


class TestRestatedClaims:
    RECORDS = {d.id: d for d in all_derivations()}

    @pytest.mark.parametrize("claim_id", sorted(RESTATES))
    def test_claim_agrees_with_its_record(self, claim_id):
        from dataclasses import replace

        claim, record = claim_by_id(claim_id), self.RECORDS[RESTATES[claim_id]]
        assert (claim.spec, claim.a, claim.b, claim.modulus) == (
            record.spec, record.step, record.residue, record.modulus)
        if record.rhs is None:
            assert isinstance(claim, VanishingClaim) and claim.n_min == 0
        else:
            assert isinstance(claim, SeriesCongruenceClaim)
            assert claim.target == record.rhs
        # the claim runner and the derivation replay reach the same verdict
        report = verify_claim(replace(claim, n_max=20))
        assert report.ok == bool(verify_derivation(record, n_terms=20))
        assert report.ok == (claim_id not in KNOWN_FAILING)

    def test_known_failing_carries_record_refutations(self):
        for claim_id, record_id in RESTATES.items():
            if record_id in REFUTED:
                assert KNOWN_FAILING[claim_id] == REFUTED[record_id]


class TestMultiplicative:
    def test_thm2_instance(self):
        assert verify_multiplicative(claim_by_id("thm2.p5.k1")).status == "pass"

    def test_corrected_coro4a(self):
        assert verify_multiplicative(claim_by_id("coro4a.p5.k1")).status == "pass"

    def test_printed_coro4a_right_side_fails(self):
        # as printed the right side reads B(6n+1); the engine refutes that
        literal = MultiplicativeClaim(
            "coro4a.literal", SPEC29, (450, 75), (6, 1), -5, 3, 25
        )
        report = verify_multiplicative(literal)
        assert report.status == "fail" and report.counterexample[0] == 0


class TestNewmanConditional:
    def test_hypothesis_false_skips(self):
        report = verify_newman_conditional(claim_by_id("thm10a.p7"))
        assert report.status == "skipped-hypothesis-false"

    def test_active_branch_passes(self):
        report = verify_newman_conditional(claim_by_id("thm4.12.t4.p13"))
        assert report.status == "pass"

    def test_wrong_class_rejected(self):
        with pytest.raises(ValueError):
            NewmanConditionalClaim("x", SPEC29, 5, 0, 3, 6, 10)
        with pytest.raises(ValueError):
            NewmanConditionalClaim("x", SPEC52, 7, 0, 8, 4, 10)


class TestInstantiateFamily:
    def test_known_progressions(self):
        c = instantiate_family("thm3.2", [5], 1, 25)
        assert (c.a, c.b, c.modulus) == (150, 55, 8)
        c = instantiate_family("thm3.6", [5], 1, 10)
        assert (c.a, c.b, c.modulus) == (450, 165, 3)
        c = instantiate_family("thm4.8.t3", [7], 1, 20)
        assert (c.a, c.b, c.modulus) == (196, 77, 8)

    def test_two_prime_progression(self):
        c = instantiate_family("thm3.2", [5, 11], 1, 3)
        assert (c.a, c.b) == (6 * 25 * 121, (6 + 11) * 25 * 11)

    @pytest.mark.parametrize(
        "theorem,p", [("thm3.2", 5), ("thm18", 7), ("thm3.2", 11)]
    )
    def test_j_validation_exhaustive(self, theorem, p):
        for j in range(1, p):
            instantiate_family(theorem, [p], j, 1)
        for j in (0, p, 2 * p):
            with pytest.raises(ValueError):
                instantiate_family(theorem, [p], j, 1)

    def test_residue_class_enforced(self):
        with pytest.raises(ValueError):
            instantiate_family("thm3.2", [7], 1, 5)  # 7 == 1 (mod 6)
        with pytest.raises(ValueError):
            instantiate_family("thm18", [5], 1, 5)  # 5 divides the level data
        with pytest.raises(ValueError):
            instantiate_family("thm3.2", [4], 1, 5)  # not prime

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            instantiate_family("thm99", [5], 1, 5)


class TestRunner:
    def test_catalogue_outcomes_match_documentation(self):
        reports = run_catalogue()
        failing = {r.claim_id for r in reports if r.status == "fail"}
        assert failing == set(KNOWN_FAILING)

    def test_filter_restricts_to_spec(self):
        reports = run_catalogue(filter_substring="(8,3)")
        assert reports and all(r.params["spec"] == "(8,3)" for r in reports)

    def test_filter_by_id_substring(self):
        reports = run_catalogue(filter_substring="prop3.1")
        assert {r.claim_id for r in reports} == {"prop3.1a", "prop3.1b"}

    def test_n_max_override_shrinks_ranges(self):
        reports = run_catalogue(filter_substring="prop3.1", n_max_override=5)
        assert all(r.range_checked == "n in [0, 5]" for r in reports)

    def test_ring_independence_sample(self):
        # residues cannot depend on whether arithmetic ran exactly or mod m
        sample = [
            "prop3.1a", "prop3.1b", "prop3.4a", "prop3.5a", "prop5.1",
            "thm7.1", "eq28", "thm9.1a.t2", "thm8.1e.t2", "eq13a",
        ]
        for claim_id in sample:
            claim = claim_by_id(claim_id)
            mod_report = verify_claim(claim, exact=False)
            exact_report = verify_claim(claim, exact=True)
            assert mod_report.status == exact_report.status == "pass", claim_id

    def test_rings_agree_on_catalogue(self):
        # every claim cheap enough for the exact ring: same status and witness
        chosen = [c for c in builtin_catalogue() if c.max_index() <= 2500]
        outcomes = [
            [(r.claim_id, r.status, r.counterexample)
             for r in run_catalogue(chosen, exact=exact)]
            for exact in (False, True)
        ]
        assert len(outcomes[0]) == len(chosen)
        assert outcomes[0] == outcomes[1]

    def test_rings_agree_on_full_catalogue(self):
        # all 74 claims; the deepest exact build is (2,9) to q^59125
        outcomes = [
            [(r.claim_id, r.status, r.counterexample)
             for r in run_catalogue(exact=exact)]
            for exact in (False, True)
        ]
        assert len(outcomes[0]) == len(builtin_catalogue()) == 74
        assert outcomes[0] == outcomes[1]


class TestBuildSeries:
    CLAIMS = [
        VanishingClaim("m3", SPEC29, 18, 5, 3, 20),
        VanishingClaim("m8", SPEC29, 6, 5, 8, 30),
        MultiplicativeClaim("m4", SPEC29, (12, 7), (6, 1), 1, 4, 10),
        VanishingClaim("other", SPEC52, 4, 3, 4, 25),
    ]

    def test_one_series_per_spec_and_prime(self):
        series = build_series(self.CLAIMS)
        assert {key: (gf.ring, gf.order) for key, gf in series.items()} == {
            (SPEC29, (3,)): (Ring(3), 18 * 20 + 5),
            (SPEC29, (2,)): (Ring(8), 6 * 30 + 5),
            (SPEC52, (2,)): (Ring(4), 4 * 25 + 3),
        }

    def test_prime_power_group_reaches_its_deepest_claim(self):
        # the mod-4 claim reads deeper than the mod-8 one: one Z/8 series
        deep4 = VanishingClaim("d4", SPEC29, 6, 3, 4, 50)
        series = build_series(self.CLAIMS + [deep4])
        assert series[(SPEC29, (2,))].ring == Ring(8)
        assert series[(SPEC29, (2,))].order == 6 * 50 + 3
        assert series[(SPEC29, (3,))].order == 18 * 20 + 5

    def test_composite_modulus_gets_its_own_series(self):
        m6 = VanishingClaim("m6", SPEC29, 6, 5, 6, 40)
        series = build_series(self.CLAIMS + [m6])
        assert series_key(m6) == (SPEC29, (2, 3))
        gf = series[(SPEC29, (2, 3))]
        assert (gf.ring, gf.order) == (Ring(6), 6 * 40 + 5)
        assert series[(SPEC29, (2,))].ring == Ring(8)
        assert series[(SPEC29, (3,))].ring == Ring(3)

    def test_exact_plan_builds_in_zz(self):
        series = build_series(self.CLAIMS, exact=True)
        assert {key: (gf.ring, gf.order) for key, gf in series.items()} == {
            (SPEC29, ()): (ZZ, 365), (SPEC52, ()): (ZZ, 103)}
        assert all(series_key(c, exact=True) == (c.spec, ()) for c in self.CLAIMS)

    def test_residues_match_exact_series(self):
        for (spec, _), gf in build_series(self.CLAIMS).items():
            exact = biregular_gf(spec, gf.order, ZZ)
            m = gf.ring.modulus
            assert gf.coeffs == tuple(c % m for c in exact.coeffs)

    def test_verifier_reads_its_own_group(self):
        # a claim verified alone and in the full plan reads the same residues
        for claim in self.CLAIMS:
            alone = verify_claim(claim)
            planned = run_catalogue(self.CLAIMS, filter_substring=claim.id)[0]
            assert (alone.status, alone.counterexample) == (
                planned.status, planned.counterexample)


class TestSearch:
    def test_rediscovers_2_9_congruences(self):
        hits = search_congruences(SPEC29, 6, [4, 8], 60)
        as_tuples = {(h.a, h.b, h.modulus): h.known for h in hits}
        assert as_tuples[(6, 3, 4)] is True
        assert as_tuples[(6, 5, 8)] is True

    def test_rediscovers_5_2_congruence(self):
        hits = search_congruences(SPEC52, 4, [4], 60)
        assert any((h.a, h.b, h.modulus) == (4, 3, 4) for h in hits)

    def test_superset_of_catalogue_box(self):
        hits = {(h.a, h.b, h.modulus) for h in search_congruences(SPEC29, 6, [4, 8], 60)}
        catalogued = {
            (c.a, c.b, c.modulus)
            for c in builtin_catalogue()
            if isinstance(c, VanishingClaim) and c.spec == SPEC29
            and c.a <= 6 and c.modulus in (4, 8) and c.n_min == 0
        }
        assert catalogued <= hits

    def test_trivial_modulus_rejected(self):
        with pytest.raises(ValueError):
            search_congruences(SPEC29, 4, [1], 30)

    def test_matches_direct_exact_scan(self):
        a_max, n_max, moduli = 9, 25, (3, 8)
        gf = biregular_gf(SPEC29, a_max * (n_max + 1), ZZ)
        expected = [
            (a, b, m)
            for a in range(1, a_max + 1)
            for b in range(a)
            for m in moduli
            if all(gf[a * n + b] % m == 0 for n in range(n_max + 1))
        ]
        hits = search_congruences(SPEC29, a_max, moduli, n_max)
        assert expected and [(h.a, h.b, h.modulus) for h in hits] == expected

    def test_empty_moduli_rejected(self):
        with pytest.raises(ValueError):
            search_congruences(SPEC29, 4, [], 30)

    def test_build_order_capped_at_claim_index_limit(self):
        # a_max * (n_max + 1) is the build order; one past the limit is refused
        with pytest.raises(ValueError, match="beyond the supported limit"):
            search_congruences(SPEC29, 1, [4], CLAIM_INDEX_LIMIT)
        with pytest.raises(ValueError, match="beyond the supported limit"):
            search_congruences(SPEC29, 5, [4, 8], 100_000)
        # at the limit it runs: B(0) = 1 is odd, so 1n+0 is no hit mod 2
        assert search_congruences(SPEC29, 1, [2], CLAIM_INDEX_LIMIT - 1) == []


class TestReports:
    def test_json_schema_shape(self):
        reports = run_catalogue(filter_substring="prop3.1")
        doc = json.loads(reports_to_json(reports))
        assert doc["schema_version"] == 1
        assert "max_order" in doc["engine"]
        entry = doc["claims"][0]
        for key in ("id", "paper_ref", "kind", "params", "status", "range", "millis"):
            assert key in entry

    def test_counterexample_serialized_on_failure(self):
        reports = run_catalogue(filter_substring="eq4.7.t3")
        doc = json.loads(reports_to_json(reports))
        assert doc["claims"][0]["status"] == "fail"
        assert doc["claims"][0]["counterexample"][0] == 2

    def test_claim_envelope_guard(self):
        with pytest.raises(ValueError):
            VanishingClaim("x", SPEC29, 10**6, 0, 4, 10**3)
