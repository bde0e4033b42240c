import random

import pytest

from qcong.dissect import (
    DissectionIdentity,
    Monomial,
    SeriesExpr,
    eval_expr,
    expr,
    identity_ids,
    load_catalogue,
    mono,
    parse_identity,
    verify_dissection_consistency,
    verify_identity,
    verify_lemma_2_9,
)
from qcong.etaq import pochhammer_product
from qcong.series import ZZ

EXPECTED_IDS = [
    "eq0", "eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "eq7", "eq8",
    "eq8.1", "eq8.2", "eq9a", "eq10", "eq10b", "eq10c", "eq10d",
    "eq10e", "eq10f",
]


class TestCatalogue:
    def test_all_ids_present(self):
        assert identity_ids() == EXPECTED_IDS

    @pytest.mark.parametrize("ident_id", EXPECTED_IDS)
    def test_identity_verifies(self, ident_id):
        res = verify_identity(ident_id, order=120)
        assert res, res.detail

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            verify_identity("eq99")

    def test_parse_roundtrip(self):
        line = ('{"id": "x", "kind": "congruence", "modulus": 4, '
                '"lhs": [[1, 0, [[1, 2]]]], "rhs": [[1, 0, [[2, 1]]]]}')
        ident = parse_identity(line)
        assert ident.modulus == 4 and ident.kind == "congruence"

    def test_congruence_needs_modulus(self):
        with pytest.raises(ValueError):
            DissectionIdentity("x", expr((1, 0, {1: 1})), expr((1, 0, {2: 1})),
                               kind="congruence")


class TestEvalExpr:
    def test_constant_monomial(self):
        assert eval_expr(expr((1, 0, {})), 3, ZZ).coeffs == (1, 0, 0, 0)

    def test_rhs_of_square_dissection_matches_direct(self):
        cat = load_catalogue()
        rhs = eval_expr(cat["eq0"].rhs, 30, ZZ)
        direct = pochhammer_product({1: 2}, 30, ZZ)
        assert rhs.coeffs == direct.coeffs

    def test_rhs_of_eq10e_matches_direct(self):
        cat = load_catalogue()
        rhs = eval_expr(cat["eq10e"].rhs, 45, ZZ)
        direct = pochhammer_product({1: -1, 2: -1}, 45, ZZ)
        assert rhs.coeffs == direct.coeffs

    def test_monomial_invariants(self):
        with pytest.raises(ValueError):
            mono(1, 0, {1: 0})  # zero exponent
        with pytest.raises(ValueError):
            mono(1, -1, {1: 1})  # negative shift
        with pytest.raises(ValueError):
            SeriesExpr(())  # empty expression


class TestSquaringRelations:
    def test_eq3_rhs_is_square_of_eq2_rhs(self):
        cat = load_catalogue()
        squared = eval_expr(cat["eq2"].rhs, 200, ZZ) ** 2
        direct = eval_expr(cat["eq3"].rhs, 200, ZZ)
        assert squared.coeffs == direct.coeffs

    def test_eq10c_rhs_is_square_of_eq10b_rhs(self):
        cat = load_catalogue()
        squared = eval_expr(cat["eq10b"].rhs, 200, ZZ) ** 2
        direct = eval_expr(cat["eq10c"].rhs, 200, ZZ)
        assert squared.coeffs == direct.coeffs

    def test_eq5_rhs_is_square_of_eq4_rhs(self):
        cat = load_catalogue()
        squared = eval_expr(cat["eq4"].rhs, 100, ZZ) ** 2
        direct = eval_expr(cat["eq5"].rhs, 100, ZZ)
        assert squared.coeffs == direct.coeffs


class TestLemma29:
    @pytest.mark.parametrize(
        "p,k,m", [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 1, 2), (5, 1, 1)]
    )
    def test_instances(self, p, k, m):
        assert verify_lemma_2_9(p, k, m, order=100)

    def test_prime_required(self):
        with pytest.raises(ValueError):
            verify_lemma_2_9(4, 1, 1, order=10)

    def test_f1_vs_f2_mod_2_fails_at_1(self):
        from qcong.etaq import pochhammer
        from qcong.series import congruent_upto

        res = congruent_upto(pochhammer(1, 50, ZZ), pochhammer(2, 50, ZZ), 2, 50)
        assert not res and res.index == 1


class TestDissectionConsistency:
    def test_eq11a_splits_into_eq12_eq12a(self):
        from qcong.derivations import _chain_2_9

        chain = {d.id: d for d in _chain_2_9()}
        res = verify_dissection_consistency(
            chain["eq11a"].rhs, 2,
            [chain["eq12"].rhs, chain["eq12a"].rhs], order=60,
        )
        assert res, res.detail

    def test_eq12b_splits_into_eq13_14_15(self):
        from qcong.derivations import _chain_2_9

        chain = {d.id: d for d in _chain_2_9()}
        res = verify_dissection_consistency(
            chain["eq12b"].rhs, 3,
            [chain["eq13"].rhs, chain["eq14"].rhs, chain["eq15"].rhs], order=45,
        )
        assert res, res.detail

    def test_eq31_splits_mod_3(self):
        from qcong.derivations import _chain_8_3

        chain = {d.id: d for d in _chain_8_3()}
        res = verify_dissection_consistency(
            chain["eq31"].rhs, 3,
            [chain["eq32"].rhs, chain["eq6.13"].rhs, chain["eq6.14"].rhs],
            order=45, modulus=3,
        )
        assert res, res.detail

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            verify_dissection_consistency(expr((1, 0, {})), 2, [None], 10)


def _mutate(ident: DissectionIdentity, rng: random.Random) -> DissectionIdentity:
    side_name = rng.choice(["lhs", "rhs"])
    side: SeriesExpr = getattr(ident, side_name)
    idx = rng.randrange(len(side.monomials))
    old = side.monomials[idx]
    bumped = Monomial(old.c + 1, old.s, old.factors)
    monomials = side.monomials[:idx] + (bumped,) + side.monomials[idx + 1 :]
    kwargs = {"lhs": ident.lhs, "rhs": ident.rhs}
    kwargs[side_name] = SeriesExpr(monomials)
    return DissectionIdentity(ident.id, kwargs["lhs"], kwargs["rhs"],
                              ident.kind, ident.modulus)


def test_corrupted_eq7_middle_term_fails_fast():
    # bump the 2q-summand's coefficient from 2 to 3
    cat = load_catalogue()
    eq7 = cat["eq7"]
    mid = eq7.rhs.monomials[1]
    assert mid.c == 2 and mid.s == 1
    corrupted = DissectionIdentity(
        "eq7", eq7.lhs,
        SeriesExpr((eq7.rhs.monomials[0], Monomial(3, 1, mid.factors),
                    eq7.rhs.monomials[2])),
    )
    res = verify_identity(corrupted, order=10)
    assert not res and res.index is not None and res.index <= 10


def test_mutation_sensitivity():
    # bumping any single monomial coefficient must break the identity fast
    rng = random.Random(2024)
    catalogue = list(load_catalogue().values())
    for _ in range(10):
        victim = _mutate(rng.choice(catalogue), rng)
        res = verify_identity(victim, order=20)
        assert not res and res.index is not None and res.index <= 20


def test_mono_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        mono(1, 0, {0: 1})


def test_monomial_factors_are_an_eta_quotient():
    from qcong.etaq import EtaQuotient

    m = mono(2, 1, {3: -1, 1: 2})
    assert m.factors == EtaQuotient.of({1: 2, 3: -1})
    assert eval_expr(SeriesExpr((m,)), 20, ZZ) == pochhammer_product(
        {1: 2, 3: -1}, 19, ZZ).scale(2).shift(1)
