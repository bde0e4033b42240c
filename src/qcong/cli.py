"""Command-line interface.

Exit codes: 0 when everything requested passed, 1 when any verification
failed, 2 on usage or precondition errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .arith import is_holomorphic, modularity_check
from .claims import reports_to_json, run_catalogue, search_congruences, verify_claim
from .derivations import REFUTED, all_derivations, verify_derivation
from .dissect import identity_ids, load_catalogue, verify_identity, verify_lemma_2_9
from .etaq import (
    BiregularSpec,
    EtaQuotient,
    biregular_gf,
    materialize_eta,
    overpartition_gf,
    pochhammer,
    regular_overpartition_gf,
)
from .hecke import (
    ETA4_20_CONTEXT,
    ETA6_4_CONTEXT,
    eigen_check,
    eta4_20,
    eta6_4,
    vanishing_class_check,
)
from .oracle import compare_series_vs_oracle
from .series import ZZ, mod_ring

USAGE_ERROR = 2


def _parse_spec(text: str) -> BiregularSpec:
    try:
        l1, l2 = (int(x) for x in text.split(","))
        return BiregularSpec(l1, l2)
    except Exception as exc:
        raise SystemExit(f"bad --spec {text!r}: {exc}")


def _parse_eta(text: str) -> EtaQuotient:
    # "6:4,12:-2" -> {6: 4, 12: -2}
    try:
        terms = {}
        for piece in text.split(","):
            delta, r = piece.split(":")
            terms[int(delta)] = int(r)
        return EtaQuotient.of(terms)
    except Exception as exc:
        raise SystemExit(f"bad --eta {text!r}: {exc}")


def _ring(args) -> object:
    if getattr(args, "ring", "exact") == "mod":
        if not getattr(args, "mod", None):
            raise SystemExit("--ring mod requires --mod M")
        return mod_ring(args.mod)
    return ZZ


def cmd_expand(args) -> int:
    ring = _ring(args)
    n = args.order
    if args.gf == "overpartition":
        series = overpartition_gf(n, ring)
    elif args.gf == "regular":
        if not args.ell:
            raise SystemExit("expand --gf regular requires --ell")
        series = regular_overpartition_gf(args.ell, n, ring)
    elif args.gf == "biregular":
        if not args.spec:
            raise SystemExit("expand --gf biregular requires --spec L1,L2")
        series = biregular_gf(_parse_spec(args.spec), n, ring)
    elif args.gf == "pochhammer":
        series = pochhammer(args.m, n, ring)
    elif args.gf == "eta":
        if not args.eta:
            raise SystemExit("expand --gf eta requires --eta D:R,...")
        series, exponent = materialize_eta(_parse_eta(args.eta), n, ring)
        print(f"# leading q-power {exponent}")
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown generating function {args.gf!r}")
    print(" ".join(str(c) for c in series.coeffs))
    return 0


def cmd_verify_lemma(args) -> int:
    if args.id == "lem2.9":
        if args.p is None or args.k is None or args.m is None:
            raise SystemExit("verify-lemma lem2.9 requires --p --k --m")
        res = verify_lemma_2_9(args.p, args.k, args.m, args.order)
        label = f"lem2.9(p={args.p},k={args.k},m={args.m})"
    else:
        if args.id not in load_catalogue():
            raise SystemExit(
                f"unknown identity {args.id!r}; known: {', '.join(identity_ids())}"
            )
        res = verify_identity(args.id, args.order)
        label = args.id
    print(f"{label}: {'PASS' if res else 'FAIL'} ({res.detail})")
    return 0 if res else 1


def cmd_verify_claim(args) -> int:
    from .catalogue import claim_by_id

    try:
        claim = claim_by_id(args.id)
    except KeyError as exc:
        raise SystemExit(str(exc))
    if args.nmax is not None:
        from dataclasses import replace

        claim = replace(claim, n_max=args.nmax)
    report = verify_claim(claim, exact=args.ring == "exact")
    print(report.line())
    return 0 if report.ok else 1


def cmd_verify_all(args) -> int:
    reports = run_catalogue(
        filter_substring=args.filter,
        n_max_override=args.nmax,
        exact=args.ring == "exact",
    )
    for report in reports:
        print(report.line())
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(reports_to_json(reports))
        print(f"# wrote {args.json}")
    failed = sum(not r.ok for r in reports)
    passed = sum(r.status == "pass" for r in reports)
    skipped = sum(r.status == "skipped-hypothesis-false" for r in reports)
    print(f"# {passed} passed, {failed} failed, {skipped} skipped "
          f"of {len(reports)} claims")
    return 1 if failed else 0


def cmd_verify_derivations(args) -> int:
    records = all_derivations()
    surprises = 0
    for record in records:
        res = verify_derivation(record, n_terms=args.terms)
        if record.id in REFUTED:
            status = "UNEXPECTED PASS" if res else "REFUTED (documented)"
        else:
            status = "ok" if res else f"FAIL at n={res.index}"
        surprises += bool(res) == (record.id in REFUTED)
        mod = f" mod {record.modulus}" if record.modulus else ""
        print(f"{record.id:16s} {record.spec!s:8s} "
              f"{record.step}n+{record.residue}{mod}: {status}")
    print(f"# {len(records)} records, {surprises} undocumented passes or failures")
    return 1 if surprises else 0


def cmd_oracle_compare(args) -> int:
    spec = _parse_spec(args.spec)
    report = compare_series_vs_oracle(spec, args.nmax)
    if report.ok:
        print(f"{spec}: series matches brute-force counts for n <= {args.nmax}")
        return 0
    n, got, expected = report.mismatches[0]
    print(f"{spec}: MISMATCH at n={n}: series {got}, oracle {expected}")
    return 1


def cmd_hecke_check(args) -> int:
    p = args.prime
    n_max = args.nmax
    if args.form == "eta6_4":
        series, ctx = eta6_4(p * n_max), ETA6_4_CONTEXT
        support = (6, 1)
    else:
        series, ctx = eta4_20(p * n_max), ETA4_20_CONTEXT
        support = (4, 1)
    try:
        res = eigen_check(series, p, ctx, n_max)
    except ValueError as exc:
        raise SystemExit(str(exc))
    vanish = vanishing_class_check(
        series if series.order >= 300 else
        (eta6_4(300) if args.form == "eta6_4" else eta4_20(300)),
        support[0], support[1], 300,
    )
    print(f"{args.form} | T_{p}: "
          f"{'eigenform, eigenvalue ' + str(res.eigenvalue) if res else 'FAIL: ' + res.detail}")
    print(f"{args.form} support check mod {support[0]}: "
          f"{'PASS' if vanish else 'FAIL: ' + vanish.detail}")
    return 0 if (res and vanish) else 1


def cmd_modform_check(args) -> int:
    eq = _parse_eta(args.eta)
    try:
        report = modularity_check(eq, args.level)
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(f"level {args.level}: weight {report.weight}"
          f"{' (integral)' if report.weight_integral else ' (half-integral)'}")
    print(f"sum(delta r) divisible by 24: {report.delta_condition}")
    print(f"sum(N/delta r) divisible by 24: {report.codelta_condition}")
    if report.transforms:
        ok, offending = is_holomorphic(eq, args.level)
        print("cusp orders (one representative per divisor):")
        for cusp, order in report.cusp_orders:
            print(f"  {cusp}: {order}")
        print(f"holomorphic at all cusps: {ok}")
        return 0 if ok else 1
    print("transformation-law conditions fail")
    return 1


def cmd_search(args) -> int:
    specs = [_parse_spec(text) for text in args.spec]
    moduli = [int(m) for m in args.mods.split(",")]
    found = 0
    for spec in specs:
        hits = search_congruences(spec, args.amax, moduli, args.nmax,
                                  min_evidence=args.min_evidence)
        for hit in hits:
            tag = "known" if hit.known else "candidate"
            print(f"B{spec}({hit.a}n+{hit.b}) == 0 (mod {hit.modulus})"
                  f"  [n <= {hit.n_checked - 1}, {tag}]")
        found += len(hits)
    print(f"# {found} congruence patterns found")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcong",
        description="Exact q-series engine and congruence verification "
                    "harness for biregular overpartitions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print coefficients of a generating function")
    p.add_argument("--gf", choices=["overpartition", "regular", "biregular",
                                    "pochhammer", "eta"], required=True)
    p.add_argument("--spec", help="L1,L2 for --gf biregular")
    p.add_argument("--ell", type=int, help="regularity modulus for --gf regular")
    p.add_argument("--m", type=int, default=1, help="index for --gf pochhammer")
    p.add_argument("--eta", help="eta-quotient spec D:R,D:R,... for --gf eta")
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--ring", choices=["exact", "mod"], default="exact")
    p.add_argument("--mod", type=int, help="modulus for --ring mod")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify-lemma", help="verify a dissection identity "
                                            "or the prime-power product lemma")
    p.add_argument("id", help="identity id (eq0..eq10f) or 'lem2.9'")
    p.add_argument("--order", type=int, default=200)
    p.add_argument("--p", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser("verify-claim", help="verify one congruence claim by id")
    p.add_argument("id")
    p.add_argument("--nmax", type=int)
    p.add_argument("--ring", choices=["exact", "mod"], default="mod")
    p.set_defaults(func=cmd_verify_claim)

    p = sub.add_parser("verify-all", help="run the whole claim catalogue")
    p.add_argument("--filter", help="substring filter on claim id or spec")
    p.add_argument("--nmax", type=int, help="cap every claim range at this n")
    p.add_argument("--json", help="write the JSON report here")
    p.add_argument("--ring", choices=["exact", "mod"], default="mod")
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("verify-derivations", help="replay every derivation-chain "
                                                  "record; only undocumented "
                                                  "outcomes fail")
    p.add_argument("--terms", type=int, default=45,
                   help="coefficients checked per record")
    p.set_defaults(func=cmd_verify_derivations)

    p = sub.add_parser("oracle-compare", help="series vs brute-force counts")
    p.add_argument("--spec", required=True, help="L1,L2")
    p.add_argument("--nmax", type=int, default=40)
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("hecke-check", help="eigenform and support checks")
    p.add_argument("--form", choices=["eta6_4", "eta4_20"], required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--nmax", type=int, default=40)
    p.set_defaults(func=cmd_hecke_check)

    p = sub.add_parser("modform-check", help="eta-quotient transformation "
                                             "and cusp-order report")
    p.add_argument("--eta", required=True, help="D:R,D:R,...")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_modform_check)

    p = sub.add_parser("search", help="search a box for vanishing congruences")
    p.add_argument("--spec", required=True, action="append",
                   help="L1,L2; repeat to search several pairs")
    p.add_argument("--amax", type=int, required=True)
    p.add_argument("--mods", required=True, help="comma-separated moduli")
    p.add_argument("--nmax", type=int, default=60)
    p.add_argument("--min-evidence", type=int, default=10)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    # argparse exits 2 on a usage error itself
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return USAGE_ERROR
        return exc.code if exc.code is not None else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
