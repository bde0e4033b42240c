"""Span tracing from outside the program, and the per-layer metrics.

The tracer wraps the attributes that qcong's own callers look up (module
globals such as ``claims.biregular_gf`` and the ``QSeries`` operator
methods), so every call through them records a span: name, start, end,
the enclosing span, and a few attributes of the call.  Spans stay in
memory until the run ends.  Nothing in ``src/`` is edited.  An attribute
that the program no longer has cannot be traced; ``Tracer.missing`` lists
it, and ``run.py`` then fails the traced run rather than report metrics
that would silently read 0.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Callable

#: spans under which a build counts as a claims build
CLAIM_RUNNERS = ("claims.run_catalogue", "claims.verify_claim")

#: output-length buckets of ``QSeries.__mul__``: (name, largest length)
MUL_BUCKETS = (("le1e3", 1_000), ("le1e4", 10_000), ("gt1e4", None))


#: every per-layer metric a traced run reports, with its unit
LAYER_METRICS: dict[str, str] = {
    **{
        f"series.mul.{ring}.{bucket}.{field}": unit
        for ring in ("mod", "exact")
        for bucket, _ in MUL_BUCKETS
        for field, unit in (("calls", "count"), ("self_s", "s"), ("out_coeffs", "count"))
    },
    "series.pow.calls": "count",
    "series.pow.self_s": "s",
    "series.invert.calls": "count",
    "series.invert.self_s": "s",
    "series.invert.out_coeffs": "count",
    "series.extract.self_s": "s",
    "series.add.self_s": "s",
    "series.congruent_upto.self_s": "s",
    "etaq.pochhammer.calls": "count",
    "etaq.pochhammer.hit_ratio": "ratio",
    "etaq.pochhammer.self_s": "s",
    "etaq.pochhammer_product.calls": "count",
    "etaq.pochhammer_product.self_s": "s",
    "etaq.biregular_gf.calls": "count",
    "etaq.biregular_gf.hit_ratio": "ratio",
    "etaq.biregular_gf.total_s": "s",
    "etaq.biregular_gf.coeffs_built": "count",
    "claims.series_builds": "count",
    "claims.build_s": "s",
    "claims.check_s": "s",
    "claims.build_useful_ratio": "ratio",
    "claims.search.scan_s": "s",
    "dissect.eval_expr.calls": "count",
    "dissect.eval_expr.monomials": "count",
    "dissect.eval_expr.self_s": "s",
    "derivations.verify_derivation.check_s": "s",
    "oracle.count_biregular.calls": "count",
    "oracle.count_biregular.self_s": "s",
}


def _mul_bucket(length: int) -> str:
    for name, limit in MUL_BUCKETS:
        if limit is None or length <= limit:
            return name
    raise AssertionError("unreachable")


def _ring_name(series) -> str:
    return "exact" if series.ring.modulus is None else "mod"


def _mul_attrs(args, kwargs, result):
    if isinstance(args[1], int):
        return None  # scalar multiple, not a convolution
    return [_ring_name(result), len(result.coeffs)]


def _length_attrs(args, kwargs, result):
    return [len(result.coeffs)]


def _build_attrs(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    return [str(spec), len(result.coeffs) - 1, result.ring.modulus]


def _monomial_attrs(args, kwargs, result):
    e = args[0] if args else kwargs["e"]
    return [len(e.monomials)]


class Tracer:
    """Records spans of wrapped calls; undoes every wrapping on ``restore``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, attrs, miss]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        #: the attributes that could not be wrapped, as "owner.attr"
        self.missing: list[str] = []

    def wrap(self, owner, attr: str, name: str,
             attrs: Callable | None = None, cached: bool = False) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        With ``cached`` the wrapped function is an ``lru_cache``; each span
        then notes whether the call missed the cache, from ``cache_info()``.
        """
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        where = f"{owner.__name__}.{attr}"
        if fn is None:
            self.missing.append(where)
            return
        info = getattr(fn, "cache_info", None) if cached else None
        if cached and info is None:
            self.missing.append(f"{where}.cache_info")
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = info().misses if info else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, True]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            if info:
                span[5] = info().misses != misses
            return result

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer boundaries of qcong named in BENCHMARK.json."""
        from qcong import claims, derivations, dissect, etaq, oracle, series

        qs = series.QSeries
        self.wrap(qs, "__mul__", "series.mul", _mul_attrs)
        self.wrap(qs, "__pow__", "series.pow")
        self.wrap(qs, "invert", "series.invert", _length_attrs)
        self.wrap(qs, "extract", "series.extract")
        self.wrap(qs, "__add__", "series.add")
        for mod in (series, dissect, derivations):
            self.wrap(mod, "congruent_upto", "series.congruent_upto")
        for mod in (etaq, dissect):
            self.wrap(mod, "pochhammer", "etaq.pochhammer", cached=True)
        self.wrap(etaq, "pochhammer_product", "etaq.pochhammer_product")
        for mod in (etaq, claims, derivations, oracle):
            self.wrap(mod, "biregular_gf", "etaq.biregular_gf", _build_attrs, cached=True)
        for mod in (dissect, claims, derivations):
            self.wrap(mod, "eval_expr", "dissect.eval_expr", _monomial_attrs)
        self.wrap(claims, "verify_claim", "claims.verify_claim")
        self.wrap(claims, "run_catalogue", "claims.run_catalogue")
        self.wrap(claims, "search_congruences", "claims.search_congruences")
        self.wrap(derivations, "verify_derivation", "derivations.verify_derivation")
        self.wrap(dissect, "verify_identity", "dissect.verify_identity")
        self.wrap(dissect, "verify_lemma_2_9", "dissect.verify_lemma_2_9")
        self.wrap(oracle, "count_biregular", "oracle.count_biregular")
        self.wrap(oracle, "compare_series_vs_oracle", "oracle.compare_series_vs_oracle")

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times, from spans as ``Tracer`` records them.

    A span's self time is its duration minus the durations of the spans
    directly under it; spans of one thread never overlap their siblings.
    A build is a ``biregular_gf`` span with no build above it; a claims
    build is one with ``claims.run_catalogue`` or ``claims.verify_claim``
    anywhere above it.  Spans are recorded in start order, so a parent
    always comes before its children.
    """
    child_s = [0.0] * len(spans)
    build_under = [0.0] * len(spans)  # time of the builds anywhere under a span
    in_build = [False] * len(spans)  # the span is a build or runs inside one
    outermost = [False] * len(spans)  # the span is a build with no build above
    in_claims = [False] * len(spans)  # the span runs inside the claim runner
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        above_build = parent >= 0 and in_build[parent]
        in_build[i] = above_build or name == "etaq.biregular_gf"
        outermost[i] = in_build[i] and not above_build
        in_claims[i] = name in CLAIM_RUNNERS or (parent >= 0 and in_claims[parent])
        if parent >= 0:
            child_s[parent] += end - start
        if outermost[i]:
            up = parent
            while up >= 0:
                build_under[up] += end - start
                up = spans[up][3]

    m = dict.fromkeys(LAYER_METRICS, 0)
    hits = {"etaq.pochhammer": 0, "etaq.biregular_gf": 0}
    needed: dict[tuple, int] = {}  # deepest order per (spec, modulus) of claim builds
    built = 0
    for i, (name, start, end, parent, attrs, miss) in enumerate(spans):
        dur = end - start
        self_s = dur - child_s[i]
        if name == "series.mul":
            if attrs is not None:
                ring, length = attrs
                key = f"series.mul.{ring}.{_mul_bucket(length)}"
                m[f"{key}.calls"] += 1
                m[f"{key}.self_s"] += self_s
                m[f"{key}.out_coeffs"] += length
        elif name == "series.invert":
            m["series.invert.calls"] += 1
            m["series.invert.self_s"] += self_s
            m["series.invert.out_coeffs"] += attrs[0]
        elif name in ("series.pow", "etaq.pochhammer_product", "etaq.pochhammer",
                      "oracle.count_biregular"):
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += self_s
            if name == "etaq.pochhammer" and not miss:
                hits[name] += 1
        elif name in ("series.extract", "series.add", "series.congruent_upto"):
            m[f"{name}.self_s"] += self_s
        elif name == "etaq.biregular_gf":
            spec, order, modulus = attrs
            m["etaq.biregular_gf.calls"] += 1
            m["etaq.biregular_gf.total_s"] += dur
            if miss:
                m["etaq.biregular_gf.coeffs_built"] += order + 1
            else:
                hits[name] += 1
            if in_claims[i] and outermost[i]:
                m["claims.build_s"] += dur
                if miss:
                    m["claims.series_builds"] += 1
                    built += order
                    key = (spec, modulus)
                    needed[key] = max(needed.get(key, 0), order)
        elif name == "claims.verify_claim":
            m["claims.check_s"] += dur - build_under[i]
        elif name == "claims.search_congruences":
            m["claims.search.scan_s"] += dur - build_under[i]
        elif name == "derivations.verify_derivation":
            m["derivations.verify_derivation.check_s"] += dur - build_under[i]
        elif name == "dissect.eval_expr":
            m["dissect.eval_expr.calls"] += 1
            m["dissect.eval_expr.monomials"] += attrs[0]
            m["dissect.eval_expr.self_s"] += self_s

    for name, count in hits.items():
        calls = m[f"{name}.calls"]
        m[f"{name}.hit_ratio"] = count / calls if calls else 0.0
    m["claims.build_useful_ratio"] = sum(needed.values()) / built if built else 0.0
    return m
