"""Brute-force overpartition counting, independent of the series engine.

Two paths: a one-pass table of weighted partition counts (each distinct
part size contributes a factor 2 for its overlinable first occurrence),
and a fully explicit enumeration that places overline marks one by one.
The explicit path exists to validate the 2^{distinct} shortcut, the
shortcut validates the generating functions.  The table adds plain
integers only: no eta-quotient, pentagonal number, Newton step or
convolution is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .etaq import BiregularSpec, biregular_gf
from .series import ZZ, QSeries, congruent_upto

EXPLICIT_ENUMERATION_CAP = 25


def _weighted_counts(n_max: int, allowed: Callable[[int], bool]) -> list[int]:
    """For each n <= n_max, the sum over partitions of n into allowed parts
    of 2^{number of distinct parts}."""
    counts = [1] + [0] * n_max
    for p in range(1, n_max + 1):
        if not allowed(p):
            continue
        # fold in p: j >= 1 copies of p, the first of which may carry an
        # overline, contribute 2 * (the count without p at n - j*p)
        for r in range(p):
            run = 0  # sum of the counts without p at n - p, n - 2p, ..., r
            for n in range(r, n_max + 1, p):
                without = counts[n]
                counts[n] = without + 2 * run
                run += without
    return counts


def count_biregular(spec: BiregularSpec, n: int) -> int:
    """Number of (l1,l2)-biregular overpartitions of n, counted exactly."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return _weighted_counts(n, spec.allows_part)[n]


def count_overpartitions(n: int) -> int:
    """Unrestricted overpartition count via the 2^{distinct} shortcut."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return _weighted_counts(n, lambda p: True)[n]


def _partitions(n: int, max_part: int, allowed: Callable[[int], bool]):
    """Yield partitions of n (non-increasing tuples) over allowed parts."""
    if n == 0:
        yield ()
        return
    for p in range(min(n, max_part), 0, -1):
        if not allowed(p):
            continue
        for rest in _partitions(n - p, p, allowed):
            yield (p,) + rest


def _explicit_count(n: int, allowed: Callable[[int], bool]) -> int:
    # Walk every concrete marked object: a partition plus a choice, for
    # each distinct part size, of whether its first copy is overlined.
    count = 0
    for partition in _partitions(n, n, allowed):
        distinct = sorted(set(partition))
        for mask in range(1 << len(distinct)):
            count += 1  # each mask is one distinct overpartition
    return count


def count_overpartitions_explicit(n: int, spec: BiregularSpec | None = None) -> int:
    """Overpartition count by explicit overline placement (no 2^k shortcut).

    Exponential; capped at n <= 25.  With ``spec`` given, parts divisible
    by either modulus are excluded.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > EXPLICIT_ENUMERATION_CAP:
        raise ValueError(
            f"explicit enumeration capped at n <= {EXPLICIT_ENUMERATION_CAP}, got {n}"
        )
    allowed = spec.allows_part if spec is not None else (lambda p: True)
    return _explicit_count(n, allowed)


@dataclass(frozen=True)
class OracleComparison:
    spec: BiregularSpec
    n_max: int
    mismatches: tuple[tuple[int, int, int], ...]  # (n, series value, oracle value)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def __bool__(self) -> bool:
        return self.ok


def compare_series_vs_oracle(spec: BiregularSpec, n_max: int = 40) -> OracleComparison:
    """Check generating-function coefficients against brute-force counts."""
    series = biregular_gf(spec, n_max, ZZ)
    counts = QSeries(ZZ, tuple(_weighted_counts(n_max, spec.allows_part)))
    res = congruent_upto(series, counts, None, n_max)  # stops at the first mismatch
    mismatches = () if res else ((res.index, series[res.index], counts[res.index]),)
    return OracleComparison(spec, n_max, mismatches)
