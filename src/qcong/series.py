"""Exact truncated formal power series over ZZ and ZZ/mZZ.

A QSeries holds coefficients for q^0 .. q^order, tagged with its
coefficient ring.  Every operation returns the largest order it can
certify; callers must check ``order`` before reading high coefficients.
Values are immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

# len(a) * len(b) below which naive convolution beats integer packing.
_SCHOOLBOOK_CUTOFF = 4096


class RingMismatchError(ValueError):
    """Two series with different coefficient rings met in one operation."""


@dataclass(frozen=True)
class Ring:
    """Coefficient ring tag: exact integers (modulus None) or ZZ/mZZ."""

    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.modulus is not None and self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    @property
    def exact(self) -> bool:
        return self.modulus is None

    def reduce(self, x: int) -> int:
        return x if self.modulus is None else x % self.modulus

    def unit_inverse(self, x: int) -> int:
        if self.modulus is None:
            if x in (1, -1):
                return x
            raise ValueError(f"{x} is not a unit in ZZ")
        try:
            return pow(x, -1, self.modulus)
        except ValueError:
            raise ValueError(f"{x} is not a unit mod {self.modulus}") from None

    def __repr__(self) -> str:
        return "ZZ" if self.exact else f"ZZ/{self.modulus}"


ZZ = Ring()


def mod_ring(m: int) -> Ring:
    return Ring(m)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a coefficientwise check: ok, or first failing index."""

    ok: bool
    index: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# raw coefficient-list arithmetic


def _conv_schoolbook(a: Sequence[int], b: Sequence[int], n_out: int) -> list[int]:
    out = [0] * (n_out + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > n_out:
            continue
        lim = min(len(b), n_out + 1 - i)
        for j in range(lim):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _pack(coeffs: Sequence[int], width: int) -> int:
    # sum(c_i * 2^(8*width*i)) as one signed integer
    pos = bytearray(len(coeffs) * width)
    neg = bytearray(len(coeffs) * width)
    at = 0
    for c in coeffs:
        if c > 0:
            pos[at : at + width] = c.to_bytes(width, "little")
        elif c:
            neg[at : at + width] = (-c).to_bytes(width, "little")
        at += width
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(value: int, width: int, count: int) -> list[int]:
    # Slot values must lie in (-half, half).  Adding half to each kept slot
    # makes it non-negative, so no slot borrows from the one above it;
    # borrows only travel upward, so the mask drops the rest cleanly.
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * count, "little")
    size = width * count
    raw = ((value + offset) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    return [
        int.from_bytes(raw[at : at + width], "little") - half
        for at in range(0, size, width)
    ]


def _conv_kronecker(a: Sequence[int], b: Sequence[int], n_out: int) -> list[int]:
    # Exact integer convolution via Kronecker substitution: pack each
    # operand into one big integer with fixed-width slots and let CPython's
    # subquadratic big-int multiply do the convolution.  Every output
    # coefficient is bounded by max|a| * max|b| * min(len), and the width
    # keeps one spare bit so that bound fits a signed slot.
    max_a = max(abs(x) for x in a)
    max_b = max(abs(x) for x in b)
    if max_a == 0 or max_b == 0:
        return [0] * (n_out + 1)
    bound = max_a * max_b * min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8
    return _unpack(_pack(a, width) * _pack(b, width), width, n_out + 1)


def _mul_coeffs(a: Sequence[int], b: Sequence[int], n_out: int, ring: Ring) -> list[int]:
    if len(a) * len(b) <= _SCHOOLBOOK_CUTOFF:
        out = _conv_schoolbook(a, b, n_out)
    else:
        out = _conv_kronecker(a, b, n_out)
    if ring.modulus is not None:
        m = ring.modulus
        out = [x % m for x in out]
    return out


def _invert_coeffs(a: Sequence[int], order: int, ring: Ring) -> list[int]:
    # Newton iteration h <- h*(2 - a*h); works over any ring where a[0]
    # is a unit, doubling the certified order each step.
    h = [ring.reduce(ring.unit_inverse(a[0]))]
    k = 1
    while k <= order:
        k2 = min(2 * k, order + 1)
        ah = _mul_coeffs(a[:k2], h, k2 - 1, ring)
        t = [ring.reduce(-x) for x in ah]
        t[0] = ring.reduce(2 - ah[0])
        h = _mul_coeffs(h, t, k2 - 1, ring)
        k = k2
    return h


# ---------------------------------------------------------------------------
# QSeries


@dataclass(frozen=True)
class QSeries:
    """Truncated power series: coefficients for q^0 .. q^order."""

    ring: Ring
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("coefficient list must be non-empty")

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(coeffs: Iterable[int], ring: Ring = ZZ) -> QSeries:
        cs = tuple(ring.reduce(int(c)) for c in coeffs)
        return QSeries(ring, cs)

    @staticmethod
    def zero(order: int, ring: Ring = ZZ) -> QSeries:
        return QSeries(ring, (0,) * (order + 1))

    @staticmethod
    def one(order: int, ring: Ring = ZZ) -> QSeries:
        return QSeries(ring, (ring.reduce(1),) + (0,) * order)

    # -- basic views -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(
                f"coefficient {n} not certified (order {self.order})"
            )
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def truncate(self, order: int) -> QSeries:
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return QSeries(self.ring, self.coeffs[: order + 1])

    def __repr__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            q = "" if n == 0 else ("q" if n == 1 else f"q^{n}")
            if not q:
                terms.append(f"{c}")
            elif c == 1:
                terms.append(q)
            elif c == -1:
                terms.append(f"-{q}")
            else:
                terms.append(f"{c}*{q}")
            if len(terms) >= 6:
                terms.append("...")
                break
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"QSeries({body} + O(q^{self.order + 1}), {self.ring!r})"

    def _require_same_ring(self, other: QSeries) -> None:
        if self.ring != other.ring:
            raise RingMismatchError(
                f"ring mismatch: {self.ring!r} vs {other.ring!r}"
            )

    # -- ring ops ----------------------------------------------------------

    def __add__(self, other: QSeries) -> QSeries:
        self._require_same_ring(other)
        n = min(self.order, other.order)
        red = self.ring.reduce
        return QSeries(
            self.ring,
            tuple(red(x + y) for x, y in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])),
        )

    def __sub__(self, other: QSeries) -> QSeries:
        self._require_same_ring(other)
        n = min(self.order, other.order)
        red = self.ring.reduce
        return QSeries(
            self.ring,
            tuple(red(x - y) for x, y in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])),
        )

    def scale(self, c: int) -> QSeries:
        red = self.ring.reduce
        return QSeries(self.ring, tuple(red(c * x) for x in self.coeffs))

    def __mul__(self, other: QSeries | int) -> QSeries:
        if isinstance(other, int):
            return self.scale(other)
        self._require_same_ring(other)
        n = min(self.order, other.order)
        out = _mul_coeffs(self.coeffs, other.coeffs, n, self.ring)
        return QSeries(self.ring, tuple(out))

    def __rmul__(self, other: int) -> QSeries:
        return self.scale(other)

    def __pow__(self, e: int) -> QSeries:
        if e < 0:
            return self.invert() ** (-e)
        result = QSeries.one(self.order, self.ring)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def invert(self) -> QSeries:
        """Multiplicative inverse up to order; constant term must be a unit."""
        out = _invert_coeffs(self.coeffs, self.order, self.ring)
        return QSeries(self.ring, tuple(out))

    # -- reindexing --------------------------------------------------------

    def dilate(self, k: int, cap: int | None = None) -> QSeries:
        """Substitute q -> q^k; result order = order*k, capped if ``cap``."""
        if k < 1:
            raise ValueError(f"dilation factor must be >= 1, got {k}")
        if k == 1:
            return self
        n_out = self.order * k
        if cap is not None:
            n_out = min(n_out, max(cap, self.order))
        out = [0] * (n_out + 1)
        for i, c in enumerate(self.coeffs):
            j = i * k
            if j > n_out:
                break
            out[j] = c
        return QSeries(self.ring, tuple(out))

    def shift(self, s: int) -> QSeries:
        """Multiply by q^s (s >= 0) or divide by q^-s (requires zeros below)."""
        if s == 0:
            return self
        if s > 0:
            return QSeries(self.ring, (0,) * s + self.coeffs)
        drop = -s
        if drop > self.order:
            raise ValueError("shift drops the entire certified range")
        for i in range(drop):
            if self.coeffs[i] != 0:
                raise ValueError(
                    f"cannot shift by {s}: nonzero coefficient at q^{i}"
                )
        return QSeries(self.ring, self.coeffs[drop:])

    def extract(self, k: int, r: int) -> QSeries:
        """Arithmetic-progression component: result(n) = self(k*n + r)."""
        if k < 1:
            raise ValueError(f"extraction step must be >= 1, got {k}")
        if not 0 <= r < k:
            raise ValueError(f"residue must lie in [0, {k}), got {r}")
        if r > self.order:
            raise ValueError(f"residue {r} exceeds certified order {self.order}")
        return QSeries(self.ring, self.coeffs[r :: k])

    def on_class(self, k: int, r: int) -> QSeries:
        """The part on n == r (mod k): every other coefficient set to 0."""
        if not 0 <= r < k:
            raise ValueError(f"residue must lie in [0, {k}), got {r}")
        out = [0] * len(self.coeffs)
        out[r::k] = self.coeffs[r::k]
        return QSeries(self.ring, tuple(out))

    def reduce_mod(self, m: int) -> QSeries:
        """Image in ZZ/mZZ (from ZZ or from ZZ/m'ZZ with m | m')."""
        if self.ring.modulus is not None and self.ring.modulus % m != 0:
            raise RingMismatchError(
                f"cannot reduce {self.ring!r} mod {m}: {m} does not divide "
                f"{self.ring.modulus}"
            )
        ring = Ring(m)
        return QSeries(ring, tuple(c % m for c in self.coeffs))


def congruent_upto(
    a: QSeries, b: QSeries, m: int | None, n_max: int
) -> CheckResult:
    """Do a and b agree coefficientwise for all n <= n_max?

    With a modulus the comparison is mod m and tolerates differing rings as
    long as residues mod m are well defined (exact, or ZZ/m'ZZ with m | m').
    With ``m=None`` it is exact, and both series must share one ring.
    """
    if m is None:
        a._require_same_ring(b)
    else:
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        for s in (a, b):
            if s.ring.modulus is not None and s.ring.modulus % m != 0:
                raise RingMismatchError(
                    f"series in {s.ring!r} has no well-defined residues mod {m}"
                )
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if n_max > min(a.order, b.order):
        raise ValueError(
            f"n_max {n_max} exceeds certified orders "
            f"({a.order}, {b.order})"
        )
    how = "exactly" if m is None else f"mod {m}"
    for n in range(n_max + 1):
        ra, rb = a.coeffs[n], b.coeffs[n]
        if m is not None:
            ra, rb = ra % m, rb % m
        if ra != rb:
            return CheckResult(False, n, f"{ra} vs {rb} at n={n} ({how})")
    return CheckResult(True, None, f"agree {how} through n={n_max}")
