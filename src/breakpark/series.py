"""Truncated power series with exact coefficients.

A coefficient is an `int`, or a `Fraction` where a division requires
one (`reciprocal`, `log`), so integer series stay in integer arithmetic
through `*` and `pow_int` with a nonnegative exponent.  No float is
ever built.

`fractions` is imported only by the code that divides (`reciprocal`,
`log`, and `_exact` on a non-int coefficient), so integer series, the
Euler-product DT route among them, never load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Union

from .errors import InternalInvariantError, PreconditionError, as_ints

if TYPE_CHECKING:
    from fractions import Fraction

Coeff = Union[int, "Fraction"]


def _exact(x) -> Coeff:
    if isinstance(x, int):
        return int(x)
    from fractions import Fraction

    return Fraction(x)


class ExactSeries:
    """Power series in t truncated at a fixed order; each coefficient is
    an `int`, or a `Fraction` where a division requires one.

    order T means coefficients of t^0 .. t^T are tracked.
    """

    def __init__(self, coeffs: Sequence, order: int):
        (order,) = as_ints((order,), "series order")
        if order < 0:
            raise PreconditionError("order must be nonnegative")
        c = [_exact(x) for x in coeffs[: order + 1]]
        c += [0] * (order + 1 - len(c))
        self.coeffs = c
        self.order = order

    def __getitem__(self, k: int) -> Coeff:
        return self.coeffs[k]

    def __eq__(self, other):
        return (
            isinstance(other, ExactSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"ExactSeries({self.coeffs}, order={self.order})"

    def __mul__(self, other):
        if other.order != self.order:
            raise PreconditionError("series orders differ")
        out = [0] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return ExactSeries(out, self.order)

    def reciprocal(self) -> "ExactSeries":
        """1/self; requires a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise PreconditionError("reciprocal needs nonzero constant term")
        from fractions import Fraction

        inv = [Fraction(0)] * (self.order + 1)
        inv[0] = Fraction(1, self.coeffs[0])
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += self.coeffs[j] * inv[k - j]
            inv[k] = Fraction(-acc, self.coeffs[0])
        return ExactSeries(inv, self.order)

    def pow_int(self, e: int) -> "ExactSeries":
        """self**e for any integer e (negative via reciprocal)."""
        base = self if e >= 0 else self.reciprocal()
        e = abs(e)
        result = ExactSeries([1], self.order)
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def log(self) -> "ExactSeries":
        """Formal logarithm; requires constant term 1.

        Uses the recurrence from (log F)' = F'/F, all exact rationals.
        """
        if self.coeffs[0] != 1:
            raise PreconditionError("log needs constant term 1")
        from fractions import Fraction

        # L' * F = F'  =>  k*F_k = sum_{j=1..k} j*L_j*F_{k-j}
        l = [Fraction(0)] * (self.order + 1)
        for k in range(1, self.order + 1):
            acc = Fraction(k) * self.coeffs[k]
            for j in range(1, k):
                acc -= Fraction(j) * l[j] * self.coeffs[k - j]
            l[k] = Fraction(acc, k)
        return ExactSeries(l, self.order)


def one_minus_power(k: int, order: int, e: int = 1) -> ExactSeries:
    """The series (1 - t^k)^e truncated at `order`, for any integer e.

    The coefficient of t^(jk) is (-1)^j C(e, j), filled in from the
    binomial recurrence c_j = -c_(j-1) (e - j + 1) / j, whose division
    is exact for every integer e (also negative), so the series has
    `int` coefficients and costs one pass over the multiples of k.
    """
    k, order, e = as_ints((k, order, e), "one_minus_power arguments")
    if k < 1 or order < 0:
        raise PreconditionError("one_minus_power requires k >= 1, order >= 0")
    coeffs = [0] * (order + 1)
    c = coeffs[0] = 1
    for j in range(1, order // k + 1):
        c, r = divmod(-c * (e - j + 1), j)
        if r != 0:
            raise InternalInvariantError(
                f"binomial coefficient C({e},{j}) not integral"
            )
        coeffs[j * k] = c
    return ExactSeries(coeffs, order)
