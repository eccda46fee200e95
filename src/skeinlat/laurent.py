"""Exact Laurent polynomial arithmetic over the integers.

Everything downstream lives in Z[A, A^-1], so coefficients are plain Python
ints keyed by exponent.  No floats anywhere.  exact_div is the one exact
division: a quotient that must lie in Z[A, A^-1] is computed there, and a
remainder refutes it.
"""

from __future__ import annotations


class RefutationError(ArithmeticError):
    """A mandated cross-check failed: two routes to the same object disagree."""


class IntLaurent:
    """Sparse Laurent polynomial in one variable with integer coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, int] | int = 0):
        if isinstance(coeffs, int):
            coeffs = {0: coeffs} if coeffs else {}
        self.c: dict[int, int] = {e: v for e, v in coeffs.items() if v}

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "IntLaurent":
        return cls({exp: coeff})

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = IntLaurent(other)
        if not isinstance(other, IntLaurent):
            return NotImplemented
        return self.c == other.c

    def __hash__(self) -> int:
        return hash(frozenset(self.c.items()))

    def coeff(self, exp: int) -> int:
        return self.c.get(exp, 0)

    def min_exp(self) -> int:
        if not self.c:
            raise ValueError("zero polynomial has no exponents")
        return min(self.c)

    def max_exp(self) -> int:
        if not self.c:
            raise ValueError("zero polynomial has no exponents")
        return max(self.c)

    def __add__(self, other: "IntLaurent | int") -> "IntLaurent":
        if isinstance(other, int):
            other = IntLaurent(other)
        if not isinstance(other, IntLaurent):
            return NotImplemented
        out = dict(self.c)
        for e, v in other.c.items():
            w = out.get(e, 0) + v
            if w:
                out[e] = w
            else:
                out.pop(e, None)
        return IntLaurent(out)

    __radd__ = __add__

    def __neg__(self) -> "IntLaurent":
        return IntLaurent({e: -v for e, v in self.c.items()})

    def __sub__(self, other: "IntLaurent | int") -> "IntLaurent":
        return self + (-other if isinstance(other, IntLaurent) else -IntLaurent(other))

    def __rsub__(self, other: int) -> "IntLaurent":
        return IntLaurent(other) - self

    def __mul__(self, other: "IntLaurent | int") -> "IntLaurent":
        if isinstance(other, int):
            if not other:
                return IntLaurent()
            return IntLaurent({e: v * other for e, v in self.c.items()})
        if not isinstance(other, IntLaurent):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = out.get(e, 0) + v1 * v2
                if w:
                    out[e] = w
                else:
                    del out[e]
        return IntLaurent(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntLaurent":
        if n < 0:
            # only monomials with coefficient +-1 are units here
            if len(self.c) == 1:
                (e, v), = self.c.items()
                if v in (1, -1):
                    return IntLaurent({e * n: -1 if (v == -1 and n % 2) else 1})
            raise ValueError("negative power of a non-unit")
        out = IntLaurent(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "IntLaurent":
        """Multiply by A^k."""
        return IntLaurent({e + k: v for e, v in self.c.items()})

    def substitute_power(self, k: int) -> "IntLaurent":
        """Ring map A -> A^k.  k = -1 is the mirror/conjugation on Z[A, A^-1]."""
        if k == 0:
            raise ValueError("substitution must keep A invertible")
        return IntLaurent({e * k: v for e, v in self.c.items()})

    def exact_div(self, divisor: "IntLaurent") -> "IntLaurent":
        """Exact division in Z[A, A^-1]; raises ValueError when not divisible.

        Long division on dense coefficient lists, one pass from the top
        degree down.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return IntLaurent()
        sm, dm = self.min_exp(), divisor.min_exp()
        num = [0] * (self.max_exp() - sm + 1)
        for e, v in self.c.items():
            num[e - sm] = v
        dd = divisor.max_exp() - dm
        lead = divisor.c[dm + dd]
        den = [(e - dm, v) for e, v in divisor.c.items()]
        quo: dict[int, int] = {}
        for k in range(len(num) - 1 - dd, -1, -1):
            q, r = divmod(num[k + dd], lead)
            if r:
                raise ValueError("not divisible")
            if q:
                quo[k + sm - dm] = q
                for j, v in den:
                    num[k + j] -= q * v
        if any(num):
            raise ValueError("not divisible")
        return IntLaurent(quo)

    def val_one_plus_var(self) -> tuple[int, "IntLaurent"]:
        """Largest k with (1 + A)^k dividing self, and the cofactor.

        The zero polynomial reports valuation 0.
        """
        k, cur = 0, self
        while cur:
            try:
                cur = cur.exact_div(ONE_PLUS_A)
            except ValueError:
                break
            k += 1
        return k, cur

    def to_json(self) -> dict:
        return {"var": "A", "coeffs": {str(e): str(v) for e, v in sorted(self.c.items())}}

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c):
            v = self.c[e]
            if e == 0:
                term = str(v)
            else:
                mag = "" if abs(v) == 1 else f"{abs(v)}*"
                sgn = "-" if v < 0 else ""
                term = f"{sgn}{mag}A^{e}" if e != 1 else f"{sgn}{mag}A"
            parts.append(term)
        s = " + ".join(parts).replace("+ -", "- ")
        return s


ONE = IntLaurent(1)
ZERO = IntLaurent()
A = IntLaurent.monomial(1, 1)
ONE_PLUS_A = IntLaurent({0: 1, 1: 1})
