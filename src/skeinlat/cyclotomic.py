"""Cyclotomic integer arithmetic for the rings Z[zeta_n], n = 2p or 4p.

For an odd prime p the quantum parameter A is a primitive 2p-th root of
unity and q = A^2.  When p = 3 mod 4 the ring of interest is Z[zeta_2p]
(equal to Z[zeta_p]); when p = 1 mod 4 a fourth root of unity is adjoined
and everything lives in Z[zeta_4p].  Elements are integer coordinate
vectors in the power basis of zeta_n modulo the n-th cyclotomic
polynomial, over a positive integer denominator.

A product is the schoolbook convolution of two vectors, reduced mod Phi_n.
A sum of products of integral elements (CycContext.dot) runs on Kronecker
substitution instead (Schoenhage 1982; Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
44, 2009): a vector evaluated at X = 2^w is one int, a term's product is
one int product, and the sum is unpacked and reduced once.  The slot width
w must hold every coefficient of the sum with its sign: a term of k factors
of bit lengths b_1..b_k has coefficients below phi^(k-1) 2^(b_1+...+b_k),
so T terms fit in w = sum b + bitlen(phi^(k-1) T) + 1 bits.  Each element
keeps its last packing, so an operand read by many terms is packed once.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .laurent import IntLaurent, RefutationError


def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Dense coefficients of Phi_n, low to high, via X^n - 1 = prod Phi_d."""
    f = IntLaurent({0: -1, n: 1})
    for d in range(1, n):
        if n % d == 0:
            f = f.exact_div(IntLaurent(dict(enumerate(cyclotomic_poly(d)))))
    return tuple(f.coeff(e) for e in range(f.max_exp() + 1))


def poly_resultant(f: list[int], g: list[int]) -> int:
    """Resultant of integer polynomials by the subresultant PRS."""
    f = _poly_trim(list(f))
    g = _poly_trim(list(g))
    if not f or not g:
        return 0
    s = 1
    if len(f) < len(g):
        if (len(f) - 1) % 2 and (len(g) - 1) % 2:
            s = -s
        f, g = g, f
    gg = 1
    h = 1
    while len(g) - 1 > 0:
        da, db = len(f) - 1, len(g) - 1
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        # pseudo-remainder of lc(g)^(delta+1) * f by g
        r = [c * g[-1] ** (delta + 1) for c in f]
        for k in range(len(r) - db - 1, -1, -1):
            q, rem = divmod(r[k + db], g[-1])
            if rem:
                raise RefutationError("resultant: pseudo-division left a remainder")
            if q:
                for j, b in enumerate(g):
                    r[k + j] -= q * b
        r = _poly_trim(r[:db])
        if not r:
            return 0
        f, g = g, [c // (gg * h ** delta) for c in r]
        gg = f[-1]
        if delta:
            h = gg ** delta // h ** (delta - 1)
    da = len(f) - 1
    return s * g[0] ** da // h ** (da - 1) if da else s * 1


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    k = 3
    while k * k <= p:
        if p % k == 0:
            return False
        k += 2
    return True


class NotIntegralError(ValueError):
    """An operand of an integral-only operation has a denominator."""


def mixed_rings(a: "CycContext", b: "CycContext") -> ValueError:
    """The error for an operation whose operands live in different rings."""
    return ValueError(f"cannot mix elements of {a} and {b}")


def _pack(vec: tuple[int, ...], w: int) -> int:
    """The vector evaluated at X = 2^w."""
    out = shift = 0
    for c in vec:
        if c:
            out += c << shift
        shift += w
    return out


def _unpack(total: int, w: int, slots: int) -> list[int]:
    """The signed w-bit slots of a Kronecker-packed int, low to high.

    Adding 2^(w-1) to every slot makes each one a nonnegative w-bit digit, so
    the signed borrow between slots is settled by one addition and the
    digits are read off one byte string; anything left above the top slot
    means w was too narrow."""
    biased = total + _slot_bias(w, slots)
    if biased < 0 or biased.bit_length() > w * slots:
        raise ArithmeticError(f"Kronecker unpacking left a high part at slot width {w}")
    size = w // 8
    raw = biased.to_bytes(size * slots, "little")
    words = _slot_words(w, slots)
    if words is None:
        digits = [int.from_bytes(raw[k:k + size], "little") for k in range(0, size * slots, size)]
    else:
        digits = words.unpack(raw)
    half = 1 << (w - 1)
    return [v - half for v in digits]


@lru_cache(maxsize=None)
def _slot_bias(w: int, slots: int) -> int:
    """2^(w-1) in each of the slots."""
    return int.from_bytes((bytes(w // 8 - 1) + b"\x80") * slots, "little")


@lru_cache(maxsize=None)
def _slot_words(w: int, slots: int) -> struct.Struct | None:
    """A struct reading all the slots as machine words when w is 32 or 64.

    Reading them slot by slot with int.from_bytes instead, which works at
    every width, made benchmark rounds about 5% slower on genus2 --p 11
    (2-core Xeon, CPython 3.11), where most dots are narrow."""
    code = {32: "I", 64: "Q"}.get(w)
    return None if code is None else struct.Struct(f"<{slots}{code}")


class CycContext:
    """Shared tables for one ring Z[zeta_n], n = 2p (p = 3 mod 4) or 4p.

    memo is the ring's one cache, filled by cached: inverses, recoupling
    values, fused loops and necklaces, each keyed by (kind, *arguments).
    """

    def __init__(self, p: int):
        if not _is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        self.p = p
        self.d = (p - 1) // 2
        self.n = 2 * p if p % 4 == 3 else 4 * p
        phi_poly = cyclotomic_poly(self.n)
        self.phi = len(phi_poly) - 1
        # A = zeta_n when n = 2p, A = zeta_n^2 when n = 4p; q = A^2
        self.a_exp = 1 if self.n == 2 * p else 2
        # reduction table: zeta_n^j as a basis vector, all j < n
        red: list[tuple[int, ...]] = []
        for j in range(self.phi):
            red.append(tuple(1 if i == j else 0 for i in range(self.phi)))
        top = tuple(-c for c in phi_poly[: self.phi])
        red.append(top)
        for _ in range(self.phi + 1, self.n):
            prev = red[-1]
            row = [0] + list(prev[: self.phi - 1])
            ov = prev[self.phi - 1]
            if ov:
                row = [a + ov * b for a, b in zip(row, top)]
            red.append(tuple(row))
        self._red = red
        # the nonzero (index, coefficient) pairs of each row of red
        self._red_support = [[(i, v) for i, v in enumerate(row) if v] for row in red]
        self._phi_poly = phi_poly
        self.memo: dict[tuple, object] = {}
        # exponent of the Galois element cutting out the real-over-q subring:
        # identity when n = 2p, else fixes q and negates the fourth root
        if self.n == 2 * p:
            self.plus_m = 1
        else:
            self.plus_m = next(
                m for m in range(1, self.n, 2) if m % 4 == 3 and m % p == 1
            )
        self.zero = CycNum(self, (0,) * self.phi, 1)
        self.one = self.zeta_pow(0)
        self.A = self.zeta_pow(self.a_exp)
        self.q = self.zeta_pow(2 * self.a_exp)
        self.one_minus_q = self.one - self.q

    def from_int(self, v: int) -> "CycNum":
        vec = [0] * self.phi
        vec[0] = v
        return CycNum(self, tuple(vec), 1)

    def zeta_pow(self, e: int) -> "CycNum":
        return CycNum(self, self._red[e % self.n], 1)

    def A_pow(self, e: int) -> "CycNum":
        return self.zeta_pow(self.a_exp * e)

    def q_pow(self, e: int) -> "CycNum":
        return self.zeta_pow(2 * self.a_exp * e)

    def i_power(self, e: int) -> "CycNum":
        """Power of the primitive fourth root of unity, when it exists here."""
        if self.n == 4 * self.p:
            return self.zeta_pow(self.p * e)
        if e % 2:
            raise ValueError("no fourth root of unity in this ring")
        return self.from_int(-1 if (e // 2) % 2 else 1)

    def from_A_laurent(self, f: IntLaurent) -> "CycNum":
        vec = [0] * self.phi
        for e, v in f.c.items():
            for i, r in self._red_support[(self.a_exp * e) % self.n]:
                vec[i] += v * r
        return CycNum(self, tuple(vec), 1)

    def from_q_laurent(self, f: IntLaurent) -> "CycNum":
        return self.from_A_laurent(f.substitute_power(2))

    def _reduce(self, conv: list[int]) -> tuple[int, ...]:
        """Power-basis vector mod Phi_n of a convolution at least phi long.

        zeta^(n/2) = -1 folds every degree from n/2 on down, top first, and
        the rows of red take the few degrees left between phi and n/2."""
        phi, half = self.phi, self.n // 2
        for idx in range(len(conv) - 1, half - 1, -1):
            conv[idx - half] -= conv[idx]
        vec = conv[:phi]
        red = self._red_support
        for idx in range(phi, min(half, len(conv))):
            c = conv[idx]
            if c:
                for i, r in red[idx]:
                    vec[i] += c * r
        return tuple(vec)

    def dot(self, terms: Iterable[tuple[CycNum, ...]]) -> CycNum:
        """Sum over the terms of the product of each term's integral factors.

        A term is a tuple of any number of factors.  Kronecker substitution
        (Schoenhage 1982; Harvey 2009; see the module docstring) with the
        delayed reduction of Dumas, Giorgi & Pernet, ACM TOMS 35 (2008):
        one int product per term, one unpacking and one reduction mod Phi_n
        per sum.  w is the module docstring's bound for the largest bit sum
        and the most factors of any term, rounded up to a multiple of 32 so
        that an element read by many dots keeps hitting its cached pack.
        An operand with a denominator raises NotIntegralError (a ValueError)
        instead of falling back to field arithmetic, whose common
        denominator can grow without bound.  CycNum.__mul__ is the
        schoolbook oracle."""
        terms = list(terms)
        if not terms:
            return self.zero
        n = self.n
        most_bits = most_factors = 0
        for term in terms:
            bits = 0
            for z in term:
                if z.ctx is not self and z.ctx.n != n:
                    raise mixed_rings(self, z.ctx)
                if z.den != 1:
                    raise NotIntegralError(f"dot needs integral operands, got denominator {z.den}")
                b = z._bits
                if b is None:
                    b = z._bits = max(map(abs, z.vec)).bit_length()
                bits += b
            if bits > most_bits:
                most_bits = bits
            if len(term) > most_factors:
                most_factors = len(term)
        phi = self.phi
        w = most_bits + (phi ** (most_factors - 1) * len(terms)).bit_length() + 1
        w += -w % 32
        total = 0
        for term in terms:
            prod = 1
            for z in term:
                packed = z._packed
                if packed is None or packed[0] != w:
                    packed = z._packed = (w, _pack(z.vec, w))
                prod *= packed[1]
            total += prod
        conv = _unpack(total, w, most_factors * (phi - 1) + 1)
        return CycNum(self, self._reduce(conv), 1)

    def cached(self, key: tuple, build):
        """The value of build() under key, computed once per ring."""
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = build()
        return got

    def inv(self, x: "CycNum") -> "CycNum":
        """Cached field inverse via the product of Galois conjugates."""
        if x.ctx is not self and x.ctx.n != self.n:
            raise mixed_rings(self, x.ctx)
        return self.cached(("inv", x), x.inverse)

    def __repr__(self) -> str:
        return f"CycContext(p={self.p}, n={self.n})"


class CycNum:
    """Element of Q(zeta_n): integer vector over a positive denominator.

    Normalized so gcd of the entries and the denominator is 1, making
    equality structural.  _bits (the largest coefficient's bit length) and
    _packed (the last (w, Kronecker pack)) are filled by CycContext.dot.
    """

    __slots__ = ("ctx", "vec", "den", "_bits", "_packed")

    def __init__(self, ctx: CycContext, vec: tuple[int, ...], den: int = 1):
        if den < 0:
            vec = tuple(-v for v in vec)
            den = -den
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den != 1:
            g = den
            for v in vec:
                g = math.gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                vec = tuple(v // g for v in vec)
                den //= g
        if not any(vec):
            den = 1
        self.ctx = ctx
        self.vec = vec
        self.den = den
        self._bits = self._packed = None

    def is_zero(self) -> bool:
        return not any(self.vec)

    def __bool__(self) -> bool:
        return any(self.vec)

    def is_integral(self) -> bool:
        return self.den == 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        if other.ctx is not self.ctx and other.ctx.n != self.ctx.n:
            raise mixed_rings(self.ctx, other.ctx)
        return self.den == other.den and self.vec == other.vec

    def __hash__(self) -> int:
        return hash((self.den, self.vec))

    def __add__(self, other: "CycNum | int") -> "CycNum":
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        if other.ctx is not self.ctx and other.ctx.n != self.ctx.n:
            raise mixed_rings(self.ctx, other.ctx)
        da, db = self.den, other.den
        vec = tuple(a * db + b * da for a, b in zip(self.vec, other.vec))
        return CycNum(self.ctx, vec, da * db)

    __radd__ = __add__

    def __neg__(self) -> "CycNum":
        return CycNum(self.ctx, tuple(-v for v in self.vec), self.den)

    def __sub__(self, other: "CycNum | int") -> "CycNum":
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "CycNum":
        return self.ctx.from_int(other) + (-self)

    def __mul__(self, other: "CycNum | int") -> "CycNum":
        if isinstance(other, int):
            return CycNum(self.ctx, tuple(v * other for v in self.vec), self.den)
        if not isinstance(other, CycNum):
            return NotImplemented
        if other.ctx is not self.ctx and other.ctx.n != self.ctx.n:
            raise mixed_rings(self.ctx, other.ctx)
        phi = self.ctx.phi
        conv = [0] * (2 * phi - 1)
        support = [(j, b) for j, b in enumerate(other.vec) if b]
        for i, a in enumerate(self.vec):
            if a:
                for j, b in support:
                    conv[i + j] += a * b
        return CycNum(self.ctx, self.ctx._reduce(conv), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CycNum":
        if e < 0:
            return self.inverse() ** (-e)
        out = self.ctx.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def galois(self, k: int) -> "CycNum":
        """The automorphism zeta -> zeta^k, gcd(k, n) = 1."""
        ctx = self.ctx
        if math.gcd(k, ctx.n) != 1:
            raise ValueError("not a Galois exponent")
        vec = [0] * ctx.phi
        red = ctx._red_support
        for j, v in enumerate(self.vec):
            if v:
                for i, r in red[(j * k) % ctx.n]:
                    vec[i] += v * r
        return CycNum(ctx, tuple(vec), self.den)

    def conj(self) -> "CycNum":
        return self.galois(self.ctx.n - 1)

    def _conjugate_product(self) -> "CycNum":
        """Product of self over all non-identity Galois conjugates."""
        ctx = self.ctx
        out = ctx.one
        for k in range(2, ctx.n):
            if math.gcd(k, ctx.n) == 1:
                out = out * self.galois(k)
        return out

    def norm(self) -> Fraction:
        """Field norm down to Q, exact."""
        if self.is_zero():
            return Fraction(0)
        return (self * self._conjugate_product())._rational("norm computation")

    def trace(self) -> Fraction:
        """Field trace down to Q, exact: the sum of the Galois conjugates."""
        ctx = self.ctx
        z = sum((self.galois(k) for k in range(1, ctx.n) if math.gcd(k, ctx.n) == 1), ctx.zero)
        return z._rational("trace")

    def _rational(self, what: str) -> Fraction:
        """self as a rational number; raises, naming the computation what, unless in Q."""
        if any(self.vec[1:]):
            raise ArithmeticError(f"{what} did not land in Q")
        return Fraction(self.vec[0], self.den)

    def norm_resultant(self) -> Fraction:
        """Oracle for norm: the same norm by the subresultant PRS."""
        if self.is_zero():
            return Fraction(0)
        res = poly_resultant(list(self.ctx._phi_poly), list(self.vec))
        return Fraction(res, self.den ** self.ctx.phi)

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        u = self._conjugate_product()
        r = (self * u)._rational("conjugate product")
        out = CycNum(
            self.ctx,
            tuple(v * r.denominator for v in u.vec),
            u.den * r.numerator,
        )
        if out * self != self.ctx.one:
            raise ArithmeticError("inverse check failed")
        return out

    def __truediv__(self, other: "CycNum | int") -> "CycNum":
        if isinstance(other, int):
            return CycNum(self.ctx, self.vec, self.den * other)
        return self * self.ctx.inv(other)

    def is_unit(self) -> bool:
        return self.den == 1 and abs(self.norm()) == 1

    def valuation_one_minus_q(self) -> tuple[int, "CycNum"]:
        """Largest k with self / (1-q)^k integral at the primes over p (k < 0
        when p divides the denominator), plus a cofactor; self is nonzero.

        p = (1-q)^(p-1) times a unit (Washington, GTM 83, ch. 1-2), so each
        factor p of the denominator lowers k by p-1 and each factor p of the
        integer content raises it by p-1, leaving at most p-2 divisions by
        1-q.  The cofactor can differ from self / (1-q)^k by a power of the
        unit p / (1-q)^(p-1), so callers read only whether it is a unit; a
        denominator prime to p stays on it, and then it is not one."""
        if self.is_zero():
            raise ValueError("valuation of zero")
        ctx, p = self.ctx, self.ctx.p
        k, den, scale, content = 0, self.den, 1, math.gcd(*self.vec)
        while den % p == 0:
            den //= p
            k -= p - 1
        while content % (scale * p) == 0:
            scale *= p
            k += p - 1
        cur = CycNum(ctx, tuple(v // scale for v in self.vec))
        w_inv = ctx.inv(ctx.one_minus_q)
        while (nxt := cur * w_inv).den == 1:
            cur, k = nxt, k + 1
        return k, cur / den

    def in_plus_subring(self) -> bool:
        """Integral and fixed by the involution fixing q, negating the
        fourth root of unity (identity when the ring is Z[zeta_2p])."""
        if self.den != 1:
            return False
        m = self.ctx.plus_m
        return m == 1 or self.galois(m) == self

    def to_json(self) -> dict:
        return {
            "p": self.ctx.p,
            "n": self.ctx.n,
            "coeffs": {str(i): str(v) for i, v in enumerate(self.vec) if v},
            "den": str(self.den),
        }

    def __repr__(self) -> str:
        terms = [f"{v}*z^{i}" for i, v in enumerate(self.vec) if v] or ["0"]
        s = " + ".join(terms)
        return s if self.den == 1 else f"({s})/{self.den}"
