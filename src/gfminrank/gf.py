"""Exact arithmetic in GF(p^e) for prime p and e >= 1.

Elements are plain integers in [0, q).  The residue polynomial
c_0 + c_1*x + ... + c_{e-1}*x^{e-1} is packed in base p as
c_0 + c_1*p + ... + c_{e-1}*p^{e-1}, so 0 encodes the zero element and 1
encodes the multiplicative identity.  A :class:`FieldCtx` owns the modulus
polynomial and the lookup tables; every operation is pure and contexts are
immutable after construction, so they are safe to share across threads.

Every operation (add, neg, sub, mul, inv) takes Python ints and returns
Python ints.  Prime fields compute directly mod p.  Extension fields add
digit-wise mod p (XOR when p = 2) and multiply through log/antilog lists
over a fixed generator g of the multiplicative group, O(q) entries each.
Zero gets the sentinel log 2(q-1), and the antilog list repeats its period
once and then holds zeros up to index 4(q-1), so ``exp[log[a] + log[b]]``
is the product for every pair with no reduction mod q-1 and no zero test.

The modulus and the generator come from arithmetic on digit lists (the e
base-p digits, low first) mod the modulus f: ``_mul_mod`` and its
square-and-multiply ``_pow_mod``.  For e >= 2 the modulus is the first
monic f with f(0) != 0, coefficients compared low first, that passes
Rabin's test (``_is_irreducible``); for e = 1 it is X.  g is the least rep
whose power (q-1)/r is not 1 for any prime r | q-1, and the antilog list
is the walk 1, g, g^2, ..., each step g x read from tables of the images
of x's low and high digits (``_build_log_tables``).  A prime field
computes mod p and builds neither list.

The supported orders are the prime powers in 2..Q_MAX.  :func:`factor_prime_power`
is the one test of an order: ``field_from_order`` and ``FieldCtx`` both
reach it, and it compares q with that range before it divides anything.
"""

from __future__ import annotations

import functools
import itertools
import operator

Q_MAX = 1 << 16

# Cap for the dense q x q operation tables the oracle search reads.  Larger
# fields would make the tables the bulk of the oracle's memory, so the
# oracle refuses them as over budget.
KERNEL_TABLE_MAX_Q = 1024


def _mul_mod(a: list[int], b: list[int], f, p: int) -> list[int]:
    """a b mod the monic f (coefficients low first) over GF(p), for digit
    lists a and b of length e = deg f."""
    e = len(f) - 1
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for i in range(2 * e - 2, e - 1, -1):  # cancel X^i by c X^(i-e) f
        c = prod[i] % p
        if c:
            for j in range(e):
                prod[i - e + j] -= c * f[j]
    return [x % p for x in prod[:e]]


def _pow_mod(a: list[int], k: int, f, p: int) -> list[int]:
    """a^k mod f by square and multiply."""
    out = [1] + [0] * (len(f) - 2)
    while k:
        out, a, k = _mul_mod(out, a, f, p) if k & 1 else out, _mul_mod(a, a, f, p), k >> 1
    return out


def _is_irreducible(f, p: int) -> bool:
    """Rabin's test of the monic f of degree e >= 2 over GF(p): X^(p^e) = X
    mod f, so GF(p)[X]/(f) is a product of fields GF(p^d) with d | e, and
    for each prime r | e, X^(p^(e/r)) - X is a unit there, that is, its
    (p^e - 1)-th power is 1."""
    e = len(f) - 1
    q, x, one = p ** e, [0, 1] + [0] * (e - 2), [1] + [0] * (e - 1)
    return _pow_mod(x, q, f, p) == x and all(
        _pow_mod([(a - b) % p for a, b in zip(_pow_mod(x, p ** (e // r), f, p), x)],
                 q - 1, f, p) == one
        for r in _prime_factors(e))


def _find_modulus(p: int, e: int) -> tuple[int, ...]:
    """X for e = 1; else the first irreducible monic f of degree e in
    ascending lexicographic order on (f_0, ..., f_{e-1}).  Candidates with
    f_0 = 0, divisible by X, are skipped before any power."""
    if e == 1:
        return (0, 1)
    for low in itertools.product(range(1, p), *[range(p)] * (e - 1)):
        if _is_irreducible(low + (1,), p):
            return low + (1,)
    raise AssertionError("no irreducible polynomial found")


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1 in increasing order, by trial
    division: the one factoring of q (factor_prime_power) and of q - 1."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _reduced(p: int, base: int, m: int) -> list[int]:
    """t[s] for s < base^m: the m base-``base`` digits of s, each taken mod
    p, packed in base p (the first factor of the product is the top digit,
    so s counts up)."""
    return list(map(sum, itertools.product(*[[d % p * p ** i for d in range(base)]
                                             for i in reversed(range(m))])))


class FieldCtx:
    """The field GF(p^e): modulus, element tables, and all arithmetic."""

    __slots__ = (
        "p", "e", "q", "modulus", "_pw",
        "_exp", "_log", "_sqrt", "_nonsquare", "_kernel_tables",
    )

    def __init__(self, p: int, e: int):
        # the comparisons bound p ** e below 2^272 before it is computed
        if not (2 <= p <= Q_MAX and 1 <= e <= Q_MAX.bit_length()) \
                or factor_prime_power(p ** e) != (p, e):
            raise ValueError(f"p^e must be a prime power in 2..{Q_MAX} with p prime")
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = _find_modulus(p, e)
        self._pw = [p ** i for i in range(e)]

        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if e >= 2:
            self._build_log_tables()

        self._nonsquare: int | None = None
        self._build_sqrt_table()

        self._kernel_tables: tuple[list, ...] | None = None

    # -- construction helpers ------------------------------------------------

    def _digits(self, a: int) -> list[int]:
        return [a // w % self.p for w in self._pw]

    def _build_log_tables(self) -> None:
        n, p, f = self.q - 1, self.p, self.modulus
        one, factors = self._digits(1), _prime_factors(n)
        for gen in range(1, self.q):
            g = self._digits(gen)
            if all(_pow_mod(g, n // r, f, p) != one for r in factors):
                break
        else:
            raise AssertionError("no generator found, but the multiplicative group is cyclic")
        # the walk x -> g x on x = lo + hi P (P = p^h, h = e // 2): the images
        # of lo and of hi P are tabulated with digits in base B = 2p - 1, so
        # their digit-wise sum is one integer sum without carries, and each
        # half of it is taken mod p digit by digit from a table of B^h or
        # B^(e-h) entries, both at most 2q
        h, base = self.e // 2, 2 * p - 1
        small, cut = p ** h, base ** h
        low, high = ([sum(d * base ** i for i, d in enumerate(_mul_mod(g, self._digits(a * w), f, p)))
                      for a in range(count)] for w, count in ((1, small), (small, p ** (self.e - h))))
        reduce_low, reduce_high = _reduced(p, base, h), _reduced(p, base, self.e - h)
        powers, (hi, lo) = [1] * n, divmod(1, small)
        for i in range(1, n):
            s = low[lo] + high[hi]
            lo, hi = reduce_low[s % cut], reduce_high[s // cut]
            powers[i] = lo + hi * small
        # exp: g^0..g^(n-1) twice over (log sums of nonzero elements stay
        # below 2n-1), then zeros up to 4n (any sum involving log[0] = 2n)
        self._exp = powers + powers + [0] * (2 * n + 1)
        log = [2 * n] * self.q
        for i, a in enumerate(powers):
            log[a] = i
        self._log = log

    def _build_sqrt_table(self) -> None:
        table = [-1] * self.q
        for b in range(self.q - 1, -1, -1):
            table[self.mul(b, b)] = b  # the descending scan leaves the smaller root
        self._sqrt = table
        self._nonsquare = next((a for a in range(self.q) if table[a] < 0), None)

    # -- arithmetic on ints ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p = self.p
        return sum((a // w + b // w) % p * w for w in self._pw)

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p = self.p
        return sum(-(a // w) % p * w for w in self._pw)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        return self._exp[self._log[a] + self._log[b]]

    def dot(self, xs, ys) -> int:
        """The sum of the products xs[i] ys[i]: over a prime field one
        plain integer sum, reduced once."""
        if self.e == 1:
            return sum(map(operator.mul, xs, ys)) % self.p
        return functools.reduce(self.add, map(self.mul, xs, ys), 0)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises on zero."""
        if not a:
            raise ZeroDivisionError("inversion of zero field element")
        if self.e > 1:
            return self._exp[self.q - 1 - self._log[a]]
        return pow(a, -1, self.p)

    def is_square(self, a: int) -> bool:
        """Whether a has a square root; always so when q is even."""
        return self._sqrt[a] >= 0

    def sqrt(self, a: int) -> int:
        """The one square root of a when q is even, the smaller of its two
        (as reps) when q is odd; ValueError for a nonsquare."""
        b = self._sqrt[a]
        if b < 0:
            raise ValueError(f"{a} is not a square in GF({self.q})")
        return b

    def nonsquare(self) -> int:
        """The smallest nonsquare element; only exists for odd q."""
        if self._nonsquare is None:
            raise ValueError(f"every element of GF({self.q}) is a square")
        return self._nonsquare

    def sum_of_two_squares(self, nu: int) -> tuple[int, int]:
        """Smallest (c, d) in scan order with c^2 + d^2 = nu (odd q only)."""
        if self.q % 2 == 0:
            raise ValueError("decomposition is only defined for odd field order")
        for c in range(self.q):
            t = self.sub(nu, self.mul(c, c))
            if self.is_square(t):
                return c, self.sqrt(t)
        raise AssertionError("every element of an odd-order field is a sum of two squares")

    def elements(self) -> range:
        return range(self.q)

    def kernel_tables(self) -> tuple[list[list[int]], list[list[int]], list[int]]:
        """Dense (sub, mul, inv) tables for the oracle's row reduction, built
        once as the Python lists its search reads: sub[a][b], mul[a][b] and
        inv[a], with inv[0] = 0."""
        if self.q > KERNEL_TABLE_MAX_Q:
            raise ValueError(f"field order {self.q} too large for dense kernel tables")
        if self._kernel_tables is None:
            q, p, reps = self.q, self.p, range(self.q)
            # a - b digit by digit: the row of a is the sum, over the digit
            # places w (high first, so b counts up), of (a_w - d) mod p times w
            sub = [list(map(sum, itertools.product(
                *[[(a // w - d) % p * w for d in range(p)] for w in reversed(self._pw)])))
                for a in reps]
            if self.e == 1:
                mul = [[a * b % p for b in reps] for a in reps]
            else:
                exp, log = self._exp, self._log
                mul = [[exp[la + lb] for lb in log] for la in log]
            self._kernel_tables = (sub, mul, [0] + [self.inv(a) for a in reps[1:]])
        return self._kernel_tables

    # -- misc ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    def __repr__(self) -> str:
        return f"GF({self.q})"


@functools.lru_cache(maxsize=None)
def field_new(p: int, e: int) -> FieldCtx:
    """Construct (and cache) the field GF(p^e) with the canonical modulus."""
    return FieldCtx(p, e)


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, e) with p prime, or raise ValueError.  q is compared
    with 2..Q_MAX before anything is divided, so at most 255 trial divisions
    follow and an order past the cap is never turned into text."""
    if not 2 <= q <= Q_MAX:
        raise ValueError(f"field order must be a prime power in 2..{Q_MAX}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, e = factors[0], 1
    while p ** e < q:
        e += 1
    return p, e


def field_from_order(q: int) -> FieldCtx:
    p, e = factor_prime_power(q)
    return field_new(p, e)
