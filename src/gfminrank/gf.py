"""Exact arithmetic in GF(p^e) for prime p and e >= 1.

Elements are plain integers in [0, q).  The residue polynomial
c_0 + c_1*x + ... + c_{e-1}*x^{e-1} is packed in base p as
c_0 + c_1*p + ... + c_{e-1}*p^{e-1}, so 0 encodes the zero element and 1
encodes the multiplicative identity.  A :class:`FieldCtx` owns the modulus
polynomial and the lookup tables; every operation is pure and contexts are
immutable after construction, so they are safe to share across threads.

Each operation (add, neg, sub, mul) takes Python ints or int64 numpy
arrays of reps, and ``matmul`` multiplies int64 matrices of reps.  Prime
fields compute directly mod p.  Extension fields add digit-wise mod p (XOR
when p = 2) and multiply through log/antilog tables over a fixed generator
g of the multiplicative group.  Zero gets the sentinel log 2(q-1), and the
antilog table repeats its period once and then holds zeros up to index
4(q-1), so ``exp[log[a] + log[b]]`` is the product for every pair with no
reduction mod q-1 and no zero test.  Scalar results of the table path are
numpy integers.

The digit form has this one home: ``digits(a)``, the e base-p digits, and
``mul_matrix(a)``, the e x e GF(p) matrix of x -> a x, which is
sum_i a_i C^i for C the companion matrix of the modulus.  They build the
log tables: g is the least rep >= 2 whose matrix to the power (q-1)/r is
not the identity for any prime r | q-1, and the step table x -> g x is
one product of the digits of every rep by that matrix.

C also decides the modulus: for e >= 2 it is the first monic f with
f(0) != 0, coefficients compared low first, that passes Rabin's test on
its companion matrix (``_is_irreducible``); for e = 1 it is X.  There is
no polynomial arithmetic: ``_mat_pow`` is the one square-and-multiply, for
the modulus test and the generator search alike.

The supported orders are the prime powers in 2..Q_MAX.  :func:`factor_prime_power`
is the one test of an order: ``field_from_order`` and ``FieldCtx`` both
reach it, and it compares q with that range before it divides anything.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

Q_MAX = 1 << 16

# Cap for the dense q x q operation tables the oracle search reads.  Larger
# fields would make the tables the bulk of the oracle's memory, so the
# oracle refuses them as over budget.
KERNEL_TABLE_MAX_Q = 1024


def _companion(f, p: int) -> np.ndarray:
    """The companion matrix of the monic f (coefficients low first) mod p:
    the matrix of a -> X a on the digits of GF(p)[X]/(f)."""
    c = np.eye(len(f) - 1, k=-1, dtype=np.int64)
    c[:, -1] = np.negative(f[:-1]) % p
    return c


def _mat_pow(m: np.ndarray, k: int, p: int) -> np.ndarray:
    """m^k mod p by square and multiply."""
    out = np.eye(len(m), dtype=np.int64)
    while k:
        out, m, k = out @ m % p if k & 1 else out, m @ m % p, k >> 1
    return out


def _is_irreducible(f, p: int) -> bool:
    """Rabin's test of the monic f of degree e >= 1 over GF(p) on its
    companion matrix C: C^(p^e) = C, so GF(p)[C] is a product of fields
    GF(p^d) with d | e, and for each prime r | e, C^(p^(e/r)) - C is a unit
    there, that is, its (p^e - 1)-th power is I."""
    e = len(f) - 1
    q, c, one = p ** e, _companion(f, p), np.eye(e, dtype=np.int64)
    return np.array_equal(_mat_pow(c, q, p), c) and all(
        np.array_equal(_mat_pow((_mat_pow(c, p ** (e // r), p) - c) % p, q - 1, p), one)
        for r in _prime_factors(e))


def _find_modulus(p: int, e: int) -> tuple[int, ...]:
    """X for e = 1; else the first irreducible monic f of degree e in
    ascending lexicographic order on (f_0, ..., f_{e-1}).  Candidates with
    f_0 = 0, divisible by X, are skipped before any matrix power."""
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


class FieldCtx:
    """The field GF(p^e): modulus, element tables, and all arithmetic."""

    __slots__ = (
        "p", "e", "q", "modulus", "_pw", "_companion_powers",
        "_exp", "_log", "_sqrt", "_nonsquare", "_kernel_tables",
    )

    def __init__(self, p: int, e: int):
        # the comparisons bound p ** e below 2^272 before it is computed
        if not (2 <= p <= Q_MAX and 1 <= e <= Q_MAX.bit_length()) \
                or factor_prime_power(p ** e) != (p, e):
            raise ValueError(f"p^e must be a prime power in 2..{Q_MAX} with p prime")
        self.p = p
        self.e = e
        self.q = q = p ** e
        self.modulus = _find_modulus(p, e)

        self._pw = p ** np.arange(e, dtype=np.int64)
        # row i is C^i flattened, C the companion matrix of the modulus
        c = _companion(self.modulus, p)
        powers = [np.eye(e, dtype=np.int64)]
        for _ in range(e - 1):
            powers.append(c @ powers[-1] % p)
        self._companion_powers = np.stack(powers).reshape(e, e * e)

        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        if e >= 2:
            self._build_log_tables()

        self._nonsquare: int | None = None
        self._build_sqrt_table()

        self._kernel_tables: tuple[list, ...] | None = None

    # -- construction helpers ------------------------------------------------

    def _build_log_tables(self) -> None:
        n, p, one = self.q - 1, self.p, self.mul_matrix(1)
        factors = _prime_factors(n)
        gen = None
        for g in range(2, self.q):
            m = self.mul_matrix(g)
            if not any((_mat_pow(m, n // r, p) == one).all() for r in factors):
                gen = g
                break
        if gen is None:
            raise AssertionError("no generator found, but the multiplicative group is cyclic")
        step = (self.digits(np.arange(self.q)) @ self.mul_matrix(gen).T % p @ self._pw).tolist()
        powers = [1] * n
        for i in range(1, n):
            powers[i] = step[powers[i - 1]]
        # exp: g^0..g^(n-1) twice over (log sums of nonzero elements stay
        # below 2n-1), then zeros up to 4n (any sum involving log[0] = 2n)
        exp = np.zeros(4 * n + 1, dtype=np.int64)
        exp[:n] = exp[n:2 * n] = powers
        log = np.full(self.q, 2 * n, dtype=np.int64)
        log[exp[:n]] = np.arange(n, dtype=np.int64)
        self._exp = exp
        self._log = log

    def _build_sqrt_table(self) -> None:
        table = [-1] * self.q
        reps = np.arange(self.q, dtype=np.int64)
        for b, s in enumerate(self.mul(reps, reps).tolist()):
            if table[s] < 0:
                table[s] = b  # ascending scan keeps the smaller root
        self._sqrt = table
        for a in range(self.q):
            if table[a] < 0:
                self._nonsquare = a
                break

    # -- arithmetic on ints or int64 arrays of reps ---------------------------

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        out = 0
        for pw in self._pw.tolist():
            out += ((a // pw + b // pw) % self.p) * pw
        return out

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        out = 0
        for pw in self._pw.tolist():
            out += ((-(a // pw)) % self.p) * pw
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        return self._exp[self._log[a] + self._log[b]]

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two 2-D int64 arrays of reps."""
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul inner dimensions differ: {a.shape[1]} and {b.shape[0]}")
        if self.e == 1:
            return (a @ b) % self.p
        acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        for t in range(a.shape[1]):
            acc = self.add(acc, self.mul(a[:, t:t + 1], b[t:t + 1, :]))
        return acc

    def digits(self, a) -> np.ndarray:
        """The e base-p digits of reps, low first, along a new last axis."""
        return np.asarray(a)[..., None] // self._pw % self.p

    def mul_matrix(self, a) -> np.ndarray:
        """The e x e matrices over GF(p) of x -> a x on digits, along two
        new last axes: mul_matrix(a) @ digits(x) % p is digits(a x)."""
        return (self.digits(a) @ self._companion_powers % self.p).reshape(
            np.shape(a) + (self.e, self.e))

    def inv(self, a):
        """Multiplicative inverse of an int or an int64 array; raises on zero."""
        if not np.all(a):
            raise ZeroDivisionError("inversion of zero field element")
        if self.e > 1:
            return self._exp[self.q - 1 - self._log[a]]
        out, k = a ** 0, self.p - 2  # a^(p-2) by repeated squaring
        while k:
            out, a, k = out * a % self.p if k & 1 else out, a * a % self.p, k >> 1
        return out

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
            reps = np.arange(self.q, dtype=np.int64)
            a, b = reps[:, None], reps[None, :]
            self._kernel_tables = (self.sub(a, b).tolist(), self.mul(a, b).tolist(),
                                   [0] + self.inv(reps[1:]).tolist())
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
