from __future__ import annotations

import hashlib
import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfminrank import MatrixFq, field_from_order, field_new, gf
from gfminrank.gf import Q_MAX, factor_prime_power


# independent polynomial oracle used to pin the modulus expectations
def _poly_reduce(a, m, p):
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead, shift = a[-1], len(a) - 1 - dm
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * c) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_mul(f, a, b):
    """a b in f by multiplying the polynomials of their base-p digits mod
    the modulus: a reference for mul that reads neither the log tables nor
    the digit matrices."""
    p, e = f.p, f.e
    prod = [0] * (2 * e - 1)
    for i in range(e):
        for j in range(e):
            prod[i + j] += (a // p ** i % p) * (b // p ** j % p)
    rem = _poly_reduce([c % p for c in prod], f.modulus, p)
    return sum(c * p ** i for i, c in enumerate(rem))


def _irreducible(f, p):
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not _poly_reduce(f, list(low) + [1], p):
                return False
    return True


def test_modulus_gf4_is_the_unique_irreducible_quadratic(gf4):
    assert gf4.modulus == (1, 1, 1)
    quadratics = [list(low) + [1] for low in itertools.product(range(2), repeat=2)]
    assert [f for f in quadratics if _irreducible(f, 2)] == [[1, 1, 1]]


def test_modulus_gf9_is_the_smallest_irreducible_quadratic(gf9):
    assert gf9.modulus == (1, 0, 1)
    smaller = [list(low) + [1] for low in itertools.product(range(3), repeat=2)
               if tuple(low) < (1, 0)]
    assert not any(_irreducible(f, 3) for f in smaller)
    assert _irreducible([1, 0, 1], 3)


def test_modulus_minimality_for_gf8_and_gf25():
    for p, e in [(2, 3), (5, 2)]:
        f = field_new(p, e)
        assert _irreducible(list(f.modulus), p)
        for low in itertools.product(range(p), repeat=e):
            if low == tuple(f.modulus[:-1]):
                break
            assert not _irreducible(list(low) + [1], p)


def test_field_new_rejects_bad_parameters():
    with pytest.raises(ValueError):
        field_new(4, 1)
    with pytest.raises(ValueError):
        field_new(6, 2)
    with pytest.raises(ValueError):
        field_new(2, 0)
    with pytest.raises(ValueError):
        field_new(2, 17)  # 2^17 > Q_MAX
    with pytest.raises(ValueError, match=r"2\.\.65536"):
        field_new(65537, 1)
    with pytest.raises(ValueError) as exc:
        field_new(2, 100000)  # 2^100000 has over 30,000 decimal digits
    assert "2..65536" in str(exc.value) and "digits" not in str(exc.value)


def test_order_cap_boundary():
    f = field_new(2, 16)
    assert f.q == Q_MAX
    a, b = 12345, 54321
    assert f.mul(a, f.inv(a)) == 1
    assert f.mul(f.sqrt(b), f.sqrt(b)) == b


def test_scalar_examples(gf2, gf3, gf4):
    assert gf2.add(1, 1) == 0
    assert gf3.inv(2) == 2
    assert gf4.mul(2, 3) == 1  # x * (x+1) reduces to 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    f = field_from_order(q)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
    small = elems if q <= 9 else elems[:6] + elems[-3:]
    for a in small:
        for b in small:
            for c in small:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([25, 27, 49, 81, 128, 243, 256]),
       st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_field_axioms_randomised(q, a, b, c):
    f = field_from_order(q)
    a, b, c = a % q, b % q, c % q
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    if a:
        assert f.mul(a, f.inv(a)) == 1


def test_inv_of_zero_raises(gf3):
    with pytest.raises(ZeroDivisionError):
        gf3.inv(0)
    with pytest.raises(ZeroDivisionError):
        field_from_order(9).inv(0)


def test_inv_of_an_array_matches_the_scalar_inverses():
    # the inverses of every unit at once against the polynomial product
    for q in (2, 3, 4, 7, 9, 13, 16, 27):
        f = field_from_order(q)
        units = range(1, q)
        inv = [f.inv(a) for a in units]
        assert sorted(inv) == list(units)
        assert all(_poly_mul(f, a, b) == 1 for a, b in zip(units, inv))


def test_square_counts():
    for q in (3, 5, 7, 9, 11, 25, 27):
        f = field_from_order(q)
        squares = {f.mul(a, a) for a in f.elements()}
        assert sum(f.is_square(a) for a in f.elements()) == (q + 1) // 2
        assert {a for a in f.elements() if f.is_square(a)} == squares
    for q in (2, 4, 8, 16):
        f = field_from_order(q)
        assert all(f.is_square(a) for a in f.elements())


def test_gf3_squares(gf3):
    assert not gf3.is_square(2)
    assert {a for a in gf3.elements() if gf3.is_square(a)} == {0, 1}


def test_gf9_exactly_five_squares(gf9):
    assert sum(gf9.is_square(a) for a in gf9.elements()) == 5


def test_sqrt_examples(gf2, gf3, gf4):
    assert gf2.sqrt(1) == 1
    assert gf4.sqrt(2) == 3  # (x+1)^2 reduces to x
    assert gf3.sqrt(1) == 1  # tie-break picks the smaller of {1, 2}


def test_sqrt_roundtrip_all_squares():
    for q in (3, 4, 5, 7, 8, 9, 16, 25, 27):
        f = field_from_order(q)
        for a in f.elements():
            if f.is_square(a):
                s = f.sqrt(a)
                assert f.mul(s, s) == a


def test_sqrt_of_nonsquare_raises(gf3):
    with pytest.raises(ValueError):
        gf3.sqrt(2)


def test_frobenius_additivity_even_q():
    for q in (2, 4, 8, 16):
        f = field_from_order(q)
        for a in f.elements():
            for b in f.elements():
                lhs = f.mul(f.add(a, b), f.add(a, b))
                rhs = f.add(f.mul(a, a), f.mul(b, b))
                assert lhs == rhs


def test_nonsquare_selection(gf3, gf5, gf9):
    assert gf3.nonsquare() == 2
    assert gf5.nonsquare() == 2
    assert gf9.nonsquare() == 4
    with pytest.raises(ValueError):
        field_new(2, 2).nonsquare()


def test_sum_of_two_squares_examples(gf3, gf5):
    assert gf3.sum_of_two_squares(2) == (1, 1)
    assert gf5.sum_of_two_squares(2) == (1, 1)
    assert field_new(7, 1).sum_of_two_squares(3) == (1, 3)


def test_sum_of_two_squares_randomised(rng):
    for _ in range(100):
        q = rng.choice([3, 5, 7, 9, 11, 13, 25, 27, 49])
        f = field_from_order(q)
        nu = rng.randrange(q)
        c, d = f.sum_of_two_squares(nu)
        assert f.add(f.mul(c, c), f.mul(d, d)) == nu


def test_sum_of_two_squares_requires_odd_q(gf4):
    with pytest.raises(ValueError):
        gf4.sum_of_two_squares(1)


def test_factor_prime_power():
    assert factor_prime_power(4) == (2, 2)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(7) == (7, 1)
    with pytest.raises(ValueError):
        factor_prime_power(6)
    with pytest.raises(ValueError):
        factor_prime_power(1)

    # refused by range, not by factoring: 65537 * 65539 is a product of two
    # primes past the cap and 2^200 a prime power past it
    for q in (Q_MAX + 1, 65537 * 65539, 2 ** 200):
        with pytest.raises(ValueError, match=r"2\.\.65536"):
            factor_prime_power(q)


def _factors_or_message(q):
    try:
        return factor_prime_power(q)
    except ValueError as exc:
        return str(exc)


def test_factor_prime_power_agrees_with_a_sieve_up_to_the_cap():
    # least prime factor of every n <= Q_MAX, by the sieve of Eratosthenes
    least = list(range(Q_MAX + 1))
    for p in range(2, int(Q_MAX ** 0.5) + 1):
        if least[p] == p:
            for m in range(p * p, Q_MAX + 1, p):
                if least[m] == m:
                    least[m] = p
    for q in range(2, Q_MAX + 1):
        p, m, e = least[q], q, 0
        while m % p == 0:
            m //= p
            e += 1
        want = (p, e) if m == 1 else f"{q} is not a prime power"
        assert _factors_or_message(q) == want
    for q in (-1, 0, 1, Q_MAX + 1):
        assert _factors_or_message(q) == f"field order must be a prime power in 2..{Q_MAX}"


def test_field_serialisation(gf9):
    assert gf9.to_json() == {"p": 3, "e": 2, "modulus": [1, 0, 1]}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_array_ops_match_scalar_ops_and_kernel_tables(q):
    # the kernel tables are the q x q arrays of the scalar operations
    f = field_from_order(q)
    sub_t, mul_t, inv_t = f.kernel_tables()
    # the oracle search indexes the tables as Python lists of ints
    assert {type(x) for row in sub_t + mul_t for x in row} | set(map(type, inv_t)) == {int}
    assert sub_t == [[f.sub(a, b) for b in range(q)] for a in range(q)]
    assert mul_t == [[f.mul(a, b) for b in range(q)] for a in range(q)]
    # the table product agrees with plain polynomial multiplication mod the modulus
    assert mul_t == [[_poly_mul(f, a, b) for b in range(q)] for a in range(q)]
    # and the difference with the digit-wise difference mod p
    assert sub_t == [[sum((a // f.p ** i - b // f.p ** i) % f.p * f.p ** i for i in range(f.e))
                      for b in range(q)] for a in range(q)]
    assert [f.add(f.sub(a, b), b) for a in range(q) for b in range(q)] == \
        [a for a in range(q) for _ in range(q)]
    assert [f.add(x, f.neg(x)) for x in range(q)] == [0] * q
    assert inv_t == [0] + [f.inv(x) for x in range(1, q)]


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 256])
def test_digits_and_mul_matrix_match_the_reps_and_mul(q):
    # the digit form (_digits) and the product on it (gf._mul_mod),
    # as the e x e matrix of x -> a x over GF(p): column j is the digits of
    # a X^j, and that matrix times the digits of x is the digits of a x
    f = field_from_order(q)
    p, e = f.p, f.e
    assert all(sum(d * p ** i for i, d in enumerate(f._digits(a))) == a and max(f._digits(a)) < p
               for a in range(q))
    assert f._digits(q - 1) == [p - 1] * e
    basis = [f._digits(p ** j) for j in range(e)]
    for a in range(0, q, 1 if q <= 27 else 5):
        cols = [gf._mul_mod(f._digits(a), x, f.modulus, p) for x in basis]
        for x in range(q):
            d = f._digits(x)
            got = [sum(cols[j][i] * d[j] for j in range(e)) % p for i in range(e)]
            assert got == f._digits(f.mul(a, x))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27, 125, 127, 128, 243])
def test_log_tables_give_every_product(q):
    # built with the field for e >= 2, where mul reads them, and checked
    # against products of digit lists mod the modulus; a prime field
    # computes mod p and builds neither list
    f = field_from_order(q)
    if f.e == 1:
        assert f._exp is None and f._log is None
        assert [f.mul(a, b) for a in range(q) for b in range(q)] == \
            [a * b % q for a in range(q) for b in range(q)]
        return
    exp, log, n = f._exp, f._log, q - 1
    assert sorted(exp[:n]) == list(range(1, q)) and exp[n:2 * n] == exp[:n]
    assert len(exp) == 4 * n + 1 and log[0] == 2 * n
    pack = [f.p ** i for i in range(f.e)]
    digits = [f._digits(a) for a in range(q)]
    assert [f.mul(a, b) for a in range(q) for b in range(q)] == \
        [sum(map(operator.mul, gf._mul_mod(x, y, f.modulus, f.p), pack))
         for x in digits for y in digits]


def test_every_extension_field_keeps_its_generator():
    lines = []
    for q in range(4, Q_MAX + 1):
        try:
            p, e = factor_prime_power(q)
        except ValueError:
            continue
        if e >= 2:
            lines.append(f"{q} {int(field_new(p, e)._exp[1])}\n")
    assert len(lines) == 93
    assert lines[:6] == ["4 2\n", "8 2\n", "9 4\n", "16 2\n", "25 7\n", "27 3\n"]
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == \
        "7d35f581578744d3e916cf084fcc645dfbe88b7a42a2fd296fe5a58e12a5c500"


def test_every_extension_field_keeps_its_modulus():
    lines = []
    for q in range(4, Q_MAX + 1):
        try:
            p, e = factor_prime_power(q)
        except ValueError:
            continue
        if e >= 2:
            lines.append(f"{q} {' '.join(map(str, field_new(p, e).modulus))}\n")
    assert len(lines) == 93
    assert lines[:3] == ["4 1 1 1\n", "8 1 0 1 1\n", "9 1 0 1\n"]
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == \
        "cb28c24150365d2933abf5b7b51ab3b5ef1321a3097a89a667da629bd2047277"


def test_prime_fields_keep_the_modulus_x():
    for q in (2, 3, 5, 251, 65521):
        assert field_from_order(q).modulus == (0, 1)


def test_rabin_test_agrees_with_trial_division():
    checked = 0
    for p, degrees in [(2, range(2, 9)), (3, range(2, 5)), (5, range(2, 4)), (7, [2])]:
        for d in degrees:
            for low in itertools.product(range(p), repeat=d):
                f = low + (1,)
                assert gf._is_irreducible(f, p) == _irreducible(f, p), (p, f)
                checked += 1
    assert checked == 824


def _naive_matmul(f, a, b, cols):
    out = [[0] * cols for _ in a]
    for i, row in enumerate(a):
        for j in range(cols):
            acc = 0
            for t, x in enumerate(row):
                acc = f.add(acc, f.mul(x, b[t][j]))
            out[i][j] = acc
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9, 16, 25])
@pytest.mark.parametrize("rows, inner, cols", [(1, 1, 1), (2, 3, 4), (4, 1, 3),
                                               (5, 6, 2), (3, 0, 2)])
def test_matmul_matches_naive_triple_loop(q, rows, inner, cols):
    f = field_from_order(q)
    gen = random.Random(q * 1000 + rows * 100 + inner * 10 + cols)
    a = [[gen.randrange(q) for _ in range(inner)] for _ in range(rows)]
    b = [[gen.randrange(q) for _ in range(cols)] for _ in range(inner)]
    got = MatrixFq(f, a, inner) @ MatrixFq(f, b, cols)
    assert (got.rows, got.cols) == (rows, cols)
    assert got.to_lists() == _naive_matmul(f, a, b, cols)
    assert {type(x) for row in got.entries for x in row} <= {int}


@pytest.mark.parametrize("q", [3, 4, 9])
def test_matmul_refuses_mismatched_inner_dimensions(q):
    f = field_from_order(q)
    with pytest.raises(ValueError, match=r"\b3\b.* and 2\b"):
        MatrixFq(f, [[1] * 3]) @ MatrixFq(f, [[1] * 4] * 2)


def test_zero_sentinel_at_the_order_cap():
    f = field_new(2, 16)
    a = [0, 1, 12345, 0, f.q - 1, 0]
    b = [54321, 0, 0, 0, 7, f.q - 1]
    got = list(map(f.mul, a, b))
    assert [got[i] for i in (0, 1, 2, 3, 5)] == [0] * 5
    assert got[4] == _poly_mul(f, f.q - 1, 7) != 0
    gen = random.Random(16)
    x = [gen.randrange(1, f.q) for _ in range(500)]
    assert all(f.mul(v, f.inv(v)) == 1 for v in x)
