"""Reference arithmetic for checking kakeyagf's outputs, written apart from it.

Nothing here imports kakeyagf. Elements of GF(2^m) are ints (or int64
numpy arrays) whose bit k is the coefficient of x^k, the encoding the
program documents. Products are schoolbook carry-less shift-and-add with
reduction one bit at a time, vectorised over arrays; there are no
log/antilog tables, so a table bug in the program cannot be copied here.
Irreducibility uses Ben-Or's gcd test rather than trial division.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ----------------------------------------------------------------------
# GF(2)[x] on Python ints

def pmod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def pmulmod(a: int, b: int, mod: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a.bit_length() == mod.bit_length():
            a ^= mod
    return r


def pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, pmod(a, b)
    return a


def is_irreducible(p: int) -> bool:
    """Ben-Or: p of degree m is irreducible iff gcd(x^(2^i) - x, p) = 1, i <= m/2."""
    m = p.bit_length() - 1
    if m < 1:
        return False
    x_pow = 2  # the polynomial x
    for _ in range(m // 2):
        x_pow = pmulmod(x_pow, x_pow, p)
        if pgcd(p, x_pow ^ 2) != 1:
            return False
    return True


def smallest_irreducible(m: int) -> int:
    for cand in range((1 << m) | 1, 1 << (m + 1), 2):
        if is_irreducible(cand):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {m}")


def largest_irreducible(m: int) -> int:
    for cand in range((1 << (m + 1)) - 1, 1 << m, -2):
        if is_irreducible(cand):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {m}")


# ----------------------------------------------------------------------
# GF(2^m) on numpy arrays

class RefField:
    """GF(2)[x]/(modulus) by shift-and-add; scalars and arrays alike."""

    def __init__(self, modulus: int):
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:x} is reducible")
        self.modulus = modulus
        self.m = modulus.bit_length() - 1
        self.q = 1 << self.m

    def mul(self, a, b):
        a = np.array(a, dtype=np.int64, copy=True)
        b = np.asarray(b, dtype=np.int64)
        r = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        a = np.broadcast_to(a, r.shape).copy()
        for k in range(self.m):
            r ^= np.where((b >> k) & 1, a, 0)
            a <<= 1
            a ^= np.where((a >> self.m) & 1, self.modulus, 0)
        return r if r.ndim else int(r)

    def sq(self, a):
        return self.mul(a, a)

    def linear(self, images, x):
        """The GF(2)-linear map sending 2^k to images[k], applied to x.

        One 256-entry table per byte of x: the image of x is the XOR of
        its bytes' images.
        """
        x = np.asarray(x, dtype=np.int64)
        out = np.zeros(x.shape, dtype=np.int64)
        for lo in range(0, self.m, 8):
            table = np.zeros(256, dtype=np.int64)
            for k, c in enumerate(images[lo:lo + 8]):
                table[1 << k:2 << k] = table[:1 << k] ^ int(c)
            out ^= table[(x >> lo) & 255]
        return out

    def scale(self, t: int, x):
        """t*x, through the images t*2^k of the basis (one pass per bit)."""
        return self.linear([self.mul(t, 1 << k) for k in range(self.m)], x)

    def frob(self, a, k: int):
        """a^(2^k); Frobenius is GF(2)-linear, so it is applied through the basis."""
        basis = np.array([1 << j for j in range(self.m)], dtype=np.int64)
        for _ in range(k):
            basis = self.sq(basis)
        return self.linear(basis, a)

    def trace(self, a):
        acc = np.asarray(a, dtype=np.int64).copy()
        s = acc.copy()
        for _ in range(self.m - 1):
            s = self.sq(s)
            acc ^= s
        return acc if acc.ndim else int(acc)

    def elements(self) -> np.ndarray:
        return np.arange(self.q, dtype=np.int64)

    def quartic_values(self) -> np.ndarray:
        """x^4 + x^3 for every x."""
        x = self.elements()
        x2 = self.frob(x, 1)
        return self.frob(x2, 1) ^ self.mul(x2, x)

    def gold_values(self, i: int) -> np.ndarray:
        """x^(2^i + 1) for every x."""
        x = self.elements()
        return self.mul(self.frob(x, i), x)

    def images(self, values: np.ndarray, t: int) -> np.ndarray:
        """f(x) + t*x for every x, given the f values."""
        return values ^ self.scale(t, self.elements())

    def isomorphism_from(self, other_modulus: int):
        """Map from GF(2)[x]/(other_modulus) into this field, as a function on ints.

        x goes to the smallest root of other_modulus here; a root exists
        because both are fields of the same order.
        """
        if other_modulus.bit_length() - 1 != self.m:
            raise ValueError("moduli of different degrees")
        y = self.elements()
        acc = np.zeros(self.q, dtype=np.int64)
        for k in range(self.m, -1, -1):
            acc = self.mul(acc, y) ^ ((other_modulus >> k) & 1)
        roots = np.flatnonzero(acc == 0)
        if roots.size == 0:
            raise ArithmeticError("no root: the moduli cannot both be irreducible")
        powers = [1]
        for _ in range(self.m - 1):
            powers.append(self.mul(powers[-1], int(roots[0])))

        def phi(a: int) -> int:
            out = 0
            for k in range(self.m):
                if (a >> k) & 1:
                    out ^= powers[k]
            return out
        return phi


def fiber_histogram(images: np.ndarray, q: int) -> dict[int, int]:
    """omega(k) = #{y with exactly k preimages}, k = 0 included."""
    hist = np.bincount(np.bincount(images, minlength=q))
    return {int(k): int(c) for k, c in enumerate(hist) if c}


def value_set(values: np.ndarray, q: int) -> np.ndarray:
    """The distinct values, sorted."""
    seen = np.zeros(q, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen)


def parity(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> shift
    return x & 1


# ----------------------------------------------------------------------
# the paper's counts, in exact arithmetic

def quartic_omega1(m: int, tr_t: int) -> int:
    q = 1 << m
    num = (q + 1 if tr_t == 0 else q + 4) if m % 2 else (q - 1 if tr_t == 0 else q + 2)
    if num % 3:
        raise ArithmeticError("omega_1 numerator not divisible by 3")
    return num // 3


def quartic_omega3(tr_t: int) -> int:
    return 1 - tr_t


def block_total(sizes, n: int) -> int:
    """sum over t of (s^n - 1)/(s - 1), a size-1 image adding n."""
    return sum(n if s == 1 else (s ** n - 1) // (s - 1) for s in sizes)


def below_bounds(size: int, q: int, n: int) -> tuple[bool, bool]:
    """(size < new bound, size < prior bound), decided exactly; needs n >= 2.

    Even m: both bounds are rationals. Odd m: for n >= 2 both bounds
    increase with r = sqrt(q), so they are evaluated at rationals
    r_lo < sqrt(q) < r_hi; a size strictly between the two values raises.
    """
    if n < 2:
        raise ValueError("the odd-m comparison needs n >= 2")
    m = q.bit_length() - 1
    if m % 2 == 0:
        s = math.isqrt(q)
        new = Fraction(2 * q, q + s - 2) * Fraction(q + s, 2) ** n
        old = Fraction(3 * q, 2 * (q - 1)) * Fraction(2 * q + 1, 3) ** n
        return size < new, size < old

    def new_odd(r):
        return Fraction(8 * q) / (5 * q + 2 * r - 3) * ((5 * q + 2 * r + 5) / 8) ** n

    def old_odd(r):
        return Fraction(3, 2) * (2 * (q + r + 1) / 3) ** n

    scale = 10 ** 12
    r_lo = Fraction(math.isqrt(q * scale * scale), scale)
    r_hi = r_lo + Fraction(1, scale)
    verdicts = []
    for bound in (new_odd, old_odd):
        if size < bound(r_lo):
            verdicts.append(True)
        elif size >= bound(r_hi):
            verdicts.append(False)
        else:
            raise ArithmeticError(f"size {size} within 1e-12 of a bound at q={q}, n={n}")
    return verdicts[0], verdicts[1]
