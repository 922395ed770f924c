"""Exact arithmetic in GF(2^m) on integer-encoded polynomials.

An element of GF(2^m) = GF(2)[x]/(p) is a plain int below 2**m whose bit k
is the coefficient of x^k, so the whole field is range(2**m). Addition is
bitwise XOR and needs no helper. The modulus p uses the same encoding with
bit m set, and all I/O renders elements as bare lowercase hex.

Each degree has a canonical modulus: the irreducible polynomial with the
smallest integer encoding, found by exhaustive trial division when the
field is built (no external table to trust). Every cardinality computed
downstream is invariant under the choice of irreducible modulus, and
`make_field` accepts an override so tests can confirm that on a second
modulus.

Scalar operations are carry-less multiply/reduce on ints. Bulk operations
(`mul_arrays`, `pow_all`) work on numpy arrays through discrete
log/antilog tables built lazily from a multiplicative generator g: the
antilog table by doubling, in O(log q) rounds that each multiply by a
fixed power of g through two tables of at most 2^ceil(m/2) entries, one
per half of the bits, spanned from the columns g^n*x^b; the log table by a
chunked scatter over it, which also checks that the walk reached every
unit. `xor_span` extends a GF(2)-linear map from its values on the basis
elements 2^k by doubling in place; it builds those half tables, the
bool `trace_table` from the traces of the basis elements, and the
additivity check of `frobenius_classes`.
`slope_sweep` is the one kernel behind every full-slope sweep in the
other modules: it yields p(x) + t*x over all x for each slope t, walking
x in discrete-log order so that t*x is a contiguous slice of the antilog
table. Its input p runs in that order too: `power_sum` builds a sum of
powers in it with no log lookup and no index array over the field, plus
the linear term t*x of one slope, so that a single-slope query needs no
sweep. For x = g^k, the log k*e of x^e steps by a along
k = r, r + b, r + 2b, ..., where a = e*b mod q - 1 is taken near 0
(`stride_pair` picks the b that makes |a| + b least), so each term is a
few strided slices of the antilog table, never more than about
2*sqrt(q). `encoding_order` scatters such a map back to encoding order,
which is how `pow_all` is built. This module is the only one that knows
the kernel's order. `frobenius_classes` maps every slope to the
least element of its class {t, t^2, t^4, ...}, once squaring has been
checked GF(2)-additive in the tables; a map with coefficients in GF(2)
has the same image size and fiber histogram at every slope of a class,
so the full-slope sweeps run one slope per class.
Fields are immutable after construction apart from their caches, the
tables and the arrays `Field.derived` keeps with the table arrays they
were built from, so instances are safe to share across workers.
"""

from __future__ import annotations

import functools
import math

import numpy as np

MAX_DEGREE = 20
LOG_CHUNK = 1 << 16  # antilog entries scattered into the log table at once


def poly_mod(a: int, b: int) -> int:
    """Remainder of a divided by b in GF(2)[x] (int encodings, b != 0)."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def is_irreducible(poly: int) -> bool:
    """Exhaustive trial division by every polynomial of degree 1..deg/2."""
    deg = poly.bit_length() - 1
    if deg < 1:
        return False
    for f in range(2, 1 << (deg // 2 + 1)):
        if poly_mod(poly, f) == 0:
            return False
    return True


def smallest_irreducible(m: int) -> int:
    """Irreducible degree-m polynomial with the smallest integer encoding."""
    # constant term must be nonzero for m >= 1, so only odd encodings qualify
    for cand in range((1 << m) | 1, 1 << (m + 1), 2):
        if is_irreducible(cand):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {m}")


def frobenius_class_count(m: int) -> int:
    """Number of classes {t, t^2, t^4, ...} in GF(2^m).

    By Burnside's lemma over the m powers of squaring: the k-th power fixes
    the subfield GF(2^gcd(k, m)).
    """
    return sum(1 << math.gcd(k, m) for k in range(m)) // m


def exact_div(num, den):
    """Integer quotient that must be exact; a remainder means a formula bug.

    num may be an int or an integer array; every entry must divide exactly.
    """
    quo, rem = divmod(num, den)
    if np.any(rem):
        raise ArithmeticError(f"{num}/{den} is not an exact division")
    return quo


def stride_pair(e: int, units: int) -> tuple[int, int]:
    """(a, b) with b >= 1 and a = e*b mod units in (-units/2, units/2], |a| + b least.

    Along k = r, r + b, r + 2b, ... the product k*e steps by a mod units.
    By Dirichlet's approximation theorem some b <= ceil(sqrt(units)) has
    |a| < sqrt(units), so the search over b stops early.
    """
    best, best_cost = (0, 1), math.inf
    b = 1
    while b < best_cost:
        a = e * b % units
        if 2 * a > units:
            a -= units
        if abs(a) + b < best_cost:
            best, best_cost = (a, b), abs(a) + b
        b += 1
    return best


def xor_span(basis, out: np.ndarray) -> np.ndarray:
    """Fill out[x] with the XOR of basis[k] over the set bits k of x; return out.

    This extends a GF(2)-linear map from its values on the basis elements
    2^k, by doubling in place: out[2^k:2^(k+1)] = out[:2^k] ^ basis[k].
    out must have 2^len(basis) entries; for a map into GF(2) it may be
    bool, with bool basis values.
    """
    out[0] = 0
    for k, b in enumerate(basis):
        np.bitwise_xor(out[:1 << k], b, out=out[1 << k:2 << k])
    return out


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class Field:
    """GF(2^m) with a fixed irreducible modulus."""

    def __init__(self, m: int, modulus: int | None = None):
        if not isinstance(m, int) or not 1 <= m <= MAX_DEGREE:
            raise ValueError(f"extension degree must be in 1..{MAX_DEGREE}, got {m}")
        if modulus is None:
            modulus = smallest_irreducible(m)
        else:
            if modulus < 0:   # no polynomial over GF(2) encodes as a negative int
                raise ValueError(f"modulus {modulus:x} is negative")
            if modulus.bit_length() - 1 != m:
                raise ValueError(f"modulus {modulus:x} does not have degree {m}")
            if modulus & 1 == 0:
                raise ValueError(f"modulus {modulus:x} has a zero constant term")
            if not is_irreducible(modulus):
                raise ValueError(f"modulus {modulus:x} is reducible")
        self.m = m
        self.q = 1 << m
        self.modulus = modulus
        self._exp: np.ndarray | None = None   # g^k, k = 0..q-2: a view of exp2
        self._exp2: np.ndarray | None = None  # exp doubled, avoids mod q-1 on index sums
        self._log: np.ndarray | None = None   # discrete log; log[0] is a masked sentinel
        self._trace: np.ndarray | None = None
        self._derived: dict = {}   # build -> (the source arrays it read, its value)

    def __repr__(self) -> str:
        return f"Field(m={self.m}, modulus={self.modulus:x})"

    # ------------------------------------------------------------------
    # scalar operations

    def mul(self, a: int, b: int) -> int:
        """Carry-less product reduced by the modulus."""
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> self.m:
                a ^= self.modulus
        return r

    def pow(self, a: int, e: int) -> int:
        """Square-and-multiply; pow(a, 0) == 1 for every a, including a = 0."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def trace_abs(self, a: int) -> int:
        """Absolute trace a + a^2 + ... + a^(2^(m-1)), valued in {0, 1}."""
        acc = a
        s = a
        for _ in range(self.m - 1):
            s = self.mul(s, s)
            acc ^= s
        return acc

    # ------------------------------------------------------------------
    # bulk operations on numpy arrays of encodings

    def _find_generator(self) -> int:
        q = self.q
        fac = _prime_factors(q - 1)
        for g in range(2, q):
            if all(self.pow(g, (q - 1) // p) != 1 for p in fac):
                return g
        raise ArithmeticError("no generator found; modulus cannot be irreducible")

    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exp, exp2, log), built once; exp is the view exp2[:q - 1].

        exp is filled by doubling, exp[n:2n] = g^n * exp[:n], the last round
        cut at q - 1. Multiplying by a fixed c is GF(2)-linear, so c*a is
        c*(low h bits of a) + c*(high bits of a), h = ceil(m/2): each round
        spans two tables of at most 2^h entries from the columns c*x^b
        (each column the last times x) and does one lookup per half. log is scattered from
        exp in chunks of 2^16 entries; a unit it never reaches keeps the -1
        fill, so the walk must cover the unit group.
        """
        if self._exp is None:
            m, q, units = self.m, self.q, self.q - 1
            g = 1 if q == 2 else self._find_generator()
            exp2 = np.empty(2 * units, dtype=np.int64)
            exp = exp2[:units]
            exp[0] = 1
            h = (m + 1) // 2
            mask = (1 << h) - 1
            lo = np.empty(1 << h, dtype=np.int64)       # c * a for a < 2^h
            hi = np.empty(1 << (m - h), dtype=np.int64)  # c * (a << h)
            n, c = 1, g  # exp[:n] is filled and c = g^n
            while n < units:
                src = exp[:min(n, units - n)]
                dst = exp[n:n + len(src)]
                cols = [c]  # c * x^b: each is the last times x, one shift and reduction
                for _ in range(m - 1):
                    v = cols[-1] << 1
                    cols.append(v ^ self.modulus if v >> m else v)
                xor_span(cols[:h], lo)
                xor_span(cols[h:], hi)
                idx = exp2[units:units + len(src)]  # scratch; the copy of exp comes last
                np.bitwise_and(src, mask, out=idx)
                dst[:] = lo[idx]
                np.right_shift(src, h, out=idx)
                dst ^= hi[idx]
                n += len(src)
                c = self.mul(c, c)
            log = np.full(q, -1, dtype=np.int64)
            step = np.arange(min(units, LOG_CHUNK), dtype=np.int64)
            for start in range(0, units, LOG_CHUNK):
                chunk = exp[start:start + LOG_CHUNK]
                log[chunk] = step[:len(chunk)] + start
            # q - 1 entries that reach every unit hit each once and none is 0
            if log[1:].min() < 0:
                raise ArithmeticError("generator walk did not cover the unit group")
            log[0] = 0
            exp2[units:] = exp
            self._exp = exp
            self._exp2 = exp2
            self._log = log
        return self._exp, self._exp2, self._log

    def mul_arrays(self, a, b) -> np.ndarray:
        """Element-wise products of arrays (or scalars) of encodings."""
        _, exp2, log = self._tables()
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = exp2[log[a] + log[b]]
        return np.where((a == 0) | (b == 0), 0, out)

    def pow_all(self, e: int) -> np.ndarray:
        """x^e for every x in encoding order; pow_all(0) is all ones."""
        return self.encoding_order(self.power_sum([e]))

    def encoding_order(self, p) -> np.ndarray:
        """p in the kernel's order (as `power_sum` builds it), rearranged by x.

        Entry 1 + k of p is the value at g^k, so one scatter through the
        antilog table puts it at index exp[k].
        """
        exp = self._tables()[0]
        out = np.empty(self.q, dtype=np.int64)
        out[0] = p[0]
        out[exp] = p[1:]
        return out

    def log_table(self) -> np.ndarray:
        """Discrete log of every unit to the table generator; entry 0 is a sentinel."""
        return self._tables()[2]

    def trace_table(self) -> np.ndarray:
        """trace_abs of every element as a bool array, cached.

        The trace is GF(2)-linear, so `xor_span` builds it from the traces
        of the basis elements 2^k. Bool takes an eighth of int64's memory
        and promotes to int64 in arithmetic with Python ints.
        """
        if self._trace is None:
            basis = [self.trace_abs(1 << k) for k in range(self.m)]
            if any(b >> 1 for b in basis):
                raise ArithmeticError("trace values escaped {0, 1}")
            self._trace = xor_span([bool(b) for b in basis], np.empty(self.q, dtype=bool))
        return self._trace

    def derived(self, build, *sources):
        """build(self), kept read-only with the table arrays it read, `sources`.

        Callers fetch `sources` on every call, so a replaced table array
        builds the value again, and a table that fails its check raises.
        """
        kept = self._derived.get(build)
        if kept is None or any(a is not b for a, b in zip(kept[0], sources)):
            value = build(self)
            for a in value if isinstance(value, tuple) else (value,):
                a.setflags(write=False)
            kept = self._derived[build] = (sources, value)
        return kept[1]

    def frobenius_classes(self) -> np.ndarray:
        """For every t in encoding order, the least element of {t, t^2, t^4, ...}; kept.

        Squaring is first checked GF(2)-additive in the table arithmetic:
        the XOR-extension of its values at the basis elements 2^j, built by
        doubling, must equal its value at every element. Squaring is also
        multiplicative there and a bijection, so for a map f that sums
        powers with coefficients in GF(2), f(x) + t^2*x is the square of
        f(y) + t*y at y = sqrt(x), in the products the slope kernel takes:
        the slopes of one class share their image size and fiber histogram.
        """
        return self.derived(Field._least_conjugates, *self._tables()[1:])

    def _least_conjugates(self) -> np.ndarray:
        x = np.arange(self.q, dtype=np.int64)
        sq = self.mul_arrays(x, x)
        ext = xor_span(sq[1 << np.arange(self.m)], np.empty_like(sq))
        if not np.array_equal(ext, sq):
            raise ArithmeticError("squaring is not GF(2)-additive in the field tables")
        rep, orbit = x.copy(), x
        for _ in range(self.m - 1):
            orbit = sq[orbit]
            np.minimum(rep, orbit, out=rep)
        return rep

    def power_sum(self, exponents, slope: int = 0) -> np.ndarray:
        """p(x) = slope*x + sum of x^e over exponents, in the kernel's order.

        A constant term is the exponent 0. Entry 0 is p(0), with 0^0 = 1,
        and entry 1 + k is p(g^k). The linear term there is g^(log slope
        + k), the contiguous slice exp2[log slope : log slope + q - 1]
        that `slope_sweep` reads, so a single-slope query builds its one
        map here, in one buffer. The power term is g^(k*e). With (a, b) = stride_pair(e, q - 1), the
        logs k*e along k = r, r + b, r + 2b, ... step by a, so out[1 + r::b]
        takes a run of slices of the doubled antilog table in stride a:
        ascending from below q - 1 for a > 0, descending from q - 1 or
        above for a < 0. For a = 0 the residue class is constant, and one
        broadcast over a (q - 1)/b by b view covers every r. No log lookup
        beyond the slope's, and no index array longer than b.
        """
        _, exp2, log = self._tables()
        units = self.q - 1
        out = np.zeros(self.q, dtype=np.int64)
        if slope:
            k = log[slope]
            out[1:] = exp2[k:k + units]
        for e in exponents:
            if e < 0:
                raise ValueError("exponent must be nonnegative")
            if e == 0:
                out[0] ^= 1
            e %= units
            a, b = stride_pair(e, units)
            if a == 0:  # b = (q - 1)/gcd(e, q - 1) divides q - 1
                block = out[1:].reshape(-1, b)
                block ^= exp2[np.arange(b) * e % units]
                continue
            base = units if a < 0 else 0  # a run descends from the upper copy
            for r in range(b):
                dst = out[1 + r::b]
                s, j = r * e % units + base, 0
                while j < len(dst):
                    src = exp2[s::a][:len(dst) - j]  # to the end of the table
                    run = dst[j:j + len(src)]
                    np.bitwise_xor(run, src, out=run)
                    j += len(src)
                    s = (s + len(src) * a) % units + base
        return out

    def slope_sweep(self, p, ts):
        """Yield (t, p(x) + t*x for every x) for each slope t in ts.

        p and the yielded values run in the kernel's order: x = 0 first,
        then x = g^0, g^1, ..., g^(q-2) for the table generator g, so t*x is
        the slice exp2[log t : log t + q - 1] and no product is gathered.
        `power_sum` builds p in that order. The yielded array is one buffer
        that the next slope overwrites; copy it to keep it.
        """
        _, exp2, log = self._tables()
        n = self.q - 1
        p = np.asarray(p, dtype=np.int64)
        p_units = p[1:]  # p(g^k), k = 0..q-2
        out = np.empty(self.q, dtype=np.int64)
        out[0] = p[0]
        for t in ts:
            if t == 0:
                out[1:] = p_units
            else:
                k = log[t]
                np.bitwise_xor(p_units, exp2[k:k + n], out=out[1:])
            yield t, out

@functools.lru_cache(maxsize=None)
def _default_field(m: int) -> Field:
    return Field(m)


def make_field(m: int, modulus: int | None = None) -> Field:
    """Field for GF(2^m); default-modulus instances are shared and cached."""
    if modulus is None:
        return _default_field(m)
    return Field(m, modulus)
