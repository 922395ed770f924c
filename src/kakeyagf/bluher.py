"""The no-root count N0 for the trinomials x^(2^i+1) + b*x + b.

With q = 2^m, 0 <= i < m and d = gcd(i, m) (d = m when i = 0), the number
of b in F_q* for which the trinomial has no root in F_q is
2^d (q-1) / (2 (2^d+1)) when m/d is even and 2^d (q+1) / (2 (2^d+1)) when
m/d is odd. `bluher_formula` evaluates that in exact integer arithmetic;
`bluher_bruteforce` counts from the definition solved for b: x = 0 is a
root only for b = 0, x = 1 never is, and any other x is a root exactly for
b = x^(2^i+1)/(x + 1), so the b != 0 with a root are the image of that map
and one O(q) pass over the discrete logs of x and x + 1 finds them all.
The two routes are independent and must agree on every (m, i).
"""

from __future__ import annotations

import math

import numpy as np

from .field import Field, exact_div, make_field


def bluher_formula(m: int, i: int) -> int:
    """Closed-form N0; the division must leave no remainder."""
    if not 0 <= i < m:
        raise ValueError(f"need 0 <= i < m, got i={i}, m={m}")
    d = math.gcd(i, m)  # gcd(0, m) == m covers i = 0
    q = 1 << m
    num = (1 << d) * (q - 1 if (m // d) % 2 == 0 else q + 1)
    return exact_div(num, 2 * ((1 << d) + 1))


def bluher_bruteforce(field: Field, i: int) -> int:
    """#{b != 0 : x^(2^i+1) + b*x + b has no root}, from the definition.

    x = 0 gives b = 0 and x = 1 gives 1 + b + b = 1, so neither is a root for
    b != 0. For every other x, x^(2^i+1) = b*(x + 1) has the one solution
    b = x^(2^i+1)/(x + 1), whose discrete log is
    (2^i+1)*log x - log(x + 1) mod q - 1. log is a bijection of the units, so
    marking those logs in a (q-1)-slot bitmap leaves the b without a root
    unmarked.
    """
    if not 0 <= i < field.m:
        raise ValueError(f"need 0 <= i < m, got i={i}, m={field.m}")
    units = field.q - 1
    log = field.log_table()
    x = np.arange(2, field.q, dtype=np.int64)
    has_root = np.zeros(units, dtype=bool)
    has_root[(((1 << i) + 1) * log[x] - log[x ^ 1]) % units] = True
    return units - int(np.count_nonzero(has_root))


def agreement_case(m: int, i: int) -> dict:
    """The `verify-bluher` row of one (m, i)."""
    formula = bluher_formula(m, i)
    brute = bluher_bruteforce(make_field(m), i)
    return {"m": m, "i": i, "d": math.gcd(i, m), "n0_formula": formula,
            "n0_bruteforce": brute, "agree": formula == brute}


def agreement_cases(m_max: int) -> list[tuple]:
    """One O(q) case for every 2 <= m <= m_max and 0 <= i < m."""
    return [(1 << m, agreement_case, (m, i)) for m in range(2, m_max + 1) for i in range(m)]


def agreement_sweep(m_max: int) -> list[dict]:
    """Formula vs brute force for every 2 <= m <= m_max and 0 <= i < m."""
    return [fn(*args) for _, fn, args in agreement_cases(m_max)]
