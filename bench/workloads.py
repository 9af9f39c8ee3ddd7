"""Seeded operation lists for the three benchmark workloads.

Each operation is one twobridge CLI call, ``argv`` without ``--json``,
plus what its check needs.  A workload's list is one cycle; the
benchmark repeats whole cycles.  The seed varies the inputs, but each
list keeps the same mix of operations at every seed, so that runs with
different seeds do comparable work:

- verify: the four paper examples, in seeded order.
- precision: the same precision points for rho3 and rho4 at every seed,
  with N moved by a seeded offset that keeps the size of p^N in machine
  digits.
- riley: fixed knot sizes m with a seeded n, and character points of
  fixed small knots at pairs of primes taken the same number of steps
  below and above fixed centres.
"""

from __future__ import annotations

import math
import random
import sys
from typing import NamedTuple

from checks import FAMILIES

WORKLOADS = ("verify", "precision", "riley")


class Op(NamedTuple):
    kind: str
    argv: tuple[str, ...]
    params: tuple


def _verify(rng: random.Random) -> list[Op]:
    ids = ["4.5.1", "4.5.2", "4.5.3a", "4.5.3b"]
    rng.shuffle(ids)
    return [Op("verify", ("verify-example", "--id", i), (i,)) for i in ids]


# (subcommand, N, D, reach): near-symmetric points N ~ D, then N >> D (big
# coefficients, short series) and N << D (small coefficients, long series).
# The seed moves N by at most reach, and only to values where p^N has as
# many machine digits as at the centre: the cost of big-integer arithmetic
# jumps where it gains one (lift rho3 at D = 64 took 0.20 s at N = 60,
# 7 digits, and 0.26 s at N = 64, 8 digits) and is nearly flat in
# between.  D stays fixed, since the cost grows like D^2 to D^3.
PRECISION_POINTS = (
    ("lift", 30, 30, 2),
    ("lift", 60, 60, 2),
    ("lift", 96, 96, 2),
    ("lfunction", 30, 30, 2),
    ("lfunction", 46, 46, 2),
    ("lfunction", 60, 60, 2),
    ("lift", 192, 12, 4),
    ("lfunction", 192, 12, 4),
    ("lift", 8, 96, 2),
    ("lfunction", 8, 96, 2),
)


def _digits(p: int, n: int) -> int:
    return -(-(p**n).bit_length() // sys.int_info.bits_per_digit)


def _precision(rng: random.Random) -> list[Op]:
    ops = []
    for sub, N, D, reach in PRECISION_POINTS:
        for key in ("rho3", "rho4"):
            p = FAMILIES[key]["p"]
            n = rng.choice([n for n in range(N - reach, N + reach + 1) if _digits(p, n) == _digits(p, N)])
            ops.append(Op(sub, (sub, "--example", key, "--prec", str(n), "--deg", str(D)), (key, n, D)))
    rng.shuffle(ops)
    return ops


RILEY_M = (31, 35, 39, 43, 47, 51, 55, 59, 63)
CHAR_KNOTS = ((5, 3), (7, 3), (9, 5), (11, 5))
CHAR_CENTRES = (160, 200, 240, 280)
SMALL_PRIMES = (11, 13, 17, 19, 23)


def _is_prime(k: int) -> bool:
    return k > 1 and all(k % d for d in range(2, math.isqrt(k) + 1))


def _prime_steps(centre: int, steps: int, direction: int) -> int:
    k = centre
    for _ in range(steps):
        k += direction
        while not _is_prime(k):
            k += direction
    return k


def _riley(rng: random.Random) -> list[Op]:
    ops = []
    for m in RILEY_M:
        # |n| between m/4 and m/3: the cost of riley falls by about 15% from
        # n = 7 to n = 17 at m = 47, and this op sets op_p50_s on riley
        band = [n for n in range(-(-m // 4), m // 3 + 1) if n % 2 and math.gcd(m, n) == 1]
        n = rng.choice(band) * rng.choice((1, -1))
        ops.append(Op("riley", ("riley", "--m", str(m), "--n", str(n)), (m, n, rng.choice(SMALL_PRIMES))))
    for (m, n), centre in zip(CHAR_KNOTS, CHAR_CENTRES):
        steps = rng.randint(1, 2)
        for direction in (-1, 1):
            p = _prime_steps(centre, steps, direction)
            ops.append(Op("char-points", ("char-points", "--m", str(m), "--n", str(n), "--p", str(p)), (m, n, p)))
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random("%s:%d" % (workload, seed))
    return {"verify": _verify, "precision": _precision, "riley": _riley}[workload](rng)
