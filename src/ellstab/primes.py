"""Prime sieving and arithmetic modulo a prime, used throughout the package."""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def primes_up_to(n: int) -> tuple[int, ...]:
    """All primes <= n, increasing, via Eratosthenes."""
    if n < 2:
        return ()
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    p = 2
    while p * p <= n:
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        p += 1
    return tuple(i for i in range(2, n + 1) if sieve[i])


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


def check_ell(ell: int) -> None:
    """Raise ValueError unless ell is a prime >= 5."""
    if ell < 5 or not is_prime(ell):
        raise ValueError(f"ell must be a prime >= 5, got {ell}")


def check_unit(d: int, ell: int) -> None:
    """Raise ValueError unless d is nonzero mod ell."""
    if d % ell == 0:
        raise ValueError("d must be nonzero mod ell")


@lru_cache(maxsize=4096)
def legendre_table(p: int) -> np.ndarray:
    """chi[v] = (v/p) for v in 0..p-1, as an int8 array."""
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    v = np.arange(1, (p + 1) // 2, dtype=np.int64)
    chi[(v * v) % p] = 1
    return chi


@lru_cache(maxsize=16)
def unit_logs(p: int) -> list[int]:
    """log[d] for each unit d mod the prime p, to the least primitive root g (log[g] = 1).

    Units d_1, d_2, ... generate (Z/p)^x iff gcd(p - 1, log d_1, ...) = 1.
    """
    for g in range(2, p):
        log = {pow(g, k, p): k for k in range(p - 1)}
        if len(log) == p - 1:
            return [log.get(d, 0) for d in range(p)]
    raise ValueError(f"no primitive root mod {p}")
