"""Prime sieving and arithmetic modulo a prime, used throughout the package."""

from collections import OrderedDict
from functools import lru_cache, update_wrapper

import numpy as np

#: largest ell: the largest prime with 12 * MAX_TRACE_PRIME * ell^2 < 2^53, so the Hurwitz sums'
#: err is one exact float division at every prime bound (image --X 3 at this ell peaked at 36 MB)
MAX_ELL = 18_917

#: most bytes each ByteLRU holds; twist_rows keeps 6p bytes a prime, 12.6 MB for p near 2^21
CACHE_BYTES = 1 << 24


class ByteLRU:
    """fn(p) cached by p, read-only; past limit bytes in all, the least recently used go."""

    def __init__(self, fn, limit: int = CACHE_BYTES):
        update_wrapper(self, fn)
        self.fn, self.limit, self.nbytes = fn, limit, 0
        self._held: OrderedDict[int, np.ndarray] = OrderedDict()
        # on the instance: perfbench's package_caches calls each module attribute's cache_clear()
        self.cache_clear = self._clear

    def __call__(self, p: int) -> np.ndarray:
        a = self._held.get(p)
        if a is not None:
            self._held.move_to_end(p)
            return a
        a = self._held[p] = self.fn(p)
        a.setflags(write=False)
        self.nbytes += a.nbytes
        while self.nbytes > self.limit:
            self.nbytes -= self._held.popitem(last=False)[1].nbytes
        return a

    def _clear(self) -> None:
        self._held.clear()
        self.nbytes = 0


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
    """Raise ValueError unless ell is a prime 5 <= ell <= MAX_ELL, checking the bound before is_prime."""
    if ell > MAX_ELL:
        raise ValueError(f"ell must be <= {MAX_ELL}, got {ell}")
    if ell < 5 or not is_prime(ell):
        raise ValueError(f"ell must be a prime >= 5, got {ell}")


def check_unit(d: int, ell: int) -> None:
    """Raise ValueError unless d is nonzero mod ell."""
    if d % ell == 0:
        raise ValueError("d must be nonzero mod ell")


@ByteLRU
def legendre_table(p: int) -> np.ndarray:
    """chi[v] = (v/p) for v in 0..p-1, as an int8 array."""
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    v = np.arange(1, (p + 1) // 2, dtype=np.int64)
    chi[(v * v) % p] = 1
    return chi


def primitive_root(p: int) -> int:
    """Least primitive root g mod the prime p: g^((p-1)/q) != 1 for every prime q | p - 1."""
    factors, n, q = [], p - 1, 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        factors.append(n)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def unit_group(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(power, log) int32 tables of (Z/p)^x for the prime p and its least primitive root g.

    power[k] = g^k for 0 <= k < p - 1, filled by doubling; log[d] = k with
    g^k = d for each unit d, and log[0] = 0.  Units d_1, d_2, ... generate
    (Z/p)^x iff gcd(p - 1, log d_1, ...) = 1.
    """
    g = primitive_root(p)
    power = np.empty(p - 1, dtype=np.int64)
    power[0] = 1
    done = 1
    while done < p - 1:
        step = min(done, p - 1 - done)
        power[done:done + step] = power[:step] * pow(g, done, p) % p
        done += step
    log = np.zeros(p, dtype=np.int32)
    log[power] = np.arange(p - 1, dtype=np.int32)
    return power.astype(np.int32), log


@ByteLRU
def unit_logs(p: int) -> np.ndarray:
    """The log table of unit_group(p), cached for the few moduli ell a run uses."""
    return unit_group(p)[1]
