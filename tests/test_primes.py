import sympy

from ellstab.primes import primes_up_to, primitive_root
from ellstab.traces import MAX_TRACE_PRIME


def test_primitive_root_is_sympys_least_primitive_root():
    largest = [sympy.prevprime(MAX_TRACE_PRIME + 1)]
    while len(largest) < 5:
        largest.append(sympy.prevprime(largest[-1]))
    assert largest[0] == MAX_TRACE_PRIME - 8 and len(set(largest)) == 5
    ps = list(primes_up_to(10**4)) + largest
    assert [p for p in ps if primitive_root(p) != sympy.primitive_root(p)] == []
