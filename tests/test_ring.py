"""Field, monomial order, packing, and polynomial arithmetic tests."""

import random
from itertools import combinations_with_replacement

import pytest

from charmod.ring import PolyRing, Polynomial, PrimeField

from conftest import exps_of_degree, monomial_lcm, monomial_mul


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 6, 9, 32004):
        with pytest.raises(ValueError):
            PrimeField(bad)
    for good in (2, 3, 5, 13, 101, 32003):
        PrimeField(good)


def test_field_arithmetic():
    F = PrimeField(13)
    assert F.inv(5) == 8
    assert all(a * F.inv(a) % 13 == 1 for a in range(1, 13))
    assert F.inv(18) == 8  # inverses of residues, not of representatives
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.inv(26)
    assert F == PrimeField(13) and F != PrimeField(11)


VARS = "abcdefg"


def _reference_grevlex(u, v):
    du, dv = sum(u), sum(v)
    if du != dv:
        return -1 if du < dv else 1
    for a, b in zip(reversed(u), reversed(v)):
        if a != b:
            # smaller exponent in the last differing variable wins
            return 1 if a < b else -1
    return 0


def _reference_lex(u, v):
    for a, b in zip(u, v):
        if a != b:
            return -1 if a < b else 1
    return 0


@pytest.mark.parametrize("order,ref", [("grevlex", _reference_grevlex),
                                       ("lex", _reference_lex)])
def test_packed_keys_realize_the_order(order, ref):
    rng = random.Random(9)
    for n in range(1, 8):
        ring = PolyRing(PrimeField(32003), VARS[:n], order)
        cap = ring.pack.cap
        mons = [tuple(rng.randrange(0, 5) for _ in range(n)) for _ in range(40)]
        mons += [exps_of_degree(rng, n, cap - rng.randrange(3)) for _ in range(20)]
        rng.shuffle(mons)
        for u in mons:
            for v in mons[:20]:
                c = ref(u, v)
                ku, kv = ring.pack.okey(u), ring.pack.okey(v)
                got = (ku > kv) - (ku < kv)
                assert got == c, (order, u, v)


def test_okey_roundtrip_and_degree():
    rng = random.Random(4)
    for n in range(1, 8):
        for order in ("grevlex", "lex"):
            ring = PolyRing(PrimeField(7), VARS[:n], order)
            mons = list(combinations_with_replacement(range(4), n))
            mons += [exps_of_degree(rng, n, rng.randint(0, ring.pack.cap))
                     for _ in range(50)]
            for exps in mons:
                k = ring.pack.okey(exps)
                assert ring.pack.exps(k) == tuple(exps)
                assert ring.pack.deg(k) == sum(exps)


@pytest.mark.parametrize("n,fb,cap", [(1, 9, 255), (2, 9, 255), (3, 9, 255),
                                      (4, 9, 255), (5, 9, 255), (6, 7, 63),
                                      (7, 16, 32767)])
def test_field_width_from_word_budget(n, fb, cap):
    for order in ("grevlex", "lex"):
        pack = PolyRing(PrimeField(32003), VARS[:n], order).pack
        assert (pack.fb, pack.cap) == (fb, cap)
        assert pack.ctx.fits64 == (n <= 6)
        for exps in ([cap] + [0] * (n - 1), [0] * (n - 1) + [cap],
                     exps_of_degree(random.Random(n), n, cap)):
            assert pack.exps(pack.okey(exps)) == tuple(exps)
            over = list(exps)
            over[-1] += 1
            with pytest.raises(OverflowError, match=f"total degree {cap + 1} exceeds "
                                                    f"packing cap {cap}"):
                pack.okey(over)


def test_okeys_additive_under_multiplication():
    ring = PolyRing(PrimeField(7), list("xyz"), "grevlex")
    rng = random.Random(2)
    for _ in range(100):
        u = tuple(rng.randrange(0, 4) for _ in range(3))
        v = tuple(rng.randrange(0, 4) for _ in range(3))
        assert (ring.pack.okey(monomial_mul(u, v))
                == ring.pack.okey(u) + ring.pack.okey(v))


def test_monomial_helpers():
    assert monomial_mul((1, 2), (0, 1)) == (1, 3)
    assert monomial_lcm((1, 2), (2, 1)) == (2, 2)


def test_polynomial_parse_and_arithmetic():
    ring = PolyRing(PrimeField(32003), list("xy"), "grevlex")
    f = ring.poly("x^2 - 3*x*y + 2*y^2")
    g = ring.poly("x - y")
    h = ring.poly("x - 2*y")
    assert f == g * h
    assert (f - g * h).is_zero()
    assert f.degree() == 2 and f.is_homogeneous()
    assert ring.poly("x^2 + x") .is_homogeneous() is False
    assert ring.poly("0").is_zero()
    assert (g ** 2) == ring.poly("x^2 - 2*x*y + y^2")


def test_polynomial_render_parse_roundtrip():
    ring = PolyRing(PrimeField(101), list("xyz"), "grevlex")
    rng = random.Random(5)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            exps = tuple(rng.randrange(0, 4) for _ in range(3))
            terms[exps] = rng.randrange(1, 101)
        f = ring.from_dict(terms)
        assert ring.poly(str(f)) == f


def test_parser_errors():
    ring = PolyRing(PrimeField(7), list("xy"), "grevlex")
    for bad in ("* x", "x^", "q", "x^-1", "(x+y)", ""):
        with pytest.raises(ValueError):
            ring.poly(bad)


def test_coefficients_reduced_mod_p():
    ring = PolyRing(PrimeField(7), list("xy"), "grevlex")
    assert ring.poly("8*x") == ring.poly("x")
    assert ring.poly("7*x").is_zero()
    assert ring.poly("-x") == ring.poly("6*x")


def test_ring_validation():
    with pytest.raises(ValueError):
        PolyRing(PrimeField(7), [])
    with pytest.raises(ValueError):
        PolyRing(PrimeField(7), ["x", "x"])
    with pytest.raises(ValueError):
        PolyRing(PrimeField(7), ["x"], order="degrevlex")
    with pytest.raises(ValueError):
        PolyRing(PrimeField(7), ["x"], order="weighted")
