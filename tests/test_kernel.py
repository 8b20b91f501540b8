"""Kernel-level tests: packing, divisibility, and backend parity."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmod import kernel
from charmod.freemod import term_key, term_okey, term_pos
from charmod.groebner import QuotientRing
from charmod.kernel import (OrderCtx, POS_BITS, POS_MASK, backend_name,
                            divides, epack, make_reducer, pure, scaled_merge)
from charmod.ring import PolyRing, PrimeField

from conftest import exps_of_degree, monomial_lcm, monomial_mul, times_poly


def _ring(p=32003, n=3, order="grevlex"):
    return PolyRing(PrimeField(p), "stuvwxyz"[-n:], order)


def _key(ring, exps, pos=0):
    return (ring.pack.okey(exps) << POS_BITS) | (0xFFFF - pos)


def _random_vector(rng, ring, p, maxlen=8, width=3, positions=3, top=None):
    """Random descending term list; with ``top``, terms have total degree
    in ``[top - 3, top]``."""
    terms = {}
    for _ in range(rng.randrange(1, maxlen)):
        if top is None:
            exps = [rng.randrange(0, width) for _ in range(ring.n)]
        else:
            exps = exps_of_degree(rng, ring.n, rng.randint(max(0, top - 3), top))
        terms[_key(ring, exps, rng.randrange(positions))] = rng.randrange(1, p)
    return sorted(terms.items(), reverse=True)


def test_epack_recovers_exponents_grevlex():
    # e_1 in the bottom field .. e_n in the top; block flags are dropped
    ring = _ring(n=4)
    ctx = ring.pack.ctx
    fb = ctx.fb
    flag = 1 << (ctx.n * fb)
    for exps in [(0, 0, 0, 0), (1, 2, 0, 3), (3, 3, 3, 3), (0, 0, 5, 0)]:
        ep = epack(ring.pack.okey(exps), ctx)
        unpacked = tuple((ep >> (i * fb)) & ((1 << fb) - 1) for i in range(ctx.n))
        assert unpacked == exps
        assert epack(ring.pack.okey(exps) | flag, ctx) == ep


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("n", range(1, 9))
def test_packed_lcm_identities_match_exponent_tuples(order, n):
    # the S-pair loop of groebner._buchberger_terms keeps no exponent tuple:
    # the lcm word is the field-wise maximum of the leads' words, its
    # product with ones (a 1 in each field) holds the degree in field n - 1
    # and, for grevlex, the lcm's order key below it, and leads are coprime
    # iff the lcm word is their sum; leads go up to the cap, lcms to twice it
    ring = _ring(n=n, order=order)
    pack = ring.pack
    ctx = pack.ctx
    fb, guards = ctx.fb, ctx.guards
    top = fb - 1
    ones = guards >> top
    rng = random.Random(10 * n + (order == "lex"))
    seen = {"coprime": 0, "past cap": 0, "within cap": 0}
    for _ in range(300):
        a, b = (exps_of_degree(rng, n, rng.randint(rng.choice((0, ctx.cap // 2)), ctx.cap))
                for _ in "ab")
        if rng.random() < 0.3:
            b = tuple(0 if x else y for x, y in zip(a, b))
        ea, eb = epack(pack.okey(a), ctx), epack(pack.okey(b), ctx)
        g = ((ea | guards) - eb) & guards
        low = g - (g >> top)
        w = (ea & low) | (eb & ~low)
        lcm = monomial_lcm(a, b)
        deg = sum(lcm)
        sums = w * ones
        assert w == sum(e << (i if order == "grevlex" else n - 1 - i) * fb
                        for i, e in enumerate(lcm))
        assert (sums >> (n - 1) * fb) & ((1 << fb) - 1) == deg
        coprime = monomial_mul(a, b) == lcm
        assert (w == ea + eb) == coprime
        seen["coprime"] += coprime
        if deg > ctx.cap:
            seen["past cap"] += 1
            continue
        seen["within cap"] += 1
        assert w == epack(pack.okey(lcm), ctx)
        assert (w if order == "lex" else sums & ctx.okey_mask) == pack.okey(lcm)
    assert seen["coprime"] >= 30 and seen["within cap"] >= 30, seen
    # in one variable the lcm of two leads is one of them
    assert seen["past cap"] >= 30 if n > 1 else seen["past cap"] == 0, seen


def test_divides_matches_componentwise():
    ring = _ring(n=3)
    ctx = ring.pack.ctx
    rng = random.Random(0)
    for _ in range(300):
        u = tuple(rng.randrange(0, 4) for _ in range(3))
        v = tuple(rng.randrange(0, 4) for _ in range(3))
        expected = all(a <= b for a, b in zip(u, v))
        got = divides(epack(ring.pack.okey(u), ctx),
                      epack(ring.pack.okey(v), ctx), ctx.guards)
        assert got == expected, (u, v)


# positions at the edges of the 16-bit field, and anywhere in it
_POSITIONS = st.one_of(st.sampled_from([0, 1, POS_MASK - 1, POS_MASK]),
                       st.integers(0, POS_MASK))


@settings(max_examples=300, deadline=None)
@given(okey=st.one_of(st.just(0), st.integers(0, 1 << 100)), pos=_POSITIONS,
       new=_POSITIONS)
def test_constant_position_shift_is_key_subtraction(okey, pos, new):
    # the field stores POS_MASK - pos, so moving a term from pos to pos + s
    # subtracts s from its key whenever pos + s stays in the field, whatever
    # sits above it (order key, elimination flag), so a constant shift of a
    # vector's terms keeps their order
    k = term_key(okey, pos)
    s = new - pos
    assert term_key(term_okey(k), term_pos(k) + s) == k - s
    assert (term_okey(k - s), term_pos(k - s)) == (okey, new)


def test_add_scaled_is_sparse_polynomial_sum():
    p = 13
    ring = _ring(p=p, n=2)
    ctx = ring.pack.ctx
    u = [(_key(ring, (2, 0)), 5), (_key(ring, (0, 1)), 1)]
    v = [(_key(ring, (1, 0)), 4), (_key(ring, (0, 1)), 3)]
    got = pure.add_scaled(u, v, 2, 0, p)
    # 2*v = (8, 6); sum keeps descending order and drops nothing here
    as_dict = dict(got)
    assert as_dict[_key(ring, (2, 0))] == 5
    assert as_dict[_key(ring, (1, 0))] == 8
    assert as_dict[_key(ring, (0, 1))] == (1 + 6) % p
    # scaling by a monomial shifts keys
    shift = ring.pack.okey((1, 1)) << POS_BITS
    shifted = pure.add_scaled([], v, 1, shift, p)
    assert shifted[0][0] == _key(ring, (2, 1))


def test_cancellation_drops_zero_coefficients():
    p = 7
    ring = _ring(p=p, n=2)
    u = [(_key(ring, (1, 0)), 3)]
    v = [(_key(ring, (1, 0)), 2)]
    assert pure.add_scaled(u, v, 2, 0, p) == []


def test_reducer_normal_form_idempotent():
    p = 32003
    ring = _ring(p=p, n=3)
    ctx = ring.pack.ctx
    rng = random.Random(3)
    basis = [_random_vector(rng, ring, p, positions=1) for _ in range(3)]
    red = make_reducer(p, ctx, basis)
    for _ in range(40):
        v = _random_vector(rng, ring, p, positions=1)
        r = red.nf(v)
        assert red.nf(r) == r


def test_nf_q_reconstructs_input():
    p = 101
    ring = _ring(p=p, n=3)
    ctx = ring.pack.ctx
    rng = random.Random(4)
    basis = [_random_vector(rng, ring, p, positions=1) for _ in range(3)]
    red = make_reducer(p, ctx, basis)
    for _ in range(25):
        v = _random_vector(rng, ring, p, positions=1)
        r, quots = red.nf_q(v)
        acc = list(r)
        for g, q in zip(basis, quots):
            for okey, c in q:
                acc = pure.add_scaled(acc, g, c, okey << POS_BITS, p)
        assert acc == sorted(v, reverse=True)


def test_zero_vector_rejected():
    ring = _ring()
    red = make_reducer(32003, ring.pack.ctx)
    with pytest.raises(ValueError):
        red.append([])


def _outcome(method, v):
    """``method(v)``, or the message of the ``OverflowError`` it raises."""
    try:
        return method(v)
    except OverflowError as exc:
        return str(exc)


def test_backend_parity_randomized(compiled_kernel):
    rng = random.Random(12)
    raised = 0
    for _ in range(160):
        p = rng.choice([2, 3, 13, 101, 32003, 2147483647])
        n = rng.randint(1, 6)
        ring = _ring(p=p, n=n, order=rng.choice(["grevlex", "lex"]))
        ctx = ring.pack.ctx
        assert ctx.fits64
        # half the trials keep every term within a few degrees of the cap;
        # there v adds shifted basis elements, so reductions still happen,
        # and a reducer whose highest term is above its lead can pass the
        # cap: a lex one, or one with the elimination flag on some terms
        near = rng.random() < 0.5
        top = ring.pack.cap - n if near else None
        flag = (1 << ring.pack.block_shift) if rng.random() < 0.5 else 0

        def flagged(v):
            return sorted(((k + flag if rng.random() < 0.5 else k, c) for k, c in v),
                          reverse=True)

        basis = [flagged(_random_vector(rng, ring, p, top=top))
                 for _ in range(rng.randrange(1, 4))]
        fast = compiled_kernel.Reducer(p, ctx.kind, n, ctx.fb, basis)
        slow = pure.Reducer(p, ctx, basis)
        assert isinstance(make_reducer(p, ctx, basis), compiled_kernel.Reducer)
        for _ in range(4):
            v = flagged(_random_vector(rng, ring, p, top=top))
            for g in basis if near else ():
                m = [rng.randrange(0, 2) for _ in range(n)]
                v = pure.add_scaled(v, g, rng.randrange(1, p),
                                    ring.pack.okey(m) << POS_BITS, p)
            if not v:
                continue
            out = _outcome(slow.nf, v)
            assert _outcome(fast.nf, v) == out
            assert _outcome(fast.nf_q, v) == _outcome(slow.nf_q, v)
            if isinstance(out, str):
                assert out.endswith(f"exceeds packing cap {ctx.cap}"), out
                raised += 1
            else:
                assert all(ctx.deg(k >> POS_BITS) <= ctx.cap for k, _ in out)
            assert fast.find_reducer(v[0][0]) == slow.find_reducer(v[0][0])
        u, w = _random_vector(rng, ring, p, top=top), _random_vector(rng, ring, p, top=top)
        sh = ring.pack.okey([1] * n) << POS_BITS
        c = rng.randrange(1, p)
        assert (scaled_merge(u, w, c, sh, p, ctx)
                == pure.add_scaled(u, w, c, sh, p))
    wide = _ring(n=7).pack.ctx
    assert not wide.fits64
    assert isinstance(make_reducer(32003, wide), pure.Reducer)
    assert raised > 0


def _reference_divisors(red, key):
    """Indices of every lead of ``red`` that divides ``key``, in insertion
    order: the linear scan over all leads, skipping other positions, that
    the reducer made before its leads were bucketed by position."""
    ctx = red.ctx
    ep = epack(key >> POS_BITS, ctx)
    return [idx for idx, gk in enumerate(red.lead_keys)
            if not (gk ^ key) & POS_MASK and gk <= key
            and divides(epack(gk >> POS_BITS, ctx), ep, ctx.guards)]


def _reference_find_reducer(red, key):
    found = _reference_divisors(red, key)
    return found[0] if found else -1


class _ReferenceReducer(pure.Reducer):
    """The pure reducer on the linear scan: its ``nf`` and ``nf_q`` make the
    reductions the unbucketed reducer made."""

    __slots__ = ()
    find_reducer = _reference_find_reducer


def _large_basis_cases(seed, count):
    """``(p, ring, basis, probes)`` with 20 to 60 non-monic basis elements
    spread over one to six positions, n cycling through 1..8, grevlex or
    lex; each probe adds monomial multiples of basis elements to a random
    vector, so its reductions run deep."""
    rng = random.Random(seed)
    for t in range(count):
        p = rng.choice([2, 3, 101, 32003, 2147483647])
        n = 1 + t % 8
        ring = _ring(p=p, n=n, order=rng.choice(["grevlex", "lex"]))
        positions = rng.randint(1, 6)
        basis = [_random_vector(rng, ring, p, maxlen=5, positions=positions)
                 for _ in range(rng.randint(20, 60))]
        probes = []
        for _ in range(6):
            v = _random_vector(rng, ring, p, width=4, positions=positions)
            for g in rng.sample(basis, 3):
                m = [rng.randrange(0, 2) for _ in range(n)]
                v = pure.add_scaled(v, g, rng.randrange(1, p),
                                    ring.pack.okey(m) << POS_BITS, p)
            if v:
                probes.append(v)
        yield p, ring, basis, probes


def test_bucketed_reducer_matches_the_linear_scan():
    probed = ambiguous = 0
    for p, ring, basis, probes in _large_basis_cases(21, 64):
        ctx = ring.pack.ctx
        red = pure.Reducer(p, ctx, basis)
        ref = _ReferenceReducer(p, ctx, basis)
        for key in {k for v in probes + basis for k, _ in v}:
            found = _reference_divisors(red, key)
            assert red.find_reducer(key) == (found[0] if found else -1)
            probed += 1
            ambiguous += len(found) > 1
        for v in probes:
            assert red.nf(v) == ref.nf(v)
            assert red.nf_q(v) == ref.nf_q(v)
    # the first divisor, not just some divisor, is what is compared
    assert ambiguous > probed // 10, (ambiguous, probed)


def test_backend_parity_on_large_bases(compiled_kernel):
    compared = 0
    for p, ring, basis, probes in _large_basis_cases(22, 64):
        ctx = ring.pack.ctx
        if not ctx.fits64:
            continue
        fast = compiled_kernel.Reducer(p, ctx.kind, ring.n, ctx.fb, basis)
        slow = pure.Reducer(p, ctx, basis)
        for key in {k for v in probes + basis for k, _ in v}:
            assert fast.find_reducer(key) == slow.find_reducer(key)
        for v in probes:
            assert fast.nf(v) == slow.nf(v)
            rf, qf = fast.nf_q(v)
            rs, qs = slow.nf_q(v)
            assert rf == rs and list(qf) == list(qs)
        compared += 1
    assert compared == 48


def _ideal_cases(seed, count):
    """``(p, ring, ideal, basis, probes, rank)``: the reduced basis of a
    random ideal at position 0, a basis over positions below ``rank`` with
    the elimination flag on some elements, and probes that add moved
    multiples of basis and ideal elements to a random vector, flagged at
    the positions below ``rank`` or not, with terms at two positions past
    it, where only the ideal reduces (marker positions)."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice([2, 101, 32003])
        n = rng.randint(2, 5)
        ring = _ring(p=p, n=n, order=rng.choice(["grevlex", "lex"]))
        forms = [ring.from_dict({tuple(exps_of_degree(rng, n, d)): rng.randrange(1, p)
                                 for _ in range(rng.randint(1, 3))})
                 for d in (rng.randint(2, 3) for _ in range(rng.randint(1, 3)))]
        ideal = QuotientRing(ring, forms).ideal_columns()
        flag = 1 << ring.pack.block_shift
        rank = rng.randint(1, 3)

        def flagged(v, on):
            return [(k + flag if on and term_pos(k) < rank else k, c) for k, c in v]

        basis = [flagged(_random_vector(rng, ring, p, maxlen=4, positions=rank),
                         rng.random() < 0.5) for _ in range(rng.randint(0, 6))]
        probes = []
        for _ in range(6):
            on = rng.random() < 0.5
            v = flagged(_random_vector(rng, ring, p, width=3, positions=rank + 2), on)
            for _ in range(2):
                m = ring.pack.okey([rng.randrange(0, 2) for _ in range(n)]) << POS_BITS
                g = rng.choice(ideal)
                pos = rng.randrange(rank + 2)
                moved = flagged([(k - pos, c) for k, c in g], on)
                v = pure.add_scaled(v, moved, rng.randrange(1, p), m, p)
                if basis:
                    v = pure.add_scaled(v, rng.choice(basis), rng.randrange(1, p), m, p)
            if v:
                probes.append(v)
        yield p, ring, ideal, basis, probes, rank


def test_reducer_with_an_ideal_matches_the_ideal_columns():
    # the ideal held once reduces as the columns g * e_pos did, flagged and
    # not, appended after the basis at every position (QuotientRing's
    # widened reducer and express_in_basis's): the same normal forms, the
    # same quotients by the basis, and the first divisor in the same order
    ideal_steps = 0
    for p, ring, ideal, basis, probes, rank in _ideal_cases(51, 120):
        ctx = ring.pack.ctx
        flag = 1 << ring.pack.block_shift
        width = rank + 2
        columns = [[(k - pos + f, c) for k, c in g]
                   for g in ideal for pos in range(width) for f in (flag, 0)]
        ref = pure.Reducer(p, ctx, basis + columns)
        red = pure.Reducer(p, ctx, basis, ideal)
        for key in {k for v in probes for k, _ in v}:
            # the reducer puts the ideal first, the reference after the basis
            want = ref.find_reducer(key)
            if want >= len(basis):
                want = (want - len(basis)) // (2 * width)
            elif want >= 0:
                want += len(ideal)
            assert red.find_reducer(key) == want
        for v in probes:
            assert red.nf(v) == ref.nf(v)
            r, quots = red.nf_q(v)
            rr, qq = ref.nf_q(v)
            assert (r, quots) == (rr, qq[:len(basis)])
            ideal_steps += sum(map(len, qq[len(basis):]))
    assert ideal_steps > 500, ideal_steps


def test_backend_parity_with_an_ideal(compiled_kernel):
    compared = 0
    for p, ring, ideal, basis, probes, _ in _ideal_cases(52, 120):
        ctx = ring.pack.ctx
        fast = compiled_kernel.Reducer(p, ctx.kind, ring.n, ctx.fb, basis, ideal)
        slow = pure.Reducer(p, ctx, basis, ideal)
        assert len(fast) == len(slow) == len(basis)
        for key in {k for v in probes + basis for k, _ in v}:
            assert fast.find_reducer(key) == slow.find_reducer(key)
        for v in probes:
            assert fast.nf(v) == slow.nf(v)
            rf, qf = fast.nf_q(v)
            assert (rf, list(qf)) == slow.nf_q(v)
        compared += 1
    assert compared == 120
    with pytest.raises(ValueError, match="zero vector"):
        compiled_kernel.Reducer(32003, kernel.GREVLEX, 3, 9, (), [[]])


def test_width_and_prime_gates(compiled_kernel):
    ring = _ring()
    ctx = ring.pack.ctx
    assert backend_name() == "compiled"
    assert type(make_reducer(32003, ctx)).__module__.endswith("_fast")
    # keys wider than a machine word must take the pure path
    assert isinstance(make_reducer(32003, _ring(n=7).pack.ctx), pure.Reducer)
    # primes at or beyond 31 bits must take the pure path
    big = (1 << 31) + 11
    assert isinstance(make_reducer(big, ctx), pure.Reducer)


def test_compiled_accepts_tuple_vectors(compiled_kernel):
    ring = _ring()
    ctx = ring.pack.ctx
    u = ((_key(ring, (1, 0, 0)), 5),)
    v = ((_key(ring, (0, 1, 0)), 3),)
    out = scaled_merge(u, v, 2, 0, 32003, ctx)
    assert dict(out)[_key(ring, (0, 1, 0))] == 6


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_product_past_degree_cap_raises(backend, request):
    if backend == "compiled":
        request.getfixturevalue("compiled_kernel")
    p = 32003
    # x^200 * x^100 would set the guard bit of the degree field, after which
    # x^50 no longer divides it and its normal form is itself, not 0
    ring = PolyRing(PrimeField(p), "xy")
    ctx = ring.pack.ctx
    v = [(_key(ring, (200, 0)), 1)]
    with pytest.raises(OverflowError, match="total degree 300 exceeds packing cap 255"):
        times_poly(v, ring.poly("x^100"), ctx, p)
    red = make_reducer(p, ctx, [[(_key(ring, (50, 0)), 1)]])
    assert type(red).__module__.endswith("_fast" if backend == "compiled" else "pure")
    at_cap = times_poly(v, ring.poly("x^55"), ctx, p)
    assert at_cap == [(_key(ring, (255, 0)), 1)]
    assert red.nf(at_cap) == []
    # lex fields are exponents, so the total degree can pass the cap while
    # every field stays below its guard bit; reducing x^200*y^100 by x - y
    # would then end at y^300
    lex = PolyRing(PrimeField(p), "xy", "lex")
    w = [(_key(lex, (200, 0)), 1)]
    with pytest.raises(OverflowError, match="total degree 300 exceeds packing cap 255"):
        times_poly(w, lex.poly("y^100"), lex.pack.ctx, p)
    with pytest.raises(OverflowError, match="total degree 311 exceeds packing cap 255"):
        times_poly([(_key(lex, (200, 55)), 1)], lex.poly("x^56"), lex.pack.ctx, p)
    assert times_poly(w, lex.poly("y^55"), lex.pack.ctx, p) == [(_key(lex, (200, 55)), 1)]
    lex6 = PolyRing(PrimeField(p), "abcdef", "lex")
    with pytest.raises(OverflowError, match="total degree 126 exceeds packing cap 63"):
        times_poly([(_key(lex6, (63, 0, 0, 0, 0, 0)), 1)], lex6.poly("b^63"),
                   lex6.pack.ctx, p)
    # six variables: 7-bit fields, cap 63
    six = PolyRing(PrimeField(p), "abcdef")
    u = [(_key(six, (40, 0, 0, 0, 0, 0)), 1)]
    with pytest.raises(OverflowError, match="total degree 70 exceeds packing cap 63"):
        times_poly(u, six.poly("b^30"), six.pack.ctx, p)
    assert times_poly(u, six.poly("b^23"), six.pack.ctx, p) == [
        (_key(six, (40, 23, 0, 0, 0, 0)), 1)]


@pytest.mark.parametrize("backend", ["pure", "compiled"])
@pytest.mark.parametrize("names", ["xy", "abcdef"])
def test_lex_reduction_past_degree_cap_raises(backend, names, request):
    if backend == "compiled":
        request.getfixturevalue("compiled_kernel")
    p = 32003
    lex = PolyRing(PrimeField(p), names, "lex")
    n, cap = lex.n, lex.pack.cap

    def term(i, e, pos, c=1):
        exps = [0] * n
        exps[i] = e
        return (_key(lex, exps, pos), c)

    # first variable at position 0 (twist cap - 55) against the last one's
    # power at position 1 (twist 0): the lex lead is the first variable, so
    # reducing v at position 0 creates a term of degree deg(v) + cap - 55
    # at position 1, which the linear form there reduces into one exponent
    g = [term(0, 1, 0), term(n - 1, cap - 54, 1)]
    h = [term(0, 1, 1), term(n - 1, 1, 1, p - 1)]
    red = make_reducer(p, lex.pack.ctx, [g])
    red.append(h)
    assert type(red).__module__.endswith("_fast" if backend == "compiled" else "pure")
    assert red.nf([term(0, 55, 0)]) == [term(n - 1, cap, 1, p - 1)]
    for method in (red.nf, red.nf_q):
        with pytest.raises(OverflowError,
                           match=f"total degree {cap + 1} exceeds packing cap {cap}"):
            method([term(0, 56, 0)])
    # the last variable's power at position 0 has no reducer, whatever the
    # degrees the basis could reach from there
    assert red.nf([term(n - 1, 56, 0)]) == [term(n - 1, 56, 0)]
    flat = make_reducer(p, lex.pack.ctx, [h])
    assert flat.nf([term(0, cap, 1)]) == [term(n - 1, cap, 1)]


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_flagged_grevlex_reduction_past_degree_cap_raises(backend, request):
    if backend == "compiled":
        request.getfixturevalue("compiled_kernel")
    p = 32003
    six = PolyRing(PrimeField(p), "abcdef")
    ctx = six.pack.ctx
    flag = 1 << six.pack.block_shift

    def term(exps, pos, c=1, on=0):
        return (_key(six, exps, pos) + on, c)

    # an elimination element: the flagged lead f*e1 tops its vector, but
    # a^6*e3 below the flag has a higher degree, so reducing a flagged term
    # of degree D by it forms a term of degree D + 5
    g = [term((0, 0, 0, 0, 0, 1), 1, on=flag), term((6, 0, 0, 0, 0, 0), 3, p - 1),
         term((0,) * 6, 2)]
    red = make_reducer(p, ctx, [g])
    assert type(red).__module__.endswith("_fast" if backend == "compiled" else "pure")
    assert red.nf([term((0, 0, 0, 1, 0, 57), 1, on=flag)]) == [
        term((6, 0, 0, 1, 0, 56), 3), term((0, 0, 0, 1, 0, 56), 2, p - 1)]
    for method in (red.nf, red.nf_q):
        with pytest.raises(OverflowError, match="total degree 67 exceeds packing cap 63"):
            method([term((0, 0, 0, 1, 0, 61), 1, on=flag)])
    # below the flag the lead has the highest degree: nothing can pass the cap
    assert red.nf([term((0, 0, 0, 1, 0, 61), 3)]) == [term((0, 0, 0, 1, 0, 61), 3)]


def test_compiled_kernel_exports_what_the_dispatch_uses(fast_module):
    # _fast.c is written by hand: its public names must be exactly the ones
    # kernel/__init__.py reaches through ``_fast.<name>``, so neither side
    # keeps a name the other has dropped
    tree = ast.parse(Path(kernel.__file__).read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "_fast"}
    exported = {name for name in dir(fast_module) if not name.startswith("_")}
    assert used == exported == {"Reducer", "add_scaled", "autoreduce", "buchberger"}
    red = fast_module.Reducer(32003, kernel.GREVLEX, 3, 9)
    assert {name for name in dir(red) if not name.startswith("_")} == {
        "append", "find_reducer", "nf", "nf_q"}
    assert len(red) == 0
