"""Polynomial rings over prime fields with packed monomial keys.

Monomials are dense exponent tuples.  Each ring binds a monomial order
(grevlex by default, lex available) to a bit-packing of order keys: grevlex
keys pack the fields ``deg, deg - e_n, deg - e_n - e_{n-1}, ...`` and lex
keys pack the exponents themselves, so keys are additive under monomial
multiplication and integer comparison realizes the order.

The field width is the widest ``fb <= 9`` whose module keys (``n`` fields,
the position field and one elimination flag) fit the 62-bit machine-word
budget of ``OrderCtx.fits64``; the top bit of each field is a guard, so the
total degree is capped at ``2^(fb-1) - 1``:

* ``n <= 5``: 9-bit fields, degree cap 255, machine-word keys;
* ``n = 6``: 7-bit fields, degree cap 63, machine-word keys;
* ``n >= 7``: 16-bit fields, degree cap 32767, unbounded Python integers.

Every key that would pass the cap raises ``OverflowError``; see
``kernel.scaled_merge`` for the check on products of vectors and
``kernel.pure.Reducer`` for the one on reduction steps.
"""

from __future__ import annotations

import re
from typing import Sequence

from .kernel import GREVLEX, LEX, POS_BITS, OrderCtx


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) with canonical representatives in ``[0, p)``."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not 1 < p < 2 ** 31:
            raise ValueError(f"field characteristic must be a prime below 2^31, got {p!r}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def __eq__(self, other):
        return other is self or (isinstance(other, PrimeField) and other.p == self.p)

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, self.p - 2, self.p)


class Packing:
    """Order-key codec bound to an order kind and a variable count."""

    __slots__ = ("kind", "n", "fb", "cap", "ctx", "deg", "block_shift")

    def __init__(self, kind: int, n: int):
        if n < 1:
            raise ValueError("need at least one variable")
        self.kind = kind
        self.n = n
        # the widest field up to 9 bits whose keys fit a machine word; below
        # 7 bits (n >= 7) the cap would drop under 63, so those rings give
        # up the word for 16-bit fields instead
        self.fb = next((fb for fb in (9, 8, 7) if OrderCtx(kind, n, fb).fits64), 16)
        self.ctx = OrderCtx(kind, n, self.fb)
        self.cap = self.ctx.cap
        self.deg = self.ctx.deg  # total degree of an order key
        # elimination-block flag sits directly above okey << POS_BITS
        self.block_shift = n * self.fb + POS_BITS

    def okey(self, exps: Sequence[int]) -> int:
        n = self.n
        if len(exps) != n:
            raise ValueError(f"expected {n} exponents, got {len(exps)}")
        deg = 0
        for e in exps:
            if e < 0:
                raise ValueError("negative exponent")
            deg += e
        if deg > self.cap:
            raise OverflowError(f"total degree {deg} exceeds packing cap {self.cap}")
        fb = self.fb
        if self.kind == LEX:
            key = 0
            for e in exps:
                key = (key << fb) | e
            return key
        key = deg
        run = deg
        for j in range(n - 1, 0, -1):
            run -= exps[j]
            key = (key << fb) | run
        return key

    def exps(self, okey: int) -> tuple:
        fb = self.fb
        n = self.n
        mask = (1 << fb) - 1
        fields = [(okey >> (fb * (n - 1 - j))) & mask for j in range(n)]
        if self.kind == LEX:
            return tuple(fields)
        out = [0] * n
        out[0] = fields[n - 1]
        for j in range(2, n + 1):
            out[j - 1] = fields[n - j] - fields[n - j + 1]
        return tuple(out)


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*^]))")


class Polynomial:
    """Immutable polynomial: descending ``(okey, coeff)`` terms over a ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: "PolyRing", terms):
        self.ring = ring
        self.terms = tuple(terms)

    # -- predicates ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.ring.pack.deg(k) for k, _ in self.terms)

    def homogeneous_degree(self):
        """Common degree of all terms, or None if inhomogeneous or zero."""
        if not self.terms:
            return None
        degs = {self.ring.pack.deg(k) for k, _ in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def is_homogeneous(self) -> bool:
        return not self.terms or self.homogeneous_degree() is not None

    def lead_okey(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        return self.terms[0][0]

    def lead_monomial(self) -> tuple:
        return self.ring.pack.exps(self.lead_okey())

    # -- arithmetic ------------------------------------------------------
    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.ring != self.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        self._check(other)
        p = self.ring.field.p
        acc = dict(self.terms)
        for k, c in other.terms:
            cc = (acc.get(k, 0) + c) % p
            if cc:
                acc[k] = cc
            else:
                acc.pop(k, None)
        return Polynomial(self.ring, sorted(acc.items(), reverse=True))

    def __neg__(self):
        p = self.ring.field.p
        return Polynomial(self.ring, [(k, p - c) for k, c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        if not self.terms or not other.terms:
            return self.ring.zero()
        # degree-cap check once on the lead product
        pk = self.ring.pack
        if self.degree() + other.degree() > pk.cap:
            raise OverflowError(
                f"product degree {self.degree() + other.degree()} exceeds packing cap {pk.cap}"
            )
        p = self.ring.field.p
        acc = {}
        for ka, ca in self.terms:
            for kb, cb in other.terms:
                k = ka + kb
                cc = (acc.get(k, 0) + ca * cb) % p
                if cc:
                    acc[k] = cc
                else:
                    acc.pop(k, None)
        return Polynomial(self.ring, sorted(acc.items(), reverse=True))

    __rmul__ = __mul__

    def scale(self, c: int) -> "Polynomial":
        c %= self.ring.field.p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        p = self.ring.field.p
        return Polynomial(self.ring, [(k, cc * c % p) for k, cc in self.terms])

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __bool__(self):
        return bool(self.terms)

    # -- rendering -------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        p = self.ring.field.p
        names = self.ring.variables
        chunks = []
        for k, c in self.terms:
            exps = self.ring.pack.exps(k)
            # symmetric representative keeps printed documents readable
            cs = c if c <= p // 2 else c - p
            sign = "-" if cs < 0 else "+"
            mag = abs(cs)
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += sign + body
        return text

    def __repr__(self):
        return f"<{self} over {self.ring.field!r}[{','.join(self.ring.variables)}]>"


class PolyRing:
    """Graded polynomial ring ``GF(p)[x_1..x_n]`` with a bound monomial order.

    A ``PolyRing`` is also the quotient ``Q/0`` of itself: it answers the
    quotient-ring questions of ``groebner.QuotientRing`` for the zero ideal,
    so every operation over a base ring has one code path.  Like a
    ``QuotientRing`` it caches derived data in ``cache``, which equality
    and hashing ignore.
    """

    __slots__ = ("field", "variables", "order", "n", "pack", "_var_index", "cache")

    def __init__(self, field, variables: Sequence[str], order="grevlex"):
        if isinstance(field, int):
            field = PrimeField(field)
        self.field = field
        variables = tuple(variables)
        if not variables:
            raise ValueError("need at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for v in variables:
            if not re.fullmatch(r"[A-Za-z_]\w*", v):
                raise ValueError(f"bad variable name {v!r}")
        self.variables = variables
        if order not in ("grevlex", "lex"):
            raise ValueError(f"unknown monomial order {order!r}")
        self.order = order
        self.n = len(variables)
        self.pack = Packing(GREVLEX if order == "grevlex" else LEX, self.n)
        self._var_index = {v: i for i, v in enumerate(variables)}
        self.cache: dict = {}

    def __eq__(self, other):
        return other is self or (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.variables == self.variables
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.field, self.variables, self.order))

    def __repr__(self):
        return f"PolyRing(GF({self.field.p}), {list(self.variables)}, {self.order!r})"

    # -- the quotient Q/0 -------------------------------------------------
    @property
    def cover(self) -> "PolyRing":
        return self

    def ideal_columns(self) -> tuple:
        return ()

    def is_polynomial_ring(self) -> bool:
        return True

    def nf(self, f: Polynomial) -> Polynomial:
        return f

    def normal_form_vector(self, v):
        """Normal form of a vector modulo the zero ideal: ``v`` itself."""
        return v

    # -- constructors ----------------------------------------------------
    def zero(self) -> Polynomial:
        return Polynomial(self, ())

    def one(self) -> Polynomial:
        return Polynomial(self, ((0, 1),))

    def var(self, which) -> Polynomial:
        if isinstance(which, str):
            which = self._var_index[which]
        exps = [0] * self.n
        exps[which] = 1
        return self.monomial(exps)

    def monomial(self, exps: Sequence[int], coeff: int = 1) -> Polynomial:
        coeff %= self.field.p
        if coeff == 0:
            return self.zero()
        return Polynomial(self, ((self.pack.okey(exps), coeff),))

    def from_dict(self, d: dict) -> Polynomial:
        p = self.field.p
        acc = {}
        for exps, c in d.items():
            c %= p
            if not c:
                continue
            k = self.pack.okey(exps)
            cc = (acc.get(k, 0) + c) % p
            if cc:
                acc[k] = cc
            else:
                acc.pop(k, None)
        return Polynomial(self, sorted(acc.items(), reverse=True))

    def poly(self, text: str) -> Polynomial:
        """Parse ``3*x^2*y - w*z + 5`` style polynomial text."""
        terms, pos = self._parse(text, 0)
        rest = text[pos:].strip()
        if rest:
            raise ValueError(f"trailing input {rest!r} at offset {pos}")
        return self.from_dict(terms)

    def _parse(self, text: str, pos: int):
        p = self.field.p
        acc: dict = {}
        sign = 1
        expect_term = True
        cur_coeff = None
        cur_exps = None

        def flush():
            nonlocal cur_coeff, cur_exps, sign
            if cur_exps is None:
                return
            c = (sign * (1 if cur_coeff is None else cur_coeff)) % p
            key = tuple(cur_exps)
            acc[key] = (acc.get(key, 0) + c) % p
            cur_coeff = None
            cur_exps = None
            sign = 1

        i = pos
        n = len(text)
        while i < n:
            m = _TOKEN.match(text, i)
            if not m:
                if text[i:].strip() == "":
                    break
                raise ValueError(f"unexpected character {text[i:].lstrip()[0]!r} at offset {i}")
            i = m.end()
            if m.group("op") in ("+", "-"):
                if cur_exps is not None:
                    flush()
                    sign = 1 if m.group("op") == "+" else -1
                    expect_term = True
                elif expect_term:
                    if m.group("op") == "-":
                        sign = -sign
                else:
                    raise ValueError(f"misplaced {m.group('op')!r} at offset {m.start()}")
            elif m.group("op") == "*":
                if cur_exps is None:
                    raise ValueError(f"misplaced '*' at offset {m.start()}")
            elif m.group("op") == "^":
                raise ValueError(f"misplaced '^' at offset {m.start()}")
            elif m.group("int"):
                if cur_exps is None:
                    cur_coeff = int(m.group("int"))
                    cur_exps = [0] * self.n
                    expect_term = False
                else:
                    raise ValueError(f"unexpected integer at offset {m.start()}")
            else:
                name = m.group("name")
                if name not in self._var_index:
                    raise ValueError(f"unknown variable {name!r} at offset {m.start()}")
                if cur_exps is None:
                    cur_exps = [0] * self.n
                    expect_term = False
                e = 1
                m2 = _TOKEN.match(text, i)
                if m2 and m2.group("op") == "^":
                    i = m2.end()
                    m3 = _TOKEN.match(text, i)
                    if not m3 or not m3.group("int"):
                        raise ValueError(f"expected exponent after '^' at offset {i}")
                    e = int(m3.group("int"))
                    i = m3.end()
                cur_exps[self._var_index[name]] += e
        flush()
        if expect_term and not acc:
            raise ValueError("empty polynomial expression")
        return acc, i

