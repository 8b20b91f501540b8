"""Shared constants and packing context for the reduction kernels.

A vector in a twisted free module is a list of ``(key, coeff)`` pairs sorted
strictly descending by key with coefficients in ``[1, p)``.  The key packs a
monomial order key above a complemented 16-bit position field:

    key = (okey << POS_BITS) | (POS_MASK - position)

Order keys are additive under monomial multiplication, so adding
``okey << POS_BITS`` to every key of a vector multiplies it by that monomial,
and integer comparison of keys realizes the term-over-position module order.
"""

from __future__ import annotations

POS_BITS = 16
POS_MASK = (1 << POS_BITS) - 1

GREVLEX = 0
LEX = 1


class OrderCtx:
    """Packing parameters a kernel needs for divisibility tests.

    ``kind`` is GREVLEX or LEX, ``n`` the number of variables, ``fb`` the
    field width in bits.  ``okey_mask`` strips elimination-block flags that
    sit above the order key proper; ``guards`` holds the per-field guard bits
    used by the borrow-free divisibility test, which also cap the total
    degree at ``cap``.  Keys and exponent words (``epack``) have ``n`` fields
    of ``fb`` bits, field i at bit ``i * fb``: grevlex keys hold the prefix
    sum ``e_1 + .. + e_(i+1)`` there and their words e_(i+1); lex keys, their
    own words, hold e_(n-i).  ``_fast`` packs the same words, with the same
    one-subtraction ``epack``.
    """

    __slots__ = ("kind", "n", "fb", "cap", "okey_mask", "guards", "fits64")

    def __init__(self, kind: int, n: int, fb: int):
        self.kind = kind
        self.n = n
        self.fb = fb
        self.cap = (1 << (fb - 1)) - 1
        self.okey_mask = (1 << (n * fb)) - 1
        g = 0
        for i in range(n):
            g |= 1 << (i * fb + fb - 1)
        self.guards = g
        # key layout must leave room for one block flag below the sign bit
        self.fits64 = n * fb + POS_BITS + 1 <= 62

    def deg(self, okey: int) -> int:
        """Total degree of the monomial packed in okey (block flags ignored)."""
        fb = self.fb
        mask = (1 << fb) - 1
        if self.kind == GREVLEX:
            return (okey >> (fb * (self.n - 1))) & mask
        okey &= self.okey_mask
        d = 0
        while okey:
            d += okey & mask
            okey >>= fb
        return d


def _degree_overflow(deg: int, ctx: OrderCtx) -> OverflowError:
    return OverflowError(f"total degree {deg} exceeds packing cap {ctx.cap}")


def epack(okey: int, ctx: OrderCtx) -> int:
    """Exponent word of okey, block flags dropped (layout in ``OrderCtx``).

    A lex key is its own word.  Grevlex fields are prefix sums of the
    exponents, so subtracting the key shifted up one field leaves each
    exponent in its field with no borrow.
    """
    if ctx.kind == LEX:
        return okey & ctx.okey_mask
    return (okey - (okey << ctx.fb)) & ctx.okey_mask


def divides(u_ep: int, v_ep: int, guards: int) -> bool:
    """True when the monomial packed in u_ep divides the one in v_ep."""
    return ((v_ep | guards) - u_ep) & guards == guards
