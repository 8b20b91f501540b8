"""Reduction kernel selection.

The compiled kernel (``_fast``, a hand-written C extension) handles key
layouts that fit a 64-bit word and primes below 2^31; the pure-Python kernel
handles everything and is the reference implementation.  ``make_reducer``,
``scaled_merge`` and ``compiled_engine`` pick per call site based on the
packing context, so a ring with many variables transparently falls back.

Under either order, no kernel forms a term past the degree cap: a product
of a vector by a monomial (``scaled_merge``) or a reduction step of either
reducer (see ``pure.Reducer``) that would form one raises ``OverflowError``
instead, with the same message on both kernels.
"""

from __future__ import annotations

from . import pure
from .common import (GREVLEX, LEX, POS_BITS, POS_MASK, OrderCtx, _degree_overflow,
                     divides, epack)

try:  # pragma: no cover - exercised when the extension is built
    from . import _fast
    HAVE_FAST = True
except ImportError:  # pragma: no cover
    _fast = None
    HAVE_FAST = False


# coefficient products must stay below 2**62, so the compiled kernel only
# takes primes that fit 31 bits (every practical field does)
_P_CAP = 1 << 31


def backend_name() -> str:
    return "compiled" if HAVE_FAST else "pure"


def _compiled(p: int, ctx: OrderCtx) -> bool:
    return HAVE_FAST and ctx.fits64 and p < _P_CAP


def make_reducer(p: int, ctx: OrderCtx, basis=(), ideal=()):
    """A reducer over ``basis`` modulo the ideal with basis ``ideal``."""
    if _compiled(p, ctx):
        return _fast.Reducer(p, ctx.kind, ctx.n, ctx.fb, basis, ideal)
    return pure.Reducer(p, ctx, basis, ideal)


def scaled_merge(u, v, c, shift, p, ctx: OrderCtx):
    """``u + c * X^m * v`` dispatched to the fastest applicable kernel.

    Raises ``OverflowError`` when a term of ``X^m * v`` passes the degree
    cap.  Grevlex keys carry the degree in their top field, and every field
    of both operands is below its guard bit, so a field sum never carries
    and sets a guard bit exactly when it passes the cap.  Lex fields are
    exponents, which each stay below the guard long after the total degree
    passes the cap, so there the degrees themselves are compared.  Both
    tests read the moved keys, so a shift may also move ``v``'s position.
    """
    if shift:
        if ctx.kind == LEX:
            for k, _ in v:
                if ctx.deg((k + shift) >> POS_BITS) > ctx.cap:
                    raise _degree_overflow(ctx.deg((k + shift) >> POS_BITS), ctx)
        else:
            guards = ctx.guards << POS_BITS
            for k, _ in v:
                if (k + shift) & guards:
                    raise _degree_overflow(ctx.deg((k + shift) >> POS_BITS), ctx)
    if _compiled(p, ctx):
        return _fast.add_scaled(u, v, c, shift, p)
    return pure.add_scaled(u, v, c, shift, p)


def compiled_engine(p: int, ctx: OrderCtx):
    """The compiled engine of ``groebner._buchberger_terms`` when the
    compiled kernel takes this ring, else None: ``_fast.buchberger``, which
    builds the inputs from their parts and runs the pair loop of
    ``groebner._buchberger_loop``, and ``_fast.autoreduce``, which finishes
    its basis as ``groebner._autoreduce`` does.  Both take the order kind."""
    if _compiled(p, ctx):
        return _fast.buchberger, _fast.autoreduce
    return None


__all__ = [
    "GREVLEX",
    "LEX",
    "POS_BITS",
    "POS_MASK",
    "OrderCtx",
    "divides",
    "epack",
    "HAVE_FAST",
    "backend_name",
    "compiled_engine",
    "make_reducer",
    "scaled_merge",
]
