"""Reduction kernel selection.

The compiled kernel (``_fast``, a hand-written C extension) handles key
layouts that fit a 64-bit word and primes below 2^31; the pure-Python kernel
handles everything and is the reference implementation.  ``make_reducer``,
``scaled_merge`` and ``compiled_engine`` pick per call site based on the
packing context, so a ring with many variables transparently falls back.
"""

from __future__ import annotations

from . import pure
from .common import GREVLEX, LEX, POS_BITS, POS_MASK, OrderCtx, divides, epack

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
        red = _fast.Reducer(p, ctx.kind, ctx.n, ctx.fb, basis, ideal)
    else:
        red = pure.Reducer(p, ctx, basis, ideal)
    return LexGuard(red, ctx, basis) if ctx.kind == LEX else red


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
    """The compiled engine of ``groebner._buchberger_terms`` when it applies
    to grevlex keys of this ring, else None: ``_fast.buchberger``, which
    builds the inputs from their parts and runs the pair loop of
    ``groebner._buchberger_loop``, and ``_fast.autoreduce``, which finishes
    its basis as ``groebner._autoreduce`` does.  Lex rings keep the Python
    engine and ``LexGuard``."""
    if _compiled(p, ctx) and ctx.kind == GREVLEX:
        return _fast.buchberger, _fast.autoreduce
    return None


def _degree_overflow(deg: int, ctx: OrderCtx) -> OverflowError:
    return OverflowError(f"total degree {deg} exceeds packing cap {ctx.cap}")


class LexGuard:
    """A lex reducer that raises ``OverflowError`` before a reduction would
    create a term past the degree cap.

    A grevlex lead term has the largest degree of its vector, so reducing a
    vector never creates a term of higher degree than its own.  A lex lead
    term need not: reducing ``x^56 e_0`` by ``x e_0 + y^201 e_1`` (twists 200
    and 0) creates ``x^55 y^201 e_1`` of degree 256, and ``(x - y) e_1``
    then turns it into ``y^256``, one exponent past its field.  Every vector
    is homogeneous, so a term at position j of a vector of degree D has
    degree D - d_j with d_j the twist of position j.  Each basis element
    fixes the twist differences of the positions it links; ``level`` holds
    ``-d_j`` relative to the other positions linked to j, and a term can be
    reduced only into positions linked to its own.  ``nf`` and ``nf_q``
    check every term of their input against the highest level it can reach.
    An ideal element links nothing: it reduces a term into terms of the
    same degree at the same position.
    """

    __slots__ = ("inner", "ctx", "level", "linked", "slack")

    def __init__(self, inner, ctx: OrderCtx, basis=()):
        self.inner = inner
        self.ctx = ctx
        self.level = {}   # position field -> relative level
        self.linked = {}  # position field -> shared list of its linked positions
        self.slack = {}   # position field -> highest linked level minus its own, if > 0
        for g in basis:
            self._link(g)

    def __len__(self):
        return len(self.inner)

    def append(self, g):
        self.inner.append(g)
        self._link(g)

    def find_reducer(self, key: int) -> int:
        return self.inner.find_reducer(key)

    def nf(self, v):
        if self.slack:
            self._check(v)
        return self.inner.nf(v)

    def nf_q(self, v):
        if self.slack:
            self._check(v)
        return self.inner.nf_q(v)

    def _link(self, g):
        deg = self.ctx.deg
        level = self.level
        linked = self.linked
        terms = [(k & POS_MASK, deg(k >> POS_BITS)) for k, _ in g]
        known = next((j for j, _ in terms if j in level), None)
        if known is None:
            group, shift = [], 0
        else:
            group = linked[known]
            shift = level[known] - dict(terms)[known]
        for j, e in terms:
            if j not in level:
                level[j] = e + shift
                linked[j] = group
                group.append(j)
            elif linked[j] is not group:
                other = linked[j]
                move = e + shift - level[j]
                for q in other:
                    level[q] += move
                    linked[q] = group
                group.extend(other)
        top = max(level[q] for q in group)
        for q in group:
            if top > level[q]:
                self.slack[q] = top - level[q]

    def _check(self, v):
        ctx = self.ctx
        slack = self.slack
        for k, _ in v:
            s = slack.get(k & POS_MASK)
            if s and ctx.deg(k >> POS_BITS) + s > ctx.cap:
                raise _degree_overflow(ctx.deg(k >> POS_BITS) + s, ctx)


__all__ = [
    "GREVLEX",
    "LEX",
    "POS_BITS",
    "POS_MASK",
    "OrderCtx",
    "divides",
    "epack",
    "HAVE_FAST",
    "LexGuard",
    "backend_name",
    "compiled_engine",
    "make_reducer",
    "scaled_merge",
]
