"""Pure-Python reduction kernel.

Reference implementation of the hot operations on packed term lists; the
compiled kernel in ``_fast`` mirrors this interface bit for bit whenever the
key layout fits a machine word.  See ``common`` for the key layout.
"""

from __future__ import annotations

from .common import LEX, POS_MASK, POS_BITS, OrderCtx, _degree_overflow, divides, epack


def add_scaled(u, v, c, shift, p, start=0):
    """Merge ``u[start:] + c * X^m * v`` where ``shift = okey(m) << POS_BITS``.

    Both inputs are descending term lists; the result is a fresh descending
    list with zero coefficients dropped.
    """
    out = []
    i = start
    j = 0
    nu = len(u)
    nv = len(v)
    while i < nu and j < nv:
        ku = u[i][0]
        kv = v[j][0] + shift
        if ku > kv:
            out.append(u[i])
            i += 1
        elif ku < kv:
            cc = (c * v[j][1]) % p
            if cc:
                out.append((kv, cc))
            j += 1
        else:
            cc = (u[i][1] + c * v[j][1]) % p
            if cc:
                out.append((ku, cc))
            i += 1
            j += 1
    while i < nu:
        out.append(u[i])
        i += 1
    while j < nv:
        cc = (c * v[j][1]) % p
        if cc:
            out.append((v[j][0] + shift, cc))
        j += 1
    return out


class Reducer:
    """Normal-form engine over a growable basis of term lists, modulo an
    ideal.

    Basis elements need not be monic; leading coefficients are inverted on
    insertion.  Reduction always cancels against the first basis element
    (in insertion order) whose lead divides the current head, which makes
    results deterministic for a fixed basis order.  Leads are bucketed by
    position, each entry holding its key, exponent word and basis index: a
    lead at another position never divides, so the first divisor in the
    head's bucket is the first in the whole basis.

    ``ideal``, an ideal's basis at position 0, comes first (indices below
    ``nid``), out of the buckets: after the head's bucket its leads are
    tried by exponent words alone, at any position and block, and the
    shift ``key - lead key`` moves one to the head.  ``len`` and ``nf_q``'s
    quotients count the basis elements only.

    Each element records its rise, how far the degree of its highest term
    exceeds its lead's, and a reduction step whose head degree plus the
    reducer's rise passes the degree cap raises ``OverflowError`` before
    it forms a term.  An unflagged grevlex lead has the highest degree of
    its vector, so its rise is 0; a flagged one has the highest of its
    block, and the first term below the flag the highest of the rest.  A
    lex lead need not, and every term is read.
    """

    __slots__ = ("p", "ctx", "basis", "lead_keys", "lead_inv", "rise", "buckets",
                 "ideal", "nid")

    def __init__(self, p: int, ctx: OrderCtx, basis=(), ideal=()):
        self.p = p
        self.ctx = ctx
        self.basis = []
        self.lead_keys = []
        self.lead_inv = []
        self.rise = []
        self.buckets = {}
        for g in ideal:
            self.append(g)
        self.ideal = self.buckets.pop(POS_MASK, [])  # the bucket of position 0
        self.nid = len(self.basis)
        for g in basis:
            self.append(g)

    def __len__(self):
        return len(self.basis) - self.nid

    def append(self, g):
        if not g:
            raise ValueError("cannot reduce by the zero vector")
        key, c = g[0]
        ctx = self.ctx
        self.buckets.setdefault(key & POS_MASK, []).append(
            (key, epack(key >> POS_BITS, ctx), len(self.basis)))
        self.basis.append(list(g))
        self.lead_keys.append(key)
        self.lead_inv.append(pow(c, self.p - 2, self.p))
        if ctx.kind == LEX:
            top = max(ctx.deg(k >> POS_BITS) for k, _ in g)
        elif key >> POS_BITS > ctx.okey_mask:  # flagged
            below = (ctx.okey_mask + 1) << POS_BITS  # the least flagged key
            top = next((ctx.deg(k >> POS_BITS) for k, _ in g if k < below), 0)
        else:
            top = 0
        self.rise.append(top and max(0, top - ctx.deg(key >> POS_BITS)))

    def find_reducer(self, key: int) -> int:
        """Index in ``basis``, the ideal first, of the first basis element
        whose lead divides ``key``, else of the first ideal element whose
        lead monomial divides it, or -1."""
        bucket = self.buckets.get(key & POS_MASK)
        if not bucket and not self.nid:
            return -1
        ep = epack(key >> POS_BITS, self.ctx)
        guards = self.ctx.guards
        for gk, ge, idx in bucket or ():
            if gk <= key and divides(ge, ep, guards):
                return idx
        for _, ge, idx in self.ideal:
            if divides(ge, ep, guards):
                return idx
        return -1

    def nf(self, v):
        """Fully reduced normal form of ``v`` against the basis and the ideal."""
        return self._reduce(v, None)

    def nf_q(self, v):
        """Normal form plus division quotients.

        Returns ``(r, quots)`` with ``v = sum_k quots[k] * basis[nid + k] +
        r`` modulo the ideal; each quotient is a descending list of
        ``(okey, coeff)`` pairs.
        """
        quots = [[] for _ in range(len(self))]
        return self._reduce(v, quots), quots

    def _reduce(self, v, quots):
        p = self.p
        ctx = self.ctx
        rise = self.rise
        out = []
        h = list(v)
        i = 0
        while i < len(h):
            key, c = h[i]
            idx = self.find_reducer(key)
            if idx < 0:
                out.append((key, c))
                i += 1
            else:
                if rise[idx] and ctx.deg(key >> POS_BITS) + rise[idx] > ctx.cap:
                    raise _degree_overflow(ctx.deg(key >> POS_BITS) + rise[idx], ctx)
                shift = key - self.lead_keys[idx]
                q = (c * self.lead_inv[idx]) % p
                if quots is not None and idx >= self.nid:
                    quots[idx - self.nid].append((shift >> POS_BITS, q))
                h = add_scaled(h, self.basis[idx], p - q, shift, p, start=i)
                i = 0
        return out
