/* Compiled reduction kernel for key layouts that fit a 64-bit word.

A hand-written CPython extension, selected by ``charmod.kernel`` when the
packing context allows (``OrderCtx.fits64`` and a prime below 2^31).  It
mirrors the pure kernel term for term:

* ``add_scaled(u, v, c, shift, p)`` is ``pure.add_scaled``;
* ``Reducer(p, kind, n, fb, basis=(), ideal=())`` is ``pure.Reducer``:
  leads are bucketed by position, the first divisor in insertion order
  reduces, the ideal, first and out of the buckets, reduces at every
  position, and a step that would form a term past the degree cap (the
  head's degree plus the reducer's rise) raises the same OverflowError;
  so ``find_reducer``, ``nf`` and ``nf_q`` give the same results;
* ``buchberger(p, kind, n, fb, twists, vecs, ideal, marked, known, upto)``
  takes the parts of ``groebner._buchberger_terms`` and builds its inputs
  as they are read: the known block, the marked vectors with their markers
  e_(r+j) and the columns ``vecs``, every term flagged in an elimination.
  ``twists`` holds the ambient twists, then one per marked vector (its
  source twist).  On them it runs the pair loop of
  ``groebner._buchberger_loop``, the ideal first: the same input
  reductions, pairs, (sugar, i, j) order and criteria, hence the same
  unreduced basis, element for element, under either order (only an lcm's
  key and the cap check of an S-polynomial read it).  The known inputs are
  a reduced basis: they enter as given and form no pair among themselves
  or with the ideal.  A new single term forms no pair with another single
  term, an ideal element or one at its position: both are monic, so the
  S-polynomial is exactly 0, and the pair counts as treated;
* ``autoreduce(p, kind, n, fb, G, ideal, shift)`` is ``groebner._autoreduce``
  followed by the move of every key by ``shift``: it finishes what
  ``buchberger`` returns into the tuples a ``SubmoduleGB`` stores.

Keys, exponent words and coefficients are unsigned 64-bit words.  A key is
below 2^62 and a coefficient below p < 2^31, so a coefficient product plus
one more coefficient fits; packed words may wrap above the fields that are
read, which unsigned arithmetic makes harmless.  Every buffer comes from
PyMem, so a run under ``PYTHONMALLOC=debug`` catches overruns.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;
typedef int64_t i64;

#define POS_BITS 16
#define POS_MASK 0xFFFFu
#define LEX_KIND 1

typedef struct { u64 k, c; } term_t;                 /* key, coefficient */
typedef struct { term_t *t; Py_ssize_t n, cap; } vec_t;

/* Grow the array *pp to room for ``need`` elements of ``size`` bytes. */
static int
grow(void *pp, Py_ssize_t *cap, Py_ssize_t need, size_t size)
{
    void *old, *arr;
    Py_ssize_t c = *cap ? *cap : 8;

    if (need <= *cap)
        return 0;
    while (c < need)
        c *= 2;
    if ((size_t)c > (size_t)PY_SSIZE_T_MAX / size) {
        PyErr_NoMemory();
        return -1;
    }
    memcpy(&old, pp, sizeof old);
    arr = PyMem_Realloc(old, (size_t)c * size);
    if (arr == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memcpy(pp, &arr, sizeof arr);
    *cap = c;
    return 0;
}

#define RESERVE(arr, cap, need) grow(&(arr), &(cap), (need), sizeof *(arr))

static u64
powmod(u64 a, u64 e, u64 p)
{
    u64 r = 1 % p;

    a %= p;
    while (e) {
        if (e & 1)
            r = r * a % p;
        a = a * a % p;
        e >>= 1;
    }
    return r;
}

/* ------------------------------------------------------------------ */
/* conversion between term lists and C arrays */

static int
as_u64(PyObject *o, u64 *out)
{
    PyObject *i = PyNumber_Index(o);

    if (i == NULL)
        return -1;
    *out = PyLong_AsUnsignedLongLong(i);
    Py_DECREF(i);
    return (*out == (u64)-1 && PyErr_Occurred()) ? -1 : 0;
}

/* The terms of a sequence from PySequence_Fast into out (overwritten). */
static int
vec_from_seq(PyObject *seq, vec_t *out)
{
    Py_ssize_t i, n = PySequence_Fast_GET_SIZE(seq);
    PyObject **items = PySequence_Fast_ITEMS(seq);

    if (RESERVE(out->t, out->cap, n) < 0)
        return -1;
    for (i = 0; i < n; i++) {
        PyObject *o = items[i];
        if (!PyTuple_Check(o) || PyTuple_GET_SIZE(o) != 2) {
            PyErr_SetString(PyExc_TypeError, "a term is a (key, coeff) tuple");
            return -1;
        }
        if (as_u64(PyTuple_GET_ITEM(o, 0), &out->t[i].k) < 0
                || as_u64(PyTuple_GET_ITEM(o, 1), &out->t[i].c) < 0)
            return -1;
    }
    out->n = n;
    return 0;
}

static int
vec_from_py(PyObject *v, vec_t *out)
{
    PyObject *seq = PySequence_Fast(v, "a vector is a sequence of terms");
    int rc;

    if (seq == NULL)
        return -1;
    rc = vec_from_seq(seq, out);
    Py_DECREF(seq);
    return rc;
}

static PyObject *
term_obj(u64 k, u64 c)
{
    PyObject *kk = PyLong_FromUnsignedLongLong(k);
    PyObject *cc = PyLong_FromUnsignedLongLong(c);
    PyObject *t = (kk && cc) ? PyTuple_New(2) : NULL;

    if (t == NULL) {
        Py_XDECREF(kk);
        Py_XDECREF(cc);
        return NULL;
    }
    PyTuple_SET_ITEM(t, 0, kk);
    PyTuple_SET_ITEM(t, 1, cc);
    return t;
}

static PyObject *
vec_to_list(const term_t *t, Py_ssize_t n)
{
    Py_ssize_t i;
    PyObject *list = PyList_New(n);

    if (list == NULL)
        return NULL;
    for (i = 0; i < n; i++) {
        PyObject *o = term_obj(t[i].k, t[i].c);
        if (o == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, o);
    }
    return list;
}

/* ------------------------------------------------------------------ */
/* add_scaled */

/* h[i:m] + c * X^shift * g into out, which has room for m - i + ng terms. */
static Py_ssize_t
merge(const term_t *h, Py_ssize_t i, Py_ssize_t m, const term_t *g,
      Py_ssize_t ng, u64 c, u64 shift, u64 p, term_t *out)
{
    Py_ssize_t j = 0, w = 0;
    u64 ku, kv, cc;

    while (i < m && j < ng) {
        ku = h[i].k;
        kv = g[j].k + shift;
        if (ku > kv) {
            out[w++] = h[i++];
        } else if (ku < kv) {
            cc = c * g[j++].c % p;
            if (cc)
                out[w++] = (term_t){kv, cc};
        } else {
            cc = (h[i++].c + c * g[j++].c) % p;
            if (cc)
                out[w++] = (term_t){ku, cc};
        }
    }
    while (i < m)
        out[w++] = h[i++];
    for (; j < ng; j++) {
        cc = c * g[j].c % p;
        if (cc)
            out[w++] = (term_t){g[j].k + shift, cc};
    }
    return w;
}

PyDoc_STRVAR(add_scaled_doc,
"add_scaled(u, v, c, shift, p)\n\n"
"Merge ``u + c * X^m * v`` of descending term lists (fresh list out).");

static PyObject *
add_scaled(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *u, *v, *us = NULL, *out = NULL, *o;
    long long c, r;
    u64 shift, p, cu, kv, cc;
    vec_t a = {0}, b = {0};
    Py_ssize_t i = 0, j = 0;

    if (!PyArg_ParseTuple(args, "OOLKK:add_scaled", &u, &v, &c, &shift, &p))
        return NULL;
    if (p == 0 || p >= (1ull << 31))
        return PyErr_Format(PyExc_ValueError, "prime %llu out of range", p);
    r = c % (long long)p;
    cu = (u64)(r < 0 ? r + (long long)p : r);
    us = PySequence_Fast(u, "a vector is a sequence of terms");
    if (us == NULL || vec_from_seq(us, &a) < 0 || vec_from_py(v, &b) < 0)
        goto done;
    if ((out = PyList_New(0)) == NULL)
        goto done;
    while (i < a.n || j < b.n) {
        if (j == b.n || (i < a.n && a.t[i].k > b.t[j].k + shift)) {
            o = PySequence_Fast_GET_ITEM(us, i);
            Py_INCREF(o);
            i++;
        } else {
            kv = b.t[j].k + shift;
            cc = cu * b.t[j++].c % p;
            if (i < a.n && a.t[i].k == kv)
                cc = (a.t[i++].c + cc) % p;
            if (!cc)
                continue;
            if ((o = term_obj(kv, cc)) == NULL)
                goto fail;
        }
        if (PyList_Append(out, o) < 0) {
            Py_DECREF(o);
            goto fail;
        }
        Py_DECREF(o);
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    Py_XDECREF(us);
    PyMem_Free(a.t);
    PyMem_Free(b.t);
    return out;
}

/* ------------------------------------------------------------------ */
/* a basis with leads bucketed by position */

typedef struct { u64 key, ep; Py_ssize_t idx; } lead_t;
typedef struct { lead_t *e; Py_ssize_t n, cap; } bucket_t;
typedef struct { term_t *t; Py_ssize_t n; u64 inv, ep, rise; } elt_t;

typedef struct {
    u64 p, okey_mask, guards, fmask, degcap;
    int kind, fb, deg_shift;
    elt_t *g;              /* elements in insertion order */
    Py_ssize_t nb, cap;
    bucket_t *bk;          /* bk[pos]: the leads at position pos */
    Py_ssize_t nbk, bkcap;
    Py_ssize_t nid;        /* g[0 .. nid - 1]: the ideal, out of the buckets */
} basis_t;

static int
basis_init(basis_t *b, u64 p, int kind, int n, int fb)
{
    int i;

    memset(b, 0, sizeof *b);
    if (p < 2 || p >= (1ull << 31) || n < 1 || fb < 2
            || n * fb + POS_BITS + 1 > 62) {
        PyErr_SetString(PyExc_ValueError, "prime or key layout out of range");
        return -1;
    }
    b->p = p;
    b->kind = kind;
    b->fb = fb;
    b->deg_shift = (n - 1) * fb;
    b->fmask = (1ull << fb) - 1;
    b->degcap = (1ull << (fb - 1)) - 1;
    b->okey_mask = (1ull << (n * fb)) - 1;
    for (i = 0; i < n; i++)
        b->guards |= 1ull << (i * fb + fb - 1);
    return 0;
}

static void
basis_free(basis_t *b)
{
    Py_ssize_t i;

    for (i = 0; i < b->nb; i++)
        PyMem_Free(b->g[i].t);
    for (i = 0; i < b->nbk; i++)
        PyMem_Free(b->bk[i].e);
    PyMem_Free(b->g);
    PyMem_Free(b->bk);
    memset(b, 0, sizeof *b);
}

/* Exponent word of okey, as ``common.epack``. */
static inline u64
epack(const basis_t *b, u64 okey)
{
    if (b->kind == LEX_KIND)
        return okey & b->okey_mask;
    return (okey - (okey << b->fb)) & b->okey_mask;
}

/* Total degree of the monomial packed in okey, as ``OrderCtx.deg``. */
static inline u64
okey_deg(const basis_t *b, u64 okey)
{
    u64 d = 0;

    if (b->kind != LEX_KIND)
        return (okey >> b->deg_shift) & b->fmask;
    for (okey &= b->okey_mask; okey; okey >>= b->fb)
        d += okey & b->fmask;
    return d;
}

/* The OverflowError of ``common._degree_overflow``; returns -1. */
static int
degree_overflow(const basis_t *b, u64 deg)
{
    PyErr_Format(PyExc_OverflowError, "total degree %llu exceeds packing cap %llu",
                 (unsigned long long)deg, (unsigned long long)b->degcap);
    return -1;
}

static inline Py_ssize_t
key_pos(u64 key)
{
    return (Py_ssize_t)(POS_MASK - (key & POS_MASK));
}

/* Index of the first element whose lead divides key, else of the first
   ideal element whose lead monomial divides key's, else -1. */
static Py_ssize_t
basis_find(const basis_t *b, u64 key)
{
    Py_ssize_t pos = key_pos(key), t;
    const bucket_t *bk = pos < b->nbk ? &b->bk[pos] : NULL;
    u64 guards = b->guards, ep = epack(b, key >> POS_BITS) | guards;

    for (t = 0; bk != NULL && t < bk->n; t++) {
        const lead_t *l = &bk->e[t];
        if (l->key <= key && ((ep - l->ep) & guards) == guards)
            return l->idx;
    }
    for (t = 0; t < b->nid; t++)
        if (((ep - b->g[t].ep) & guards) == guards)
            return t;
    return -1;
}

/* How far the degree of the highest of the n terms at t exceeds the
   lead's, as ``pure.Reducer.append``: 0 for an unflagged grevlex lead; for
   a flagged one, read the first term below the flag; under lex, all. */
static u64
rise(const basis_t *b, const term_t *t, Py_ssize_t n)
{
    u64 lead = okey_deg(b, t[0].k >> POS_BITS), top = 0, d;
    Py_ssize_t k = 1;

    if (b->kind != LEX_KIND) {
        if ((t[0].k >> POS_BITS) <= b->okey_mask)
            return 0;
        while (k < n && (t[k].k >> POS_BITS) > b->okey_mask)
            k++;
        n = k + (k < n);
    }
    for (; k < n; k++)
        if ((d = okey_deg(b, t[k].k >> POS_BITS)) > top)
            top = d;
    return top > lead ? top - lead : 0;
}

/* Append the n terms at t, which the basis owns on success. */
static int
basis_append(basis_t *b, term_t *t, Py_ssize_t n)
{
    Py_ssize_t pos = key_pos(t[0].k);
    bucket_t *bk;
    u64 ep = epack(b, t[0].k >> POS_BITS);

    if (RESERVE(b->g, b->cap, b->nb + 1) < 0)
        return -1;
    if (pos >= b->nbk) {
        if (RESERVE(b->bk, b->bkcap, pos + 1) < 0)
            return -1;
        memset(b->bk + b->nbk, 0, (size_t)(pos + 1 - b->nbk) * sizeof *b->bk);
        b->nbk = pos + 1;
    }
    bk = &b->bk[pos];
    if (RESERVE(bk->e, bk->cap, bk->n + 1) < 0)
        return -1;
    bk->e[bk->n++] = (lead_t){t[0].k, ep, b->nb};
    b->g[b->nb++] = (elt_t){t, n, powmod(t[0].c, b->p - 2, b->p), ep, rise(b, t, n)};
    return 0;
}

/* Append the term list g, a Python sequence. */
static int
basis_append_py(basis_t *b, PyObject *g)
{
    vec_t v = {0};

    if (vec_from_py(g, &v) < 0 || v.n == 0 || basis_append(b, v.t, v.n) < 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "cannot reduce by the zero vector");
        PyMem_Free(v.t);
        return -1;
    }
    return 0;
}

/* Append the term lists of the sequence vs. */
static int
basis_extend(basis_t *b, PyObject *vs)
{
    PyObject *seq = PySequence_Fast(vs, "a sequence of vectors");
    Py_ssize_t i;
    int rc = seq == NULL ? -1 : 0;

    for (i = 0; rc == 0 && i < PySequence_Fast_GET_SIZE(seq); i++)
        rc = basis_append_py(b, PySequence_Fast_GET_ITEM(seq, i));
    Py_XDECREF(seq);
    return rc;
}

/* Put the ideal's term lists (at position 0) first, out of the buckets:
   their leads reach every position. */
static int
basis_set_ideal(basis_t *b, PyObject *ideal)
{
    int rc = basis_extend(b, ideal);

    b->nid = b->nb;
    if (b->nbk)
        b->bk[0].n = 0;
    return rc;
}

typedef struct { Py_ssize_t idx; u64 okey, q; } quot_t;
typedef struct { quot_t *e; Py_ssize_t n, cap; } quots_t;

/* Normal form of h into out, as ``pure.Reducer.nf``; h and s are work
   buffers (swapped as the reduction goes).  A step whose head degree plus
   the reducer's rise passes the cap raises OverflowError before it forms a
   term.  With qs, every reduction step by a basis element records its
   index past the ideal, monomial and coefficient. */
static int
reduce(const basis_t *b, vec_t *h, vec_t *s, vec_t *out, quots_t *qs)
{
    Py_ssize_t i = 0, idx;
    u64 p = b->p, key, shift, q;
    vec_t tmp;

    out->n = 0;
    while (i < h->n) {
        key = h->t[i].k;
        idx = basis_find(b, key);
        if (idx < 0) {
            if (RESERVE(out->t, out->cap, out->n + 1) < 0)
                return -1;
            out->t[out->n++] = h->t[i++];
            continue;
        }
        const elt_t *g = &b->g[idx];
        if (g->rise && okey_deg(b, key >> POS_BITS) + g->rise > b->degcap)
            return degree_overflow(b, okey_deg(b, key >> POS_BITS) + g->rise);
        shift = key - g->t[0].k;
        q = h->t[i].c * g->inv % p;
        if (qs && idx >= b->nid) {
            if (RESERVE(qs->e, qs->cap, qs->n + 1) < 0)
                return -1;
            qs->e[qs->n++] = (quot_t){idx - b->nid, shift >> POS_BITS, q};
        }
        if (RESERVE(s->t, s->cap, h->n - i + g->n) < 0)
            return -1;
        s->n = merge(h->t, i, h->n, g->t, g->n, p - q, shift, p, s->t);
        tmp = *h;
        *h = *s;
        *s = tmp;
        i = 0;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Reducer */

typedef struct {
    PyObject_HEAD
    basis_t b;
} ReducerObject;

static PyTypeObject ReducerType;

static PyObject *
Reducer_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"p", "kind", "n", "fb", "basis", "ideal", NULL};
    unsigned long long p;
    int kind, n, fb;
    PyObject *basis = NULL, *ideal = NULL;
    ReducerObject *self;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "Kiii|OO:Reducer", kwlist,
                                     &p, &kind, &n, &fb, &basis, &ideal))
        return NULL;
    self = (ReducerObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    if (basis_init(&self->b, p, kind, n, fb) < 0
            || (ideal != NULL && basis_set_ideal(&self->b, ideal) < 0)
            || (basis != NULL && basis_extend(&self->b, basis) < 0)) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static void
Reducer_dealloc(ReducerObject *self)
{
    basis_free(&self->b);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static Py_ssize_t
Reducer_len(ReducerObject *self)
{
    return self->b.nb - self->b.nid;
}

static PyObject *
Reducer_append(ReducerObject *self, PyObject *g)
{
    if (basis_append_py(&self->b, g) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Reducer_find_reducer(ReducerObject *self, PyObject *key)
{
    u64 k;

    if (as_u64(key, &k) < 0)
        return NULL;
    return PyLong_FromSsize_t(basis_find(&self->b, k));
}

static PyObject *
Reducer_nf(ReducerObject *self, PyObject *v)
{
    vec_t h = {0}, s = {0}, out = {0};
    PyObject *res = NULL;

    if (vec_from_py(v, &h) == 0 && reduce(&self->b, &h, &s, &out, NULL) == 0)
        res = vec_to_list(out.t, out.n);
    PyMem_Free(h.t);
    PyMem_Free(s.t);
    PyMem_Free(out.t);
    return res;
}

static PyObject *
Reducer_nf_q(ReducerObject *self, PyObject *v)
{
    vec_t h = {0}, s = {0}, out = {0};
    quots_t qs = {0};
    PyObject *r = NULL, *quots = NULL, *res = NULL, *t;
    Py_ssize_t i;

    if (vec_from_py(v, &h) < 0 || reduce(&self->b, &h, &s, &out, &qs) < 0)
        goto done;
    if ((r = vec_to_list(out.t, out.n)) == NULL
            || (quots = PyList_New(self->b.nb - self->b.nid)) == NULL)
        goto done;
    for (i = 0; i < self->b.nb - self->b.nid; i++) {
        if ((t = PyList_New(0)) == NULL)
            goto done;
        PyList_SET_ITEM(quots, i, t);
    }
    for (i = 0; i < qs.n; i++) {
        if ((t = term_obj(qs.e[i].okey, qs.e[i].q)) == NULL)
            goto done;
        if (PyList_Append(PyList_GET_ITEM(quots, qs.e[i].idx), t) < 0) {
            Py_DECREF(t);
            goto done;
        }
        Py_DECREF(t);
    }
    res = PyTuple_Pack(2, r, quots);
done:
    Py_XDECREF(r);
    Py_XDECREF(quots);
    PyMem_Free(h.t);
    PyMem_Free(s.t);
    PyMem_Free(out.t);
    PyMem_Free(qs.e);
    return res;
}

static PyMethodDef Reducer_methods[] = {
    {"append", (PyCFunction)Reducer_append, METH_O,
     "Add a basis element (a nonzero term list)."},
    {"find_reducer", (PyCFunction)Reducer_find_reducer, METH_O,
     "Index of the first basis element whose lead divides ``key``, else of\n"
     "the first such ideal element, or -1; the ideal comes first."},
    {"nf", (PyCFunction)Reducer_nf, METH_O,
     "Fully reduced normal form of ``v`` against the basis and the ideal."},
    {"nf_q", (PyCFunction)Reducer_nf_q, METH_O,
     "Normal form plus division quotients, as in the pure kernel."},
    {NULL, NULL, 0, NULL}
};

static PySequenceMethods Reducer_as_sequence = {
    .sq_length = (lenfunc)Reducer_len,
};

static PyTypeObject ReducerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "charmod.kernel._fast.Reducer",
    .tp_doc = "Reducer(p, kind, n, fb, basis=(), ideal=())\n\n"
              "Normal-form engine over a growable basis modulo an ideal.",
    .tp_basicsize = sizeof(ReducerObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Reducer_new,
    .tp_dealloc = (destructor)Reducer_dealloc,
    .tp_methods = Reducer_methods,
    .tp_as_sequence = &Reducer_as_sequence,
};

/* ------------------------------------------------------------------ */
/* the Buchberger pair loop */

/* A pair of elements i < j; the ideal's elements come first, at every
   position (index k < nid). */
typedef struct { i64 sugar; Py_ssize_t i, j; u64 w, lk; } pair_t;

typedef struct {
    basis_t b;             /* the basis G, also the reducer */
    int top;
    u64 ones;
    i64 *twists;           /* the ambient's, then the markers' */
    Py_ssize_t ntw;
    int bounded;
    i64 upto;
    pair_t *heap;          /* min-heap on (sugar, i, j) */
    Py_ssize_t nh, hcap;
    u64 **done;            /* done[t] bit i: the pair (i, t) is treated */
    Py_ssize_t ndone, dcap;
    vec_t h, s, out;
} engine_t;

static void
engine_free(engine_t *e)
{
    Py_ssize_t i;

    for (i = e->b.nid; i < e->ndone; i++)  /* the ideal's rows are never set */
        PyMem_Free(e->done[i]);
    basis_free(&e->b);
    PyMem_Free(e->done);
    PyMem_Free(e->twists);
    PyMem_Free(e->heap);
    PyMem_Free(e->h.t);
    PyMem_Free(e->s.t);
    PyMem_Free(e->out.t);
}

static inline int
pair_less(const pair_t *x, const pair_t *y)
{
    if (x->sugar != y->sugar)
        return x->sugar < y->sugar;
    return x->i != y->i ? x->i < y->i : x->j < y->j;
}

static int
heap_push(engine_t *e, pair_t x)
{
    Py_ssize_t k, up;

    if (RESERVE(e->heap, e->hcap, e->nh + 1) < 0)
        return -1;
    for (k = e->nh++; k > 0; k = up) {
        up = (k - 1) / 2;
        if (!pair_less(&x, &e->heap[up]))
            break;
        e->heap[k] = e->heap[up];
    }
    e->heap[k] = x;
    return 0;
}

static pair_t
heap_pop(engine_t *e)
{
    pair_t top = e->heap[0], last = e->heap[--e->nh];
    Py_ssize_t k = 0, c;

    while ((c = 2 * k + 1) < e->nh) {
        if (c + 1 < e->nh && pair_less(&e->heap[c + 1], &e->heap[c]))
            c++;
        if (!pair_less(&e->heap[c], &last))
            break;
        e->heap[k] = e->heap[c];
        k = c;
    }
    if (e->nh)
        e->heap[k] = last;
    return top;
}

/* Whether the pair (a, b) is treated; one inside the ideal needs nothing. */
static inline int
is_done(const engine_t *e, Py_ssize_t a, Py_ssize_t b)
{
    if (a > b) {
        Py_ssize_t t = a;
        a = b;
        b = t;
    }
    return b < e->b.nid || (int)((e->done[b][a >> 6] >> (a & 63)) & 1);
}

static int
twist_at(const engine_t *e, u64 key, i64 *twist)
{
    Py_ssize_t pos = key_pos(key);

    if (pos >= e->ntw) {
        PyErr_SetString(PyExc_IndexError, "position has no twist");
        return -1;
    }
    *twist = e->twists[pos];
    return 0;
}

/* add_gen: make e->out monic, push its pairs with the ideal elements
   whose leads are not coprime to its own and with the leads at its
   position unless ``pair`` is 0, and append it to the basis.  The ideal
   pairs it does not push are treated, and so is each pair of two single
   terms it meets. */
static int
add_gen(engine_t *e, int pair)
{
    basis_t *b = &e->b;
    Py_ssize_t n = e->out.n, t = b->nb, k;
    term_t *v = PyMem_Malloc((size_t)n * sizeof *v);
    u64 ep, guards = b->guards, inv;
    i64 twist;
    const bucket_t *bk;

    if (v == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memcpy(v, e->out.t, (size_t)n * sizeof *v);
    if (v[0].c != 1) {
        inv = powmod(v[0].c, b->p - 2, b->p);
        for (k = 0; k < n; k++)
            v[k].c = v[k].c * inv % b->p;
    }
    ep = epack(b, v[0].k >> POS_BITS);
    if (twist_at(e, v[0].k, &twist) < 0
            || RESERVE(e->done, e->dcap, t + 1) < 0
            || (e->done[t] = PyMem_Calloc((size_t)(t / 64 + 1), sizeof(u64))) == NULL)
        goto fail;
    e->ndone = t + 1;
    bk = key_pos(v[0].k) < b->nbk ? &b->bk[key_pos(v[0].k)] : NULL;
    for (k = 0; k < b->nid + (pair && bk ? bk->n : 0); k++) {
        Py_ssize_t i = k < b->nid ? k : bk->e[k - b->nid].idx;
        u64 lep = b->g[i].ep;
        /* guard bit set in each field where lead i's exponent is at least ep's */
        u64 g = ((lep | guards) - ep) & guards;
        u64 low = g - (g >> e->top);
        u64 w = (lep & low) | (ep & ~low);
        u64 sums = w * e->ones;
        i64 sugar = (i64)((sums >> b->deg_shift) & b->fmask) + twist;
        /* nothing to do: a known element's or coprime ideal pair, or two
           monic terms at one position (S-polynomial 0) */
        if ((i < b->nid && (!pair || w == lep + ep)) || (n == 1 && b->g[i].n == 1))
            e->done[t][i >> 6] |= 1ull << (i & 63);
        else if ((!e->bounded || sugar <= e->upto)
                 && heap_push(e, (pair_t){sugar, i, t, w,
                                          b->kind == LEX_KIND ? w : sums & b->okey_mask}) < 0)
            goto fail;
    }
    if (basis_append(b, v, n) < 0)
        goto fail;
    return 0;
fail:
    if (!PyErr_Occurred())
        PyErr_NoMemory();
    PyMem_Free(v);
    return -1;
}

/* Chain criterion: some other lead at the pair's position, or of the
   ideal, divides its lcm and both of its pairs with i and j are treated. */
static int
chain(const engine_t *e, Py_ssize_t i, Py_ssize_t j, u64 lcm)
{
    const basis_t *b = &e->b;
    const bucket_t *bk = &b->bk[key_pos(b->g[j].t[0].k)];
    u64 guards = b->guards, word = lcm | guards;
    Py_ssize_t k, t;

    for (k = 0; k < bk->n + b->nid; k++) {
        t = k < bk->n ? bk->e[k].idx : k - bk->n;
        if (t != i && t != j && ((word - b->g[t].ep) & guards) == guards
                && is_done(e, i, t) && is_done(e, j, t))
            return 1;
    }
    return 0;
}

/* OverflowError, as ``kernel.scaled_merge``, when a term of X^m * g passes
   the degree cap (shift = okey(m) << POS_BITS): a grevlex key sets a guard
   bit, a lex key's fields sum past the cap. */
static int
check_cap(const basis_t *b, const elt_t *g, u64 shift)
{
    u64 guards = b->guards << POS_BITS, k;
    Py_ssize_t t;

    for (t = 0; shift && t < g->n; t++) {
        k = g->t[t].k + shift;
        if (b->kind == LEX_KIND ? okey_deg(b, k >> POS_BITS) > b->degcap : (k & guards) != 0)
            return degree_overflow(b, okey_deg(b, k >> POS_BITS));
    }
    return 0;
}

/* S-polynomial of the pair (i, j) with lcm key lk, reduced into e->out;
   i moves to the lcm at j's position and block (an ideal element's are
   position 0, unflagged) by the shift key - lead key. */
static int
spoly_nf(engine_t *e, Py_ssize_t i, Py_ssize_t j, u64 lk)
{
    const basis_t *b = &e->b;
    const elt_t *gi = &b->g[i], *gj = &b->g[j];
    u64 sh_j = (lk - ((gj->t[0].k >> POS_BITS) & b->okey_mask)) << POS_BITS;
    u64 sh_i = gj->t[0].k + sh_j - gi->t[0].k;
    Py_ssize_t k;

    if (check_cap(b, gi, sh_i) < 0 || check_cap(b, gj, sh_j) < 0
            || RESERVE(e->h.t, e->h.cap, gi->n) < 0
            || RESERVE(e->s.t, e->s.cap, gi->n + gj->n) < 0)
        return -1;
    for (k = 0; k < gi->n; k++)
        e->h.t[k] = (term_t){gi->t[k].k + sh_i, gi->t[k].c};
    e->s.n = merge(e->h.t, 0, gi->n, gj->t, gj->n, b->p - 1, sh_j, b->p, e->s.t);
    return reduce(b, &e->s, &e->h, &e->out, NULL);
}

/* Enter the input held in e->h: drop it when the bound puts its lead above
   ``upto``, else reduce it (a known element enters as given) and add what
   is left. */
static int
engine_input(engine_t *e, int known)
{
    i64 twist;
    vec_t tmp;

    if (e->h.n == 0)
        return 0;
    if (e->bounded) {
        u64 deg = okey_deg(&e->b, e->h.t[0].k >> POS_BITS);
        if (twist_at(e, e->h.t[0].k, &twist) < 0)
            return -1;
        if ((i64)deg + twist > e->upto)
            return 0;
    }
    if (known) {
        tmp = e->out;
        e->out = e->h;
        e->h = tmp;
    } else if (reduce(&e->b, &e->h, &e->s, &e->out, NULL) < 0) {
        return -1;
    }
    return e->out.n ? add_gen(e, !known) : 0;
}

/* The terms of the vector v into e->h, each key raised by flag. */
static int
read_flagged(engine_t *e, PyObject *v, u64 flag)
{
    Py_ssize_t k;

    if (vec_from_py(v, &e->h) < 0)
        return -1;
    for (k = 0; k < e->h.n; k++)
        e->h.t[k].k += flag;
    return 0;
}

/* Enter every vector of the sequence vs, flagged. */
static int
feed(engine_t *e, PyObject *vs, u64 flag, int known)
{
    PyObject *seq = PySequence_Fast(vs, "a sequence of vectors");
    Py_ssize_t i;
    int rc = 0;

    if (seq == NULL)
        return -1;
    for (i = 0; rc == 0 && i < PySequence_Fast_GET_SIZE(seq); i++) {
        rc = read_flagged(e, PySequence_Fast_GET_ITEM(seq, i), flag);
        if (rc == 0)
            rc = engine_input(e, known);
    }
    Py_DECREF(seq);
    return rc;
}

/* Enter the marked vectors of mk, flagged, with the marker e_(r+j)
   appended to vector j. */
static int
feed_marked(engine_t *e, PyObject *mk, Py_ssize_t r, u64 flag)
{
    Py_ssize_t j;

    for (j = 0; j < PySequence_Fast_GET_SIZE(mk); j++) {
        if (read_flagged(e, PySequence_Fast_GET_ITEM(mk, j), flag) < 0
                || RESERVE(e->h.t, e->h.cap, e->h.n + 1) < 0)
            return -1;
        e->h.t[e->h.n++] = (term_t){POS_MASK - (u64)(r + j), 1};
        if (engine_input(e, 0) < 0)
            return -1;
    }
    return 0;
}

/* The pair loop, once every input is in; the product criterion holds in
   rank one. */
static int
engine_pairs(engine_t *e)
{
    basis_t *b = &e->b;
    int product = e->ntw == 1;

    while (e->nh) {
        pair_t pr = heap_pop(e);
        e->done[pr.j][pr.i >> 6] |= 1ull << (pr.i & 63);
        if (product && pr.i >= b->nid && pr.w == b->g[pr.i].ep + b->g[pr.j].ep)
            continue;
        if (chain(e, pr.i, pr.j, pr.w))
            continue;
        if (spoly_nf(e, pr.i, pr.j, pr.lk) < 0 || (e->out.n && add_gen(e, 1) < 0))
            return -1;
    }
    return 0;
}

PyDoc_STRVAR(buchberger_doc,
"buchberger(p, kind, n, fb, twists, vecs, ideal, marked, known, upto)\n\n"
"The pair loop of ``groebner._buchberger_loop``, on the inputs that\n"
"``groebner._buchberger_terms`` builds from its parts: the unreduced basis,\n"
"in order.  The inputs are the known block, the marked vectors and\n"
"``vecs``; ``ideal`` reduces at every position and pairs with each new\n"
"element.  With ``marked`` a sequence (an elimination) every input is\n"
"flagged, marked vector j carries e_(r+j), whose twist is the j-th of the\n"
"last len(marked) ``twists``, and only the elements with lead below the\n"
"flag are returned.");

static PyObject *
buchberger(PyObject *Py_UNUSED(self), PyObject *args)
{
    unsigned long long p;
    int kind, n, fb;
    PyObject *twists, *vecs, *ideal, *marked, *known, *upto;
    PyObject *tw = NULL, *mk = NULL, *kn = NULL, *out = NULL, *g;
    engine_t e;
    u64 flag = 0, limit = UINT64_MAX;
    Py_ssize_t i, m = 0;

    if (!PyArg_ParseTuple(args, "KiiiOOOOOO:buchberger", &p, &kind, &n, &fb, &twists,
                          &vecs, &ideal, &marked, &known, &upto))
        return NULL;
    memset(&e, 0, sizeof e);
    if (basis_init(&e.b, p, kind, n, fb) < 0)
        return NULL;
    if (basis_set_ideal(&e.b, ideal) < 0)
        goto done;
    e.top = fb - 1;
    e.ones = e.b.guards >> e.top;
    if (upto != Py_None) {
        e.bounded = 1;
        e.upto = PyLong_AsLongLong(upto);
        if (e.upto == -1 && PyErr_Occurred())
            goto done;
    }
    if ((tw = PySequence_Fast(twists, "twists is a sequence of ints")) == NULL
            || (kn = PySequence_Fast(known, "known is a sequence of vectors")) == NULL)
        goto done;
    e.ntw = PySequence_Fast_GET_SIZE(tw);
    if (marked != Py_None) {
        if ((mk = PySequence_Fast(marked, "marked is a sequence of vectors")) == NULL)
            goto done;
        if ((m = PySequence_Fast_GET_SIZE(mk)) > e.ntw) {
            PyErr_SetString(PyExc_ValueError, "a marked vector has no twist");
            goto done;
        }
        flag = limit = 1ull << (n * fb + POS_BITS);
    }
    if ((e.twists = PyMem_Malloc((size_t)(e.ntw + 1) * sizeof(i64))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < e.ntw; i++) {
        e.twists[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(tw, i));
        if (e.twists[i] == -1 && PyErr_Occurred())
            goto done;
    }
    if (feed(&e, kn, flag, 1) < 0
            || (mk != NULL && feed_marked(&e, mk, e.ntw - m, flag) < 0)
            || feed(&e, vecs, flag, 0) < 0
            || engine_pairs(&e) < 0
            || (out = PyList_New(0)) == NULL)
        goto done;
    for (i = e.b.nid; i < e.b.nb; i++) {
        if (e.b.g[i].t[0].k >= limit)
            continue;
        if ((g = vec_to_list(e.b.g[i].t, e.b.g[i].n)) == NULL
                || PyList_Append(out, g) < 0) {
            Py_XDECREF(g);
            Py_CLEAR(out);
            goto done;
        }
        Py_DECREF(g);
    }
done:
    Py_XDECREF(tw);
    Py_XDECREF(mk);
    Py_XDECREF(kn);
    engine_free(&e);
    return out;
}

/* ------------------------------------------------------------------ */
/* autoreduction */

typedef struct { u64 key; Py_ssize_t idx; } order_t;

static int
order_cmp(const void *x, const void *y)
{
    const order_t *a = x, *b = y;

    if (a->key != b->key)
        return a->key < b->key ? -1 : 1;
    return (a->idx > b->idx) - (a->idx < b->idx);
}

PyDoc_STRVAR(autoreduce_doc,
"autoreduce(p, kind, n, fb, G, ideal, shift)\n\n"
"``groebner._autoreduce``: the reduced basis from the basis\n"
"G modulo ``ideal``, as a tuple of term tuples in descending lead order,\n"
"with ``shift`` added to every key (r moves marker position r + j back to\n"
"j).");

static PyObject *
autoreduce(PyObject *Py_UNUSED(self), PyObject *args)
{
    unsigned long long p, shift;
    int kind, n, fb;
    PyObject *G, *ideal, *seq = NULL, *out = NULL, *v, *t;
    basis_t b;
    vec_t *elts = NULL, h = {0}, s = {0}, tail = {0};
    order_t *order = NULL;
    Py_ssize_t i, k, m = 0;

    if (!PyArg_ParseTuple(args, "KiiiOOK:autoreduce", &p, &kind, &n, &fb, &G, &ideal,
                          &shift))
        return NULL;
    if (basis_init(&b, p, kind, n, fb) < 0)
        return NULL;
    if (basis_set_ideal(&b, ideal) < 0
            || (seq = PySequence_Fast(G, "G is a sequence of vectors")) == NULL)
        goto done;
    m = PySequence_Fast_GET_SIZE(seq);
    elts = PyMem_Calloc((size_t)(m + 1), sizeof *elts);
    order = PyMem_Malloc((size_t)(m + 1) * sizeof *order);
    if (elts == NULL || order == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* minimal leads: in ascending lead order, keep an element unless a kept
       lead divides its own (no lead of G lies in the ideal's); the kept
       ones, in that order, and the ideal are the reducer */
    for (i = 0; i < m; i++) {
        if (vec_from_py(PySequence_Fast_GET_ITEM(seq, i), &elts[i]) < 0)
            goto done;
        if (elts[i].n == 0) {
            PyErr_SetString(PyExc_ValueError, "cannot reduce by the zero vector");
            goto done;
        }
        order[i] = (order_t){elts[i].t[0].k, i};
    }
    qsort(order, (size_t)m, sizeof *order, order_cmp);
    for (i = 0; i < m; i++) {
        vec_t *g = &elts[order[i].idx];
        if (basis_find(&b, g->t[0].k) >= 0)
            continue;
        if (basis_append(&b, g->t, g->n) < 0)
            goto done;
        g->t = NULL;  /* the basis owns it */
    }
    /* tails in normal form, descending by lead */
    if ((out = PyTuple_New(b.nb - b.nid)) == NULL)
        goto done;
    for (i = b.nid; i < b.nb; i++) {
        const elt_t *g = &b.g[i];
        if (RESERVE(h.t, h.cap, g->n) < 0)
            goto fail;
        memcpy(h.t, g->t + 1, (size_t)(g->n - 1) * sizeof *h.t);
        h.n = g->n - 1;
        if (reduce(&b, &h, &s, &tail, NULL) < 0 || (v = PyTuple_New(tail.n + 1)) == NULL)
            goto fail;
        PyTuple_SET_ITEM(out, b.nb - 1 - i, v);
        for (k = 0; k <= tail.n; k++) {
            const term_t *x = k ? &tail.t[k - 1] : &g->t[0];
            if ((t = term_obj(x->k + shift, x->c)) == NULL)
                goto fail;
            PyTuple_SET_ITEM(v, k, t);
        }
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    for (i = 0; elts != NULL && i < m; i++)
        PyMem_Free(elts[i].t);
    PyMem_Free(elts);
    PyMem_Free(order);
    PyMem_Free(h.t);
    PyMem_Free(s.t);
    PyMem_Free(tail.t);
    basis_free(&b);
    Py_XDECREF(seq);
    return out;
}

/* ------------------------------------------------------------------ */

static PyMethodDef module_methods[] = {
    {"add_scaled", add_scaled, METH_VARARGS, add_scaled_doc},
    {"buchberger", buchberger, METH_VARARGS, buchberger_doc},
    {"autoreduce", autoreduce, METH_VARARGS, autoreduce_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef fast_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "charmod.kernel._fast",
    .m_doc = "Compiled reduction kernel (see the comment at the top of _fast.c).",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__fast(void)
{
    PyObject *m;

    if (PyType_Ready(&ReducerType) < 0)
        return NULL;
    if ((m = PyModule_Create(&fast_module)) == NULL)
        return NULL;
    Py_INCREF(&ReducerType);
    if (PyModule_AddObject(m, "Reducer", (PyObject *)&ReducerType) < 0) {
        Py_DECREF(&ReducerType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
