/* Native kernels for FastReqSketch: the scalar staging block and the
 * compaction cascade.
 *
 * StageBuffer — a preallocated C staging block for scalar sketch updates.
 * The pure-Python scalar path of FastReqSketch is bounded by CPython's
 * per-call bytecode overhead (~250 ns/item for the seed engine).  This
 * module moves the per-item work — float conversion, NaN rejection, store,
 * full-check — into a single METH_O C call, so `sketch.update` (bound to
 * `StageBuffer.push` on instances) costs one C function dispatch per item.
 * When the block fills, a Python callback drains it into the level
 * structure.
 *
 * cascade() — the whole merge -> compact -> promote cascade of one
 * `FastReqSketch._compress` call (Algorithm 1's compaction, level by
 * level) in one C call; see the section comment further down.
 *
 * Compiled at import time by repro.fast._native (cc, cached under
 * _build/); repro.fast.engine falls back to pure-Python mirrors of both
 * when no compiler or headers are available.  Only the buffer protocol is
 * used to read and write numpy arrays (no numpy C API).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include "structmember.h"
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef struct {
    PyObject_HEAD
    double *buf;           /* preallocated block of `capacity` doubles */
    Py_ssize_t capacity;
    Py_ssize_t count;      /* filled prefix length */
    PyObject *flush_cb;    /* no-arg callable fired when the block fills */
    PyObject *nan_exc;     /* exception type raised for NaN items */
} StageBuffer;

/* Fire the flush callback; it must drain the buffer (count -> 0). */
static int
stage_fire_flush(StageBuffer *self)
{
    PyObject *result;
    if (self->flush_cb == NULL || self->flush_cb == Py_None) {
        PyErr_SetString(PyExc_RuntimeError,
                        "StageBuffer is full and no flush callback is set");
        return -1;
    }
    result = PyObject_CallNoArgs(self->flush_cb);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    if (self->count >= self->capacity) {
        PyErr_SetString(PyExc_RuntimeError,
                        "StageBuffer flush callback did not drain the buffer");
        return -1;
    }
    return 0;
}

static PyObject *
stage_push(StageBuffer *self, PyObject *item)
{
    double value = PyFloat_AsDouble(item);
    if (value == -1.0 && PyErr_Occurred())
        return NULL;
    if (value != value) {
        PyErr_SetString(self->nan_exc ? self->nan_exc : PyExc_ValueError,
                        "cannot insert NaN: items must form a total order");
        return NULL;
    }
    /* A failed flush (callback raised) can leave the buffer full; retry
     * the flush before storing so the write below never goes past the
     * end of the block. */
    if (self->count >= self->capacity && stage_fire_flush(self) < 0)
        return NULL;
    self->buf[self->count++] = value;
    if (self->count == self->capacity && stage_fire_flush(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Bulk-append from any C-contiguous buffer of float64 (no NaN check here —
 * callers vet batches with numpy before staging). */
static PyObject *
stage_extend(StageBuffer *self, PyObject *arg)
{
    Py_buffer view;
    const double *src;
    Py_ssize_t remaining;

    if (PyObject_GetBuffer(arg, &view, PyBUF_CONTIG_RO) < 0)
        return NULL;
    if (view.itemsize != (Py_ssize_t)sizeof(double) ||
        view.len % (Py_ssize_t)sizeof(double) != 0) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_TypeError,
                        "StageBuffer.extend needs a contiguous float64 buffer");
        return NULL;
    }
    src = (const double *)view.buf;
    remaining = view.len / (Py_ssize_t)sizeof(double);
    while (remaining > 0) {
        Py_ssize_t space = self->capacity - self->count;
        Py_ssize_t take = remaining < space ? remaining : space;
        memcpy(self->buf + self->count, src, (size_t)take * sizeof(double));
        self->count += take;
        src += take;
        remaining -= take;
        if (self->count == self->capacity && stage_fire_flush(self) < 0) {
            PyBuffer_Release(&view);
            return NULL;
        }
    }
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

/* Return the staged items as bytes (copy) and reset the buffer. */
static PyObject *
stage_drain(StageBuffer *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *bytes = PyBytes_FromStringAndSize(
        (const char *)self->buf, self->count * (Py_ssize_t)sizeof(double));
    if (bytes == NULL)
        return NULL;
    self->count = 0;
    return bytes;
}

/* Return the staged items as bytes without resetting the buffer.  Lets a
 * merge snapshot a donor sketch's staged items without mutating it. */
static PyObject *
stage_peek(StageBuffer *self, PyObject *Py_UNUSED(ignored))
{
    return PyBytes_FromStringAndSize(
        (const char *)self->buf, self->count * (Py_ssize_t)sizeof(double));
}

static PyObject *
stage_set_flush(StageBuffer *self, PyObject *cb)
{
    PyObject *old = self->flush_cb;
    Py_INCREF(cb);
    self->flush_cb = cb;
    Py_XDECREF(old);
    Py_RETURN_NONE;
}

static PyObject *
stage_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"capacity", "nan_exc", NULL};
    Py_ssize_t capacity;
    PyObject *nan_exc = NULL;
    StageBuffer *self;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "n|O", kwlist,
                                     &capacity, &nan_exc))
        return NULL;
    if (capacity < 1) {
        PyErr_SetString(PyExc_ValueError, "capacity must be >= 1");
        return NULL;
    }
    self = (StageBuffer *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->buf = (double *)PyMem_Malloc((size_t)capacity * sizeof(double));
    if (self->buf == NULL) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    self->capacity = capacity;
    self->count = 0;
    self->flush_cb = NULL;
    if (nan_exc != NULL && nan_exc != Py_None) {
        Py_INCREF(nan_exc);
        self->nan_exc = nan_exc;
    } else {
        self->nan_exc = NULL;
    }
    return (PyObject *)self;
}

static int
stage_traverse(StageBuffer *self, visitproc visit, void *arg)
{
    Py_VISIT(self->flush_cb);
    Py_VISIT(self->nan_exc);
    return 0;
}

static int
stage_clear(StageBuffer *self)
{
    Py_CLEAR(self->flush_cb);
    Py_CLEAR(self->nan_exc);
    return 0;
}

static void
stage_dealloc(StageBuffer *self)
{
    PyObject_GC_UnTrack(self);
    stage_clear(self);
    PyMem_Free(self->buf);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef stage_members[] = {
    {"count", T_PYSSIZET, offsetof(StageBuffer, count), READONLY,
     "number of staged items"},
    {"capacity", T_PYSSIZET, offsetof(StageBuffer, capacity), READONLY,
     "block size that triggers the flush callback"},
    {NULL}
};

static PyMethodDef stage_methods[] = {
    {"push", (PyCFunction)stage_push, METH_O,
     "push(item) — stage one float (NaN rejected); flushes when full"},
    {"extend", (PyCFunction)stage_extend, METH_O,
     "extend(buffer) — stage a contiguous float64 buffer (caller vets NaN)"},
    {"drain", (PyCFunction)stage_drain, METH_NOARGS,
     "drain() -> bytes — copy out the staged float64 block and reset"},
    {"peek", (PyCFunction)stage_peek, METH_NOARGS,
     "peek() -> bytes — copy out the staged float64 block without reset"},
    {"set_flush", (PyCFunction)stage_set_flush, METH_O,
     "set_flush(callable) — no-arg callback fired when the block fills"},
    {NULL}
};

static PyTypeObject StageBufferType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_stagebuf.StageBuffer",
    .tp_basicsize = sizeof(StageBuffer),
    .tp_dealloc = (destructor)stage_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Preallocated float64 staging block with a flush callback.",
    .tp_traverse = (traverseproc)stage_traverse,
    .tp_clear = (inquiry)stage_clear,
    .tp_methods = stage_methods,
    .tp_members = stage_members,
    .tp_new = stage_new,
};

/* ------------------------------------------------------------------------
 * The compaction cascade
 *
 *   cascade(levels, run, k, hra, fixed_capacity, bit_generator, empty)
 *
 * One call runs FastReqSketch._compress over `levels` (the sketch's list
 * of _FastLevel objects) after appending `run` (a sorted float64 array, or
 * None) to level 0.  Walking the levels bottom up, a level whose retained
 * size reaches its capacity is compacted in one pass:
 *
 *   - one coin is drawn from the sketch's own generator;
 *   - the level's consolidated items, its pending runs and the run
 *     promoted from the level below are merged; a tie takes the item from
 *     the earliest array in [items, *runs, promoted] order, which is
 *     exactly a stable sort of their concatenation;
 *   - the same pass writes the protected part into the level's new items
 *     array and every other item of the compacted part (even or odd, per
 *     the coin) out as the next level's incoming run.
 *
 * The result is bit-identical to the Python path: the same merged order,
 * the same coins (`next_double` on the generator's bitgen_t is the draw
 * behind Generator.random()), the same double-precision capacity rule,
 * and the same `inserted` counts, schedule states and per-level version
 * bumps.  Nothing is written back to the level objects until every output
 * array is allocated and filled, so a failure leaves the levels as they
 * were (coins already drawn stay drawn).
 * ------------------------------------------------------------------------ */

/* numpy's bitgen_t (numpy/random/bitgen.h), reached through the
 * "BitGenerator" capsule that every numpy bit generator exposes. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

static PyObject *str_items, *str_runs, *str_run_size, *str_inserted,
                *str_version, *str_schedule, *str_state, *str_capsule,
                *str_lock, *str_acquire, *str_release;

/* A native float64 buffer, as numpy exports one ("=d" when unaligned). */
static int
is_float64(const Py_buffer *view)
{
    const char *format = view->format;
    if (view->itemsize != (Py_ssize_t)sizeof(double) || format == NULL)
        return 0;
    if (*format == '@' || *format == '=')
        format++;
#if !PY_BIG_ENDIAN
    else if (*format == '<')
        format++;
#endif
    return strcmp(format, "d") == 0;
}

/* A sorted float64 input of one merge: a view of a numpy array (an
 * aligned, contiguous copy if the array is strided or unaligned) or a span
 * of kernel memory, read every `stride` items. */
typedef struct {
    const double *ptr;
    Py_ssize_t len;
    Py_ssize_t stride;
    Py_buffer view;
    int has_view;
    double *copy;
} Source;

static int
source_open(Source *src, PyObject *obj)
{
    Py_buffer *view = &src->view;
    Py_ssize_t i, stride;

    if (PyObject_GetBuffer(obj, view, PyBUF_STRIDES | PyBUF_FORMAT) < 0)
        return -1;
    src->has_view = 1;
    src->stride = 1;
    if (view->ndim != 1 || !is_float64(view)) {
        PyErr_SetString(PyExc_TypeError,
                        "sketch levels must hold 1-D float64 arrays");
        return -1;
    }
    src->len = view->shape[0];
    stride = view->strides[0];
    if ((stride == (Py_ssize_t)sizeof(double) || src->len <= 1) &&
        (uintptr_t)view->buf % _Alignof(double) == 0) {
        src->ptr = (const double *)view->buf;
        return 0;
    }
    src->copy = (double *)PyMem_Malloc((size_t)src->len * sizeof(double));
    if (src->copy == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < src->len; i++)
        memcpy(src->copy + i, (const char *)view->buf + i * stride, sizeof(double));
    src->ptr = src->copy;
    return 0;
}

static void
source_close(Source *src)
{
    if (src->has_view)
        PyBuffer_Release(&src->view);
    PyMem_Free(src->copy);
    memset(src, 0, sizeof(*src));
}

/* Where merged items go: positions [0, split) to out[0] and the rest to
 * out[1].  A region either takes every item, or — an `alternate` region,
 * the compacted part — only the items at an even (offset 0) or odd
 * (offset 1) position within it: the promotion of Algorithm 1.  A NULL
 * region output drops its items. */
typedef struct {
    Py_ssize_t pos;      /* merged items emitted so far */
    Py_ssize_t split;
    double *out[2];
    int alternate[2];
    int offset;
} Sink;

/* Emit the next `n` merged items, read every `stride` items of `src`. */
static void
sink_emit(Sink *sink, const double *src, Py_ssize_t n, Py_ssize_t stride)
{
    while (n > 0) {
        const int r = sink->pos >= sink->split;
        const Py_ssize_t rel = r ? sink->pos - sink->split : sink->pos;
        const Py_ssize_t take = r || n < sink->split - sink->pos ? n : sink->split - sink->pos;
        double *const out = sink->out[r];
        Py_ssize_t j;
        if (out == NULL) {
            /* dropped */
        } else if (sink->alternate[r]) {
            for (j = (int)(rel & 1) == sink->offset ? 0 : 1; j < take; j += 2)
                out[(rel + j) >> 1] = src[j * stride];
        } else if (stride == 1) {
            memcpy(out + rel, src, (size_t)take * sizeof(double));
        } else {
            for (j = 0; j < take; j++)
                out[rel + j] = src[j * stride];
        }
        sink->pos += take;
        src += take * stride;
        n -= take;
    }
}

/* Merged items are worked out this many at a time. */
#define MERGE_CHUNK 32

/* Number of leading items of the sorted span [x, x+n) that are <= v
 * (`or_equal`) or < v: an exponential probe from `from`, then a binary
 * search.  The caller knows the first `from` items qualify. */
static Py_ssize_t
gallop(const double *x, Py_ssize_t n, double v, int or_equal, Py_ssize_t from)
{
    Py_ssize_t lo = from, hi = from, step = from > 0 ? from : 1;
    /* Invariant: the first `lo` items qualify; x[hi] (if any) is unknown. */
    while (hi < n && (or_equal ? x[hi] <= v : x[hi] < v)) {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    if (hi > n)
        hi = n;
    while (lo < hi) {
        const Py_ssize_t mid = lo + (hi - lo) / 2;
        if (or_equal ? x[mid] <= v : x[mid] < v)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Merge sorted spans a and b into `sink`; a tie takes the item from a
 * (the earlier array), so the result is a stable sort of a + b.  Where one
 * span leads by a whole chunk, the block it leads by is found by galloping
 * and emitted in one piece; elsewhere a branch-free loop merges a chunk at
 * a time. */
static void
merge2(const double *a, Py_ssize_t na, const double *b, Py_ssize_t nb, Sink *sink)
{
    const double *const a_end = a + na, *const b_end = b + nb;
    double chunk[MERGE_CHUNK];

    while (a < a_end && b < b_end) {
        const Py_ssize_t left_a = a_end - a, left_b = b_end - b;
        const Py_ssize_t probe_a = left_a < MERGE_CHUNK ? left_a : MERGE_CHUNK;
        const Py_ssize_t probe_b = left_b < MERGE_CHUNK ? left_b : MERGE_CHUNK;
        Py_ssize_t n, i;
        if (a[probe_a - 1] <= *b) {
            n = gallop(a, left_a, *b, 1, probe_a);
            sink_emit(sink, a, n, 1);
            a += n;
        } else if (b[probe_b - 1] < *a) {
            n = gallop(b, left_b, *a, 0, probe_b);
            sink_emit(sink, b, n, 1);
            b += n;
        } else {
            n = probe_a < probe_b ? probe_a : probe_b;
            for (i = 0; i < n; i++) {
                const double x = *a, y = *b;
                const int take_b = y < x;
                chunk[i] = take_b ? y : x;
                a += !take_b;
                b += take_b;
            }
            sink_emit(sink, chunk, n, 1);
        }
    }
    sink_emit(sink, a, a_end - a, 1);
    sink_emit(sink, b, b_end - b, 1);
}

/* Grow-only malloc'd scratch. */
typedef struct {
    double *ptr;
    Py_ssize_t cap;
} Scratch;

static double *
scratch_reserve(Scratch *s, Py_ssize_t len)
{
    if (len > s->cap) {
        double *grown = (double *)PyMem_Realloc(s->ptr, (size_t)len * sizeof(double));
        if (grown == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        s->ptr = grown;
        s->cap = len;
    }
    return s->ptr;
}

/* Merge `nsrc` sorted sources of `total` items into `sink`.  Sources
 * beyond two are first merged pairwise, adjacent sources only, so ties
 * keep resolving to the earliest source.  Only a lone source may be
 * strided. */
static int
merge_all(Source *src, Py_ssize_t nsrc, Py_ssize_t total, Sink *sink, Scratch tmp[2])
{
    int round = 0;
    Py_ssize_t i;

    if (nsrc == 1) {
        sink_emit(sink, src[0].ptr, src[0].len, src[0].stride);
        return 0;
    }
    for (i = 0; i < nsrc; i++) {
        if (src[i].stride != 1) {
            PyErr_SetString(PyExc_RuntimeError, "cascade merged a strided input");
            return -1;
        }
    }
    while (nsrc > 2) {
        double *out = scratch_reserve(&tmp[round & 1], total);
        Py_ssize_t j = 0;
        Sink plain = {0, PY_SSIZE_T_MAX, {out, NULL}, {0, 0}, 0};
        if (out == NULL)
            return -1;
        for (i = 0; i < nsrc; i += 2) {
            const Py_ssize_t start = plain.pos;
            /* An odd source out is copied too: the next round writes over
             * the buffer it may live in. */
            if (i + 1 < nsrc)
                merge2(src[i].ptr, src[i].len, src[i + 1].ptr, src[i + 1].len, &plain);
            else
                sink_emit(&plain, src[i].ptr, src[i].len, 1);
            src[j].ptr = out + start;
            src[j].len = plain.pos - start;
            j++;
        }
        nsrc = j;
        round++;
    }
    merge2(src[0].ptr, src[0].len, src[1].ptr, src[1].len, sink);
    return 0;
}

/* The per-level capacity rule of FastReqSketch._capacity:
 * 2k * max(1, ceil(log2(max(2, inserted / k)))), in doubles like the
 * Python code (math.log2 is libm's log2), or the fixed n_bound capacity. */
static Py_ssize_t
level_capacity(Py_ssize_t inserted, Py_ssize_t k, Py_ssize_t fixed)
{
    double ratio, sections;
    if (fixed > 0)
        return fixed;
    ratio = (double)(inserted > 1 ? inserted : 1) / (double)k;
    sections = ceil(log2(ratio > 2.0 ? ratio : 2.0));
    return 2 * k * (Py_ssize_t)(sections > 1.0 ? sections : 1.0);
}

/* One level's inputs (read once) and outcome (written back on commit). */
typedef struct {
    PyObject *level;
    PyObject *items;
    PyObject *runs;           /* the level's pending-run list */
    Py_ssize_t items_len, run_size, inserted;
    int is_new;               /* created here: appended to `levels` on commit */
    unsigned long long state; /* schedule state C */
    int received;             /* a run was added (add_run) */
    Py_ssize_t received_len;
    PyObject *pending;        /* the added run, kept pending (not compacted) */
    int compacted;
    PyObject *kept;           /* the new items array after a compaction */
} Plan;

static int
get_ssize(PyObject *obj, PyObject *name, Py_ssize_t *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    *out = PyLong_AsSsize_t(value);
    Py_DECREF(value);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
set_ssize(PyObject *obj, PyObject *name, Py_ssize_t value)
{
    PyObject *boxed = PyLong_FromSsize_t(value);
    int rc;
    if (boxed == NULL)
        return -1;
    rc = PyObject_SetAttr(obj, name, boxed);
    Py_DECREF(boxed);
    return rc;
}

/* Takes a new reference to `level`. */
static int
plan_load(Plan *p, PyObject *level)
{
    PyObject *schedule, *state;

    p->level = level;
    p->items = PyObject_GetAttr(level, str_items);
    if (p->items == NULL || (p->items_len = PyObject_Length(p->items)) < 0)
        return -1;
    p->runs = PyObject_GetAttr(level, str_runs);
    if (p->runs == NULL)
        return -1;
    if (!PyList_Check(p->runs)) {
        PyErr_SetString(PyExc_TypeError, "level runs must be a list");
        return -1;
    }
    if (get_ssize(level, str_run_size, &p->run_size) < 0 ||
        get_ssize(level, str_inserted, &p->inserted) < 0)
        return -1;
    schedule = PyObject_GetAttr(level, str_schedule);
    if (schedule == NULL)
        return -1;
    state = PyObject_GetAttr(schedule, str_state);
    Py_DECREF(schedule);
    if (state == NULL)
        return -1;
    p->state = PyLong_AsUnsignedLongLong(state);
    Py_DECREF(state);
    if (p->state == (unsigned long long)-1 && PyErr_Occurred())
        return -1;
    if (p->state == UINT64_MAX) {
        PyErr_SetString(PyExc_OverflowError, "compaction schedule state overflow");
        return -1;
    }
    return 0;
}

static void
plan_clear(Plan *p)
{
    Py_XDECREF(p->level);
    Py_XDECREF(p->items);
    Py_XDECREF(p->runs);
    Py_XDECREF(p->pending);
    Py_XDECREF(p->kept);
}

/* Would the level compact with `extra` more items added?  On yes (1),
 * `*protect` is the protected-part size. */
static int
plan_compacts(Plan *p, Py_ssize_t extra, Py_ssize_t k, Py_ssize_t fixed,
              Py_ssize_t *protect)
{
    const Py_ssize_t size = p->items_len + p->run_size + extra;
    const Py_ssize_t capacity = level_capacity(p->inserted + extra, k, fixed);
    Py_ssize_t sections, keep;

    if (size < capacity)
        return 0;
    /* z(C) + 1 sections: one more than the trailing ones of C. */
    sections = (Py_ssize_t)__builtin_ctzll(~p->state) + 1;
    keep = capacity / 2 > capacity - sections * k ? capacity / 2 : capacity - sections * k;
    if ((size - keep) % 2 != 0)
        keep += 1;
    /* The Python path returns an empty promotion here and compacts
     * nothing; with k >= 2 the rule keeps `keep` below `capacity`. */
    if (size <= keep)
        return 0;
    *protect = keep;
    return 1;
}

/* A fresh float64 array from the caller's allocator, with a writable
 * view of it. */
static PyObject *
new_array(PyObject *empty, Py_ssize_t len, Py_buffer *view)
{
    PyObject *boxed = PyLong_FromSsize_t(len), *array;
    if (boxed == NULL)
        return NULL;
    array = PyObject_CallOneArg(empty, boxed);
    Py_DECREF(boxed);
    if (array == NULL)
        return NULL;
    if (PyObject_GetBuffer(array, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT |
                                        PyBUF_WRITABLE) < 0) {
        Py_DECREF(array);
        return NULL;
    }
    if (!is_float64(view) || view->len != len * (Py_ssize_t)sizeof(double)) {
        PyBuffer_Release(view);
        Py_DECREF(array);
        PyErr_SetString(PyExc_TypeError, "allocator must return float64 arrays");
        return NULL;
    }
    return array;
}

/* Everything one cascade() call holds; released by cascade_clear. */
typedef struct {
    PyObject *levels, *bit_generator, *empty;
    Py_ssize_t k, fixed;
    int hra;
    Plan *plans;
    Py_ssize_t nplans, plans_cap;
    PyObject *capsule, *lock;
    bitgen_t *bitgen;
    int locked;
    Source *sources;
    Py_ssize_t nsrc, sources_cap;
    Scratch promoted[2], tmp[2];
    Source held;              /* an input the incoming run still reads from */
    /* The run entering the current level: an array, or a span of kernel
     * memory (promoted[recv_buf], or `held` when recv_buf is -1). */
    int has_recv;
    PyObject *recv_obj;
    const double *recv_ptr;
    Py_ssize_t recv_len, recv_stride;
    int recv_buf;
} Cascade;

static void
cascade_clear(Cascade *c)
{
    Py_ssize_t i;
    if (c->locked) {
        PyObject *exc_type, *exc_value, *exc_tb, *ok;
        PyErr_Fetch(&exc_type, &exc_value, &exc_tb);
        ok = PyObject_CallMethodNoArgs(c->lock, str_release);
        Py_XDECREF(ok);
        PyErr_Restore(exc_type, exc_value, exc_tb);
        c->locked = 0;
    }
    Py_XDECREF(c->capsule);
    Py_XDECREF(c->lock);
    Py_XDECREF(c->recv_obj);
    for (i = 0; i < c->nplans; i++)
        plan_clear(&c->plans[i]);
    PyMem_Free(c->plans);
    for (i = 0; i < c->nsrc; i++)
        source_close(&c->sources[i]);
    PyMem_Free(c->sources);
    source_close(&c->held);
    for (i = 0; i < 2; i++) {
        PyMem_Free(c->promoted[i].ptr);
        PyMem_Free(c->tmp[i].ptr);
    }
}

/* Append a plan for a new, empty level (a new level object). */
static int
cascade_add_level(Cascade *c)
{
    PyObject *level;
    if (c->nplans == c->plans_cap) {
        Plan *grown = (Plan *)PyMem_Realloc(c->plans, (size_t)(2 * c->plans_cap) * sizeof(Plan));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        memset(grown + c->plans_cap, 0, (size_t)c->plans_cap * sizeof(Plan));
        c->plans = grown;
        c->plans_cap *= 2;
    }
    level = PyObject_CallNoArgs((PyObject *)Py_TYPE(c->plans[0].level));
    if (level == NULL)
        return -1;
    c->plans[c->nplans].is_new = 1;
    return plan_load(&c->plans[c->nplans++], level);
}

/* Open level h's inputs in [items, *runs, incoming] order, skipping
 * empty ones.  Consumes the incoming run. */
static int
cascade_open_sources(Cascade *c, Plan *p)
{
    const Py_ssize_t want = PyList_GET_SIZE(p->runs) + 2;
    Py_ssize_t i;

    if (want > c->sources_cap) {
        Source *grown = (Source *)PyMem_Realloc(c->sources, (size_t)want * sizeof(Source));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        c->sources = grown;
        c->sources_cap = want;
    }
    memset(c->sources, 0, (size_t)c->sources_cap * sizeof(Source));
    c->nsrc = 0;
    for (i = -1; i < PyList_GET_SIZE(p->runs); i++) {
        Source *src = &c->sources[c->nsrc];
        if (source_open(src, i < 0 ? p->items : PyList_GET_ITEM(p->runs, i)) < 0) {
            c->nsrc++;  /* closed by cascade_clear */
            return -1;
        }
        if (src->len)
            c->nsrc++;
        else
            source_close(src);
    }
    if (c->has_recv && c->recv_len) {
        Source *src = &c->sources[c->nsrc++];
        if (c->recv_obj != NULL) {
            if (source_open(src, c->recv_obj) < 0)
                return -1;
        } else {
            src->ptr = c->recv_ptr;
            src->len = c->recv_len;
            src->stride = c->recv_stride;
        }
    }
    Py_CLEAR(c->recv_obj);
    return 0;
}

/* One coin from the sketch's generator: 1 (odd) with probability 1/2,
 * the draw `Generator.random() < 0.5` makes; -1 on error.  The
 * generator's lock is taken at the first draw and held to the end. */
static int
cascade_coin(Cascade *c)
{
    if (!c->locked) {
        PyObject *ok;
        if (c->capsule == NULL) {
            c->capsule = PyObject_GetAttr(c->bit_generator, str_capsule);
            if (c->capsule == NULL)
                return -1;
            c->bitgen = (bitgen_t *)PyCapsule_GetPointer(c->capsule, "BitGenerator");
            if (c->bitgen == NULL)
                return -1;
            c->lock = PyObject_GetAttr(c->bit_generator, str_lock);
            if (c->lock == NULL)
                return -1;
        }
        ok = PyObject_CallMethodNoArgs(c->lock, str_acquire);
        if (ok == NULL)
            return -1;
        Py_DECREF(ok);
        c->locked = 1;
    }
    return c->bitgen->next_double(c->bitgen->state) < 0.5;
}

/* Compact level h (which holds `size` items) down to `protect` items and
 * make the promotion the run entering level h+1. */
static int
cascade_compact(Cascade *c, Py_ssize_t h, Py_ssize_t size, Py_ssize_t protect)
{
    const Py_ssize_t half = (size - protect) / 2;
    Plan *p, *next;
    Py_buffer kept_view, dest_view;
    PyObject *dest_obj = NULL;
    double *dest = NULL;
    Py_ssize_t next_protect, i;
    int next_compacts, chain, offset, dest_buf = -1, rc = -1;

    if (h + 1 == c->nplans && cascade_add_level(c) < 0)
        return -1;
    p = &c->plans[h];
    next = &c->plans[h + 1];
    next_compacts = plan_compacts(next, half, c->k, c->fixed, &next_protect);
    if (cascade_open_sources(c, p) < 0)
        return -1;
    /* A lone input promoting into a level with no other input (a fresh
     * level, say) is not copied: that level reads the promotion in place,
     * as every other item of this input. */
    chain = c->nsrc == 1 && next_compacts && next->items_len == 0 && next->run_size == 0;
    if (chain) {
        /* the promotion is dropped by the sink below */
    } else if (next_compacts) {
        /* Merged straight out of scratch by level h+1; never the buffer
         * this level's input lives in. */
        dest_buf = c->recv_buf == 0;
        dest = scratch_reserve(&c->promoted[dest_buf], half);
        if (dest == NULL)
            return -1;
    } else {
        dest_obj = new_array(c->empty, half, &dest_view);
        if (dest_obj == NULL)
            return -1;
        dest = (double *)dest_view.buf;
    }
    p->kept = new_array(c->empty, protect, &kept_view);
    if (p->kept != NULL) {
        offset = cascade_coin(c);
        if (offset >= 0) {
            /* HRA compacts the low end of the merged level, LRA the high. */
            double *const kept = (double *)kept_view.buf;
            Sink sink = {0, c->hra ? size - protect : protect,
                         {c->hra ? dest : kept, c->hra ? kept : dest},
                         {c->hra, !c->hra}, offset};
            rc = merge_all(c->sources, c->nsrc, size, &sink, c->tmp);
        }
        PyBuffer_Release(&kept_view);
    }
    if (dest_obj != NULL)
        PyBuffer_Release(&dest_view);
    if (rc < 0) {
        Py_XDECREF(dest_obj);
        return -1;
    }
    p->compacted = 1;
    c->has_recv = 1;
    c->recv_len = half;
    if (chain) {
        Source *only = &c->sources[0];
        c->recv_ptr = only->ptr + ((c->hra ? 0 : protect) + offset) * only->stride;
        c->recv_stride = 2 * only->stride;
        if (only->has_view) {
            /* Keep the array's memory for level h+1.  The view moves by
             * value: numpy keeps its shape and strides outside it. */
            source_close(&c->held);
            c->held = *only;
            memset(only, 0, sizeof(*only));
            c->recv_buf = -1;
        }
    } else {
        c->recv_obj = dest_obj;
        c->recv_ptr = dest;
        c->recv_stride = 1;
        c->recv_buf = dest_buf;
    }
    for (i = 0; i < c->nsrc; i++)
        source_close(&c->sources[i]);
    c->nsrc = 0;
    return 0;
}

static int
commit(PyObject *levels, Plan *plans, Py_ssize_t nplans)
{
    Py_ssize_t h, version;
    for (h = 0; h < nplans; h++) {
        Plan *p = &plans[h];
        if (!p->received && !p->compacted)
            continue;
        if (p->is_new && PyList_Append(levels, p->level) < 0)
            return -1;
        if (get_ssize(p->level, str_version, &version) < 0 ||
            set_ssize(p->level, str_version, version + p->received + p->compacted) < 0)
            return -1;
        if (p->received && set_ssize(p->level, str_inserted, p->inserted) < 0)
            return -1;
        if (p->compacted) {
            PyObject *runs = PyList_New(0), *schedule, *state;
            int rc;
            if (runs == NULL)
                return -1;
            rc = PyObject_SetAttr(p->level, str_runs, runs);
            Py_DECREF(runs);
            if (rc < 0 || PyObject_SetAttr(p->level, str_items, p->kept) < 0 ||
                set_ssize(p->level, str_run_size, 0) < 0)
                return -1;
            schedule = PyObject_GetAttr(p->level, str_schedule);
            if (schedule == NULL)
                return -1;
            state = PyLong_FromUnsignedLongLong(p->state + 1);
            rc = state == NULL ? -1 : PyObject_SetAttr(schedule, str_state, state);
            Py_XDECREF(state);
            Py_DECREF(schedule);
            if (rc < 0)
                return -1;
        } else if (PyList_Append(p->runs, p->pending) < 0 ||
                   set_ssize(p->level, str_run_size, p->run_size + p->received_len) < 0) {
            return -1;
        }
    }
    return 0;
}

static PyObject *
cascade(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Cascade c;
    PyObject *run;
    Py_ssize_t h;
    int ok = 0;

    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError,
                        "cascade(levels, run, k, hra, fixed_capacity, "
                        "bit_generator, empty) takes 7 arguments");
        return NULL;
    }
    memset(&c, 0, sizeof(c));
    c.levels = args[0];
    run = args[1];
    c.bit_generator = args[5];
    c.empty = args[6];
    c.recv_buf = -1;
    if (!PyList_Check(c.levels)) {
        PyErr_SetString(PyExc_TypeError, "levels must be a list");
        return NULL;
    }
    if (((c.k = PyLong_AsSsize_t(args[2])) == -1 && PyErr_Occurred()) ||
        ((c.fixed = PyLong_AsSsize_t(args[4])) == -1 && PyErr_Occurred()) ||
        (c.hra = PyObject_IsTrue(args[3])) < 0)
        return NULL;
    if (c.k < 2) {
        PyErr_SetString(PyExc_ValueError, "k must be >= 2");
        return NULL;
    }
    if (PyList_GET_SIZE(c.levels) == 0) {
        if (run != Py_None) {
            PyErr_SetString(PyExc_ValueError, "cascade needs level 0 to add a run to");
            return NULL;
        }
        Py_RETURN_NONE;
    }

    c.plans_cap = PyList_GET_SIZE(c.levels) + 8;
    c.plans = (Plan *)PyMem_Calloc((size_t)c.plans_cap, sizeof(Plan));
    if (c.plans == NULL)
        return PyErr_NoMemory();
    for (h = 0; h < PyList_GET_SIZE(c.levels); h++) {
        PyObject *level = PyList_GET_ITEM(c.levels, h);
        Py_INCREF(level);
        if (plan_load(&c.plans[c.nplans++], level) < 0)
            goto done;
    }
    if (run != Py_None) {
        c.has_recv = 1;
        c.recv_obj = run;
        Py_INCREF(run);
        if ((c.recv_len = PyObject_Length(run)) < 0)
            goto done;
    }

    /* Bottom up, like the Python loop: every level is checked, not only
     * the ones a promotion reached. */
    for (h = 0; h < c.nplans; h++) {
        Plan *p = &c.plans[h];
        const Py_ssize_t extra = c.has_recv ? c.recv_len : 0;
        Py_ssize_t protect;
        const int compacts = plan_compacts(p, extra, c.k, c.fixed, &protect);
        if (c.has_recv) {
            p->received = 1;
            p->received_len = c.recv_len;
            p->inserted += c.recv_len;
        }
        if (compacts) {
            if (cascade_compact(&c, h, p->items_len + p->run_size + extra, protect) < 0)
                goto done;
        } else if (c.has_recv) {
            /* Kept as a pending run.  The level below decided from the
             * same rule that this level would not compact, so the run is
             * an array, never scratch. */
            if (c.recv_obj == NULL) {
                PyErr_SetString(PyExc_RuntimeError, "cascade lost a promoted run");
                goto done;
            }
            p->pending = c.recv_obj;
            c.recv_obj = NULL;
            c.has_recv = 0;
        }
    }
    if (c.locked) {
        PyObject *released = PyObject_CallMethodNoArgs(c.lock, str_release);
        c.locked = 0;
        if (released == NULL)
            goto done;
        Py_DECREF(released);
    }
    ok = commit(c.levels, c.plans, c.nplans) == 0;

done:
    cascade_clear(&c);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef stagebuf_functions[] = {
    {"cascade", (PyCFunction)(void (*)(void))cascade, METH_FASTCALL,
     "cascade(levels, run, k, hra, fixed_capacity, bit_generator, empty)\n"
     "— add `run` (sorted float64 array or None) to level 0 and run the\n"
     "whole compaction cascade of FastReqSketch._compress in one call"},
    {NULL}
};

static PyModuleDef stagebuf_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_stagebuf",
    .m_doc = "C staging block and compaction cascade for FastReqSketch.",
    .m_size = -1,
    .m_methods = stagebuf_functions,
};

PyMODINIT_FUNC
PyInit__stagebuf(void)
{
    PyObject *module;
    if (PyType_Ready(&StageBufferType) < 0)
        return NULL;
#define INTERN(var, text) \
    if (var == NULL && (var = PyUnicode_InternFromString(text)) == NULL) \
        return NULL;
    INTERN(str_items, "items")
    INTERN(str_runs, "runs")
    INTERN(str_run_size, "run_size")
    INTERN(str_inserted, "inserted")
    INTERN(str_version, "version")
    INTERN(str_schedule, "schedule")
    INTERN(str_state, "state")
    INTERN(str_capsule, "capsule")
    INTERN(str_lock, "lock")
    INTERN(str_acquire, "acquire")
    INTERN(str_release, "release")
#undef INTERN
    module = PyModule_Create(&stagebuf_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&StageBufferType);
    if (PyModule_AddObject(module, "StageBuffer",
                           (PyObject *)&StageBufferType) < 0) {
        Py_DECREF(&StageBufferType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
