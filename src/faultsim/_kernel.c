/* One step of a stress map held in bytes: engine._cell_kernel's arithmetic in one C loop.
 *
 * step(cells, faults, mask, state, n_lo, n_span, f_lo, f_span, threshold)
 *     -> (state, top, count, total)
 *
 * Cell i draws SplitMix64 output i after state and adds lo + output % span, from the fault range
 * where faults[i] is not 0, else from the non-fault range; the value clamps at 0. A value at or
 * above the threshold gets 0x80 in mask and is reset to 0. Returns the state after the last draw,
 * the largest value before the reset, the number of cells reset and the sum after it. The caller
 * keeps every low and span below 2**62 in size and the threshold at most 256, so no value
 * overflows an int64 and every kept value fits its byte; "K" and "L" below do not check that.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

static PyObject *step(PyObject *self, PyObject *args) {
    Py_buffer cells, faults, mask;
    unsigned long long state, n_span, f_span, threshold;
    long long n_lo, f_lo;
    if (!PyArg_ParseTuple(args, "w*y*w*KLKLKK", &cells, &faults, &mask, &state, &n_lo, &n_span,
                          &f_lo, &f_span, &threshold))
        return NULL;
    Py_ssize_t n = cells.len, count = 0;
    long long top = 0;
    unsigned long long total = 0;
    int valid = faults.len == n && mask.len == n && n_span && f_span;
    if (valid) {
        uint8_t *c = cells.buf, *m = mask.buf;
        const uint8_t *f = faults.buf;
        Py_BEGIN_ALLOW_THREADS
        for (Py_ssize_t i = 0; i < n; i++) {
            uint64_t z = state += 0x9E3779B97F4A7C15ULL;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
            z ^= z >> 31;
            long long v = c[i] + (f[i] ? f_lo : n_lo) + (long long)(z % (f[i] ? f_span : n_span));
            if (v < 0) v = 0;
            if (v > top) top = v;
            if ((unsigned long long)v >= threshold) { m[i] = 0x80; v = 0; count++; }
            c[i] = (uint8_t)v;
            total += (uint8_t)v;
        }
        Py_END_ALLOW_THREADS
    }
    PyBuffer_Release(&cells);
    PyBuffer_Release(&faults);
    PyBuffer_Release(&mask);
    if (!valid)
        return PyErr_Format(PyExc_ValueError, "cells, faults and mask must be of one length, spans >= 1");
    return Py_BuildValue("KLnK", state, top, count, total);
}

static PyMethodDef methods[] = {{"step", step, METH_VARARGS, "Step a stress map held in bytes."}, {NULL}};
static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_kernel", NULL, -1, methods};

PyMODINIT_FUNC PyInit__kernel(void) { return PyModule_Create(&module); }
