"""
Loader for the native kernels, ``_march.c``: the switched scheme's march,
the domain-split schemes' tridiagonal solve and the CSV row formatter.
The formatter writes ``%.17g`` itself for +-0, NaN and every
1e-38 < |x| < 1e17, with exact integer arithmetic, and calls glibc's
``snprintf`` only for the rest (subnormals, 0 < |x| <= 1e-38,
|x| >= 1e17, the infinities); ``cli`` writes its buffer to the file as
bytes.

The module is compiled with cffi (API mode) on first use, into
``_native_cache/`` next to this file, with ``-O3 -ffp-contract=off``:

- ``-O3`` lets gcc vectorize the march's elementwise passes, two doubles
  per SSE2 instruction (SSE2 is the x86-64 baseline).  A vector add,
  multiply, divide or compare rounds each element as the scalar one does,
  and gcc reorders no floating-point sum or product without
  ``-fassociative-math``, so the bits do not move.
- ``-ffp-contract=off`` keeps ``a * b + c`` from fusing into one rounding.
- No fast-math, which would reorder sums, assume no NaN and flush
  subnormals; no ``-march``, so a build gives the same bits on every
  x86-64 machine.

The module name, and so the file, is keyed by a hash of the C source, the
declarations, the flags and the interpreter's extension suffix (its ABI
tag); a build goes to a temporary directory and is published by an atomic
rename, so concurrent first runs are safe.

Importing idsa_lab imports neither this module nor cffi: the first march,
domain-split scheme or CSV file imports it and calls ``load``, and a built
module needs only ``_cffi_backend``.

When the module cannot be built or loaded (no cffi, no compiler, a
read-only package directory), ``load`` says why on stderr once and returns
None.  Each kernel then falls back to its reference, which gives the same
bits: the switched scheme marches with numpy, and the solve and the CSV
formatting run in Python.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import time
import zlib
from pathlib import Path

_SOURCE = Path(__file__).with_name("_march.c")
_CACHE = Path(__file__).with_name("_native_cache")
_CFLAGS = ["-O3", "-ffp-contract=off"]
_CDEF = """
typedef struct {
    int n_rows, n_cells, n_scan;
    double dt;
    const double *ka, *kaB, *den, *r2dr, *a, *P, *d, *r2g, *floor;
    const double *kf3, *rf2;
    double *flux, *trapped, *terms;
    signed char *tags;
} march_rows;

typedef struct {
    double bound, stat_tol, mono_tol;
    int mono_pairs;
    long long step;
    double *sup, *change;
    signed char *nonmono;
    long long *first_nonmono;
} march_reductions;

long march(const march_rows *m, march_reductions *red, const double *Jt0, const double *Js0,
           double *Jt, double *Js, signed char *tags, signed char *dom,
           long steps, int watch, int *negative);

int gtsv_factor(int n, double *dl, double *d, double *du, double *fact, signed char *swap);
void gtsv_solve(int n, const double *dl, const double *d, const double *du,
                const double *fact, const signed char *swap, double *b);

typedef struct {
    char kind;
    const void *data;
    const long long *ends;
    long long len;
} csv_column;

long long format_rows(long long n_rows, int n_cols, const csv_column *cols, char *out);
"""


class BuildError(RuntimeError):
    """The native module could not be compiled."""


def _build(name: str, source: str, target: Path) -> None:
    """Compile ``source`` as extension module ``name`` and move it to ``target``."""
    import tempfile  # only a build needs it

    try:
        import cffi
    except ImportError as exc:
        raise BuildError(f"cffi is not installed ({exc})") from exc
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    ffi.set_source(name, source, extra_compile_args=_CFLAGS)
    target.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
        try:
            built = ffi.compile(tmpdir=tmp)
        except cffi.VerificationError as exc:
            raise BuildError(str(exc)) from exc
        os.replace(built, target)


def _import(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def load():
    """The compiled module (``.ffi``, ``.lib``), or None to use the references."""
    try:
        source = _SOURCE.read_text()
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]  # carries the ABI tag
        # zlib, not hashlib: hashlib loads OpenSSL, 3.6 MB of resident memory.
        key = "\0".join([source, _CDEF, *_CFLAGS, suffix]).encode()
        name = f"_idsa_march_{zlib.crc32(key):08x}{zlib.adler32(key):08x}"
        target = _CACHE / (name + suffix)
        if not target.exists():
            start = time.perf_counter()
            _build(name, source, target)
            print(f"idsa-lab: compiled the native kernels in "
                  f"{time.perf_counter() - start:.2f} s", file=sys.stderr)
        return _import(name, target)
    except (BuildError, ImportError, OSError) as exc:
        print("idsa-lab: native kernels unavailable, solving and formatting in Python "
              f"and marching with numpy: {exc}", file=sys.stderr)
        return None


def backend() -> str:
    """Which kernels run in this process: "native", or "numpy" for the references."""
    return "numpy" if load() is None else "native"
