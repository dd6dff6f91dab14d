"""
Loader for the native kernels, ``_march.c``: the switched scheme's march,
a row of at least ``MARCH_SPLIT_MIN_CELLS`` cells on two threads, its head
and its tail one step apart, with the same bits as on one; the exact
sphere's adaptive quadrature, the domain-split schemes'
tridiagonal solve and their march, and the CSV row formatter.  The
domain-split march runs from one stop of its schedule to the next in one
call, each step's right-hand side, checks and relative change fused into
the solve's two passes, its back substitution multiplying by the pivots'
reciprocals, rounded once per scheme, where a direct solve divides with
dgtsv's bits.  The oracle's quadrature runs
whole in C, one call per batch, its integrands and an exp of the lab's own
evaluated in one pass over each tile of panels; no numpy function is left
in it.  Its blocks of owners are independent, so each call integrates them
on up to as many threads as the process may use CPUs (``cpus``), started
and joined within the call, and merges their outcomes in block order: the
values, counts and failures do not depend on how many ran.
The formatter writes ``%.17g`` itself for +-0, NaN and every
1e-38 < |x| < 1e17, with exact integer arithmetic, and calls glibc's
``snprintf`` only for the rest (subnormals, 0 < |x| <= 1e-38, |x| >= 1e17,
the infinities).  A block of at least twice ``FORMAT_MIN_ROWS`` rows is cut
into contiguous row ranges, one per thread, up to ``cpus``; each range
writes at its own widest-case offset in the one buffer, and a memmove
closes the gaps, so the bytes do not depend on how many ran.  ``cli``
writes the buffer to the file as bytes.

The structs, enum and prototypes that Python uses are declared once, in
the block at the top of ``_march.c`` between the ``cffi interface``
markers; ``_build`` hands that block to cffi's ``cdef`` and the whole
source to the compiler, so the two cannot differ.  Every array reaches a
kernel through ``ptr``, which types it by its dtype (float64 as
``double``, int8 as ``signed char``, int64 as ``long long``, any other
as ``char``), so that cffi rejects an array of another dtype at the call
where it would read its bytes as the declared type, and numpy refuses a
pointer to an array that is not C-contiguous.  Every struct that Python
fills is built by ``struct`` (``structs`` for an array of them), which
takes each of its fields by name exactly once, an array through ``ptr``
and None as NULL, and returns it with the pointers that keep its arrays
alive, to be held as long as a kernel may read it.  What a kernel only
writes back, a count, a flag or the oracle's status, is cffi's own
memory, ``ffi.new``.

The module is compiled with cffi (API mode) on first use, into
``_native_cache/`` next to this file.  cffi compiles with the
interpreter's own flags first, ``sysconfig``'s ``CFLAGS`` and
``CCSHARED`` (for a CPython built from source on Linux,
``-Wsign-compare -DNDEBUG -g -fwrapv -O3 -Wall -fPIC``), then ``_CFLAGS``,
``-O3 -ffp-contract=off -fno-math-errno -pthread``, and links with
``-pthread``.  The interpreter's ``-fwrapv`` makes int overflow wrap, so
gcc may not assume that an int index ``b + i`` grows with ``i``, and it
does not vectorize a loop indexed so: the march's loops over a block of
cells index through pointers offset to the block's first cell instead.
The flags of ``_CFLAGS``:

- ``-O3`` lets gcc vectorize the march's elementwise passes.  A vector
  add, multiply, divide or compare rounds each element as the scalar one
  does, and gcc reorders no floating-point sum or product without
  ``-fassociative-math``, so the bits do not move.
- ``-ffp-contract=off`` keeps ``a * b + c`` from fusing into one rounding,
  also where the CPU has fused multiply-adds.
- ``-fno-math-errno`` lets ``sqrt`` compile to the vector square root
  instruction, which is correctly rounded as the scalar one is; only
  ``errno`` is no longer set for a negative argument.
- No fast-math, which would reorder sums, assume no NaN and flush
  subnormals.
- ``-pthread`` for the march's, the oracle's and the formatter's threads.
- With gcc 12 or later on x86-64 and glibc, the march's step over a range
  of cells (``step_range``) and the oracle's pass over its panels are
  compiled three times from the one source (``target_clones``): for
  x86-64-v4 (AVX-512, eight doubles per instruction), x86-64-v3 (AVX2,
  four) and the x86-64 baseline (SSE2, two).  The loader runs the widest
  clone the CPU supports, and ``march_isa()`` names it; the manifest
  records it.  The flags above hold for every clone, so every clone gives
  the same bits.  The build is not ``-march=native``: the cache key below
  does not name the CPU, and a package directory shared between machines
  would load code that another CPU cannot run.  A cold build takes about
  2 s on a 2-vCPU x86-64 host, once per source change.

The module name, and so the file, is keyed by a hash of the C source
(declarations included), the flags and the interpreter's extension suffix
(its ABI tag); a build goes to a temporary directory and is published by
an atomic rename, so concurrent first runs are safe.

Importing idsa_lab imports neither this module nor cffi: the first march,
exact moments, domain-split scheme or CSV file imports it and calls
``load``, and a built module needs only ``_cffi_backend``.

When the module cannot be built or loaded (no cffi, no compiler, a
read-only package directory), ``load`` says why on stderr once and returns
None.  Each kernel then falls back to its reference, which gives the same
bits: both schemes march with numpy, the oracle integrates its numpy
integrands with ``quadrature.integrate_batch``, and the solve and the CSV
formatting run in Python.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.machinery
import importlib.util
import os
import sys
import time
import zlib
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_march.c")
_CACHE = Path(__file__).with_name("_native_cache")
_CFLAGS = ["-O3", "-ffp-contract=off", "-fno-math-errno", "-pthread"]
# The markers of the source's block of declarations, what cffi compiles against.
_BEGIN, _END = "/* === cffi interface === */", "/* === end of the cffi interface === */"
# The C type of an array of each dtype; an array of any other is char.
_CTYPES = {np.dtype(np.float64): "double[]", np.dtype(np.int8): "signed char[]",
           np.dtype(np.int64): "long long[]"}


class BuildError(RuntimeError):
    """The native module could not be compiled."""


def _build(name: str, source: str, target: Path) -> None:
    """
    Compile ``source`` as extension module ``name``, move it to ``target``
    and remove the other builds for the same interpreter beside it: each
    was built from another source or with other flags, and is never loaded
    again.
    """
    import tempfile  # only a build needs it

    try:
        import cffi
    except ImportError as exc:
        raise BuildError(f"cffi is not installed ({exc})") from exc
    ffi = cffi.FFI()
    ffi.cdef(source.split(_BEGIN)[1].split(_END)[0])
    ffi.set_source(name, source, extra_compile_args=_CFLAGS, extra_link_args=["-pthread"])
    target.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
        try:
            built = ffi.compile(tmpdir=tmp)
        except cffi.VerificationError as exc:
            raise BuildError(str(exc)) from exc
        os.replace(built, target)
    suffix = target.name[len(name):]
    for stale in target.parent.glob(f"_idsa_march_*{suffix}"):
        if stale != target:
            with contextlib.suppress(OSError):
                stale.unlink()


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
        key = "\0".join([source, *_CFLAGS, suffix]).encode()
        name = f"_idsa_march_{zlib.crc32(key):08x}{zlib.adler32(key):08x}"
        target = _CACHE / (name + suffix)
        if not target.exists():
            start = time.perf_counter()
            _build(name, source, target)
            print(f"idsa-lab: compiled the native kernels in "
                  f"{time.perf_counter() - start:.2f} s", file=sys.stderr)
        return _import(name, target)
    except (BuildError, ImportError, OSError) as exc:
        print("idsa-lab: native kernels unavailable, solving and formatting in Python, "
              f"integrating and marching with numpy: {exc}", file=sys.stderr)
        return None


def cpus() -> int:
    """The CPUs this process may run on: the most threads one call of the
    native oracle or formatter runs on (the march runs on two at most)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def backend() -> str:
    """Which kernels run in this process: "native", or "numpy" for the references."""
    return "numpy" if load() is None else "native"


def march_isa() -> str | None:
    """The instruction-set level of the native march and oracle clones in this
    process, or None on numpy."""
    native = load()
    return None if native is None else native.ffi.string(native.lib.march_isa()).decode()


def ptr(a: np.ndarray | None):
    """A pointer to the C-contiguous array ``a``, of the C type of its dtype
    (``_CTYPES``, else char), which keeps ``a`` alive; NULL for None."""
    ffi = load().ffi
    return ffi.NULL if a is None else ffi.from_buffer(_CTYPES.get(a.dtype, "char[]"), a)


@functools.cache
def _fields(ctype: str) -> tuple[frozenset, tuple]:
    """The field names of the struct ``ctype``, and those of its pointers,
    looked up once per process."""
    fields = load().ffi.typeof(ctype).fields
    return frozenset(name for name, _ in fields), tuple(
        name for name, field in fields if field.type.kind == "pointer")


def _values(ctype: str, fields: dict, keep: list) -> dict:
    """``fields``, made the initializer of a ``ctype`` in place: each
    pointer's array (or None) through ``ptr``, also appended to ``keep``."""
    names, pointers = _fields(ctype)
    if fields.keys() != names:
        raise ValueError(f"{ctype}: missing fields {sorted(names - fields.keys())}, "
                         f"unknown fields {sorted(fields.keys() - names)}")
    for name in pointers:
        fields[name] = ptr(fields[name])
        keep.append(fields[name])
    return fields


def struct(ctype: str, **fields):
    """
    A new ``ctype *`` whose every field is given in ``fields``, an array
    through ``ptr`` and None as NULL, and the pointers that keep its arrays
    alive: hold both while a kernel may read it.  ValueError names a field
    missing from ``fields`` or unknown to ``ctype``.
    """
    keep = []
    return load().ffi.new(ctype + " *", _values(ctype, fields, keep)), keep


def structs(ctype: str, rows: list[dict]):
    """``struct`` for an array of ``ctype``, one per dict in ``rows``."""
    keep = []
    return load().ffi.new(ctype + "[]", [_values(ctype, dict(row), keep) for row in rows]), keep
