"""On-demand C kernel build and load (cffi ABI mode, soft dependency).

The whole-loop engine (:mod:`repro.core.cloop`) ships its kernel as the
package files ``cloop.c`` and ``cloop.h`` and compiles ``cloop.c`` **on
demand** with the system C compiler into a shared library under a
persistent per-user cache directory (``REPRO_CKERNEL_CACHE``, default
``~/.cache/repro/ckernel``; never inside the repository).  cffi loads
it in ABI mode, with ``cloop.h`` as its cdef: the one declaration of
the Python/C interface, which ``cloop.c`` also includes.  The build is
keyed by a content hash of both files and file-locked, so it runs once
per machine per kernel version even with concurrent sweep workers.

It is a *soft* dependency by design:

* :func:`kernel_unavailable_reason` probes cheaply (env override, cffi
  import, compiler lookup) without building anything;
* :func:`load_shared_lib` memoizes its outcome per process: a loaded
  library is reused, and a failed build is remembered, so the compiler
  runs at most once per process and the probe reports the failure;
* every caller falls back to the pure engine on failure, bit-identical
  either way (the CI fallback leg sets ``REPRO_NO_CKERNEL=1`` to prove
  it).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: the kernel source; the header beside it declares its interface
KERNEL_SOURCE = Path(__file__).with_name("cloop.c")

_ENV_DISABLE = "REPRO_NO_CKERNEL"
_ENV_CACHE = "REPRO_CKERNEL_CACHE"

#: the loaded kernel's ``(lib, ffi)`` (``None`` = not loaded yet): the
#: build is cached on disk, but cdef + dlopen still cost ~ms per call
_loaded: tuple | None = None

#: why the first failed build/load of this process failed (``None`` =
#: no failure yet); reported by :func:`kernel_unavailable_reason`
_load_failure: str | None = None


def _find_compiler() -> str | None:
    from shutil import which

    for cc in ("cc", "gcc", "clang"):
        path = which(cc)
        if path:
            return path
    return None


def _toolchain_reason() -> str | None:
    """Why no build would even be attempted (``None`` = the env override
    is unset and cffi and a C compiler are present)."""
    if os.environ.get(_ENV_DISABLE):
        return f"{_ENV_DISABLE} is set"
    try:
        import cffi  # noqa: F401
    except ImportError:
        return "cffi is not installed"
    if _find_compiler() is None:
        return "no C compiler (cc/gcc/clang) on PATH"
    return None


def kernel_unavailable_reason() -> str | None:
    """Why the compiled kernel would NOT be used right now (``None`` =
    available).  Cheap: probes the toolchain and the remembered build
    failure, never builds."""
    return _toolchain_reason() or _load_failure


def _cache_dir() -> str:
    """Directory compiled kernels persist in across runs and processes.

    ``REPRO_CKERNEL_CACHE`` overrides; the default is a per-user cache
    under ``~/.cache/repro`` (XDG-style, honouring ``XDG_CACHE_HOME``)
    so fresh shells and sweep workers reuse one build instead of
    recompiling into a session temp dir.  Falls back to the system temp
    directory when the cache dir cannot be created (read-only $HOME).
    """
    override = os.environ.get(_ENV_CACHE)
    if override:
        path = override
    else:
        xdg = os.environ.get("XDG_CACHE_HOME")
        base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
        path = os.path.join(base, "repro", "ckernel")
    try:
        os.makedirs(path, exist_ok=True)
        return path
    except OSError:
        return tempfile.gettempdir()


def kernel_tag(source: Path) -> str:
    """Content hash of a kernel: the C source and the header beside it."""
    h = hashlib.sha256()
    for path in (source, source.with_suffix(".h")):
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()[:16]


def build_shared_lib() -> str:
    """Compile the kernel (or reuse a cached build); return the ``.so`` path.

    The library lands in :func:`_cache_dir` keyed by :func:`kernel_tag`,
    so rebuilds only happen when the kernel or its header changes — and
    never write inside the repository.  Concurrent builders (parallel
    sweep workers on a cold cache) serialize on a file lock; the final
    publish is an atomic rename either way, so a lock-less filesystem
    degrades to at-worst-duplicated work, never a torn library.
    """
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    ext = ".dylib" if sys.platform == "darwin" else ".so"
    name = f"repro_cloop_{kernel_tag(KERNEL_SOURCE)}{ext}"
    lib_path = os.path.join(_cache_dir(), name)
    if os.path.exists(lib_path):
        return lib_path
    lock_path = lib_path + ".lock"
    lock_fd = None
    try:
        try:
            import fcntl

            lock_fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(lock_fd, fcntl.LOCK_EX)
        except (ImportError, OSError):
            lock_fd = None  # no flock here; atomic rename still protects us
        if os.path.exists(lib_path):  # lost the race; winner already built
            return lib_path
        build_path = lib_path + f".build-{os.getpid()}"
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", build_path, str(KERNEL_SOURCE)],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(build_path, lib_path)  # atomic vs concurrent builders
        return lib_path
    finally:
        if lock_fd is not None:
            try:
                import fcntl

                fcntl.flock(lock_fd, fcntl.LOCK_UN)
            except OSError:
                pass
            os.close(lock_fd)


def load_shared_lib():
    """Build (or reuse) and dlopen the kernel; returns ``(lib, ffi)``.

    Raises ``RuntimeError`` with a human-readable reason on any failure
    (no cffi, no compiler, compile error).  The first failure is
    remembered for the rest of the process: later calls raise it again
    without rebuilding, and :func:`kernel_unavailable_reason` reports
    it, so callers fall back to the pure engine without retrying.
    """
    global _loaded, _load_failure
    if _load_failure is not None:
        raise RuntimeError(_load_failure)
    if _loaded is not None:
        return _loaded
    try:
        import cffi

        lib_path = build_shared_lib()
        ffi = cffi.FFI()
        ffi.cdef(KERNEL_SOURCE.with_suffix(".h").read_text())
        lib = ffi.dlopen(lib_path)
    except Exception as exc:  # noqa: BLE001 - soft dependency by contract
        if isinstance(exc, subprocess.CalledProcessError):
            detail = (exc.stderr or "").strip().splitlines()
            reason = "kernel build failed: " + (detail[-1] if detail else str(exc))
        else:
            reason = f"kernel build failed: {exc}"
        _load_failure = reason
        raise RuntimeError(reason) from exc
    _loaded = (lib, ffi)
    return _loaded
