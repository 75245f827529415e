"""Compile-on-first-use machinery for the native kernel.

``kernel.c`` is shipped next to this module as source; the first
process that wants the native engine compiles it with the host C
compiler (``$CC``, else ``cc``/``gcc``/``clang`` from ``PATH``) into a
shared object cached under a build directory keyed by the source hash,
and every later process -- including a resident daemon's whole worker
pool -- just ``dlopen``\\ s the cached ``.so``.

The cache directory defaults to ``_build/`` next to the source (kept
inside the package so a repo checkout stays self-contained) and falls
back to ``$XDG_CACHE_HOME/repro-native`` when the package directory is
read-only; ``REPRO_NATIVE_CACHE_DIR`` overrides both.  The hash-keyed
filename makes staleness structural: editing ``kernel.c`` changes the
key, so an old ``.so`` is never loaded by mistake, and a corrupt or
ABI-incompatible cached file is deleted and recompiled once instead of
crashing the process.

Nothing here imports numpy: ctypes passes plain ``array`` buffers.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

logger = logging.getLogger(__name__)

#: Bumped when the C entry-point signatures change; the loader checks
#: the compiled library's ``repro_abi_version`` and recompiles on
#: mismatch (e.g. a stale cache dir pinned via REPRO_NATIVE_CACHE_DIR).
ABI_VERSION = 2

#: Environment override for the compiled-kernel cache directory.
CACHE_DIR_ENV = "REPRO_NATIVE_CACHE_DIR"

#: Compiler override (falls back to cc/gcc/clang on PATH).
CC_ENV = "CC"

SOURCE_PATH = Path(__file__).with_name("kernel.c")

_FLAGS = ("-O2", "-fPIC", "-shared", "-fvisibility=hidden")

#: Loaded-library cache and build telemetry for this process.
_LIB: ctypes.CDLL | None = None
_LOAD_FAILED: Exception | None = None
_STATS = {"cache_hits": 0, "cache_misses": 0, "compile_seconds": 0.0}


def reset_cache() -> None:
    """Forget the loaded library and outcome (test hook)."""
    global _LIB, _LOAD_FAILED
    _LIB = None
    _LOAD_FAILED = None


def build_stats() -> dict:
    """Process-local compile-cache telemetry (hits, misses, seconds)."""
    return dict(_STATS)


def cache_dir() -> Path:
    """Where compiled kernels live (see module docstring for the order)."""
    override = os.environ.get(CACHE_DIR_ENV, "").strip()
    if override:
        return Path(override)
    package_build = SOURCE_PATH.parent / "_build"
    if os.access(SOURCE_PATH.parent, os.W_OK):
        return package_build
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-native"


def find_compiler() -> str | None:
    """The C compiler to use, or None when the host has none."""
    cc = os.environ.get(CC_ENV, "").strip()
    if cc:
        resolved = shutil.which(cc)
        return resolved
    for candidate in ("cc", "gcc", "clang"):
        resolved = shutil.which(candidate)
        if resolved:
            return resolved
    return None


def compiler_available() -> bool:
    """True when a C compiler is on PATH (or $CC resolves)."""
    return find_compiler() is not None


def _source_digest() -> str:
    payload = SOURCE_PATH.read_bytes() + f"|abi={ABI_VERSION}".encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def library_path() -> Path:
    """The cache path the current source compiles to."""
    return cache_dir() / f"repro_kernel-{_source_digest()}.so"


def _compile(target: Path) -> None:
    cc = find_compiler()
    if cc is None:
        raise RuntimeError(
            "no C compiler found (set $CC or install cc/gcc/clang) and no "
            f"cached native kernel at {target}"
        )
    target.parent.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=target.stem, suffix=".so.tmp"
    )
    os.close(fd)
    try:
        subprocess.run(
            [cc, *_FLAGS, "-o", tmp_name, str(SOURCE_PATH)],
            check=True,
            capture_output=True,
            text=True,
        )
        # Atomic: racing compilers (daemon worker warm-up) each build a
        # private temp file and the last replace wins with identical
        # bytes semantics -- every loader sees a complete file.
        os.replace(tmp_name, target)
    except subprocess.CalledProcessError as exc:
        raise RuntimeError(
            f"native kernel compilation failed with {cc}: {exc.stderr}"
        ) from exc
    finally:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
    elapsed = time.perf_counter() - started
    _STATS["compile_seconds"] += elapsed
    logger.info("compiled native kernel to %s in %.2fs", target, elapsed)
    from repro.obs import metrics as obs_metrics

    obs_metrics.observe(
        "repro_native_compile_seconds",
        elapsed,
        help="Wall-clock seconds spent compiling the native kernel.",
    )


def _try_load(target: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(target))
    version_fn = getattr(lib, "repro_abi_version", None)
    if version_fn is None:
        raise OSError(f"{target} exports no repro_abi_version")
    version_fn.restype = ctypes.c_int64
    version = version_fn()
    if version != ABI_VERSION:
        raise OSError(f"{target} has ABI {version}, expected {ABI_VERSION}")
    return lib


def load_library() -> ctypes.CDLL:
    """The compiled kernel for this process, building it if needed.

    A cached ``.so`` that fails to load or reports the wrong ABI is
    deleted and recompiled once (covers truncated writes, copied-in
    garbage, or an incompatible stale build in a pinned cache dir).

    Raises:
        RuntimeError: when no compiler is available and nothing loads.
    """
    global _LIB, _LOAD_FAILED
    if _LIB is not None:
        return _LIB
    if _LOAD_FAILED is not None:
        raise RuntimeError(str(_LOAD_FAILED)) from _LOAD_FAILED
    try:
        _LIB = _load_uncached()
    except Exception as exc:
        _LOAD_FAILED = exc
        raise RuntimeError(str(exc)) from exc
    return _LIB


def _load_uncached() -> ctypes.CDLL:
    from repro.obs import metrics as obs_metrics

    target = library_path()
    if target.exists():
        try:
            lib = _try_load(target)
        except OSError as exc:
            logger.warning(
                "cached native kernel %s unusable (%s); recompiling",
                target,
                exc,
            )
            try:
                target.unlink()
            except OSError:
                pass
        else:
            _STATS["cache_hits"] += 1
            obs_metrics.counter(
                "repro_native_cache_total",
                labels={"event": "hit"},
                help="Native-kernel compile cache lookups by outcome.",
            )
            return lib
    _STATS["cache_misses"] += 1
    obs_metrics.counter(
        "repro_native_cache_total",
        labels={"event": "miss"},
        help="Native-kernel compile cache lookups by outcome.",
    )
    _compile(target)
    return _try_load(target)


def usable() -> bool:
    """True when the native engine can run in this process.

    The first call may compile (one-time, cached on disk); the outcome
    -- loaded library or the failure -- is memoized, so engine
    resolution after the first call is one attribute check.
    """
    try:
        load_library()
    except RuntimeError:
        return False
    return True
