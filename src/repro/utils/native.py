"""Build-on-first-use loader for the package's C kernels.

A kernel ships as C source package data, read through
:mod:`importlib.resources`.  The first :meth:`NativeLibrary.function`
call compiles it with ``gcc -O2 -shared -fPIC -ffp-contract=off -lm``
into a per-user cache directory and loads it with :mod:`ctypes`; later
processes find the file already built.  Nothing happens at import, so
start-up time does not depend on the compiler.

- **Cache.** ``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` when the
  variable is unset or relative), created with mode 0700.  A directory
  owned by another user, writable by group or others, or not writable
  by us, is never used; the process then builds into a private
  :func:`tempfile.mkdtemp` directory removed at exit.
- **Key.** The file name carries the sha256 of the source, the flags
  and :func:`platform.machine`, so an edit or another host type builds
  afresh.  A build writes a temporary name and then ``os.replace``\\ s
  it into place, so a concurrent process only ever loads a whole file.
  A cached file that fails to load (truncated, say) is rebuilt once.
- **Fallback.** When there is no compiler, or the build, the cache or
  the load fails, :meth:`NativeLibrary.function` returns ``None`` and
  logs the reason once, on one line; the caller then runs its Python
  reference kernel.
"""

from __future__ import annotations

import atexit
import ctypes
import importlib
import logging
import os
import platform
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from importlib import resources

log = logging.getLogger(__name__)

COMPILER = "gcc"
#: Placed after the source, so that ``-lm`` records libm as a dependency.
#: ``-ffp-contract=off`` keeps ``a * b + c`` two rounded operations, as
#: numpy evaluates it (gcc fuses it into one FMA where the target has
#: one, aarch64 say), so native and numpy arithmetic agree bit for bit.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-lm")
#: Seconds one compile may take before the build counts as failed.
BUILD_TIMEOUT_S = 120


def cache_dir() -> str | None:
    """The per-user build cache, or ``None`` when it is not safe to use."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.lstat(path)
    except OSError:
        return None
    if (not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid()
            or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
            or not os.access(path, os.W_OK | os.X_OK)):
        return None
    return path


def _private_dir() -> str:
    path = tempfile.mkdtemp(prefix="repro-native-")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


class NativeLibrary:
    """One C source file of ``package``, built and bound on first use.

    ``symbol`` is the exported function; ``argtypes``/``restype`` are
    its :mod:`ctypes` signature.  :meth:`function` resolves once per
    instance and is thread-safe; :attr:`kernel` and :attr:`detail`
    describe the outcome (``"native"`` and the library path, or
    ``"python"`` and the reason).  :meth:`export` binds another
    function of the same library, with no second build or load.
    """

    def __init__(self, package: str, source: str, symbol: str,
                 argtypes: tuple, restype) -> None:
        self.package = package
        self.source = source
        self.symbol = symbol
        self.argtypes = argtypes
        self.restype = restype
        self._lock = threading.Lock()
        self._resolved = False
        self._fn = None
        self._lib = None
        self._exports: dict = {}
        self.detail = "not built yet"

    @property
    def kernel(self) -> str:
        """``"native"`` or ``"python"`` (resolves the build)."""
        return "python" if self.function() is None else "native"

    def function(self):
        """The bound C function, or ``None`` to run the Python kernel."""
        if self._resolved:
            return self._fn
        with self._lock:
            if not self._resolved:
                try:
                    lib = self._load()
                    fn = getattr(lib, self.symbol)
                    fn.argtypes, fn.restype = self.argtypes, self.restype
                    self._fn, self._lib, self.detail = fn, lib, lib._name
                except (_Unavailable, AttributeError) as exc:
                    self.detail = str(exc)
                    log.warning("%s: no native build (%s); running the "
                                "Python kernel", self.source, exc)
                self._resolved = True
        return self._fn

    def export(self, symbol: str, argtypes: tuple, restype):
        """The library's function ``symbol`` with this :mod:`ctypes`
        signature, bound once, or ``None`` wherever :meth:`function`
        is (the caller then runs its Python kernel too)."""
        fn = self._exports.get(symbol)
        if fn is None and self.function() is not None:
            with self._lock:
                fn = self._exports.get(symbol)
                if fn is None:
                    fn = self._lib[symbol]
                    fn.argtypes, fn.restype = argtypes, restype
                    self._exports[symbol] = fn
        return fn

    def _load(self) -> ctypes.CDLL:
        compiler = shutil.which(COMPILER)
        if compiler is None:
            raise _Unavailable(f"no C compiler: {COMPILER} is not on PATH")
        try:
            code = resources.files(self.package).joinpath(
                self.source).read_bytes()
        except OSError as exc:
            raise _Unavailable(f"cannot read {self.source}: {exc}") from exc
        key = _sha256(b"\0".join(
            [code, *(f.encode() for f in FLAGS), platform.machine().encode()]
        ))[:16]
        name = f"{self.source.rsplit('.', 1)[0]}-{key}.so"
        try:
            directory = cache_dir() or _private_dir()
        except OSError as exc:
            raise _Unavailable(f"no build directory: {exc}") from exc
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            _build(compiler, code, directory, path)
        try:
            return ctypes.CDLL(path)
        except OSError:
            _build(compiler, code, directory, path)  # damaged: rebuild once
        try:
            return ctypes.CDLL(path)
        except OSError as exc:
            raise _Unavailable(f"cannot load {path}: {exc}") from exc


def _sha256(data: bytes) -> str:
    """The sha256 hex digest of ``data``, from CPython's built-in sha256
    module where there is one: importing :mod:`hashlib` loads OpenSSL
    first (~4 ms on a 2-core host), which the first native kernel of
    every process would pay."""
    try:
        sha256 = importlib.import_module(
            "_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
    except (ImportError, AttributeError):  # another interpreter or build
        from hashlib import sha256
    return sha256(data).hexdigest()


class _Unavailable(Exception):
    """Why the native kernel cannot run (the fallback's log line)."""


def _build(compiler: str, code: bytes, directory: str, path: str) -> None:
    """Compile ``code`` to ``path`` through a temporary file."""
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        os.close(fd)
    except OSError as exc:
        raise _Unavailable(f"cache {directory} not writable: {exc}") from exc
    try:
        proc = subprocess.run(
            [compiler, "-x", "c", "-", *FLAGS, "-o", tmp], input=code,
            capture_output=True, timeout=BUILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            first = (proc.stderr.decode(errors="replace").strip()
                     .splitlines() or ["no output"])[0]
            raise _Unavailable(f"{compiler} failed: {first}")
        os.replace(tmp, path)
    except (OSError, subprocess.SubprocessError) as exc:
        raise _Unavailable(f"build failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
