"""The compiled relaxation loop: ``relax.c``, built on first use, called via ctypes.

The configuration-DP fill spends its time in one loop: per round, one
box pass per configuration, then (sparse mode) one downward-closure
sweep per axis.  :func:`repro.core.dp_vectorized.relax_table` runs it
here, in C, when a C compiler is available, and falls back to the NumPy
loop otherwise.  Both produce the same tables, round counts and
early-accept points (``relax.c`` says why).

The library is built lazily, on the first fill of each process and never
at import: the C source that ships next to this module is compiled with
the interpreter's own compiler (``sysconfig.get_config_var("CC")``) into
a private temporary directory, loaded, and the directory removed.  A
build failure is kept, not raised: :meth:`NativeLoop.status` reports it
(``repro engines`` prints it) and every fill that falls back counts
``kernel.native.unavailable``.

Foreign calls through :mod:`ctypes` release the interpreter lock, so
fills running on different threads (``--parallel-probes``, the service
workers) overlap.
"""

from __future__ import annotations

import ctypes
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

from repro.errors import DPError

#: The C source, shipped as package data next to this module.
SOURCE = Path(__file__).with_name("relax.c")

#: Compiler flags.  The box passes' contiguous runs are a few cells
#: long, too short for vectorised code to pay: on identical-fill probes
#: ``-O1`` ran the fills as fast as ``-O2``/``-O3`` and builds in about
#: two thirds of their time.
CFLAGS = ("-O1", "-shared", "-fPIC")

#: Longest a build may take before it counts as failed.
BUILD_TIMEOUT_S = 120.0

#: ``relax.c``'s limit on table dimensions.
MAX_DIMS = 64

_ENTRY_POINTS = {
    np.dtype(np.int16): "relax_int16",
    np.dtype(np.int32): "relax_int32",
    np.dtype(np.int64): "relax_int64",
}

_INT64_P = ctypes.POINTER(ctypes.c_int64)


class NativeLoop:
    """Builds ``relax.c`` once, on first use, and runs fills through it.

    ``compiler`` overrides the interpreter's configured C compiler (a
    command line, split like a shell would).  The build runs at most
    once per instance, under a lock; :attr:`builds` counts the attempts.
    """

    def __init__(self, compiler: Optional[str] = None) -> None:
        self.compiler = compiler
        self.builds = 0
        self._lock = threading.Lock()
        self._done = False
        self._functions: dict[np.dtype, object] = {}
        self._error: Optional[str] = None

    # -- building ------------------------------------------------------------

    def _command(self, output: Path) -> list[str]:
        compiler = self.compiler
        if compiler is None:
            compiler = sysconfig.get_config_var("CC") or "cc"
        return [*shlex.split(compiler), *CFLAGS, "-o", str(output), str(SOURCE)]

    def _build(self) -> dict:
        self.builds += 1
        workdir = tempfile.mkdtemp(prefix="repro-relax-")
        try:
            output = Path(workdir) / "librelax.so"
            done = subprocess.run(
                self._command(output),
                capture_output=True,
                text=True,
                timeout=BUILD_TIMEOUT_S,
            )
            if done.returncode != 0:
                raise OSError(
                    f"compiler exited {done.returncode}: "
                    f"{done.stderr.strip() or done.stdout.strip()}"
                )
            library = ctypes.CDLL(str(output))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        functions = {}
        for dtype, name in _ENTRY_POINTS.items():
            function = getattr(library, name)
            function.restype = ctypes.c_int64
            function.argtypes = (
                ctypes.c_void_p,  # table
                ctypes.c_int32,  # ndim
                _INT64_P,  # shape
                _INT64_P,  # configs, row-major (n_configs, ndim)
                ctypes.c_int64,  # n_configs
                ctypes.c_int32,  # sweeps
                ctypes.c_int64,  # max_rounds
                ctypes.c_int64,  # accept_limit (-1: no early accept)
                ctypes.POINTER(ctypes.c_int32),  # early (out)
            )
            functions[dtype] = function
        return functions

    def _ensure_built(self) -> None:
        if self._done:
            return
        with self._lock:
            if self._done:
                return
            try:
                self._functions = self._build()
            except (OSError, subprocess.SubprocessError, AttributeError) as exc:
                self._error = f"{type(exc).__name__}: {exc}"
            self._done = True

    # -- public surface ------------------------------------------------------

    @property
    def available(self) -> bool:
        """Whether the compiled loop runs fills (builds it on first call)."""
        self._ensure_built()
        return bool(self._functions)

    def status(self) -> tuple[bool, str]:
        """``(active, detail)``: the library's source, or why it failed."""
        if self.available:
            return True, f"compiled from {SOURCE.name}"
        return False, self._error or "unknown build failure"

    def relax(
        self,
        table: np.ndarray,
        configs: np.ndarray,
        *,
        sweeps: bool,
        max_rounds: int,
        accept_limit: Optional[int] = None,
    ) -> Optional[tuple[int, bool]]:
        """Run the fill's rounds on ``table`` in place.

        ``configs`` holds one configuration per row, in processing order.
        ``sweeps`` adds the downward-closure sweeps after each round's box
        passes; ``accept_limit`` (a machine budget) enables the decision
        kernel's early accept.  Returns ``(rounds, early_accept)``, or
        ``None`` when ``max_rounds`` rounds ran without converging.
        Raises :class:`DPError` for arguments the loop cannot take and
        when the library is unavailable (check :attr:`available` first).
        """
        function = self._functions.get(table.dtype) if self.available else None
        if function is None:
            raise DPError(
                f"no compiled relaxation loop for a {table.dtype} table "
                f"({self.status()[1]})"
            )
        if not table.flags.c_contiguous or not table.flags.writeable:
            raise DPError("the relaxation table must be writeable and C-contiguous")
        if table.size == 0 or table.ndim > MAX_DIMS:
            raise DPError(f"cannot relax a table of shape {table.shape}")
        configs = np.ascontiguousarray(configs, dtype=np.int64)
        if configs.ndim != 2 or (
            configs.shape[0] > 0 and configs.shape[1] != table.ndim
        ):
            raise DPError(
                f"configs of shape {configs.shape} do not match a "
                f"{table.ndim}-d table"
            )
        shape = np.asarray(table.shape, dtype=np.int64)
        if configs.shape[0] > 0 and (
            (configs < 0).any() or (configs > shape[None, :]).any()
        ):
            raise DPError("configs must lie within [0, table shape]")
        early = ctypes.c_int32(0)
        # table, shape and configs stay referenced by these locals until
        # the call returns.
        rounds = function(
            table.ctypes.data,
            table.ndim,
            shape.ctypes.data_as(_INT64_P),
            configs.ctypes.data_as(_INT64_P),
            configs.shape[0],
            1 if sweeps else 0,
            int(max_rounds),
            -1 if accept_limit is None else int(accept_limit),
            ctypes.byref(early),
        )
        if rounds < 0:
            return None
        return int(rounds), bool(early.value)


_default = NativeLoop()


def default_loop() -> NativeLoop:
    """The process-wide loop every kernel fill uses."""
    return _default


def set_default_loop(loop: NativeLoop) -> NativeLoop:
    """Install ``loop`` as the process-wide loop; returns the previous one."""
    global _default
    previous, _default = _default, loop
    return previous
