"""Build-on-first-import machinery for the fast engine's C extension.

The repo ships :mod:`repro.fast._stagebuf` as C source — the scalar
staging buffer and the compaction cascade — and compiles it lazily with
the system compiler the first time the fast engine is imported.  The
build is cached under ``_build/<fingerprint>/`` next to the source
(fingerprint = SHA-256 of the source + the interpreter tag), so the
compiler runs once per source revision per interpreter.

Everything degrades gracefully: no compiler, no ``Python.h``, a failed
compile, or ``REPRO_NO_NATIVE=1`` in the environment all yield ``None``
from :func:`load_native`, and the engine falls back to the pure-Python
staging buffer (identical semantics, ~6x slower per item) and the
pure-Python compaction cascade (bit-identical sketches, slower per run).
No third-party packaging machinery is involved — just ``cc -O2 -shared``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from typing import Optional

__all__ = ["load_native", "load_stage_buffer", "native_build_error"]

_SOURCE = Path(__file__).resolve().parent / "_stagebuf.c"
_BUILD_ROOT = _SOURCE.parent / "_build"

#: Diagnostic from the most recent failed build attempt (for debugging /
#: the test suite); ``None`` when the native path loaded or was skipped.
_build_error: Optional[str] = None


def native_build_error() -> Optional[str]:
    """Why the native extension is unavailable (``None`` if it isn't)."""
    return _build_error


def _fingerprint() -> str:
    digest = hashlib.sha256()
    digest.update(_SOURCE.read_bytes())
    digest.update(sys.implementation.cache_tag.encode())
    return digest.hexdigest()[:16]


def _compiler() -> Optional[str]:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _compile(out_dir: Path) -> Path:
    """Compile _stagebuf.c into ``out_dir``; returns the extension path."""
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").exists():
        raise RuntimeError(f"Python.h not found under {include}")
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH")
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / "_stagebuf.so"
    tmp = out_dir / f"_stagebuf.so.{os.getpid()}.tmp"  # per-process: no tmp races
    cmd = [cc, "-O2", "-fPIC", "-shared", f"-I{include}", str(_SOURCE), "-o", str(tmp), "-lm"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr.strip()}")
    os.replace(tmp, target)  # atomic vs concurrent builders
    return target


def _load_extension(path: Path):
    spec = importlib.util.spec_from_file_location("repro.fast._stagebuf", path)
    if spec is None or spec.loader is None:
        raise RuntimeError(f"cannot load extension from {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_native():
    """The compiled extension module, or ``None`` if unavailable."""
    global _build_error
    if os.environ.get("REPRO_NO_NATIVE", "") not in ("", "0"):
        _build_error = "disabled by REPRO_NO_NATIVE"
        return None
    try:
        out_dir = _BUILD_ROOT / _fingerprint()
        target = out_dir / "_stagebuf.so"
        if not target.exists():
            _compile(out_dir)
        module = _load_extension(target)
        _build_error = None
        return module
    except Exception as exc:  # pragma: no cover - depends on toolchain
        _build_error = f"{type(exc).__name__}: {exc}"
        return None


def load_stage_buffer():
    """The compiled ``StageBuffer`` type, or ``None`` if unavailable."""
    module = load_native()
    return None if module is None else module.StageBuffer
