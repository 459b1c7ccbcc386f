"""Anchor-based 3D lane modeling with recurrent temporal feature fusion."""

import ctypes

__version__ = "0.1.0"


def _keep_freed_memory():
    """Stop glibc returning freed heap memory to the kernel, so a training
    step reuses its temporaries' pages instead of faulting fresh ones in.
    A no-op where ``mallopt`` is missing or refuses (musl, macOS)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        # M_MMAP_THRESHOLD (-3) at its 64-bit cap, then M_TRIM_THRESHOLD (-1) above a step's peak
        mallopt(-3, 32 << 20) and mallopt(-1, 128 << 20)


_keep_freed_memory()
