"""Dense Cholesky factor and solve, and tridiagonal eigenpairs, by numpy's OpenBLAS.

numpy's wheels ship OpenBLAS (64-bit integers, symbols suffixed `64_`) with
its LAPACK.  Binding potrf, trsv and stev here through ctypes keeps scipy's
slow import and numpy.linalg's LAPACK drivers off the run's path.  A
C-contiguous array is the Fortran view of its transpose, so on a symmetric
array uplo 'U' works on the C lower triangle.  The library is loaded on
first use; a numpy build without it raises MissingLibrary at the first call.
"""

from __future__ import annotations

import ctypes
from functools import cache
from pathlib import Path

import numpy as np

from .errors import MissingLibrary

LIBRARY = "numpy.libs/libscipy_openblas64_*.so"
_INT = ctypes.c_int64
_PTR = ctypes.c_void_p
_ONE = ctypes.byref(_INT(1))


@cache
def library():
    """The ctypes handle of numpy's bundled OpenBLAS, with the argument
    types of potrf, trsv, stev and the thread-count pair set; or None."""
    site = Path(np.__file__).resolve().parent.parent
    for path in sorted(site.glob(LIBRARY)):
        try:
            lib = ctypes.CDLL(str(path))
            potrf, trsv, stev = lib.scipy_dpotrf_64_, lib.scipy_dtrsv_64_, lib.scipy_dstev_64_
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        potrf.restype = trsv.restype = stev.restype = put.restype = None
        potrf.argtypes = [ctypes.c_char_p, _PTR, _PTR, _PTR, _PTR]
        trsv.argtypes = [ctypes.c_char_p] * 3 + [_PTR, _PTR, _PTR, _PTR, _PTR]
        stev.argtypes = [ctypes.c_char_p] + [_PTR] * 7
        get.restype, get.argtypes, put.argtypes = ctypes.c_int, [], [ctypes.c_int]
        return lib
    return None


def _lib():
    lib = library()
    if lib is None:
        site = Path(np.__file__).resolve().parent.parent
        raise MissingLibrary(
            f"no {site / LIBRARY} with potrf, trsv, stev and the thread-count functions: "
            "the dense Cholesky and the Lanczos Ritz pairs need a numpy wheel that bundles OpenBLAS"
        )
    return lib


def _square(a: np.ndarray) -> int:
    """The order of a, checked to be a C-contiguous square float64 array."""
    n = len(a)
    if a.dtype != np.float64 or a.shape != (n, n) or not a.flags.c_contiguous:
        raise ValueError("expected a C-contiguous square float64 array")
    return n


def cholesky(a: np.ndarray) -> np.ndarray:
    """Factor the symmetric positive definite a = R^T R in place and return
    it.  Only the lower triangle is read, and on return it holds R^T (R
    upper triangular, as scipy.linalg.cho_factor's upper factor); the strict
    upper triangle is left as it was.  Raises np.linalg.LinAlgError when a
    leading minor is not positive."""
    n = _square(a)
    size, info = _INT(n), _INT(0)
    _lib().scipy_dpotrf_64_(b"U", ctypes.byref(size), a.ctypes.data, ctypes.byref(size),
                            ctypes.byref(info))
    if info.value:
        raise np.linalg.LinAlgError(f"potrf failed: info {info.value} (order {n})")
    return a


def refactor(factor: np.ndarray, a22: np.ndarray) -> np.ndarray:
    """Turn the factor of A (see cholesky) into that of a matrix that agrees
    with A outside its trailing r x r block a22, r = len(a22), in place and
    return it.  The leading t = n - r rows of the factor stay; its trailing
    block becomes the factor of the Schur complement a22 - L21 L21^T,
    L21 = factor[t:, :t], which a22 is overwritten with.  r = n is a full
    factorization and r = 0 leaves the factor as it is.  Raises
    np.linalg.LinAlgError when the new matrix is not positive definite."""
    n, r = _square(factor), len(a22)
    if r == 0:
        return factor
    _square(a22)
    t = n - r
    if t:
        low = factor[t:, :t]
        a22 -= low @ low.T
    factor[t:, t:] = cholesky(a22)
    return factor


def solve(factor: np.ndarray, b) -> np.ndarray:
    """x with R^T R x = b for the factor returned by cholesky: R^T y = b,
    then R x = y, each one trsv.  b is not modified."""
    n = _square(factor)
    x = np.array(b, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"expected a right-hand side of length {n}, got shape {x.shape}")
    trsv, size = _lib().scipy_dtrsv_64_, ctypes.byref(_INT(n))
    a, px = factor.ctypes.data, x.ctypes.data
    trsv(b"U", b"T", b"N", size, a, size, px, _ONE)
    trsv(b"U", b"N", b"N", size, a, size, px, _ONE)
    return x


class TridiagonalEigh:
    """np.linalg.eigh of symmetric tridiagonals of order at most m, bit for bit and C-contiguous
    (on a tridiagonal, eigh's reduction is the identity and both run steqr), by stev with its
    buffers kept from call to call; np.linalg.LinAlgError when stev fails."""

    def __init__(self, m: int):
        self.d, self.e, self.z, self.work = (np.empty(k) for k in (m, m, m * m, 2 * m))
        self.order, self.info = _INT(0), _INT(0)
        self.args = (b"V", ctypes.byref(self.order), *(a.ctypes.data for a in (self.d, self.e, self.z)),
                     ctypes.byref(self.order), self.work.ctypes.data, ctypes.byref(self.info))

    def __call__(self, t: np.ndarray) -> tuple:
        k = self.order.value = len(t)  # above m, the copies below fail to broadcast
        self.d[:k], self.e[: k - 1] = t.diagonal(), t.diagonal(-1)
        _lib().scipy_dstev_64_(*self.args)
        if self.info.value:
            raise np.linalg.LinAlgError(f"stev failed: info {self.info.value} (order {k})")
        return self.d[:k].copy(), self.z[: k * k].reshape(k, k).T.copy()
