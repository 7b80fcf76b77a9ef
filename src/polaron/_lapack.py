"""LAPACK's factor-and-solve routines for symmetric tridiagonal (`dpttrf`,
`dpttrs`) and banded (`dpbtrf`, `dpbtrs`) positive definite matrices, from the
LAPACK numpy itself links.

They are bound with ctypes on the handle of `numpy.linalg._umath_linalg`, so a
run maps one BLAS and imports no scipy.  Two ILP64 symbol spellings are tried:
`scipy_dpttrf_64_` (scipy-openblas64, numpy's wheels on Linux and Intel macOS)
and `dpttrf$NEWLAPACK$ILP64` (Accelerate, numpy's macOS 14 arm64 wheels).  A
numpy with neither, such as a conda or distro LP64 build or Windows
(unsupported, not verified), fails at `import polaron` with an ImportError
naming its LAPACK.

The wrappers keep f2py's call shapes (scipy.linalg.lapack's).  `dpttrf` copies
its input; the solves and the band factorization work in place, on a buffer
their caller owns, and return it.  Each array must be float64 and contiguous
(C order, Fortran order for a band), which `_pointers` checks before its
address reaches LAPACK.  Arrays pass as bare addresses: numpy's `ndpointer`
argument check took about 3 µs per array.
"""

from __future__ import annotations

import ctypes

import numpy as np

# spellings of a LAPACK routine in numpy's own builds, both ILP64 (64-bit integers)
_LAPACK_SPELLINGS = ("scipy_{}_64_", "{}$NEWLAPACK$ILP64")
_INT = ctypes.POINTER(ctypes.c_int64)
_PTR = ctypes.c_void_p
_CHAR = ctypes.c_char_p
_LEN = ctypes.c_size_t   # the hidden length of a Fortran character argument


def _lapack_routine(lib: ctypes.CDLL, name: str, *argtypes):
    """`name` in the first spelling `lib` exports.  No fallback: a numpy
    whose LAPACK has neither fails, naming that LAPACK and both spellings."""
    symbols = [spelling.format(name) for spelling in _LAPACK_SPELLINGS]
    for symbol in symbols:
        try:
            routine = lib[symbol]
        except AttributeError:
            continue
        routine.argtypes, routine.restype = argtypes, None
        return routine
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
    raise ImportError(f"numpy's LAPACK ({lapack}) exports neither {' nor '.join(symbols)}")


# numpy has loaded this module already, and it links numpy's LAPACK
_numpy_lapack = ctypes.CDLL(np.linalg._umath_linalg.__file__)
_dpttrf = _lapack_routine(_numpy_lapack, "dpttrf", _INT, _PTR, _PTR, _INT)
_dpttrs = _lapack_routine(_numpy_lapack, "dpttrs", _INT, _INT, _PTR, _PTR, _PTR, _INT, _INT)
_dpbtrf = _lapack_routine(_numpy_lapack, "dpbtrf", _CHAR, _INT, _INT, _PTR, _INT, _INT, _LEN)
_dpbtrs = _lapack_routine(_numpy_lapack, "dpbtrs", _CHAR, _INT, _INT, _INT, _PTR, _INT, _PTR,
                          _INT, _INT, _LEN)


def _pointers(*arrays: tuple[np.ndarray, int]) -> list[int]:
    """The addresses of the (array, ndim) pairs, once each is a float64 array of
    that many dimensions, C-contiguous if 1-d and Fortran-contiguous if 2-d."""
    for a, ndim in arrays:
        if not (a.dtype == np.float64 and a.ndim == ndim
                and (a.flags.c_contiguous if ndim == 1 else a.flags.f_contiguous)):
            raise ValueError(f"LAPACK wants {ndim}-d contiguous float64 arrays, got "
                             f"{a.ndim}-d {a.dtype} ({'' if a.flags.contiguous else 'not '}"
                             f"contiguous)")
    return [a.ctypes.data for a, _ in arrays]


def _order(d: np.ndarray, e: np.ndarray, b: np.ndarray | None = None) -> ctypes.c_int64:
    """n = len(d) ≥ 1, once e has at least n − 1 entries and b, if given, n."""
    n = d.size
    if not (n >= 1 and e.size >= n - 1 and (b is None or b.size == n)):
        raise ValueError(f"LAPACK wants n ≥ 1 diagonal, n − 1 off-diagonal and n right-hand "
                         f"entries, got {n}, {e.size} and {'-' if b is None else b.size}")
    return ctypes.c_int64(n)


def dpttrf(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """LDLᵀ of the symmetric tridiagonal matrix with diagonal d and off-diagonal
    e[:n−1], in f2py's call shape `d, e, info = dpttrf(d, e)`: new arrays, and
    info = k > 0 where the k-th pivot is not positive."""
    n = _order(d, e)
    d, e, info = d.copy(), e.copy(), ctypes.c_int64()
    _dpttrf(n, *_pointers((d, 1), (e, 1)), info)
    return d, e, info.value


def dpttrs(d: np.ndarray, e: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Solution of L D Lᵀ x = b from `dpttrf`'s factors, in f2py's call shape
    `x, info = dpttrs(d, e, b)`; x is b, overwritten."""
    n, info = _order(d, e, b), ctypes.c_int64()
    _dpttrs(n, ctypes.c_int64(1), *_pointers((d, 1), (e, 1), (b, 1)), n, info)
    return b, info.value


def _band(ab: np.ndarray) -> tuple[ctypes.c_int64, ctypes.c_int64, ctypes.c_int64]:
    """n, kd and ldab = kd + 1 of the (kd + 1, n) band ab, with n ≥ 1."""
    if not (ab.ndim == 2 and ab.shape[0] >= 1 and ab.shape[1] >= 1):
        raise ValueError(f"LAPACK wants a (kd + 1, n) band with n ≥ 1, got shape {ab.shape}")
    return ctypes.c_int64(ab.shape[1]), ctypes.c_int64(ab.shape[0] - 1), ctypes.c_int64(ab.shape[0])


def dpbtrf(ab: np.ndarray) -> tuple[np.ndarray, int]:
    """Lower Cholesky factor of the symmetric positive definite band matrix in
    LAPACK's lower band storage ab (row 0 the diagonal, row k the k-th
    subdiagonal), in f2py's call shape `c, info = dpbtrf(ab, lower=1)`; c is ab,
    overwritten, and info = k > 0 where the leading minor of order k is not
    positive definite."""
    n, kd, ldab = _band(ab)
    info = ctypes.c_int64()
    _dpbtrf(b"L", n, kd, *_pointers((ab, 2)), ldab, info, 1)
    return ab, info.value


def dpbtrs(c: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Solution of A x = b from `dpbtrf`'s factor c of A, in f2py's call shape
    `x, info = dpbtrs(c, b, lower=1)`; x is b, overwritten."""
    n, kd, ldab = _band(c)
    if b.size != n.value:
        raise ValueError(f"LAPACK wants {n.value} right-hand entries, got {b.size}")
    (pc, pb), info = _pointers((c, 2), (b, 1)), ctypes.c_int64()
    _dpbtrs(b"L", n, kd, ctypes.c_int64(1), pc, ldab, pb, n, info, 1)
    return b, info.value
