"""FFT budget of the two FFT-heavy layers, counted by wrapping numpy.fft.

Q2 and the cross functional are scalar shell sums, which the exchange
identity of `momentum._Shells` turns into Fourier-diagonal quadratic forms:
the field's primitive is the kernel, one forward transform per field, and
the rows it is contracted with (G and p²G for Q2, p ψ̂g for the cross
functional) are transformed together, at the smallest 5-smooth length
≥ 2n+1 (8100 at n = 4000), with no inverse transform.  Q2 makes 4 forward
real transforms, of which the 2 kernel transforms serve a whole cutoff sweep;
the cross functional makes 2.  The momentum-space Euler–Lagrange residual
needs every shell sum s_j: it transforms the integrand's primitive and the
field forward, one row each, and their product back, at the same length.  A
momentum profile transforms the chirp kernel once, then each of its three
chirp-z rows forward and back on its own through one buffer, all at the
smallest 5-smooth length ≥ N+M−1.  A change that brings back an inverse
transform of the Q2 or cross shell sums, the 3n+1 extension or the 5n+1
window, per-cutoff kernels, a second chirp spectrum, a longer chirp-z length
or power-of-two padding fails here.
"""

import bisect
from collections import defaultdict

import numpy as np
import pytest

import polaron as pl
from polaron.massbound import _CHI_ONE
from polaron.transforms import _fft_length


@pytest.fixture
def fft_calls(monkeypatch):
    """name → list of (transformed rows, transform length) of every numpy.fft call."""
    calls = defaultdict(list)
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(x, n=None, *args, _name=name, _original=original, **kwargs):
            out = _original(x, n, *args, **kwargs)
            length = out.shape[-1] if _name != "rfft" else (n or np.shape(x)[-1])
            rows = int(np.prod(np.shape(x)[:-1]))
            calls[_name].append((rows, length))
            return out

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def _rows(calls):
    return sum(rows for rows, _ in calls)


@pytest.mark.parametrize("cut", [_CHI_ONE, pl.CutoffSpec(eps=0.2, shape="bump")], ids=["one", "bump"])
def test_potential_term_makes_four_forward_and_no_inverse_real_ffts(mp_default, fft_calls, cut):
    n = mp_default.pgrid.n
    assert n == 4000
    pl.potential_term(mp_default, cut)
    # the two kernels a and −ak², then the rows G and p²G in one call
    assert [rows for rows, _ in fft_calls["rfft"]] == [1, 1, 2] and not fft_calls["irfft"]
    assert not fft_calls["fft"] and not fft_calls["ifft"]
    # 2^2·3^4·5^2 = 8100, the smallest 5-smooth length ≥ 2n+1 (8192 as a power of two)
    assert {length for _, length in fft_calls["rfft"]} == {8100}


def test_bound_sweep_makes_the_field_spectra_once(mp_default, fft_calls):
    cuts = [pl.CutoffSpec(eps=e, shape="bump") for e in (0.5, 0.2, 0.1, 0.05)] + [_CHI_ONE]
    pl.bound_sweep(mp_default, cuts)
    # 2 kernel rows, then 2 forward rows per cutoff
    assert _rows(fft_calls["rfft"]) == 12 and not fft_calls["irfft"]
    assert all(length == 8100 for _, length in fft_calls["rfft"])


def test_cross_expectation_makes_two_forward_and_no_inverse_real_ffts(mp_default, fft_calls):
    xi = pl.RadialTestFunction(lambda k: np.exp(-k))
    pl.cross_expectation(mp_default, xi, pl.RadialTestFunction(lambda p: np.exp(-p)))
    # the kernel of w k φ(k) ξ(k) and the row p ψ̂g
    assert [(rows, length) for rows, length in fft_calls["rfft"]] == [(1, 8100), (1, 8100)]
    assert not fft_calls["irfft"] and not fft_calls["fft"] and not fft_calls["ifft"]


def test_el_residual_momentum_makes_two_forward_and_one_inverse_real_fft(mp_default, fft_calls):
    pl.el_residual_momentum(mp_default)
    # the primitive of p ψ̂ and the field w ρ̂/k, one row each, then every s_j from one inverse
    assert fft_calls["rfft"] == [(1, 8100), (1, 8100)]
    assert fft_calls["irfft"] == [(1, 8100)]
    assert not fft_calls["fft"] and not fft_calls["ifft"]


def test_momentum_profile_transforms_the_chirp_once(state_default, fft_calls):
    pl.momentum_profile(state_default, pl.build_grid(4000, 10.0))
    forward, inverse = fft_calls["fft"], fft_calls["ifft"]
    # the chirp kernel first, then each of the three rows forward and back, one row a call,
    # at 2^5·3^2·5^2 = 7200, the smallest 5-smooth length ≥ 3000 + 4000 − 1 (8192 as a power of two)
    assert forward == [(1, 7200)] * 4
    assert inverse == [(1, 7200)] * 3
    assert not fft_calls["rfft"] and not fft_calls["irfft"]


def test_fft_length_is_the_least_5_smooth_length():
    smooth = sorted(2**a * 3**b * 5**c for a in range(22) for b in range(14) for c in range(10)
                    if 2**a * 3**b * 5**c <= 2**21)
    rng = np.random.default_rng(10)
    for m in list(range(1, 2001)) + rng.integers(1, 10**6, 5000).tolist() + [10**6]:
        length = _fft_length(m)
        assert length == smooth[bisect.bisect_left(smooth, m)]
        assert length <= 1 << (m - 1).bit_length()
