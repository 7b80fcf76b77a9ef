"""FFT budget of the two FFT-heavy layers, counted by wrapping numpy.fft.

Q2 reads n outputs of its shell correlations, so a circular length of the
power of two ≥ 3n+1 suffices and its three sums combine as spectra: 4 forward
and 2 inverse real transforms.  A momentum profile stacks its three chirp-z
rows, so the chirp kernel is transformed once.  A change that brings back the
5n+1 window, a per-sum inverse transform or a second chirp spectrum fails here.
"""

from collections import defaultdict

import numpy as np
import pytest

import polaron as pl
from polaron.massbound import _CHI_ONE


@pytest.fixture
def fft_calls(monkeypatch):
    """name → list of (input shape, transform length) of every numpy.fft call."""
    calls = defaultdict(list)
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(x, n=None, *args, _name=name, _original=original, **kwargs):
            out = _original(x, n, *args, **kwargs)
            length = out.shape[-1] if _name != "rfft" else (n or np.shape(x)[-1])
            calls[_name].append((np.shape(x), length))
            return out

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("cut", [_CHI_ONE, pl.CutoffSpec(eps=0.2, shape="bump")], ids=["one", "bump"])
def test_potential_term_makes_four_forward_and_two_inverse_real_ffts(mp_default, fft_calls, cut):
    n = mp_default.pgrid.n
    assert n == 4000
    pl.potential_term(mp_default, cut)
    limit = 1 << (3 * n).bit_length()   # 2^⌈log₂(3n+1)⌉ = 16384
    assert len(fft_calls["rfft"]) == 4 and len(fft_calls["irfft"]) == 2
    assert not fft_calls["fft"] and not fft_calls["ifft"]
    assert all(length <= limit for _, length in fft_calls["rfft"] + fft_calls["irfft"])


def test_momentum_profile_transforms_the_chirp_once(state_default, fft_calls):
    pl.momentum_profile(state_default, pl.build_grid(4000, 10.0))
    forward, inverse = fft_calls["fft"], fft_calls["ifft"]
    # one forward transform of the chirp kernel (1-d), one of the stacked rows
    assert sorted(len(shape) for shape, _ in forward) == [1, 2]
    assert [shape[0] for shape, _ in forward if len(shape) == 2] == [3]
    assert len(inverse) == 1
    assert not fft_calls["rfft"] and not fft_calls["irfft"]
