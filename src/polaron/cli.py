"""Batch front end: the solve / verify / massbound commands.

All artifacts are deterministic for a fixed configuration: no timestamps, fixed
key order, CSV floats in C `%.16e` (17 digits).  Each but `residual_history.json`
embeds the computation's configuration (not `--out`) as sorted-key JSON, which
alone names the run: a CSV in its one `# config=` line, `pekar_state.json` as `config`.

Exit codes: 0 success, 1 verification failure (a failed verify.csv row, or
a massbound χ≡1 endpoint with |f| above the f=0 tolerance), 2 config or
output-directory error, 3 numerical/convergence failure.  `main` is the only
place that maps exceptions to exit codes; each failure prints one stderr line.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config
from .errors import ConvergenceError, DomainError, NumericalError
from .grid import build_grid
from .massbound import _CHI_ONE, CutoffSpec, bound_rhs, bound_sweep
from .momentum import el_residual_momentum, field_energy, density_expectation
from .momentum import MomentumProfile, RadialTestFunction, momentum_profile
from .solver import PekarState, SolverOptions, el_residual_position, solve_pekar

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# |f| allowed at the χ≡1 endpoint, by verify's f=0 row and by massbound's exit code
F_ENDPOINT_TOL = 1e-3


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".16e")
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return str(x)


def _artifact_header(cfg: dict) -> str:
    return f"# config={json.dumps(cfg, sort_keys=True)}\n"


def run_solver(cfg: dict) -> PekarState:
    return solve_pekar(SolverOptions(grid=(cfg["grid.n"], cfg["grid.rmax"])))


def run_pipeline(cfg: dict) -> tuple[PekarState, MomentumProfile]:
    state = run_solver(cfg)
    pgrid = build_grid(cfg["momentum.n"], cfg["momentum.pmax"])
    return state, momentum_profile(state, pgrid)


def _write_state_json(cfg: dict, state: PekarState, out: Path) -> None:
    doc = {
        "config": cfg,
        "state": {
            "T": state.T,
            "D": state.D,
            "eP": state.eP,
            "mu": state.mu,
            "iterations": state.iterations,
            "residual": state.residual,
            "grid": {"n": state.psi.grid.n, "rmax": state.psi.grid.rmax, "h": state.psi.grid.h},
        },
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _write_artifact(out / "pekar_state.json", [text.encode()])


# A profiles.csv field is `_fmt` of a double x: C "%.16e", the 17-digit decimal
# D = round(z), z = |x|·10^s, s = 16 − X, X the decimal exponent of x, written as
# d.dddddddddddddddde±XX.  `_round17` forms z in float64 double-double (Dekker, 1971).
# 10^s is hi + lo + δ with hi and lo each correctly rounded, so |δ| ≤ 2^−106·hi.
# Veltkamp's split of |x| and of hi into halves of at most 26 bits makes |x|·hi = p + e
# exact, and f = e + |x|·lo rounds twice.  For z < 10^17, |x|·lo < 16 rounds by at most
# 2^−50, |e + |x|·lo| < 32 by 2^−49, |x|·δ < 2^−49.5 and frac = f − ⌊f⌋ rounds by at most
# 2^−54, so p + ⌊f⌋ + frac (p ≥ 2^53, an integer) lies within 2^−47 of z.  A field is
# written from D = p + ⌊f⌋ + (frac > ½) where 10^16 ≤ p + ⌊f⌋, D < 10^17 and
# |frac − ½| exceeds _MARGIN, four times that bound: D is then z rounded (a z less than
# 2^−47 below 10^16 gives 10^16 at the next exponent, as %.16e does).  The splits
# overflow above about 1.3e300, so `_tens` stops at 10^300 and only |x| in
# [_TINY, _HUGE) is scaled; ±0 are written as D = 0 and X = 0.  Every other field (inf,
# nan, extreme exponents and a double next to a power of ten whose X `log10` misses) is
# formatted by `_fmt`.
_XMIN, _XMAX = -284, 299                # the decimal exponents `_tens` covers
_TINY, _HUGE = 1e-283, 1e299            # X from `log10` is one off at most
_SPLIT = 2.0**27 + 1
_MARGIN = 2.0**-45


@functools.cache   # built on first use, not at import
def _tens() -> np.ndarray:
    """Rows hi, hi's 26-bit head and tail, and lo of 10^(16 − X) ≈ hi + lo for X from
    `_XMIN` to `_XMAX`, hi and lo correctly rounded: int / int rounds so in Python."""
    ten = np.empty((_XMAX - _XMIN + 1, 4))
    power = 10**(16 - _XMIN)   # 10^|s|
    for i, s in enumerate(range(16 - _XMIN, 15 - _XMAX, -1)):
        num, den = (power, 1) if s >= 0 else (1, power)
        power = power // 10 if s > 0 else power * 10
        hi = num / den
        a, b = hi.as_integer_ratio()   # b a power of two
        c = hi * _SPLIT
        head = c - (c - hi)
        ten[i] = hi, head, hi - head, math.ldexp((num * b - a * den) / den, 1 - b.bit_length())
    ten = ten.T.copy()
    ten.flags.writeable = False   # shared by every call
    return ten


# A field fills a slot of seven 32-bit words, 28 bytes, the most `%.16e` and its
# separator take (`-1.7976931348623157e+308,`): the sign ("-" or NUL), the first
# digit, the point and the second digit; digits 3–6, 7–10 and 11–14; digits 15–17
# and "e"; the exponent's sign and two digits and the separator, or its sign and three
# digits; and the separator after a three-digit exponent, else NUL.  Each word is one
# entry of `_words`, at the offsets below.
_SLOT = 7
_NX = 633                         # decimal exponents −324 … 308, per separator
_LEAD, _TRI, _EXP = 10_000, 10_200, 11_200
_SPILL = _EXP + 2 * _NX
# profiles.csv rows formatted at a time: a block's temporaries peak at about 100 B per
# field (the word indices 56 B).  A `_csv_rows` call costs about 55 µs even for one row;
# blocks of 8192 rows, both tables of a 6000/4000 solve whole, ran no faster and took
# a one-shot 6000/40 `solve` from 32.2 to 33.7 MB peak RSS
_BLOCK_ROWS = 2048


@functools.cache   # built on first use, not at import
def _words() -> np.ndarray:
    """Every word a field is made of: the four digits of 0 … 9999; from `_LEAD` the sign,
    first digit, point and second digit of 00 … 99 and then of −00 … −99; from `_TRI`
    three digits of 000 … 999 and "e"; from `_EXP` the exponent and "," per decimal
    exponent from −324, then the same with a newline; from `_SPILL` what a three-digit
    exponent's separator leaves past it.  Made as bytes, so any byte order reads them."""
    words = np.zeros((_SPILL + 2 * _NX, 4), np.uint8)
    n = np.arange(10_000, dtype=np.uint16)
    for k, d in enumerate((1000, 100, 10, 1)):
        words[:10_000, k] = n // d % 10 + ord("0")
    lead, tri = words[_LEAD:_TRI], words[_TRI:_EXP]
    lead[100:, 0] = ord("-")
    lead[:, 1:4:2] = words[:200, 2:]      # the last two digits of 0 … 199
    lead[:, 2] = ord(".")
    tri[:, :3] = words[:1000, 1:]
    tri[:, 3] = ord("e")
    tails = [f"{x:+03d}{sep}" for sep in ",\n" for x in range(-324, 309)]
    tails = np.array(tails, "S8").view(np.uint8).reshape(-1, 2, 4)
    words[_EXP:_SPILL], words[_SPILL:] = tails[:, 0], tails[:, 1]
    words = words.view(np.uint32).ravel()
    words.flags.writeable = False   # shared by every call
    return words


def _round17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, X + 324, exact): each value's 17-digit decimal D and decimal exponent X,
    and whether the rounding of D is proven (only for ordinary values)."""
    ax = np.abs(v)
    exact = (ax >= _TINY) & (ax < _HUGE)   # false for nan
    ax[~exact] = 1.0
    X = np.floor(np.log10(ax)).astype(np.intp)   # may be one off next to a power of ten
    i = X - _XMIN
    a = ax * _SPLIT                        # Veltkamp: ax = a + b, 26 bits each
    b = a - ax
    a -= b
    np.subtract(ax, a, out=b)
    hi, head, tail, lo = _tens()           # one row at a time, for a lower peak
    t = np.take(hi, i)
    p = ax * t
    np.take(head, i, out=t, mode="clip")
    e = a * t
    e -= p
    e += np.multiply(t, b, out=t)
    np.take(tail, i, out=t, mode="clip")
    e += np.multiply(a, t, out=a)
    e += np.multiply(b, t, out=b)          # ax·hi = p + e
    np.take(lo, i, out=t, mode="clip")
    e += np.multiply(t, ax, out=t)
    del a, b, t, i
    f = np.floor(e)
    D = p.astype(np.int64)
    del p
    D += f.astype(np.int64)
    e -= f                                 # the fraction
    exact &= (D >= 10**16) & (np.abs(e - 0.5) > _MARGIN)
    D += e > 0.5
    exact &= D < 10**17
    return D, X + 324, exact


def _csv_rows(*columns: np.ndarray) -> bytes:
    """The lines of the columns side by side, each float as `_fmt` writes it."""
    c = len(columns)
    v = np.stack(columns, axis=1).ravel()
    if not v.size:
        return b""
    D, X, exact = _round17(v)
    slow = np.flatnonzero(~exact)
    ordinary = v[slow] != 0                # true for nan
    D[slow[~ordinary]] = 0                 # ±0 take the tables, their X is 0
    slow = slow[ordinary]
    wide = X.min() <= 324 - 100 or X.max() >= 324 + 100   # a three-digit exponent
    sign = np.signbit(v)

    # each word's index into `_words`, a row per word
    idx = np.empty((_SLOT, v.size), np.intp)
    np.add(X, _EXP, out=idx[5])
    idx[5, c - 1::c] += _NX                # the separator: ",", or "\n" after the last column
    np.add(idx[5], _SPILL - _EXP, out=idx[6])
    part = X                               # free from here on
    np.floor_divide(D, 10**7, out=idx[2])  # digits 1–10
    D -= np.multiply(idx[2], 10**7, out=part)   # digits 11–17
    np.floor_divide(D, 1000, out=idx[3])
    np.multiply(idx[3], -1000, out=idx[4])
    idx[4] += D
    idx[4] += _TRI
    np.floor_divide(idx[2], 10**4, out=idx[1])  # digits 1–6
    idx[2] -= np.multiply(idx[1], 10**4, out=part)
    np.floor_divide(idx[1], 10**4, out=idx[0])
    idx[1] -= np.multiply(idx[0], 10**4, out=part)
    idx[0] += _LEAD + 100 * sign
    del D, X, part, exact

    words = np.take(_words(), idx, mode="clip")
    del idx                                # each copy frees the last, for a lower peak
    buf = words.T.copy()                   # field by field
    del words
    if slow.size:
        seps = np.where(slow % c == c - 1, "\n", ",").tolist()
        text = [_fmt(x) + sep for x, sep in zip(v[slow].tolist(), seps)]
        buf[slow] = np.array(text, "S28").view(np.uint32).reshape(-1, _SLOT)
    elif not (wide or sign.any()):
        # every field 23 bytes after its NUL sign byte: one strided copy
        return buf.view(np.uint8)[:, 1:24].tobytes()
    text = buf.view(np.uint8)
    return text[text != 0].tobytes()


def _table(*columns: np.ndarray) -> Iterator[bytes]:
    """The columns' lines, `_BLOCK_ROWS` rows at a time."""
    for s in range(0, columns[0].size, _BLOCK_ROWS):
        yield _csv_rows(*(c[s:s + _BLOCK_ROWS] for c in columns))


def _write_artifact(path: Path, chunks: Iterable[bytes]) -> None:
    """Write the chunks to path as they come; a write that fails removes the file, so
    no partial artifact is left for a whole one."""
    try:
        with path.open("wb") as fh:
            fh.writelines(chunks)
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _write_profiles_csv(cfg: dict, state: PekarState, mp: MomentumProfile, out: Path) -> None:
    g, pg = state.psi.grid, mp.pgrid
    _write_artifact(out / "profiles.csv", itertools.chain(
        [f"{_artifact_header(cfg)}r,psi,rho,Phi\n".encode()],
        _table(g.nodes, state.psi.values, state.rho.values, state.phi.values),
        [b"\np,psi_hat,dpsi_hat,phi\n"],
        _table(pg.nodes, mp.psi_hat.values, mp.dpsi_hat.values, mp.phi.values)))


def cmd_solve(cfg: dict, out: Path) -> int:
    state, mp = run_pipeline(cfg)
    _write_state_json(cfg, state, out)
    _write_profiles_csv(cfg, state, mp, out)
    return EXIT_OK


def verification_rows(state: PekarState, mp: MomentumProfile, psi_hat_ok: bool) -> list[tuple]:
    """(check_name, computed, expected, tolerance, pass) for the identity suite;
    psi_hat_ok is whether `momentum_profile` passed mp's sign check."""
    endpoint = bound_rhs(mp, _CHI_ONE)
    one = RadialTestFunction(lambda p: np.ones_like(p), bounded=True, name="1")

    rows = [
        ("D=2T", state.D, 2.0 * state.T, 1e-4 * abs(2.0 * state.T)),
        ("eP=-T", state.eP, -state.T, 1e-4 * abs(state.T)),
        ("mu=3T", state.mu, 3.0 * state.T, 1e-4 * abs(3.0 * state.T)),
        ("psi_hat_positive", 1.0 if psi_hat_ok else 0.0, 1.0, 0.0),
        ("plancherel", density_expectation(mp, one), 1.0, 1e-5),
        ("field_energy=D", field_energy(mp), state.D, 1e-4 * abs(state.D)),
        ("el_residual_position", el_residual_position(state), 0.0, 1e-6),
        ("el_residual_momentum", el_residual_momentum(mp), 0.0, 1e-3),
        ("R=-3/2", endpoint.R, -1.5, 1e-3),
        ("Q1-Q2=3", endpoint.Q1 - endpoint.Q2, 3.0, 1e-3),
        ("f=0", endpoint.f, 0.0, F_ENDPOINT_TOL),
    ]
    return [(name, comp, exp, tol, abs(comp - exp) <= tol) for name, comp, exp, tol in rows]


def _write_table(path: Path, cfg: dict, columns: str, rows: Iterable[tuple]) -> None:
    lines = [columns, *(",".join(map(_fmt, row)) for row in rows)]
    _write_artifact(path, [(_artifact_header(cfg) + "\n".join(lines) + "\n").encode()])


def cmd_verify(cfg: dict, out: Path) -> int:
    state = run_solver(cfg)
    pgrid = build_grid(cfg["momentum.n"], cfg["momentum.pmax"])
    try:
        mp, psi_hat_ok = momentum_profile(state, pgrid), True
    except DomainError as exc:   # a sign fault of ψ̂ is tabulated as a failed row, not raised
        mp, psi_hat_ok = exc.profile, False
    rows = verification_rows(state, mp, psi_hat_ok)
    _write_table(out / "verify.csv", cfg, "check_name,computed,expected,tolerance,pass", rows)
    return EXIT_OK if all(ok for *_, ok in rows) else EXIT_VERIFY_FAILED


def cmd_massbound(cfg: dict, out: Path) -> int:
    state, mp = run_pipeline(cfg)
    cuts = [CutoffSpec(eps=eps, shape=cfg["cutoff.shape"]) for eps in cfg["cutoff.eps_list"]]
    reports = bound_sweep(mp, cuts + [_CHI_ONE])   # the last is the χ≡1 endpoint
    _write_table(out / "massbound.csv", cfg, "eps,R,Q1,Q2,f,m_lower",
                 ((label, r.R, r.Q1, r.Q2, r.f, r.m_lower)
                  for label, r in zip([*cfg["cutoff.eps_list"], 0.0], reports)))
    if not abs(reports[-1].f) <= F_ENDPOINT_TOL:
        print(f"massbound: chi=1 endpoint f = {reports[-1].f:.3g} misses 0 by more than "
              f"{F_ENDPOINT_TOL:g}; the grids do not resolve the bound", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _write_history(exc: ConvergenceError, out: Path) -> None:
    history = [{"energy": e, "dpsi": d, "scf": s} for e, d, s in exc.history]
    text = json.dumps({"error": str(exc), "history": history}, indent=2) + "\n"
    _write_artifact(out / "residual_history.json", [text.encode()])


def _fail(code: int, prefix: str, exc: BaseException) -> int:
    print(f"{prefix}: {' '.join(str(exc).split())}", file=sys.stderr)  # one line
    return code


# each command's handler, the artifacts it writes and its help text
_COMMANDS = {"solve": (cmd_solve, ("pekar_state.json", "profiles.csv"),
                       "solve the ground state and write state/profile artifacts"),
             "verify": (cmd_verify, ("verify.csv",), "run the identity suite and write verify.csv"),
             "massbound": (cmd_massbound, ("massbound.csv",),
                           "sweep the cutoff scale and write massbound.csv")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="polaron",
        description="Pekar ground state, momentum observables and the "
                    "inverse-mass bound diagnostic.",
        epilog="commands:\n" + "".join(f"  {name:<11}{text}\n"
                                       for name, (*_, text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="one of the commands below")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    args = parser.parse_args(argv)
    if not args.out:
        return _fail(EXIT_CONFIG, "output error", ValueError("--out must not be empty"))

    try:
        cfg = load_config(args.config)
    except (ConfigError, UnicodeDecodeError, OSError) as exc:
        return _fail(EXIT_CONFIG, "config error", exc)

    out = Path(args.out)
    handler, artifacts, _ = _COMMANDS[args.command]
    try:
        out.mkdir(parents=True, exist_ok=True)
        # no earlier run's history stays beside this run's artifacts; each is written new
        for name in (*artifacts, "residual_history.json"):
            (out / name).unlink(missing_ok=True)
        # floating-point faults raise instead of warning on stderr
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            try:
                return handler(cfg, out)
            except ConvergenceError as exc:
                _write_history(exc, out)
                raise
    except (ConvergenceError, NumericalError, DomainError, ValueError, ArithmeticError) as exc:
        return _fail(EXIT_NUMERICAL, "error", exc)
    except OSError as exc:
        return _fail(EXIT_CONFIG, "output error", exc)


if __name__ == "__main__":
    raise SystemExit(main())
