import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polaron
import polaron.cli
from polaron.cli import _csv_rows, _fmt, main, run_pipeline
from polaron.config import config_from_dict
from polaron.coulomb import coulomb_potential

# child interpreters import the same package as this one, installed or not
_SRC = str(Path(polaron.__file__).resolve().parents[1])


def _child_env(**extra):
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)

# fast, well-behaved configuration for CLI plumbing tests
SMALL_CONFIG = {
    "grid.n": 1000, "grid.rmax": 25.0,
    "momentum.n": 800, "momentum.pmax": 6.0,
    "cutoff.eps_list": [0.5, 0.2],
}


def write_config(path, overrides=None):
    doc = dict(SMALL_CONFIG)
    if overrides:
        doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


def one_step_short(monkeypatch):
    """Sets the SCF's step bound one below the steps SMALL_CONFIG's solve takes, so
    a run of it fails on the last step whatever the SCF's start; returns the bound."""
    steps = polaron.cli.run_solver(config_from_dict(SMALL_CONFIG)).iterations
    assert steps >= 2
    monkeypatch.setattr(polaron.solver, "_MAX_ITER", steps - 1)
    return steps - 1


class TestSolveCommand:
    def test_artifacts_and_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        state_doc = json.loads((tmp_path / "out" / "pekar_state.json").read_text())
        assert set(state_doc) == {"config", "state"}
        st = state_doc["state"]
        for key in ("T", "D", "eP", "mu", "iterations", "residual", "grid"):
            assert key in st
        assert st["eP"] == st["T"] - st["D"]
        assert st["eP"] < 0

    def test_profiles_csv_two_tables(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        text = (tmp_path / "out" / "profiles.csv").read_text()
        assert text.startswith("# config=")
        assert "r,psi,rho,Phi" in text
        assert "p,psi_hat,dpsi_hat,phi" in text
        blocks = text.split("\n\n")
        assert len(blocks) == 2
        n_rows = len(blocks[0].strip().splitlines()) - 2  # config, header
        assert n_rows == SMALL_CONFIG["grid.n"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["solve", "--config", cfg, "--out", str(tmp_path / "b")])
        for name in ("pekar_state.json", "profiles.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_artifacts_embed_only_the_computation_keys(self, tmp_path):
        # the output directory is not part of the configuration: each artifact embeds
        # the six keys that decide its numbers, and nothing else
        keys = {"grid.n", "grid.rmax", "momentum.n", "momentum.pmax",
                "cutoff.shape", "cutoff.eps_list"}
        cfg = write_config(tmp_path / "c.json")
        embedded = []
        for command, name in [("solve", "profiles.csv"), ("verify", "verify.csv"),
                              ("massbound", "massbound.csv")]:
            # SMALL_CONFIG's grids fail some verify rows; the table is written either way
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) in (0, 1)
            header = [line for line in (tmp_path / "out" / name).read_text().splitlines()
                      if line.startswith("#")]
            assert len(header) == 1 and header[0].startswith("# config=")
            embedded.append(json.loads(header[0].removeprefix("# config=")))
        embedded.append(json.loads((tmp_path / "out" / "pekar_state.json").read_text())["config"])
        for doc in embedded:
            assert set(doc) == keys
            assert doc == config_from_dict(SMALL_CONFIG)

    def test_convergence_failure_exit3_with_history(self, tmp_path, monkeypatch):
        # every command writes the SCF history when the solve fails
        max_iter = one_step_short(monkeypatch)
        cfg = write_config(tmp_path / "c.json")
        for command in ("solve", "verify", "massbound"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 3
            history = json.loads((out / "residual_history.json").read_text())
            assert len(history["history"]) == max_iter
            assert all(set(step) == {"energy", "dpsi", "scf"} for step in history["history"])

    def test_success_after_failure_leaves_no_history(self, tmp_path, monkeypatch):
        # a failed run's history does not stay beside a later run's artifacts,
        # which are the bytes a run into a fresh directory writes
        one_step_short(monkeypatch)
        failing = write_config(tmp_path / "fail.json")
        # the defaults, on which every command exits 0: their solve takes 1 step
        (tmp_path / "c.json").write_text("{}")
        cfg = str(tmp_path / "c.json")
        for command, names in [("solve", ["pekar_state.json", "profiles.csv"]),
                               ("verify", ["verify.csv"]), ("massbound", ["massbound.csv"])]:
            out, fresh = tmp_path / command, tmp_path / f"{command}-fresh"
            assert main([command, "--config", failing, "--out", str(out)]) == 3
            assert (out / "residual_history.json").exists()
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            assert main([command, "--config", cfg, "--out", str(fresh)]) == 0
            assert sorted(p.name for p in out.iterdir()) == sorted(names)
            for name in names:
                assert (out / name).read_bytes() == (fresh / name).read_bytes()

    def test_history_shows_the_unconverged_self_consistency(self, tmp_path, monkeypatch):
        # at β = 1e-300 energy and ψ stop moving; only the self-consistency
        # residual ‖ρ_out − ρ_in‖/‖ρ_out‖ of each step shows the failure
        monkeypatch.setattr(polaron.solver, "_BETA", 1e-300)
        monkeypatch.setattr(polaron.solver, "_MAX_ITER", 5)
        cfg = write_config(tmp_path / "c.json")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        history = json.loads((tmp_path / "out" / "residual_history.json").read_text())["history"]
        assert len(history) == 5
        assert history[-1]["dpsi"] <= 1e-8 and history[-1]["scf"] > 1e-8   # the SCF's stop


@pytest.mark.parametrize("command", ["solve", "verify", "massbound"])
def test_mixing_too_small_to_move_exits_3(tmp_path, capsys, monkeypatch, command):
    # ρ_in never moves, so ψ settles on a density it does not reproduce; the
    # self-consistency residual keeps that from passing as converged
    monkeypatch.setattr(polaron.solver, "_BETA", 1e-300)
    cfg = write_config(tmp_path / "c.json")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "rho_out-rho_in" in err


# another valid value for each config key, to vary alone from SMALL_CONFIG
_VARIED = {"grid.n": 1200, "grid.rmax": 24.0, "momentum.n": 900, "momentum.pmax": 5.5,
           "cutoff.shape": "gaussian", "cutoff.eps_list": [0.5, 0.3]}


def _artifact_numbers(doc, tmp_path):
    """The numeric fields of every command's artifacts for doc, the embedded
    configuration set aside."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    numbers = []
    for command in ("solve", "verify", "massbound"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) in (0, 1)
        for artifact in sorted(out.iterdir()):
            if artifact.suffix == ".json":
                state = json.loads(artifact.read_text())["state"]
                numbers += [v for v in state.values() if not isinstance(v, dict)]
                numbers += state["grid"].values()
                continue
            for line in artifact.read_text().splitlines():
                if line.startswith("#"):
                    continue
                for field in line.split(","):
                    with contextlib.suppress(ValueError):   # names, headers, true/false
                        numbers.append(float(field))
    return np.array(numbers, dtype=float)


@pytest.fixture(scope="module")
def small_config_numbers(tmp_path_factory):
    return _artifact_numbers(SMALL_CONFIG, tmp_path_factory.mktemp("base"))


@pytest.mark.parametrize("key", list(config_from_dict({})))
def test_each_config_key_decides_some_number(tmp_path, small_config_numbers, key):
    # a key whose value changes no number of any artifact decides only whether a
    # run fails, and has no place in the configuration
    numbers = _artifact_numbers({**SMALL_CONFIG, key: _VARIED[key]}, tmp_path)
    assert not (numbers.shape == small_config_numbers.shape
                and np.array_equal(numbers, small_config_numbers, equal_nan=True))


def _fmt_rows(*columns):
    """The reference for `_csv_rows`: each field `_fmt` of its value, row by row."""
    rows = zip(*(c.tolist() for c in columns))
    return "".join(",".join(_fmt(x) for x in row) + "\n" for row in rows).encode()


def _assert_csv_rows_match_fmt(values, ncols):
    values = np.asarray(values, dtype=np.float64)[: len(values) // ncols * ncols]
    columns = [values[j::ncols].copy() for j in range(ncols)]
    # as `main` runs it: no input may raise a floating-point error
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        assert _csv_rows(*columns) == _fmt_rows(*columns)


_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, 1e16,
          99999999999999999.0, 1e17, 1e-4, 9.9999999999999995e-05, 1e-5,
          # the ends of the scaled range, and where the split of |x| would overflow
          1e-283, 9.9999999999999997e-284, 1e299, 1.0000000000000001e299, 1.3e300]


def test_csv_rows_write_each_value_as_fmt():
    # the profiles.csv writer formats whole columns at once; each field must
    # stay `_fmt` of its value, so the artifact bytes do not change
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 5e-324, 1e-300, -2.5e300, 1 / 3, 1e16, 123456789.0]
    columns = [np.array(special + list(rng.standard_normal(8) * 10.0**k))
               for k in (-200, -5, 0, 200)]
    assert _csv_rows(*columns) == _fmt_rows(*columns)
    edges = _EDGES + [-x for x in _EDGES]
    for ncols in (1, 2, 3, 4):
        _assert_csv_rows_match_fmt(edges * ncols, ncols)
    # every exponent class, with its neighbours and powers of ten
    powers = np.array([float(f"1e{s}") for s in range(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    _assert_csv_rows_match_fmt(np.concatenate([near, -near]), 4)
    # 16-digit integers with exact halves in the 17th digit, and short decimals
    _assert_csv_rows_match_fmt(1e15 + 0.25 * np.arange(1, 4001), 4)
    _assert_csv_rows_match_fmt(np.round(rng.random(4000) * 1000, 3), 4)
    _assert_csv_rows_match_fmt(rng.integers(0, 2**64, 40000, dtype=np.uint64).view(np.float64), 4)


_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(lambda b: np.uint64(b).view(np.float64).item())


# doubles written with two exponent digits: a block of them with no minus sign leaves
# `_csv_rows` as one strided copy, any other block through the byte mask
_TWO_DIGIT = st.floats(1e-99, 1e100, exclude_max=True) | st.sampled_from(
    [0.0, 1e-99, 9.9999999999999997e99, 1e16, 99999999999999999.0, 1e-5])


@settings(max_examples=400, deadline=None)
@given(values=st.lists(_BIT_PATTERNS | st.floats() | st.sampled_from(_EDGES),
                      min_size=1, max_size=40),
       plain=st.lists(_TWO_DIGIT, min_size=1, max_size=40),
       ncols=st.integers(1, 4))
@example(values=[0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-100, -1.7976931348623157e308,
                 np.inf, -np.inf, np.nan, 1.0], plain=[0.0, 1.0, 2.5e-99, 9.5e99], ncols=2)
def test_csv_rows_match_fmt_on_any_double(values, plain, ncols):
    # under `main`'s errstate: an overflowing split or a nan cast to int would raise.  Each
    # example writes a block of any doubles (subnormals, three-digit exponents, inf and
    # nan among them), and a block of two-digit exponents without and with minus signs,
    # so both ways out of the kernel, with ±0 in each
    _assert_csv_rows_match_fmt(values, ncols)
    _assert_csv_rows_match_fmt(plain, ncols)
    _assert_csv_rows_match_fmt([-x for x in plain], ncols)


def _least_multiple_in(a, m, low, high):
    """The least t ≥ 0 with low ≤ a·t mod m ≤ high, for 0 ≤ low ≤ high < m, or None:
    Euclid's reduction of the interval problem, unwound from a stack."""
    stack = []
    while low:
        a %= m
        if a == 0:
            return None
        t = -(-low // a)
        if a * t <= high:
            break
        stack.append((a, m, low))
        a, m, low, high = a - m % a, a, low % a, high % a
    else:
        t = 0
    for a, m, low in reversed(stack):
        t = -(-(low + m * t) // a)
    return t


def _near_ties(eps, binades):
    """Per binade 2^(52+e)·[1, 2), the first double m·2^e whose z = x·10^(16−X) has a
    fraction within eps of ½ but not on it, X the decimal exponent of the binade's start."""
    out = []
    for e in binades:
        X = math.floor(math.log10(math.ldexp(1.0, 52 + e)))
        scale = Fraction(2) ** e * Fraction(10) ** (16 - X)   # z = m·a/b
        a, b = scale.numerator, scale.denominator
        low, high = math.ceil(Fraction(b, 2) - b * eps), math.floor(Fraction(b, 2) + b * eps)
        if low > high:   # z an integer
            continue
        start = a * 2**52 % b
        shifted = (low - start) % b, (high - start) % b
        t = _least_multiple_in(a, b, *shifted) if shifted[0] <= shifted[1] else 0
        if t is None or t >= 2**52 or (2**52 + t) * scale >= 10**17:
            continue
        frac = (2**52 + t) * a % b   # z's fraction times b
        assert low <= frac <= high
        if 2 * frac != b:
            out.append(math.ldexp(2**52 + t, e))
    return out


# doubles within 2^−50 of a 17-digit tie that a kernel deciding at a margin of 0 (the
# second also at 2^−52) writes a digit off; found by the same search, run for more doubles
_TIE_WITNESSES = [2.2134216087109993e-229, 7.862931575939347e-206, 4.421976605688792e-92,
                  5.9740001618840614e+69]


def test_csv_rows_round_near_ties_as_fmt():
    # the doubles nearest to 17-digit ties (D + ½)·10^(X−16) and their neighbours, at
    # every decimal exponent: the kernel must write them as `_fmt` does or leave them to it
    rng = np.random.default_rng(5)
    ties = np.array([float(f"{10 * d + 5}e{x - 17}") for x in range(-324, 309)
                     for d in rng.integers(10**16, 10**17, 8).tolist()])
    _assert_csv_rows_match_fmt(np.concatenate([ties, np.nextafter(ties, 0),
                                               np.nextafter(ties, np.inf)]), 4)
    # closer still: in every third binade a double within 2^−50 of a tie, which only the
    # margin keeps from the kernel's rounding error
    near = _near_ties(Fraction(1, 2**50), range(-990, 940, 3)) + _TIE_WITNESSES
    assert len(near) > 500
    _assert_csv_rows_match_fmt(near + [-x for x in near], 4)


def _significant_bits(x):
    num = abs(x.as_integer_ratio()[0])
    return (num >> ((num & -num).bit_length() - 1)).bit_length() if num else 0


def test_powers_of_ten_are_double_doubles():
    # the kernel's error bound rests on 10^s = hi + lo, each correctly rounded, so that
    # |10^s − hi − lo| ≤ 2^−106·hi, and on hi's halves of at most 26 bits each
    rows = polaron.cli._tens().T.tolist()
    assert len(rows) == polaron.cli._XMAX - polaron.cli._XMIN + 1
    for x, (hi, head, tail, lo) in zip(range(polaron.cli._XMIN, polaron.cli._XMAX + 1), rows):
        power = Fraction(10) ** (16 - x)
        assert abs(power - Fraction(hi)) <= Fraction(math.ulp(hi)) / 2
        assert abs(power - Fraction(hi) - Fraction(lo)) <= Fraction(math.ulp(lo)) / 2
        assert abs(power - Fraction(hi) - Fraction(lo)) <= Fraction(hi) / 2**106
        assert Fraction(head) + Fraction(tail) == Fraction(hi)
        assert _significant_bits(head) <= 26 and _significant_bits(tail) <= 26


def test_fmt_writes_numpy_scalars_as_python_values():
    assert (_fmt(np.True_), _fmt(np.False_), _fmt(True)) == ("true", "false", "true")
    assert _fmt(np.float32(0.1)) == "1.0000000149011612e-01" == _fmt(float(np.float32(0.1)))
    assert _fmt(np.float64(0.1)) == _fmt(0.1) == "1.0000000000000001e-01"
    assert (_fmt(-0.0), _fmt(1e300)) == ("-0.0000000000000000e+00", "1.0000000000000001e+300")
    assert (_fmt(np.int64(7)), _fmt(7), _fmt("f=0")) == ("7", "7", "f=0")


_FLOAT_FIELD = re.compile(r"-?\d\.\d{16}e[+-]\d{2,3}|-?inf|nan")


def _data_rows(path):
    """The fields of a CSV artifact's data lines, its comment and header lines set aside."""
    rows = []
    for table in path.read_text().split("\n\n"):
        lines = [line for line in table.splitlines() if not line.startswith("#")]
        rows += [line.split(",") for line in lines[1:]]
    return rows


def test_csv_floats_are_16e_of_the_library_values(tmp_path):
    # every float field of the three CSV artifacts is `%.16e`, one layout for every
    # exponent, and parses back to the double the library computes for the same state
    cfg = write_config(tmp_path / "c.json")
    for command in ("solve", "verify", "massbound"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) in (0, 1)
    conf = config_from_dict(SMALL_CONFIG)
    state, mp = run_pipeline(conf)
    g, pg, phi = state.psi.grid, mp.pgrid, coulomb_potential(state.rho)
    columns = [(g.nodes, state.psi.values, state.rho.values, phi.values),
               (pg.nodes, mp.psi_hat.values, mp.dpsi_hat.values, mp.phi.values)]
    cuts = [polaron.CutoffSpec(eps=eps, shape=conf["cutoff.shape"])
            for eps in conf["cutoff.eps_list"]]
    reports = polaron.bound_sweep(mp, cuts + [polaron.massbound._CHI_ONE])
    expected = {
        "solve/profiles.csv": [row for table in columns for row in zip(*(c.tolist() for c in table))],
        "verify/verify.csv": polaron.cli.verification_rows(state, mp, True),
        "massbound/massbound.csv": [(eps, r.R, r.Q1, r.Q2, r.f, r.m_lower)
                                    for eps, r in zip([*conf["cutoff.eps_list"], 0.0], reports)],
    }
    for name, rows in expected.items():
        written = _data_rows(tmp_path / name)
        assert len(written) == len(rows)
        for fields, values in zip(written, rows):
            assert len(fields) == len(values)
            for field, value in zip(fields, values):
                if isinstance(value, (float, np.floating)):
                    assert _FLOAT_FIELD.fullmatch(field), (name, field)
                    assert float(field).hex() == float(value).hex(), (name, field)
                else:
                    assert field == _fmt(value)


def _profiles_reference(cfg, state, mp):
    """The reference for profiles.csv: both tables in one piece, each field `_fmt` of its value."""
    g, pg, phi = state.psi.grid, mp.pgrid, coulomb_potential(state.rho)
    return b"".join([
        polaron.cli._artifact_header(cfg).encode(),
        b"r,psi,rho,Phi\n",
        _fmt_rows(g.nodes, state.psi.values, state.rho.values, phi.values),
        b"\np,psi_hat,dpsi_hat,phi\n",
        _fmt_rows(pg.nodes, mp.psi_hat.values, mp.dpsi_hat.values, mp.phi.values),
    ])


@pytest.mark.parametrize("doc", [SMALL_CONFIG, {"grid.n": 6000, "grid.rmax": 40.0}],
                         ids=["small", "fine"])
def test_solve_writes_profiles_as_fmt_of_the_state(tmp_path, monkeypatch, doc):
    # the whole file, against the line-by-line `_fmt` rendering of the same state's
    # arrays, on the suite's grids and the benchmark's 6000/40; and no field takes `_fmt`,
    # not even ψ and ρ at r = rmax, which are zeros
    fallback = []
    monkeypatch.setattr(polaron.cli, "_fmt", lambda x: fallback.append(x) or _fmt(x))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    cfg = config_from_dict(doc)
    state, mp = run_pipeline(cfg)
    assert state.psi.values[-1] == state.rho.values[-1] == 0.0
    assert (tmp_path / "out" / "profiles.csv").read_bytes() == _profiles_reference(cfg, state, mp)
    assert fallback == []


def _synthetic_profile(n_r, n_p):
    """A hydrogenic state and momentum profile on n_r radial and n_p momentum nodes."""
    g, pg = polaron.build_grid(n_r, 25.0), polaron.build_grid(n_p, 6.0)
    psi = polaron.RadialFunction(g, np.exp(-g.nodes) / np.sqrt(np.pi))
    rho = psi.with_values(psi.values**2)
    state = polaron.PekarState(psi=psi, rho=rho, T=1.0, D=1.0, eP=0.0, mu=1.0,
                               iterations=1, residual=0.0)
    q = 1 + pg.nodes**2
    mp = polaron.MomentumProfile(pgrid=pg, psi_hat=polaron.RadialFunction(pg, q**-2),
                                 dpsi_hat=polaron.RadialFunction(pg, -4 * pg.nodes * q**-3),
                                 phi=polaron.RadialFunction(pg, np.sqrt(2) / q), mu=1.0,
                                 rho_hat0=1.0)
    return state, mp


_BLOCK = 16


@pytest.mark.parametrize("rows", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_profiles_csv_streams_in_blocks(tmp_path, monkeypatch, rows):
    # a file written a block at a time holds the bytes of the one-piece reference
    monkeypatch.setattr(polaron.cli, "_BLOCK_ROWS", _BLOCK)
    blocks = []
    monkeypatch.setattr(polaron.cli, "_csv_rows",
                        lambda *columns: blocks.append(columns[0].size) or _csv_rows(*columns))
    cfg = config_from_dict(SMALL_CONFIG)
    state, mp = _synthetic_profile(rows, rows + 1)
    polaron.cli._write_profiles_csv(cfg, state, mp, tmp_path)
    assert (tmp_path / "profiles.csv").read_bytes() == _profiles_reference(cfg, state, mp)
    assert max(blocks) <= _BLOCK
    assert len(blocks) == -(-rows // _BLOCK) + -(-(rows + 1) // _BLOCK)


def test_write_error_in_a_later_block_leaves_no_profiles_csv(tmp_path, monkeypatch, capsys):
    # the disk fills while the second block goes out: exit 2, one line, and no
    # partial profiles.csv that a reader could take for a whole one
    monkeypatch.setattr(polaron.cli, "_BLOCK_ROWS", 256)
    blocks = []

    def full_disk(*columns):
        blocks.append(columns[0].size)
        if len(blocks) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return _csv_rows(*columns)

    monkeypatch.setattr(polaron.cli, "_csv_rows", full_disk)
    cfg = write_config(tmp_path / "c.json")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert len(blocks) == 2
    assert not (tmp_path / "out" / "profiles.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("output error:") and len(err.splitlines()) == 1


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE and SIGXFSZ")
@pytest.mark.parametrize("command, limit, artifact", [
    ("solve", 100, "pekar_state.json"),
    ("verify", 100, "verify.csv"),
    ("massbound", 100, "massbound.csv"),
])
def test_failed_write_leaves_no_artifact(tmp_path, command, limit, artifact):
    # a file-size limit makes the write stop part way through the artifact (EFBIG, as
    # ENOSPC on a full disk): exit 2, one line, and no partial file of that name
    cfg, out = write_config(tmp_path / "c.json"), tmp_path / "out"
    code = ("import resource, signal, sys; from polaron.cli import main; "
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]; "
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, hard)); "
            f"sys.exit(main([{command!r}, '--config', {cfg!r}, '--out', {str(out)!r}]))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(PYTHONDONTWRITEBYTECODE="1"))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("output error:") and len(done.stderr.splitlines()) == 1
    assert not (out / artifact).exists()


def test_import_builds_no_writer_table():
    # the profiles.csv writer's tables are made on its first use, not at every import
    code = ("import polaron.cli as c; "
            "print(c._words.cache_info().currsize, c._tens.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, env=_child_env())
    assert done.stdout.split() == ["0", "0"]


def test_profiles_csv_memory_follows_the_block(tmp_path):
    # the writer holds one block's temporaries at a time, so a profile three
    # blocks long peaks about as high as one a block long
    block = polaron.cli._BLOCK_ROWS
    cfg = config_from_dict(SMALL_CONFIG)
    peaks = []
    for rows in (block, 3 * block):
        state, mp = _synthetic_profile(rows, rows)
        tracemalloc.start()
        try:
            polaron.cli._write_profiles_csv(cfg, state, mp, tmp_path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("argv", [["simulate", "--config", "c.json"], ["verify"], []],
                         ids=["unknown_command", "missing_config", "empty"])
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: polaron" in capsys.readouterr().err


def test_help_lists_the_three_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for command, text in [("solve", "solve the ground state"), ("verify", "run the identity suite"),
                          ("massbound", "sweep the cutoff scale")]:
        assert any(line.split()[:1] == [command] and text in line for line in lines), command


class TestConfigValidation:
    def test_invalid_field_named_in_message(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid.n": 0}))
        assert main(["solve", "--config", str(path)]) == 2
        assert "grid.n" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid.npts": 100}))
        assert main(["solve", "--config", str(path)]) == 2
        assert "grid.npts" in capsys.readouterr().err

    def test_output_dir_key_rejected(self, tmp_path, capsys):
        # --out alone places the artifacts: a document that still sets output.dir is
        # refused naming the key, and nothing is written
        cfg = write_config(tmp_path / "c.json", {"output.dir": str(tmp_path / "elsewhere")})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "output.dir" in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("command", ["solve", "verify", "massbound"])
    def test_empty_out_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json")
        assert main([command, "--config", cfg, "--out", ""]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--out" in err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_eps_list_must_decrease(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"cutoff.eps_list": [0.1, 0.2]})
        assert main(["solve", "--config", cfg]) == 2
        assert "eps_list" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["quad.reduced_n", "quad.angular_nodes"])
    def test_removed_quadrature_keys_rejected(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path / "c.json", {key: 400})
        assert main(["verify", "--config", cfg]) == 2
        assert key in capsys.readouterr().err

    def test_non_finite_number_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"cutoff.eps_list": [NaN]}')  # json accepts NaN
        assert main(["massbound", "--config", str(path)]) == 2
        assert "eps_list" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == 2

    @pytest.mark.parametrize("text", ["[" * 200_000 + "]" * 200_000,
                                      '{"a": ' * 100_000 + "1" + "}" * 100_000])
    @pytest.mark.parametrize("command", ["solve", "verify", "massbound"])
    def test_deeply_nested_document_exits_2(self, tmp_path, capsys, command, text):
        # json.loads raises RecursionError here; the text is written directly,
        # since json.dumps cannot build such a document
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "nested" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "verify", "massbound"])
    def test_number_literal_past_the_digit_limit_exits_2(self, tmp_path, capsys, command):
        # json.loads raises a plain ValueError for an integer literal of more than
        # 4,300 digits (int's string-conversion limit); the text is written directly,
        # since json.dumps cannot write such an integer
        path = tmp_path / "c.json"
        path.write_text('{"grid.n": 1' + "0" * 5000 + "}")
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["solve", "--config", str(path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1


class TestVerifyCommand:
    def test_default_config_all_rows_pass(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text("{}")
        assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "verify.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines[2:]]
        assert rows and all(row[-1] == "true" for row in rows)

    def test_coarse_grid_fails_with_table(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"grid.n": 100})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        lines = (tmp_path / "out" / "verify.csv").read_text().splitlines()
        header = lines[1]
        assert header == "check_name,computed,expected,tolerance,pass"
        rows = [ln.split(",") for ln in lines[2:]]
        assert any(row[-1] == "false" for row in rows)
        names = [row[0] for row in rows]
        assert "Q1-Q2=3" in names
        q_row = rows[names.index("Q1-Q2=3")]
        assert float(q_row[2]) == 3.0


@pytest.mark.parametrize("command", ["verify", "massbound"])
def test_two_node_momentum_grid_exits_cleanly(tmp_path, capsys, command):
    # two momentum nodes resolve nothing: verify's rows and massbound's
    # χ≡1 endpoint (f ≈ 1) both miss their tolerances
    cfg = write_config(tmp_path / "c.json", {"momentum.n": 2})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command,code", [("solve", 3), ("verify", 1), ("massbound", 3)])
def test_nowhere_positive_psi_hat_is_a_sign_fault(tmp_path, capsys, command, code):
    # ψ̂ is −5.1e-9 and −1.4e-9 at p = 500 and 1000: verify tabulates the
    # fault as a failed psi_hat_positive row, solve and massbound raise it and
    # name it as what it is, with no sign change and no rmax advice
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"momentum.n": 2, "momentum.pmax": 1000}))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if command == "verify":
        rows = [ln.split(",") for ln in (out / "verify.csv").read_text().splitlines()[2:]]
        zero, one = "0.0000000000000000e+00", "1.0000000000000000e+00"
        assert ["psi_hat_positive", zero, one, zero, "false"] in rows and err == ""
    else:
        assert len(err.splitlines()) == 1
        assert "no positive sample" in err and "p=500" in err and "finer momentum grid" in err
        assert "sign change" not in err and "rmax" not in err
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("command,code", [("solve", 3), ("verify", 1), ("massbound", 3)])
@pytest.mark.parametrize("n", [2, 3])
def test_one_or_two_interior_radial_nodes_exit_cleanly(tmp_path, capsys, n, command, code):
    # the ground state of one or two interior nodes resolves nothing: verify
    # tabulates the misses, the ψ̂ sign check of solve and massbound raises
    cfg = write_config(tmp_path / "c.json", {"grid.n": n})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) <= 1 and "Traceback" not in err


@pytest.mark.parametrize("command,overrides,key", [
    ("solve", {"grid.rmax": 1e-300}, "grid.rmax"),
    ("verify", {"grid.rmax": 1e-300}, "grid.rmax"),
    ("massbound", {"grid.rmax": 1e-300}, "grid.rmax"),
    ("verify", {"momentum.pmax": 1e300}, "momentum.pmax"),
    # a step where the hydrogenic profile e^{-5r/16} underflows (the SCF's stored
    # start is offset so that it does not), and a momentum step below 1e-50
    ("verify", {"grid.n": 2, "grid.rmax": 1e5}, "grid.rmax"),
    ("verify", {"momentum.pmax": 1e-300}, "momentum.pmax"),
    # cutoffs whose εp or (εp)² overflows on the momentum grid
    ("massbound", {"cutoff.shape": "gaussian", "cutoff.eps_list": [1e200]}, "cutoff.eps_list"),
    ("massbound", {"cutoff.shape": "bump", "cutoff.eps_list": [1e308]}, "cutoff.eps_list"),
    # the χ≡1 endpoint is a row of every massbound table, not a shape
    ("massbound", {"cutoff.shape": "one"}, "cutoff.shape"),
    # the SCF's damping and its stop tolerance are constants: a config that still
    # sets a former key is refused, not ignored
    ("solve", {"solver.mixing": 0.5}, "solver.mixing"),
    ("verify", {"solver.tol_energy": 1e-10}, "solver.tol_energy"),
    # integers past the largest float spell no float: they once overflowed in the
    # validation's rmax / n and ε·pmax (exit 1 with a traceback) or in the SCF's stop
    # test (exit 3)
    ("verify", {"grid.rmax": 10**400}, "grid.rmax"),
    ("massbound", {"cutoff.eps_list": [10**400]}, "cutoff.eps_list"),
    ("solve", {"solver.tol_psi": 10**400}, "solver.tol_psi"),
    # the stop tolerance is a former key at any value, its old default among them;
    # at 1e-300 a solve ran all 300 steps on rounding and exited 3
    ("solve", {"solver.tol_psi": 1e-8}, "solver.tol_psi"),
    ("verify", {"solver.tol_psi": 1e-300}, "solver.tol_psi"),
])
def test_unrepresentable_scales_exit_2_naming_the_key(tmp_path, capsys, command, overrides, key):
    # these configs once ran into a floating-point fault (exit 3, naming only
    # the numpy operation); validation now rejects them before any work
    cfg = write_config(tmp_path / "c.json", overrides)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "verify", "massbound"])
def test_floating_point_fault_exits_3_with_one_line(tmp_path, capsys, monkeypatch, command):
    # main() runs each command with floating-point faults raised, so a fault
    # left to the numerics is one stderr line and exit 3, not a warning
    def faulty_solve(opts):
        return np.ones(1) / np.zeros(1)

    monkeypatch.setattr(polaron.cli, "solve_pekar", faulty_solve)
    cfg = write_config(tmp_path / "c.json")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: divide by zero encountered in divide"]


@pytest.mark.parametrize("command", ["solve", "verify", "massbound"])
def test_out_naming_a_file_exits_2_with_one_line(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "c.json")
    target = tmp_path / "taken"
    target.write_text("")
    assert main([command, "--config", cfg, "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


_POSITIVE = st.one_of(st.floats(1e-300, 1e300), st.sampled_from([1e-300, 1e300]),
                     st.integers(1, 50))
_VALID_DOCS = st.fixed_dictionaries({}, optional={
    "grid.n": st.integers(2, 4000), "grid.rmax": _POSITIVE,   # up to the default grid sizes
    "momentum.n": st.integers(2, 4000), "momentum.pmax": _POSITIVE,
    "cutoff.shape": st.sampled_from(["bump", "gaussian"]),
    "cutoff.eps_list": st.lists(_POSITIVE, min_size=1, max_size=4)
                         .map(lambda e: sorted(set(e), reverse=True)),
})
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.floats(), max_size=3),
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-2, 10),
    st.sampled_from([1e-300, 1e300, -1e300, 0.0, -1.0, [], [0.1, 0.1], [0.2, float("nan")],
                     10**400, -10**400, [10**400]]),
)
_KEYS = ["grid.n", "grid.rmax", "momentum.n", "momentum.pmax", "solver.mixing",
         "solver.tol_energy", "solver.tol_psi", "solver.max_iter", "cutoff.shape",
         "cutoff.eps_list", "output.dir", "grid.npts", ""]
# a valid document, or one with a single key replaced by junk (or an unknown key,
# the former keys solver.mixing, solver.tol_energy, solver.tol_psi and
# solver.max_iter among them)
_CONFIG_DOCS = _VALID_DOCS | st.builds(lambda doc, key, val: {**doc, key: val},
                                       _VALID_DOCS, st.sampled_from(_KEYS), _JUNK)


@settings(max_examples=50, deadline=None)
@given(doc=_CONFIG_DOCS, command=st.sampled_from(["solve", "verify", "massbound"]))
def test_any_config_document_gives_an_exit_code(doc, command):
    """The exit-code contract: every config document yields 0, 1, 2 or 3 and
    at most one stderr line, never an escaping exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1


class TestMassboundCommand:
    def test_sweep_structure(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert main(["massbound", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "massbound.csv").read_text().splitlines()
        assert lines[1] == "eps,R,Q1,Q2,f,m_lower"
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == len(SMALL_CONFIG["cutoff.eps_list"]) + 1
        assert [float(r[0]) for r in rows] == SMALL_CONFIG["cutoff.eps_list"] + [0.0]


def test_thread_cap_env_var_stable(tmp_path):
    """POLARON_THREADS caps BLAS pools without changing artifact bytes."""
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(SMALL_CONFIG)))
    outputs = []
    for threads, out in (("1", "t1"), ("2", "t2")):
        env = _child_env(POLARON_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "polaron", "solve", "--config", str(cfg_path),
             "--out", str(tmp_path / out)],
            check=True, env=env, capture_output=True,
        )
        outputs.append((tmp_path / out / "profiles.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_import_leaves_interpolate_and_signal_unloaded():
    """Neither `import polaron` nor a first transform call, solve or CLI import
    loads any scipy module: polaron's LAPACK is numpy's own, and scipy's
    package init, scipy.interpolate or scipy.signal would each add a large
    share of every interpreter start (a lazy import only moves it to the
    first call)."""
    code = ("import sys, polaron, polaron.cli; "
            "g = polaron.build_grid(20, 5.0); "
            "polaron.fourier_radial_gradient(polaron.RadialFunction(g, g.nodes), g); "
            "polaron.solve_pekar(polaron.SolverOptions(grid=(200, 20.0))); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, env=_child_env())
    assert done.stdout.strip() == "[]"


# a child interpreter's first lines: every import of scipy or a submodule fails
_BLOCK_SCIPY = """import sys
class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split('.')[0] == 'scipy':
            raise ModuleNotFoundError(f'No module named {name!r}', name=name)
sys.meta_path.insert(0, _NoScipy())
"""


def test_commands_run_without_scipy(tmp_path):
    """solve, verify and massbound give the same exit codes and byte-identical
    artifacts in an interpreter where scipy cannot be imported."""
    cfg = write_config(tmp_path / "c.json")
    code = ("import sys, polaron.cli\n"
            "try:\n    import scipy\nexcept ImportError:\n    print('blocked')\n"
            "else:\n    print('importable')\n"
            "print([polaron.cli.main([c, '--config', sys.argv[1], '--out', f'{sys.argv[2]}/{c}'])"
            " for c in ('solve', 'verify', 'massbound')])")
    runs = {}
    for blocked in (False, True):
        out = tmp_path / ("blocked" if blocked else "importable")
        done = subprocess.run(
            [sys.executable, "-c", (_BLOCK_SCIPY if blocked else "") + code, cfg, str(out)],
            check=True, capture_output=True, text=True, env=_child_env())
        scipy_state, codes = done.stdout.splitlines()
        assert scipy_state == ("blocked" if blocked else "importable")
        runs[blocked] = codes, {f.relative_to(out): f.read_bytes()
                                for f in sorted(out.rglob("*")) if f.is_file()}
    assert runs[True] == runs[False]
    assert {f.parent.name for f in runs[True][1]} == {"solve", "verify", "massbound"}


def test_commands_leave_hashlib_unloaded(tmp_path):
    """Neither `import polaron` nor solve, verify or massbound loads hashlib or
    OpenSSL's `_hashlib`: the embedded configuration alone names a run.  Checked in
    a child interpreter, because pytest imports hashlib itself."""
    cfg, out = write_config(tmp_path / "c.json"), str(tmp_path / "out")
    code = ("import sys, polaron, polaron.cli; "
            "print([polaron.cli.main([c, '--config', sys.argv[1], '--out', sys.argv[2]]) "
            "for c in ('solve', 'verify', 'massbound')]); "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code, cfg, out], check=True,
                          capture_output=True, text=True, env=_child_env())
    codes, loaded = done.stdout.splitlines()
    # SMALL_CONFIG's grids fail some verify rows; every command runs to its table
    assert codes in ("[0, 0, 0]", "[0, 1, 0]") and loaded == "[]"


@pytest.mark.parametrize("first", ["polaron", "scipy.linalg"])
def test_lapack_matches_scipy_linalg(first):
    """polaron's dpttrf/dpttrs from numpy's LAPACK agree bit for bit with
    scipy.linalg.lapack's (the reference; scipy is a test dependency only) at
    n = 1, 2, 5 and 3000 and on a matrix that is not positive definite,
    whichever of the two is imported first, and scipy.linalg still works."""
    second = {"polaron": "scipy.linalg", "scipy.linalg": "polaron"}[first]
    code = (f"import {first}, {second}, numpy as np, polaron.solver as s, scipy.linalg as la\n"
            "rng = np.random.default_rng(3)\n"
            "cases = [(rng.uniform(2.5, 4.0, n), rng.uniform(-1.0, 1.0, max(n - 1, 1)))\n"
            "         for n in (1, 2, 5, 3000)] + [(np.array([1.0, 0.1, 2.0]), np.ones(2))]\n"
            "for d, e in cases:\n"
            "    ours, ref = s.dpttrf(d, e), la.lapack.dpttrf(d, e)\n"
            "    assert all(np.array_equal(a, b) for a, b in zip(ours, ref)), d.size\n"
            "    rhs = rng.normal(size=d.size)\n"
            "    ours, ref = s.dpttrs(*ours[:2], rhs), la.lapack.dpttrs(*ref[:2], rhs)\n"
            "    assert all(np.array_equal(a, b) for a, b in zip(ours, ref)), d.size\n"
            "assert s.dpttrf(*cases[-1])[2] == 2\n"
            "w = la.eigh_tridiagonal(np.full(3, 2.0), np.full(2, -1.0), eigvals_only=True)\n"
            "assert np.allclose(w, 2 - np.sqrt(2) * np.array([1, 0, -1]))\n"
            "print('ok')")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
