import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polaron
import polaron.cli
from polaron.cli import _csv_rows, _fmt, main

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


class TestSolveCommand:
    def test_artifacts_and_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"output.dir": str(tmp_path / "out")})
        assert main(["solve", "--config", cfg]) == 0
        state_doc = json.loads((tmp_path / "out" / "pekar_state.json").read_text())
        assert set(state_doc) == {"config", "config_hash", "state"}
        st = state_doc["state"]
        for key in ("T", "D", "eP", "mu", "iterations", "residual", "grid"):
            assert key in st
        assert st["eP"] == st["T"] - st["D"]
        assert st["eP"] < 0

    def test_profiles_csv_two_tables(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"output.dir": str(tmp_path / "out")})
        main(["solve", "--config", cfg])
        text = (tmp_path / "out" / "profiles.csv").read_text()
        assert text.startswith("# config_hash=")
        assert "r,psi,rho,Phi" in text
        assert "p,psi_hat,dpsi_hat,phi" in text
        blocks = text.split("\n\n")
        assert len(blocks) == 2
        n_rows = len(blocks[0].strip().splitlines()) - 3  # hash, config, header
        assert n_rows == SMALL_CONFIG["grid.n"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["solve", "--config", cfg, "--out", str(tmp_path / "b")])
        for name in ("pekar_state.json", "profiles.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_out_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"output.dir": str(tmp_path / "ignored")})
        main(["solve", "--config", cfg, "--out", str(tmp_path / "used")])
        assert (tmp_path / "used" / "pekar_state.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_convergence_failure_exit3_with_history(self, tmp_path):
        # every command writes the SCF history when the solve fails
        cfg = write_config(tmp_path / "c.json", {"solver.max_iter": 2})
        for command in ("solve", "verify", "massbound"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 3
            history = json.loads((out / "residual_history.json").read_text())
            assert len(history["history"]) == 2
            assert all(set(step) == {"energy", "dpsi", "scf"} for step in history["history"])

    def test_history_shows_the_unconverged_self_consistency(self, tmp_path):
        # at β = 1e-300 energy and ψ stop moving; only the self-consistency
        # residual ‖ρ_out − ρ_in‖/‖ρ_out‖ of each step shows the failure
        cfg = write_config(tmp_path / "c.json", {"solver.mixing": 1e-300})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        history = json.loads((tmp_path / "out" / "residual_history.json").read_text())["history"]
        assert len(history) == 300
        assert history[-1]["dpsi"] <= 1e-8 and history[-1]["scf"] > 1e-8   # solver.tol_psi


@pytest.mark.parametrize("command", ["solve", "verify", "massbound"])
def test_mixing_too_small_to_move_exits_3(tmp_path, capsys, command):
    # ρ_in never moves, so ψ settles on a density it does not reproduce; the
    # self-consistency residual keeps that from passing as converged
    cfg = write_config(tmp_path / "c.json", {"solver.mixing": 1e-300})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "rho_out-rho_in" in err


def test_csv_rows_write_each_value_as_fmt():
    # the profiles.csv writer formats whole rows at once; each field must
    # stay `_fmt` of its value, so the artifact bytes do not change
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 5e-324, 1e-300, -2.5e300, 1 / 3, 1e16, 123456789.0]
    columns = [np.array(special + list(rng.standard_normal(8) * 10.0**k))
               for k in (-200, -5, 0, 200)]
    expected = [",".join(_fmt(c[i]) for c in columns) for i in range(columns[0].size)]
    assert _csv_rows(*columns) == expected


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

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["solve", "--config", str(path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1


class TestVerifyCommand:
    def test_default_config_all_rows_pass(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"output.dir": str(tmp_path / "out")}))
        assert main(["verify", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "out" / "verify.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines[3:]]
        assert rows and all(row[-1] == "true" for row in rows)

    def test_coarse_grid_fails_with_table(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"grid.n": 100,
                                                 "output.dir": str(tmp_path / "out")})
        assert main(["verify", "--config", cfg]) == 1
        lines = (tmp_path / "out" / "verify.csv").read_text().splitlines()
        header = lines[2]
        assert header == "check_name,computed,expected,tolerance,pass"
        rows = [ln.split(",") for ln in lines[3:]]
        assert any(row[-1] == "false" for row in rows)
        names = [row[0] for row in rows]
        assert "Q1-Q2=3" in names
        q_row = rows[names.index("Q1-Q2=3")]
        assert float(q_row[2]) == 3.0


@pytest.mark.parametrize("command", ["verify", "massbound"])
def test_two_node_momentum_grid_exits_cleanly(tmp_path, capsys, command):
    # two momentum nodes resolve nothing: verify's rows and massbound's
    # χ≡1 endpoint (f ≈ 1) both miss their tolerances
    cfg = write_config(tmp_path / "c.json", {"momentum.n": 2,
                                             "output.dir": str(tmp_path / "out")})
    assert main([command, "--config", cfg]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command,code", [("solve", 3), ("verify", 1), ("massbound", 3)])
@pytest.mark.parametrize("n", [2, 3])
def test_one_or_two_interior_radial_nodes_exit_cleanly(tmp_path, capsys, n, command, code):
    # the ground state of one or two interior nodes resolves nothing: verify
    # tabulates the misses, the ψ̂ sign check of solve and massbound raises
    cfg = write_config(tmp_path / "c.json", {"grid.n": n})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) <= 1 and "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,overrides,key", [
    ("solve", {"grid.rmax": 1e-300}, "grid.rmax"),
    ("verify", {"grid.rmax": 1e-300}, "grid.rmax"),
    ("massbound", {"grid.rmax": 1e-300}, "grid.rmax"),
    ("verify", {"momentum.pmax": 1e300}, "momentum.pmax"),
    # a step whose initial profile e^{-r} underflows, and a momentum step below 1e-50
    ("verify", {"grid.n": 2, "grid.rmax": 1e5}, "grid.rmax"),
    ("verify", {"momentum.pmax": 1e-300}, "momentum.pmax"),
])
def test_unrepresentable_scales_exit_2_naming_the_key(tmp_path, capsys, command, overrides, key):
    # these grids once ran into a floating-point fault (exit 3, naming only
    # the numpy operation); validation now rejects them before any work
    cfg = write_config(tmp_path / "c.json", overrides)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
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
    "solver.mixing": st.floats(1e-300, 1.0), "solver.tol_energy": _POSITIVE,
    "solver.tol_psi": _POSITIVE, "solver.max_iter": st.integers(2, 300),
    "cutoff.shape": st.sampled_from(["bump", "gaussian", "one"]),
    "cutoff.eps_list": st.lists(_POSITIVE, min_size=1, max_size=4)
                         .map(lambda e: sorted(set(e), reverse=True)),
})
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.floats(), max_size=3),
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-2, 10),
    st.sampled_from([1e-300, 1e300, -1e300, 0.0, -1.0, [], [0.1, 0.1], [0.2, float("nan")]]),
)
_KEYS = ["grid.n", "grid.rmax", "momentum.n", "momentum.pmax", "solver.mixing",
         "solver.tol_energy", "solver.tol_psi", "solver.max_iter", "cutoff.shape",
         "cutoff.eps_list", "output.dir", "grid.npts", ""]
# a valid document, or one with a single key replaced by junk (or an unknown key)
_CONFIG_DOCS = _VALID_DOCS | st.builds(lambda doc, key, val: {**doc, key: val},
                                       _VALID_DOCS, st.sampled_from(_KEYS), _JUNK)


@pytest.mark.filterwarnings("error::RuntimeWarning")
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
        cfg = write_config(tmp_path / "c.json", {"output.dir": str(tmp_path / "out")})
        assert main(["massbound", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "massbound.csv").read_text().splitlines()
        assert lines[2] == "eps,R,Q1,Q2,f,m_lower"
        rows = [ln.split(",") for ln in lines[3:]]
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
    """Neither `import polaron` nor a first transform call pulls in
    scipy.interpolate or scipy.signal, which would each add most of a second
    to every interpreter start (a lazy import only moves it to the first call)."""
    code = ("import sys, polaron; "
            "g = polaron.build_grid(20, 5.0); "
            "polaron.fourier_radial_gradient(polaron.RadialFunction(g, g.nodes), g); "
            "print(sorted(m for m in ('scipy.interpolate', 'scipy.signal') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, env=_child_env())
    assert done.stdout.strip() == "[]"
