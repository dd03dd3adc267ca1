import importlib
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reachset
from reachset.cli import build_parser, main
from reachset.chloroform import CHLOROFORM, synthesize_trajectories
from reachset.over_approx import _sphere_objective_data
from reachset.pauli import CoherenceVector
from reachset.sequences import pps_direction
from reachset.serialize import (
    dump_json,
    load_json,
    read_trajectory_csv,
    write_trajectory_csv,
)


BENCH = Path(__file__).resolve().parent.parent / "bench"


def run(*argv):
    return main(list(argv))


def _child(argv, cwd, timeout=60, env_update=None):
    """Run `python argv...` in a fresh interpreter that imports this reachset.

    `env_update` sets variables in the child's environment; a value of None
    removes the variable.
    """
    src = os.path.dirname(os.path.dirname(reachset.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    for var, value in (env_update or {}).items():
        if value is None:
            env.pop(var, None)
        else:
            env[var] = value
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")


def test_bound_preset(tmp_path):
    out = tmp_path / "bound.json"
    assert run("bound", "--preset", "chloroform", "--out", str(out)) == 0
    payload = load_json(out)
    assert payload["radius_sq"] == pytest.approx(18.673, abs=0.01)
    assert payload["residual"] < 1e-10
    assert len(payload["argmax"]) == 15
    meta = load_json(str(out) + ".meta.json")
    assert meta["command"] == "bound"
    assert meta["version"]


def test_bound_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("bound", "--preset", "chloroform", "--out", str(a))
    run("bound", "--preset", "chloroform", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_bound_from_generator_file(tmp_path, chloroform_gen):
    gen_path = tmp_path / "gen.json"
    dump_json(chloroform_gen.to_json_dict(), gen_path)
    out = tmp_path / "bound.json"
    assert run("bound", "--gen", str(gen_path), "--out", str(out)) == 0
    assert load_json(out)["radius_sq"] == pytest.approx(18.673, abs=0.01)


def test_bound_epsilon_scaling(tmp_path):
    # polarizations are in units of eps, so radius_sq scales as eps^2
    out = tmp_path / "bound.json"
    for eps in ("2.0", "1e20"):
        assert run("bound", "--preset", "chloroform", "--epsilon", eps,
                   "--out", str(out)) == 0, eps
        assert load_json(out)["radius_sq"] == pytest.approx(
            float(eps) ** 2 * 18.673231648061478, rel=1e-14), eps


def test_noe_command(tmp_path):
    out = tmp_path / "noe.json"
    assert run("noe", "--preset", "chloroform", "--saturate", "C",
               "--out", str(out)) == 0
    payload = load_json(out)
    np.testing.assert_allclose(payload["x"], [0.0, 4.2309, 0.0], atol=1e-3)
    assert payload["labels"] == ["ZI", "IZ", "ZZ"]


def test_unitary_bound_command(tmp_path):
    out = tmp_path / "poly.json"
    assert run("unitary-bound", "--preset", "chloroform", "--target", "pps",
               "--out", str(out)) == 0
    payload = load_json(out)
    assert payload["kappa_max"] == pytest.approx(20 / 3, abs=1e-9)
    assert len(payload["vertices_spectrum"]) == 24
    assert payload["ray_exit_radius"] == pytest.approx(5 / np.sqrt(3), abs=1e-6)


def test_simulate_command(tmp_path):
    out = tmp_path / "traj.csv"
    assert run("simulate", "--preset", "chloroform", "--seq", "pps",
               "--tau", "1.5", "--m", "40", "--out", str(out)) == 0
    with open(out) as fh:
        header = fh.readline().strip().split(",")
        rows = fh.read().strip().splitlines()
    assert header[0] == "t" and header[-2:] == ["eta", "theta"]
    assert len(rows) == 40
    meta = load_json(str(out) + ".meta.json")
    assert meta["fixed_point_eta"] == pytest.approx(7.905, abs=0.01)


def test_stlc_command(tmp_path):
    out = tmp_path / "stlc.csv"
    assert run("stlc", "--preset", "chloroform", "--rays", "fibonacci:8",
               "--tol", "1e-2", "--out", str(out)) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (8, 4)
    radii = data[:, 3]
    assert np.all(radii > 0)
    assert np.all(radii ** 2 <= 18.673 * (1 + 1e-6))


def test_stlc_region_filter(tmp_path):
    out = tmp_path / "stlc.csv"
    assert run("stlc", "--preset", "chloroform", "--rays", "fibonacci:128",
               "--tol", "2e-2", "--region", "wedge", "--out", str(out)) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert len(data) >= 1  # the ordered wedge covers 1/48 of the sphere
    for row in data:
        p = row[3] * row[:3]
        assert 0.0 <= p[2] + 1e-12
        assert p[2] <= p[0] + 1e-12 and p[0] <= p[1] + 1e-12


def test_fit_command(tmp_path):
    times = np.linspace(0.0, 40.0, 30)
    starts = [np.array([-1.0, 4.0, 0.0]), np.array([1.0, -4.0, 0.0]),
              np.array([0.0, 0.0, 3.0])]
    trajs = synthesize_trajectories(CHLOROFORM, "population", starts, times)
    paths = []
    for i, traj in enumerate(trajs):
        p = tmp_path / f"traj{i}.csv"
        write_trajectory_csv(p, traj)
        paths.append(str(p))
    out = tmp_path / "rates.json"
    argv = ["fit", "--block", "population", "--out", str(out)]
    for p in paths:
        argv += ["--traj", p]
    assert run(*argv) == 0
    fitted = load_json(out)
    np.testing.assert_allclose(
        fitted["r"][:6], CHLOROFORM.rates_array()[:6], atol=1e-6
    )
    meta = load_json(str(out) + ".meta.json")
    assert meta["rms_residual"] < 1e-7


def test_robustness_command(tmp_path):
    out = tmp_path / "delta.csv"
    # the = form keeps argparse from reading the leading minus as a flag
    assert run("robustness", "--preset", "chloroform",
               "--grid=-0.05:0.05:3", "--out", str(out)) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (9, 3)
    assert np.nanmax(data[:, 2]) <= 0.1
    meta = load_json(str(out) + ".meta.json")
    assert meta["max_delta"] <= 0.1


@pytest.mark.parametrize("command, epsilons", [
    ("simulate", ["1e160", "1e-200"]),
    ("robustness", ["1e200", "1e-160", "1e-200"]),
])
def test_protocol_outputs_scale_free_in_epsilon(tmp_path, command, epsilons):
    # polarizations are in units of eps, so theta* and each period's theta,
    # and each cell's delta, are those of eps = 1.  theta* once printed
    # 1.5708 at 1e160 and 0.0000 at 1e-200; delta was NaN at 1e200, 0 at
    # 1e-160 and refused with exit 2 at 1e-200
    def outputs(eps):
        out = tmp_path / f"{command}_{eps}.csv"
        proc = _child(["-m", "reachset.cli", command, "--preset", "chloroform",
                       "--epsilon", eps, "--out", str(out)], cwd=tmp_path)
        assert proc.returncode == 0, (eps, proc.stderr)
        meta = load_json(str(out) + ".meta.json")
        last = np.loadtxt(out, delimiter=",", skiprows=1)[:, -1]  # theta or delta
        assert np.isfinite(last).all(), eps
        return meta["fixed_point_theta" if command == "simulate" else "max_delta"], last

    base, column = outputs("1")
    assert base == pytest.approx(0.0558 if command == "simulate" else 6.78e-4, rel=1e-3)
    for eps in epsilons:
        value, last = outputs(eps)
        assert value == pytest.approx(base, rel=1e-9), eps
        np.testing.assert_allclose(last, column, rtol=1e-9, atol=1e-12, err_msg=eps)


def test_simulate_rejects_eta_outside_float_range(tmp_path, capsys):
    # at eps = 4e307 eta* (7.9 eps) and each period's eta exceed the largest
    # float: the run once printed "eta* = inf", wrote inf into the CSV's eta
    # column and exited 0
    out = tmp_path / "traj.csv"
    assert run("simulate", "--preset", "chloroform", "--epsilon", "4e307", "--m", "3",
               "--out", str(out)) == 2
    assert "outside the normal float range" in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.meta.json").exists()


def test_figure1_command(tmp_path):
    out_dir = tmp_path / "fig"
    assert run("figure1", "--preset", "chloroform", "--rays", "6",
               "--tol", "1e-2", "--m", "30", "--out-dir", str(out_dir)) == 0
    for name in ("sphere.json", "stlc_boundary.csv", "polytope_vertices.csv",
                 "pps_trajectory.csv", "noe_trajectory.csv", "noe.json"):
        assert (out_dir / name).exists()
    sphere = load_json(out_dir / "sphere.json")
    assert sphere["radius_sq"] == pytest.approx(18.673, abs=0.01)


def test_validation_exit_codes(tmp_path, chloroform_gen):
    assert run("bound", "--out", str(tmp_path / "x.json")) == 2
    assert run("fit", "--block", "bogus", "--traj", "missing.csv",
               "--out", str(tmp_path / "r.json")) == 2
    assert run("bound", "--gen", "no-such-file.json",
               "--out", str(tmp_path / "y.json")) == 2
    rays = tmp_path / "rays.csv"
    rays.write_text("0,0,1\n0,0,0\n")  # a zero row has no direction
    assert run("stlc", "--preset", "chloroform", "--rays", str(rays),
               "--out", str(tmp_path / "s.csv")) == 2
    assert run("stlc", "--preset", "chloroform", "--rays", "fibonacci:abc",
               "--out", str(tmp_path / "f.csv")) == 2
    # the free equilibrium is a boundary point: a numerical verdict, exit 3
    assert run("stlc", "--preset", "chloroform", "--origin", "eq",
               "--rays", "fibonacci:2", "--out", str(tmp_path / "e.csv")) == 3
    # a NaN, a non-number and a short row in a trajectory CSV
    for bad_row in ("1,nan,4,0", "1,abc,4,0", "1,4,0"):
        traj = tmp_path / "bad.csv"
        traj.write_text(f"t,ZI,IZ,ZZ\n0,1,4,0\n{bad_row}\n2,1,4,0\n")
        rates = tmp_path / "rates.json"
        assert run("fit", "--block", "population", "--traj", str(traj),
                   "--out", str(rates)) == 2
        assert not rates.exists()
    # initial rates that are not finite, or whose model overflows on the data
    good = tmp_path / "good.csv"
    good.write_text("t,ZI,IZ,ZZ\n0,1,4,0\n20,1,4,0\n40,1,4,0\n")
    for r1 in (float("nan"), -30.0):
        init = CHLOROFORM.to_json_dict()
        init["r"][0] = r1
        dump_json(init, tmp_path / "init.json")
        assert run("fit", "--block", "population", "--traj", str(good),
                   "--init", str(tmp_path / "init.json"),
                   "--out", str(rates)) == 2
        assert not rates.exists()
    # an empty grid, a non-finite bound, and a cell whose BB1 angles overflow
    for grid in ("-0.05:0.05:0", "nan:0.05:3", "0:1e308:2"):
        delta = tmp_path / "delta.csv"
        assert run("robustness", "--preset", "chloroform", f"--grid={grid}",
                   "--out", str(delta)) == 2
        assert not delta.exists()
    # a bisection tolerance that is not finite and positive
    for tol in ("nan", "-1"):
        stlc = tmp_path / "tol.csv"
        assert run("stlc", "--preset", "chloroform", "--rays", "fibonacci:1",
                   "--tol", tol, "--out", str(stlc)) == 2
        assert not stlc.exists()
    # tracing is serial: there is no worker count to set
    for command in ("stlc", "figure1"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--workers", "2"])
    fig = tmp_path / "fig"
    assert run("figure1", "--preset", "chloroform", "--tol", "nan",
               "--out-dir", str(fig)) == 2
    # a NOE trajectory of non-finite or negative length
    for duration in ("nan", "inf", "-1"):
        assert run("figure1", "--preset", "chloroform", "--rays", "1",
                   "--noe-duration", duration, "--out-dir", str(fig)) == 2
    # a preparation sequence with no periods, or a negative relaxation time
    for bad in (["--m", "0"], ["--tau", "-1"]):
        assert run("figure1", "--preset", "chloroform", "--rays", "2", *bad,
                   "--out-dir", str(fig)) == 2
    assert not fig.exists()
    # a target coherence vector with a NaN entry
    target = tmp_path / "t.json"
    target.write_text('{"n": 2, "r": [NaN' + ", 0.25" * 14 + "]}")
    poly = tmp_path / "poly.json"
    assert run("unitary-bound", "--preset", "chloroform", "--target", str(target),
               "--out", str(poly)) == 2
    assert not poly.exists()
    # JSON that is malformed, is not an object, or lacks a key; a trajectory
    # CSV that repeats a label
    no_h = chloroform_gen.to_json_dict()
    del no_h["H"]
    inputs = {"no_r.json": '{"n": 2}', "truncated.json": '{"n": 2, "H": [[0.0',
              "no_h.json": json.dumps(no_h), "list.json": "[1, 2]",
              "init.json": '{"J_hz": 214.5}', "gen.csv": "t,ZI,IZ,ZZ\n0,1,4,0\n",
              "twice.csv": "t,ZI,ZI,IZ,ZZ\n0,1,1,4,0\n20,1,1,4,0\n40,1,1,4,0\n"}
    # a qubit count that is not an integer in [1, 4] (10**9 once spent 13 s
    # on 4**n), and fields that hold no numbers or ragged rows
    fit = ["fit", "--block", "population", "--traj", str(good), "--init"]
    commands = {"gen": ["bound", "--gen"], "init": fit,
                "target": ["unitary-bound", "--preset", "chloroform", "--target"]}
    gen, init = chloroform_gen.to_json_dict(), CHLOROFORM.to_json_dict()
    vector = {"n": 2, "r": [0.25] * 15}
    fields = [("gen", gen, "n", n) for n in (2.5, "two", None, 10 ** 9)]
    fields += [("target", vector, "n", n) for n in (2.5, "two", None, 10 ** 9)]
    fields += [("gen", gen, "H", "abc"), ("gen", gen, "H", [[0.0] * 15] * 14 + [[0.0]]),
               ("target", vector, "r", "abc"),
               ("target", vector, "r", [0.25] * 14 + [[0.25]]),
               ("init", init, "r", 5), ("init", init, "r", ["x"] * 14),
               ("init", init, "J_hz", "abc"), ("init", init, "eps_C", "x"),
               ("init", init, "J_hz", True), ("gen", gen, "r_eq", [False] * 15),
               ("gen", gen, "H", [[True] * 15] * 15)]
    bad_fields = []
    for i, (command, good_json, key, value) in enumerate(fields):
        inputs[f"field{i}.json"] = json.dumps({**good_json, key: value})
        bad_fields.append([*commands[command], str(tmp_path / f"field{i}.json")])
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    d = str(tmp_path)
    for argv in (
        ["unitary-bound", "--preset", "chloroform", "--target", f"{d}/no_r.json"],
        ["bound", "--gen", f"{d}/truncated.json"],
        ["bound", "--gen", f"{d}/no_h.json"],
        ["bound", "--gen", f"{d}/list.json"],
        ["fit", "--block", "population", "--traj", str(good),
         "--init", f"{d}/init.json"],
        ["bound", "--gen", f"{d}/gen.csv"],
        ["fit", "--block", "population", "--traj", f"{d}/twice.csv"],
        *bad_fields,
    ):
        out = tmp_path / "out.json"
        assert run(*argv, "--out", str(out)) == 2, argv
        assert not out.exists()
    # a fit from no start at all
    assert run("fit", "--block", "population", "--traj", str(good), "--starts", "0",
               "--out", str(rates)) == 2
    assert not rates.exists()
    # a negative seed, which numpy's generator refuses with a raw ValueError
    assert run("fit", "--block", "population", "--traj", str(good), "--seed", "-1",
               "--out", str(rates)) == 2
    assert not rates.exists()


def test_file_errors_exit_2(tmp_path, chloroform_gen):
    # a missing file, a directory in a file's place, a missing output
    # directory and an empty file end in exit 2 with no output, no traceback
    # and no warning
    d = tmp_path
    gen = d / "gen.json"
    dump_json(chloroform_gen.to_json_dict(), gen)
    (d / "empty.csv").write_text("")
    (d / "blank.csv").write_text("\n# no rows\n")
    (d / "bytes.csv").write_bytes(b"t,ZI,IZ,ZZ\n0,1,4,0\n\xff,1,4,0\n")
    preset = ["--preset", "chloroform"]
    out = d / "out"
    for argv in (
        ["fit", "--block", "population", "--traj", str(d / "missing.csv")],
        ["fit", "--block", "population", "--traj", str(d / "empty.csv")],
        ["fit", "--block", "population", "--traj", str(d)],
        ["fit", "--block", "population", "--traj", str(d / "bytes.csv")],
        ["bound", "--gen", str(d)],
        ["unitary-bound", *preset, "--target", str(d)],
        ["stlc", *preset, "--rays", str(d)],
        ["stlc", *preset, "--rays", str(d / "empty.csv")],
        ["stlc", *preset, "--rays", str(d / "blank.csv")],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, "--out", str(out)) == 2, argv
        assert not out.exists()
    for argv in (["bound", "--gen", str(gen)], ["noe", *preset]):
        missing = d / "no-such-dir" / "out.json"
        assert run(*argv, "--out", str(missing)) == 2
    assert not (d / "no-such-dir").exists()
    assert run("figure1", *preset, "--rays", "1", "--m", "1",
               "--out-dir", str(gen)) == 2


def test_generator_sources_exclusive(tmp_path, chloroform_gen):
    # --gen with --preset, or --epsilon without --preset, is refused
    gen = tmp_path / "gen.json"
    dump_json(chloroform_gen.to_json_dict(), gen)
    out = tmp_path / "bound.json"
    for argv in (["--gen", str(gen), "--preset", "chloroform"],
                 ["--gen", str(gen), "--preset", "chloroform", "--epsilon", "3"],
                 ["--gen", str(gen), "--epsilon", "3"],
                 ["--epsilon", "3"]):
        assert run("bound", *argv, "--out", str(out)) == 2, argv
        assert not out.exists()
    parser = build_parser()
    assert parser.parse_args(["bound"]).epsilon is None
    # the two removed options: bound --no-certify and figure1 --out
    with pytest.raises(SystemExit):
        parser.parse_args(["bound", "--no-certify"])
    assert "out" not in vars(parser.parse_args(["figure1"]))


def test_abbreviated_options_rejected():
    # an option parses only when spelled in full, so a prefix (or the old
    # spelling of a removed option) cannot stand for a longer one
    parser = build_parser()
    for argv in (["figure1", "--out", "x"], ["noe", "--sat", "H"],
                 ["simulate", "--rec", "7"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2, argv
    assert parser.parse_args(["robustness", "--grid=-0.1:0.1:3"]).grid == "-0.1:0.1:3"


def _population_traj_args(tmp_path):
    """--traj options of two noiseless population trajectories written to tmp_path."""
    trajs = synthesize_trajectories(
        CHLOROFORM, "population", [np.array([-1.0, 4.0, 0.0]), np.array([0, 0, 3.0])],
        np.linspace(0.0, 40.0, 10))
    traj_args = []
    for k, traj in enumerate(trajs):
        write_trajectory_csv(tmp_path / f"traj{k}.csv", traj)
        traj_args += ["--traj", str(tmp_path / f"traj{k}.csv")]
    return traj_args


def test_sidecar_contract(tmp_path, chloroform_gen, monkeypatch):
    # every subcommand writes <out>.meta.json (figure1: <out-dir>/figure1)
    # with version, command, options and a finite elapsed_s; a rejected
    # invocation writes neither output nor sidecar
    traj_args = _population_traj_args(tmp_path)
    gen = tmp_path / "gen.json"
    dump_json(chloroform_gen.to_json_dict(), gen)
    preset = ["--preset", "chloroform"]
    commands = {
        "bound": ["--out", "{}.json"],
        "stlc": ["--rays", "fibonacci:2", "--tol", "5e-2", "--out", "{}.csv"],
        "unitary-bound": ["--out", "{}.json"],
        "simulate": ["--m", "3", "--out", "{}.csv"],
        "noe": ["--out", "{}.json"],
        "robustness": ["--grid=0:0:1", "--out", "{}.csv"],
        "figure1": ["--rays", "2", "--tol", "5e-2", "--m", "3", "--out-dir", "{}"],
    }
    for command, opts in commands.items():
        for kind, source in (("ok", preset), ("bad", ["--gen", str(gen), *preset])):
            base = tmp_path / f"{command}_{kind}"
            argv = [command, *source, *[o.format(base) for o in opts]]
            if command == "figure1":
                out, sidecar = base, base / "figure1.meta.json"
            else:
                out = Path(argv[-1])
                sidecar = Path(f"{out}.meta.json")
            if kind == "bad":
                assert run(*argv) == 2
                assert not out.exists() and not sidecar.exists()
                continue
            assert run(*argv) == 0
            meta = load_json(sidecar)
            assert meta["version"] == reachset.__version__
            assert meta["command"] == command
            assert meta["options"]["preset"] == "chloroform"
            assert not {"func", "takes_gen", "command"} & set(meta["options"])
            assert np.isfinite(meta["elapsed_s"]) and meta["elapsed_s"] >= 0
            env = meta["environment"]
            assert env["python"] == platform.python_version()
            assert env["numpy"] == np.__version__
            assert env["scipy"] == scipy.__version__  # this process imported it
            assert {v: env[v] for v in _THREAD_VARS} == {
                v: os.environ.get(v) for v in _THREAD_VARS}
            if command in ("bound", "figure1"):  # the sphere oracle's agreement
                assert 0.0 <= meta["oracle_rel_gap"] <= 1e-6
            if command in ("simulate", "robustness"):  # the bound that certified x*
                assert 0.0 < meta["contraction_bound"] < 1.0
            if command == "simulate":
                assert 0.0 < meta["spectral_radius"] <= meta["contraction_bound"]
            if command == "robustness":
                assert 1.0 <= meta["cond_bound"] <= 1e12
                assert not {"failed_cells", "max_spectral_radius", "max_cond"} & set(meta)
            if command in ("simulate", "robustness", "figure1"):  # how e^(At) was formed
                assert meta["propagator"] == "eig"
                assert meta["eigvec_cond"] == pytest.approx(1.1935, abs=1e-4)
    # a numerical failure, too, leaves neither output nor sidecar; the
    # figure1 run's e^(At) is patched to NaN, which the propagator refuses
    failures = (
        (3, ["simulate", "--tau", "0", "--m", "3"], False),
        (3, ["simulate", "--tau", "1e-300", "--m", "3"], False),
        (2, ["figure1", "--tau", "1e300", "--rays", "2", "--tol", "5e-2", "--m", "3"], True),
    )
    for k, (code, argv, nan_modes) in enumerate(failures):
        out = tmp_path / f"failed{k}"
        flag = "--out-dir" if argv[0] == "figure1" else "--out"
        with monkeypatch.context() as patch:
            if nan_modes:
                patch.setattr(reachset.dynamics, "_exp_modes", _nan_modes)
            assert run(*argv, *preset, flag, str(out)) == code, argv
        assert not out.exists() and not Path(f"{out}.meta.json").exists()
    fit = ["fit", "--block", "population", "--starts", "1"]
    out = tmp_path / "rates.json"
    assert run(*fit, *traj_args, "--out", str(out)) == 0
    meta = load_json(f"{out}.meta.json")
    assert meta["command"] == "fit" and np.isfinite(meta["elapsed_s"])
    assert meta["options"]["traj"] == traj_args[1::2]
    assert meta["environment"]["scipy"] == scipy.__version__
    # a run that never loads scipy records null, and does not import it to ask
    out = tmp_path / "noe_fresh.json"
    proc = _child(["-m", "reachset.cli", "noe", "--preset", "chloroform",
                   "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert load_json(f"{out}.meta.json")["environment"]["scipy"] is None
    out = tmp_path / "rates_bad.json"
    assert run(*fit, "--traj", str(tmp_path / "missing.csv"), "--out", str(out)) == 2
    assert not out.exists() and not Path(f"{out}.meta.json").exists()


def _nan_modes(w, t):
    """A stand-in for dynamics._exp_modes whose every mode is NaN."""
    return np.full(np.shape(np.multiply.outer(t, w)), np.nan)


def test_nonfinite_propagator_exits_2(tmp_path, capsys, monkeypatch):
    # a NaN e^(At) is an error naming the relaxation time, exit 2 and no
    # output, not a LinAlgError traceback or NaN rows
    monkeypatch.setattr(reachset.dynamics, "_exp_modes", _nan_modes)
    for argv in (["robustness", "--grid=0:0:1"], ["simulate", "--m", "3"]):
        out = tmp_path / "out.csv"
        assert run(*argv, "--preset", "chloroform", "--out", str(out)) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: relaxation time 1.5 s is too long"), err
        assert not out.exists() and not Path(f"{out}.meta.json").exists()


def test_overflowing_modes_exit_2_without_warnings(tmp_path, capsys, chloroform_gen):
    # couplings 1e200 times the bundled ones over rates 1e-200 times: the
    # eigenvalues' rounding, about u |A|, outweighs the rates and a mode
    # grows past the float range; E is refused, with no warning on the way
    gen = chloroform_gen.to_json_dict()
    gen["H"] = [[1e200 * x for x in row] for row in gen["H"]]
    gen["R"] = [[1e-200 * x for x in row] for row in gen["R"]]
    path, out = tmp_path / "gen.json", tmp_path / "out.csv"
    dump_json(gen, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("simulate", "--gen", str(path), "--m", "3", "--out", str(out)) == 2
    assert "e^(At) is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_long_relaxation_reaches_the_fixed_point(tmp_path, chloroform_gen):
    # at tau = 1e300 scipy's expm gave NaN (exit 2); e^(At) is 0 there, the
    # tau -> infinity limit of a contracting drift, so every period ends on
    # the gate's image of the free fixed point
    sim, rob = tmp_path / "traj.csv", tmp_path / "delta.csv"
    preset = ["--preset", "chloroform", "--tau", "1e300"]
    assert run("simulate", *preset, "--m", "3", "--out", str(sim)) == 0
    assert run("robustness", *preset, "--grid=0.05:0.05:1", "--out", str(rob)) == 0
    rows = np.loadtxt(sim, delimiter=",", skiprows=1)
    assert np.isfinite(rows).all()
    np.testing.assert_array_equal(rows[:, 0], [1e300, 2e300, 3e300])
    names = reachset.build_basis(2).labels[1:]
    cols = [names.index(lab) for lab in sorted(names)]
    limit = reachset.unitary_rep(reachset.averaging_permutation()) @ chloroform_gen.fixed_point
    for row in rows:
        np.testing.assert_allclose(row[1:16], limit[cols], rtol=1e-14, atol=0)
    # the sweep's one cell: the 5%-off gate's image against the ideal one
    off = np.full(1, 0.05)
    gate = reachset.pps_pulse_sequence_builder(1e300)(off, off).steps[1]
    cell = gate.rep[0] @ chloroform_gen.fixed_point
    want = np.linalg.norm(cell - limit) / np.linalg.norm(limit)
    assert want > 1e-4
    assert np.loadtxt(rob, delimiter=",", skiprows=1)[2] == pytest.approx(want, rel=1e-12)


def test_every_finite_relaxation_time_runs(tmp_path, capsys):
    # e^(At) is finite for every finite tau: a mode that underflows is 0
    # whatever its phase, also where w tau overflows in its imaginary part
    # and e^(w tau) alone is NaN (tau = 1e306 and 1e307)
    out = tmp_path / "out.csv"
    for tau in [10.0 ** k for k in range(309)] + [1.7e308]:
        for argv in (["simulate", "--m", "1"], ["robustness", "--grid=0:0:1"]):
            assert run(*argv, "--preset", "chloroform", "--tau", repr(tau),
                       "--out", str(out)) == 0, (tau, argv)
            assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()
    capsys.readouterr()
    # three such periods overflow the time axis: refused, not written as inf
    assert run("simulate", "--preset", "chloroform", "--tau", "1.7e308", "--m", "3",
               "--out", str(out.with_name("inf.csv"))) == 2
    assert "overflow the time axis" in capsys.readouterr().err
    assert not out.with_name("inf.csv").exists()


def test_sphere_certification_failure_exits_3(tmp_path, capsys, monkeypatch):
    # an oracle 1e-3 off the secular solution is a numerical failure, not
    # bad input: exit 3 and no output
    oracle = reachset.over_approx.max_purity_multistart

    def off_oracle(c, M):
        val, r = oracle(c, M)
        return val * (1.0 + 1e-3), r

    monkeypatch.setattr(reachset.over_approx, "max_purity_multistart", off_oracle)
    out = tmp_path / "bound.json"
    assert run("bound", "--preset", "chloroform", "--out", str(out)) == 3
    assert capsys.readouterr().err.startswith("numerical failure: secular solution")
    assert not out.exists() and not Path(f"{out}.meta.json").exists()


@pytest.mark.parametrize("scale", [1e-300, 1e200])
def test_sphere_rejects_r_eq_outside_float_range(tmp_path, capsys, chloroform_gen,
                                                  scale):
    # radius_sq scales as |r_eq|^2: at these scales it underflows or
    # overflows, which once wrote a NaN multiplier or ended in a LinAlgError
    gen = chloroform_gen.to_json_dict()
    gen["r_eq"] = [scale * x for x in gen["r_eq"]]
    path = tmp_path / "gen.json"
    dump_json(gen, path)
    bound, fig = tmp_path / "bound.json", tmp_path / "fig"
    for argv in (["bound", "--out", str(bound)],
                 ["figure1", "--rays", "2", "--tol", "5e-2", "--m", "3",
                  "--out-dir", str(fig)]):
        assert run(*argv, "--gen", str(path)) == 2, argv
        assert "outside the normal float range" in capsys.readouterr().err
    assert not bound.exists() and not Path(f"{bound}.meta.json").exists()
    assert not fig.exists()


@pytest.mark.parametrize("scale", [1e100, 1e160, 1e200, 1e-60, 2.0 ** -200],
                         ids=["1e100", "1e160", "1e200", "1e-60", "2^-200"])
def test_stlc_bytes_scale_free_in_R(tmp_path, chloroform_gen, scale):
    # scaling R leaves the STLC set alone; R * 1e100 and above once exited 2
    # (the cone test's products overflowed), R * 1e-60 and R * 2^-200 exit 3
    # (the absolute rank floor failed the origin)
    outs = []
    for s in (1.0, scale):
        gen = chloroform_gen.to_json_dict()
        gen["R"] = [[s * x for x in row] for row in gen["R"]]
        path, out = tmp_path / f"gen{len(outs)}.json", tmp_path / f"stlc{len(outs)}.csv"
        dump_json(gen, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("stlc", "--gen", str(path), "--rays", "fibonacci:4",
                       "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[1] == outs[0]


def test_stlc_ray_csv_rows_of_any_scale(tmp_path, capsys):
    # a row's norm once over- or underflowed, refusing 1e200,0,0 and
    # 0,1e-200,0 as not unit; a zero or non-finite row still has no direction
    csvs = {"unit": "1,0,0\n0,1,0\n", "scaled": "1e200,0,0\n0,1e-200,0\n"}
    outs = {}
    for name, text in csvs.items():
        rays, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.out.csv"
        rays.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("stlc", "--preset", "chloroform", "--rays", str(rays),
                       "--tol", "5e-2", "--out", str(out)) == 0
        outs[name] = out.read_bytes()
    assert outs["scaled"] == outs["unit"]
    for bad in ("0,0,0", "inf,0,0", "1e200,nan,0"):
        rays = tmp_path / "bad.csv"
        rays.write_text(f"1,0,0\n{bad}\n")
        assert run("stlc", "--preset", "chloroform", "--rays", str(rays),
                   "--out", str(tmp_path / "bad.out.csv")) == 2
        assert "unit norm" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_unitary_bound_target_of_any_scale(tmp_path, scale):
    # a target scaled by 1e200 once overflowed its norm (RuntimeWarnings,
    # exit 2), and one scaled by 1e-200 was refused as zero
    target = CoherenceVector(n=2, r=scale * pps_direction().r)
    path, out = tmp_path / "t.json", tmp_path / "poly.json"
    dump_json(target.to_json_dict(), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("unitary-bound", "--preset", "chloroform", "--target", str(path),
                   "--out", str(out)) == 0
    payload = load_json(out)
    assert payload["kappa_max"] == pytest.approx(20 / 3 / scale, rel=1e-14)
    assert payload["ray_exit_radius"] == pytest.approx(5 / np.sqrt(3), rel=1e-14)


@pytest.mark.parametrize("tilt", [1e-10, 1e-12])
def test_bound_near_the_hard_case(tmp_path, tilt):
    # the slowest relaxation mode tilted just off r_eq's complement: the
    # linear term along the top eigenspace all but vanishes
    s, co = np.sin(tilt), np.cos(tilt)
    q = np.array([[co, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, co]])
    R = (q * [0.1, 1.0, 2.0]) @ q.T
    R = 0.5 * (R + R.T)
    r_eq = np.array([0.0, 0.0, 1.0])
    path = tmp_path / "gen.json"
    dump_json({"n": 1, "H": np.zeros((3, 3)).tolist(), "R": R.tolist(),
               "r_eq": r_eq.tolist()}, path)
    out = tmp_path / "bound.json"
    assert run("bound", "--gen", str(path), "--out", str(out)) == 0
    oracle, _ = reachset.max_purity_multistart(*_sphere_objective_data(R, r_eq))
    assert load_json(out)["radius_sq"] == pytest.approx(oracle, abs=1e-12)


def test_input_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch):
    # a grid of 10^6 points per axis once asked numpy for terabytes and
    # ended in a raw MemoryError traceback; the sweep is patched to fail
    # the same way without allocating
    def sweep(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(reachset.cli, "robustness_sweep", sweep)
    out = tmp_path / "out.csv"
    assert run("robustness", "--preset", "chloroform", "--grid=0:0.01:1000000",
               "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: input too large")
    assert not out.exists() and not Path(f"{out}.meta.json").exists()


def test_stlc_tol_below_ulp_ends(tmp_path):
    # a tol below the radius' ulp once bisected forever; the child process
    # and its timeout make a hang fail the test instead of stalling the suite
    radii = {}
    for tol in ("1e-17", "1e-3"):
        out = tmp_path / f"stlc_{tol}.csv"
        proc = _child(["-m", "reachset.cli", "stlc", "--preset", "chloroform",
                       "--rays", "fibonacci:1", "--tol", tol, "--out", str(out)],
                      tmp_path)
        assert proc.returncode == 0, proc.stderr
        radii[tol] = np.loadtxt(out, delimiter=",", skiprows=1)[3]
    # the finer bisection continues the coarser one's bracket
    assert 0.0 <= radii["1e-17"] - radii["1e-3"] <= 1e-3


_SCIPY_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import reachset
loaded = {"import reachset": scipy_modules(),
          "numpy after import reachset": "numpy" in sys.modules}
import reachset.cli
loaded["import reachset.cli"] = scipy_modules()
for argv in json.loads(sys.argv[1]):
    code = reachset.cli.main(argv)
    loaded[" ".join(argv)] = [code, scipy_modules()]
print(json.dumps(loaded))
"""


def _scipy_loaded(tmp_path, *argvs):
    """{step: scipy modules} after the imports and each main(argv), in one fresh process."""
    proc = _child(["-c", _SCIPY_PROBE, json.dumps(argvs)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_loaded_only_where_called(tmp_path, chloroform_gen):
    # scipy is imported inside the functions that call it: importing the
    # package and every command, on the bundled model, load no scipy module
    # (the propagator takes expm only past its conditioning guard);
    # importing the package loads no numpy either
    gen = chloroform_gen.to_json_dict()
    gen["r_eq"][0] = float("inf")
    dump_json(gen, tmp_path / "inf.json")
    preset = ["--preset", "chloroform"]
    scipy_free = [
        ["noe", *preset, "--saturate", "C", "--out", "noe.json"],
        ["unitary-bound", *preset, "--target", "pps", "--out", "polytope.json"],
        ["stlc", *preset, "--rays", "fibonacci:2", "--tol", "5e-2", "--out", "stlc.csv"],
        ["bound", *preset, "--out", "bound.json"],
        ["simulate", *preset, "--m", "3", "--out", "sim.csv"],
        ["robustness", *preset, "--grid=0:0:1", "--out", "delta.csv"],
        ["figure1", *preset, "--rays", "2", "--tol", "5e-2", "--m", "3", "--out-dir", "fig"],
        ["bound", "--gen", "inf.json", "--out", "bound_inf.json"],
        ["simulate", "--gen", "inf.json", "--m", "3", "--out", "sim_inf.csv"],
        ["fit", "--block", "population", "--starts", "1",
         *_population_traj_args(tmp_path), "--out", "rates.json"],
    ]
    loaded = _scipy_loaded(tmp_path, *scipy_free)
    assert loaded.pop("numpy after import reachset") is False
    assert loaded.pop("import reachset") == []
    assert loaded.pop("import reachset.cli") == []
    expected_codes = [0, 0, 0, 0, 0, 0, 0, 2, 2, 0]
    assert loaded == {" ".join(argv): [code, []]
                      for argv, code in zip(scipy_free, expected_codes)}
    # a drift with a defective 2x2 block, [[-1, 1], [-1, -3]], fails the
    # conditioning guard: its propagator takes expm from scipy.linalg alone
    hmat = np.zeros((15, 15))
    hmat[0, 1], hmat[1, 0] = 1.0, -1.0
    defective = reachset.AffineGenerator(n=2, Hmat=hmat, Rmat=np.diag([1.0, 3.0] + [2.0] * 13),
                                         r_eq=np.eye(15)[2])
    assert defective.drift_eig.path == "expm"
    dump_json(defective.to_json_dict(), tmp_path / "defective.json")
    argv = ["simulate", "--gen", "defective.json", "--m", "3", "--out", "sim_defective.csv"]
    code, modules = _scipy_loaded(tmp_path, argv)[" ".join(argv)]
    assert code == 0 and "scipy.linalg" in modules and "scipy.optimize" not in modules


def test_package_names_resolve_lazily(monkeypatch):
    # each public name is its home submodule's attribute, looked up anew
    # every time, so a patched submodule attribute is what reachset.X gives
    for name in reachset.__all__:
        home = importlib.import_module(f"reachset.{reachset._HOME[name]}")
        assert getattr(reachset, name) is getattr(home, name)
    assert set(reachset.__all__) <= set(dir(reachset))
    star = {}
    exec("from reachset import *", star)
    assert all(star[name] is getattr(reachset, name) for name in reachset.__all__)
    patched = object()
    monkeypatch.setattr(reachset.over_approx, "max_purity_on_ellipsoid", patched)
    assert reachset.max_purity_on_ellipsoid is patched
    assert "max_purity_on_ellipsoid" not in vars(reachset)
    with pytest.raises(AttributeError):
        reachset.no_such_name


_BLAS_PROBE = """
import json, sys
import reachset.cli
code = reachset.cli.main(json.loads(sys.argv[1]))
sys.path.insert(0, sys.argv[2])
from run import openblas_threads
print(json.dumps([code, openblas_threads()]))
"""


@pytest.mark.parametrize("env_update, recorded", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"GOTO_NUM_THREADS": "2"}, None),
    ({"OMP_NUM_THREADS": "2"}, None),
], ids=["unset", "openblas", "goto", "omp"])
def test_cli_defaults_to_one_blas_thread(tmp_path, env_update, recorded):
    # a fresh CLI process runs one OpenBLAS thread unless the caller chose
    unset = dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    out = tmp_path / "noe.json"
    argv = ["noe", "--preset", "chloroform", "--out", str(out)]
    proc = _child(["-c", _BLAS_PROBE, json.dumps(argv), str(BENCH)], tmp_path,
                  env_update={**unset, **env_update})
    assert proc.returncode == 0, proc.stderr
    code, threads = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    env = load_json(f"{out}.meta.json")["environment"]
    assert env["OPENBLAS_NUM_THREADS"] == recorded
    for var, value in env_update.items():  # the caller's choice is on record
        assert env[var] == value
    if not env_update:
        assert threads == 1


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    commands = {
        "bound.json": ["bound"],
        "sim.csv": ["simulate", "--m", "20"],
        "robustness.csv": ["robustness", "--grid=-0.05:0.05:3"],
    }
    outputs = {}
    for threads in ("1", "2"):
        d = tmp_path / threads
        d.mkdir()
        for name, argv in commands.items():
            proc = _child(["-m", "reachset.cli", *argv, "--preset", "chloroform",
                           "--out", name], d,
                          env_update={"OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
        outputs[threads] = {name: (d / name).read_bytes() for name in commands}
    assert outputs["1"] == outputs["2"]


def test_seed_only_where_read():
    # only the rate fit draws random starts; the sphere oracle's are fixed
    parser = build_parser()
    fit = ["fit", "--block", "population", "--traj", "x.csv"]
    assert parser.parse_args([*fit, "--seed", "3"]).seed == 3
    for command in ("bound", "figure1", "stlc", "unitary-bound", "simulate", "noe",
                    "robustness"):
        assert "seed" not in vars(parser.parse_args([command]))
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--seed", "3"])
    with pytest.raises(SystemExit):
        parser.parse_args(["bound", "--starts", "50"])


def test_trajectory_csv_round_trip(tmp_path):
    times = np.linspace(0.0, 5.0, 7)
    starts = [np.array([1.0, 0.0, 0.0])]
    traj = synthesize_trajectories(CHLOROFORM, "population", starts, times)[0]
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj)
    back = read_trajectory_csv(path)
    np.testing.assert_allclose(back.times, traj.times)
    for lab in traj.observables:
        np.testing.assert_allclose(
            back.observables[lab], traj.observables[lab], atol=0
        )



def test_figure1_reuses_bound_stlc_and_noe(tmp_path):
    # the same rays, tol and region must give the same numbers as the
    # single-purpose commands
    out_dir = tmp_path / "fig"
    assert run("figure1", "--preset", "chloroform", "--rays", "24",
               "--tol", "5e-2", "--region", "wedge", "--m", "5",
               "--out-dir", str(out_dir)) == 0
    bound, stlc, noe = (tmp_path / "bound.json", tmp_path / "stlc.csv",
                        tmp_path / "noe.json")
    assert run("bound", "--preset", "chloroform", "--out", str(bound)) == 0
    assert run("stlc", "--preset", "chloroform", "--rays", "fibonacci:24",
               "--tol", "5e-2", "--region", "wedge", "--out", str(stlc)) == 0
    assert run("noe", "--preset", "chloroform", "--saturate", "C",
               "--out", str(noe)) == 0

    sphere = load_json(out_dir / "sphere.json")
    full = load_json(bound)
    assert set(full) - set(sphere) == {"argmax", "residual", "lagrange_mult"}
    assert sphere == {k: full[k] for k in sphere}

    fig_rows = (out_dir / "stlc_boundary.csv").read_text().splitlines()
    stlc_rows = stlc.read_text().splitlines()
    assert len(stlc_rows) >= 2  # header plus at least one wedge point
    assert [",".join(r.split(",")[:4]) for r in fig_rows] == stlc_rows

    assert load_json(out_dir / "noe.json")["noe_steady_state"] == load_json(noe)["x"]


@settings(max_examples=12, deadline=None)
@example(key="r_eq", index=0, value=float("inf"))
@example(key="R", index=2 * 15 + 2, value=float("nan"))
@given(
    key=st.sampled_from(["H", "R", "r_eq"]),
    index=st.integers(min_value=0, max_value=15 * 15 - 1),
    value=st.sampled_from([float("inf"), float("-inf"), float("nan")]),
)
def test_nonfinite_generator_rejected(tmp_path_factory, chloroform_gen, key, index,
                                      value):
    # a non-finite entry anywhere is rejected before any output is written
    d = tmp_path_factory.mktemp("gen")
    gen = chloroform_gen.to_json_dict()
    if key == "r_eq":
        gen[key][index % 15] = value
    else:
        gen[key][index // 15][index % 15] = value
    path = d / "gen.json"
    dump_json(gen, path)
    for argv in (["bound"], ["simulate", "--m", "5"]):
        out = d / "out"
        assert main([*argv, "--gen", str(path), "--out", str(out)]) == 2
        assert not out.exists()


_TOKENS = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0).map(repr),
    st.sampled_from(["0", "nan", "inf", "-inf", "1e308", "1e-320", "abc", ""]),
)


@st.composite
def _cli_inputs(draw):
    """One malformed-or-not input: a ray CSV, a --grid spec, a --tol or a --tau."""
    kind = draw(st.sampled_from(["rays", "grid", "tol", "tau"]))
    if kind == "rays":
        rows = draw(st.lists(st.lists(_TOKENS, min_size=1, max_size=4), max_size=3))
        return kind, "".join(",".join(row) + "\n" for row in rows)
    if kind == "grid":
        count = draw(st.sampled_from(["-1", "0", "1", "3", "2.5", "x"]))
        parts = [draw(_TOKENS), draw(_TOKENS), count][: draw(st.integers(1, 3))]
        return kind, ":".join(parts)
    value = draw(st.one_of(st.floats().map(repr), st.sampled_from(["1e-300", "x"])))
    return kind, value


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses a value of the wrong type
        return exc.code


@settings(max_examples=20, deadline=None)
@example(case=("rays", "abc,1,2\n"))
@example(case=("rays", "1,2,3\n4,5\n"))
@example(case=("rays", "1e308\n"))
@example(case=("rays", "0.5,-1.5,0.25\n"))
@example(case=("grid", "nan:1:2"))
@example(case=("grid", "0:1e308:3"))
@example(case=("tol", "-inf"))
@example(case=("tau", "0"))
@example(case=("tau", "1e-300"))
@example(case=("tau", "1e300"))
@given(case=_cli_inputs())
def test_cli_inputs_end_cleanly(tmp_path_factory, case):
    # every input ends in success with finite output, or in exit 2 or 3
    # with no output; none ends in a traceback
    kind, text = case
    d = tmp_path_factory.mktemp("cli")
    preset = ["--preset", "chloroform"]
    if kind == "rays":
        (d / "rays.csv").write_text(text)
        argvs = [["stlc", *preset, "--rays", str(d / "rays.csv"), "--tol", "5e-2"]]
    elif kind == "grid":
        argvs = [["robustness", *preset, f"--grid={text}"]]
    elif kind == "tol":
        argvs = [["stlc", *preset, "--rays", "fibonacci:2", f"--tol={text}"]]
    else:
        argvs = [["simulate", *preset, "--m", "3", f"--tau={text}"],
                 ["robustness", *preset, "--grid=0:0:1", f"--tau={text}"]]
    for k, argv in enumerate(argvs):
        out = d / f"out{k}.csv"
        code = _exit_code([*argv, "--out", str(out)])
        assert code in (0, 2, 3), argv
        if code == 0:
            data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            assert np.isfinite(data).all(), argv
        else:
            assert not out.exists(), argv
