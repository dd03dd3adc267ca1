import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reachset
from reachset.cli import build_parser, main
from reachset.chloroform import CHLOROFORM, synthesize_trajectories
from reachset.serialize import (
    dump_json,
    load_json,
    read_trajectory_csv,
    write_trajectory_csv,
)


def run(*argv):
    return main(list(argv))


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
    out = tmp_path / "bound.json"
    run("bound", "--preset", "chloroform", "--epsilon", "2.0", "--out", str(out))
    assert load_json(out)["radius_sq"] == pytest.approx(4 * 18.673, abs=0.05)


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
    for grid in ("-0.05:0.05:0", "nan:0.05:3"):
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
    # JSON that is malformed, is not an object, or lacks a key
    no_h = chloroform_gen.to_json_dict()
    del no_h["H"]
    inputs = {"no_r.json": '{"n": 2}', "truncated.json": '{"n": 2, "H": [[0.0',
              "no_h.json": json.dumps(no_h), "list.json": "[1, 2]",
              "init.json": '{"J_hz": 214.5}', "gen.csv": "t,ZI,IZ,ZZ\n0,1,4,0\n"}
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
    ):
        out = tmp_path / "out.json"
        assert run(*argv, "--out", str(out)) == 2, argv
        assert not out.exists()
    # a fit from no start at all
    assert run("fit", "--block", "population", "--traj", str(good), "--starts", "0",
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


def test_sidecar_contract(tmp_path, chloroform_gen):
    # every subcommand writes <out>.meta.json (figure1: <out-dir>/figure1)
    # with version, command, options and a finite elapsed_s; a rejected
    # invocation writes neither output nor sidecar
    trajs = synthesize_trajectories(
        CHLOROFORM, "population", [np.array([-1.0, 4.0, 0.0]), np.array([0, 0, 3.0])],
        np.linspace(0.0, 40.0, 10))
    traj_args = []
    for k, traj in enumerate(trajs):
        write_trajectory_csv(tmp_path / f"traj{k}.csv", traj)
        traj_args += ["--traj", str(tmp_path / f"traj{k}.csv")]
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
    fit = ["fit", "--block", "population", "--starts", "1"]
    out = tmp_path / "rates.json"
    assert run(*fit, *traj_args, "--out", str(out)) == 0
    meta = load_json(f"{out}.meta.json")
    assert meta["command"] == "fit" and np.isfinite(meta["elapsed_s"])
    assert meta["options"]["traj"] == traj_args[1::2]
    out = tmp_path / "rates_bad.json"
    assert run(*fit, "--traj", str(tmp_path / "missing.csv"), "--out", str(out)) == 2
    assert not out.exists() and not Path(f"{out}.meta.json").exists()


def test_stlc_tol_below_ulp_ends(tmp_path):
    # a tol below the radius' ulp once bisected forever; the child process
    # and its timeout make a hang fail the test instead of stalling the suite
    src = os.path.dirname(os.path.dirname(reachset.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    radii = {}
    for tol in ("1e-17", "1e-3"):
        out = tmp_path / f"stlc_{tol}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "reachset.cli", "stlc", "--preset", "chloroform",
             "--rays", "fibonacci:1", "--tol", tol, "--out", str(out)],
            env=env, capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        radii[tol] = np.loadtxt(out, delimiter=",", skiprows=1)[3]
    # the finer bisection continues the coarser one's bracket
    assert 0.0 <= radii["1e-17"] - radii["1e-3"] <= 1e-3


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
    """One malformed-or-not input: a ray CSV, a --grid spec or a --tol."""
    kind = draw(st.sampled_from(["rays", "grid", "tol"]))
    if kind == "rays":
        rows = draw(st.lists(st.lists(_TOKENS, min_size=1, max_size=4), max_size=3))
        return kind, "".join(",".join(row) + "\n" for row in rows)
    if kind == "grid":
        count = draw(st.sampled_from(["-1", "0", "1", "3", "2.5", "x"]))
        parts = [draw(_TOKENS), draw(_TOKENS), count][: draw(st.integers(1, 3))]
        return kind, ":".join(parts)
    tol = draw(st.one_of(st.floats().map(repr), st.sampled_from(["1e-300", "x"])))
    return kind, tol


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
@given(case=_cli_inputs())
def test_cli_inputs_end_cleanly(tmp_path_factory, case):
    # every input ends in success with finite output, or in exit 2 or 3
    # with no output; none ends in a traceback
    kind, text = case
    d = tmp_path_factory.mktemp("cli")
    out = d / "out.csv"
    preset = ["--preset", "chloroform"]
    if kind == "rays":
        (d / "rays.csv").write_text(text)
        argv = ["stlc", *preset, "--rays", str(d / "rays.csv"), "--tol", "5e-2"]
    elif kind == "grid":
        argv = ["robustness", *preset, f"--grid={text}"]
    else:
        argv = ["stlc", *preset, "--rays", "fibonacci:2", f"--tol={text}"]
    code = _exit_code([*argv, "--out", str(out)])
    assert code in (0, 2, 3)
    if code == 0:
        assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)).all()
    else:
        assert not out.exists()
