import ast
import inspect
import json
import math
import multiprocessing
import numbers
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ptwalk import (
    _pool,
    bulk,
    cli,
    dynamics,
    operators,
    perturbation,
    spectrum,
)
from ptwalk.cli import main
from ptwalk.operators import CoinProfile, Lattice, WalkSpec

WALK = """\
[walk]
kind = three_step
num_sites = 101
layout = inner_outer
theta1_a_over_pi = 0.4
theta2_a_over_pi = 0.1
theta1_b_over_pi = -0.6
theta2_b_over_pi = 0.2
half_width = 20
gamma = 0.1
"""


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def error_of(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    return payload


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def assert_live_constants(manifest):
    """The manifest's constants block holds the library's values now."""
    assert manifest["constants"] == json.loads(json.dumps(cli._constants()))


class TestConstants:
    MODULES = (operators, bulk, spectrum, perturbation, dynamics)

    def test_every_value_is_the_live_one(self):
        modules = {m.__name__.rpartition(".")[2]: m for m in self.MODULES}
        constants = cli._constants()
        # the complex tuple is checked in test_complex_components_read_alike
        del constants["dynamics.DEFAULT_COIN"]
        for key, value in constants.items():
            module, name = key.split(".")
            live = getattr(modules[module], name)
            assert value == (list(live) if isinstance(live, tuple) else live)

    def test_every_assigned_numeric_constant_is_recorded(self):
        # the oracle reads the assignments in each module's source, so a
        # constant is expected once, under the module that defines it
        expected = set()
        for module in self.MODULES:
            tree = ast.parse(inspect.getsource(module))
            assigns = [n for n in tree.body if isinstance(n, ast.Assign)]
            for node in assigns:
                for target in node.targets:
                    name = getattr(target, "id", "")
                    value = getattr(module, name, None)
                    items = value if isinstance(value, tuple) else (value,)
                    if (name.isupper() and not name.startswith("_")
                            and all(isinstance(v, numbers.Number)
                                    for v in items)):
                        expected.add(
                            f"{module.__name__.rpartition('.')[2]}.{name}")
        assert set(cli._constants()) == expected
        assert "perturbation.MAX_INSERTED" in expected
        assert "spectrum.RESIDUAL_TOL" in expected

    def test_complex_components_read_alike(self):
        r = 1 / math.sqrt(2)
        assert cli._constants()["dynamics.DEFAULT_COIN"] == [[r, 0.0],
                                                             [0.0, r]]

    def test_usage_names_every_subcommand(self):
        block = cli.USAGE.split("subcommands:\n")[1].split("\n\n")[0]
        names = [line.split()[0] for line in block.splitlines()]
        assert sorted(names) == sorted([*cli.HANDLERS, "reproduce"])


class TestUsageAndErrors:
    def test_no_arguments_prints_usage(self, capsys):
        rc, out, err = run(capsys)
        assert rc == 0
        assert out.startswith("usage: ptwalk")
        assert err == ""

    def test_help_flag(self, capsys):
        rc, out, _ = run(capsys, "--help")
        assert rc == 0
        assert "subcommands:" in out

    def test_unknown_subcommand(self, capsys):
        payload = error_of(capsys, "eigensplain")
        assert payload["error"] == "CliError"
        assert "unknown subcommand" in payload["message"]

    def test_unknown_flag(self, capsys):
        payload = error_of(capsys, "dispersion", "--bogus")
        assert payload["error"] == "CliError"

    def test_missing_config_file(self, capsys):
        payload = error_of(capsys, "dispersion", "--config", "/no/such.ini")
        assert "config file not found" in payload["message"]

    def test_missing_required_key(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "[dispersion]\ntheta1_over_pi = 0.4\n")
        payload = error_of(capsys, "dispersion", "--config", cfg)
        assert "theta2_over_pi" in payload["message"]
        assert "[dispersion]" in payload["message"]

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "[dispersion]\ntheta1_over_pi = 0.4\n"
                                     "theta2_over_pi = 0.1\ntehta = 1\n")
        payload = error_of(capsys, "dispersion", "--config", cfg)
        assert "unknown keys" in payload["message"]
        assert "tehta" in payload["message"]

    def test_unparseable_value(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "[dispersion]\ntheta1_over_pi = abc\n"
                                     "theta2_over_pi = 0.1\n")
        payload = error_of(capsys, "dispersion", "--config", cfg)
        assert "[dispersion] theta1_over_pi" in payload["message"]

    @pytest.mark.parametrize("command,text,key", [
        ("dispersion", "[dispersion]\ntheta1_over_pi = 0.4\n"
         "theta2_over_pi = 0.1\ngamma = nan\n", "[dispersion] gamma"),
        ("dispersion", "[dispersion]\ntheta1_over_pi = inf\n"
         "theta2_over_pi = 0.1\n", "[dispersion] theta1_over_pi"),
        ("phase-diagram", "[phase-diagram]\ntheta1_points = 4\n"
         "theta2_points = 4\ngamma = nan\n", "[phase-diagram] gamma"),
        ("evolve", WALK.replace("gamma = 0.1", "gamma = nan")
         + "[evolve]\nsteps = 10\n", "[walk] gamma"),
    ], ids=["dispersion-gamma", "dispersion-angle", "phase-diagram-gamma",
            "walk-gamma"])
    def test_non_finite_float_rejected(self, capsys, tmp_path, command, text,
                                       key):
        # float() reads nan and inf; each of these runs would otherwise
        # write nan rows or call every cell gapless
        cfg = write_config(tmp_path, text)
        payload = error_of(capsys, command, "--config", cfg,
                           "--out", f"{tmp_path}/o/")
        assert payload["error"] == "CliError"
        assert payload["message"].startswith(f"{key}: not a finite number")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,text,message", [
        ("spectrum", WALK + "[spectrum]\ncompute_condition = maybe\n",
         "[spectrum] compute_condition: not a boolean: 'maybe'"),
        ("phase-diagram", "[phase-diagram]\ntheta1_points = 1\n",
         "[phase-diagram] theta1_points must be at least 2"),
        *[("delta-sweep", WALK + f"[delta-sweep]\ndelta_max = 0.1\n"
           f"delta_points = {n}\n",
           "[delta-sweep] delta_points must be at least 2") for n in (1, -3)],
    ], ids=["not-a-boolean", "one-point-grid", "one-point-sweep",
            "negative-point-sweep"])
    def test_invalid_value_rejected(self, capsys, tmp_path, command, text,
                                    message):
        cfg = write_config(tmp_path, text)
        payload = error_of(capsys, command, "--config", cfg,
                           "--out", f"{tmp_path}/o/")
        assert payload == {"error": "CliError", "message": message}
        assert not (tmp_path / "o").exists()

    def test_duplicate_walk_key(self, capsys, tmp_path):
        cfg = write_config(tmp_path, WALK + "gamma = 0.2\n")
        payload = error_of(capsys, "spectrum", "--config", cfg)
        assert payload["error"] == "CliError"
        assert "'gamma'" in payload["message"]
        assert "already exists" in payload["message"]

    def test_missing_section_header(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "kind = three_step\n" + WALK)
        payload = error_of(capsys, "spectrum", "--config", cfg)
        assert payload["error"] == "CliError"
        assert "no section headers" in payload["message"]

    @pytest.mark.parametrize("command,text,section", [
        ("spectrum", WALK + "[spectrun]\nwindow = 3\n"
                            "compute_condition = false\n", "spectrun"),
        ("dispersion", "[DEFAULT]\ngamma = 0.3\n[dispersion]\n"
                       "theta1_over_pi = 0.4\ntheta2_over_pi = 0.1\n",
         "DEFAULT"),
        ("dispersion", WALK + "[dispersion]\ntheta1_over_pi = 0.4\n"
                              "theta2_over_pi = 0.1\n", "walk"),
    ], ids=["misspelled", "default", "walk_for_dispersion"])
    def test_unknown_section_rejected(self, capsys, tmp_path, command, text,
                                      section):
        cfg = write_config(tmp_path, text)
        payload = error_of(capsys, command, "--config", cfg,
                           "--out", f"{tmp_path}/o/")
        assert payload["error"] == "CliError"
        assert payload["message"] == \
            f"unknown sections for {command}: ['{section}']"

    def test_walk_section_required(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "[spectrum]\nwindow = 5\n")
        payload = error_of(capsys, "spectrum", "--config", cfg)
        assert "[walk] section" in payload["message"]

    def test_unknown_figure(self, capsys):
        payload = error_of(capsys, "reproduce", "fig99")
        assert "unknown figure id" in payload["message"]
        assert "fig2" in payload["message"]

    @pytest.mark.parametrize("argv", [
        ("phase-diagram", "--k-res", "8"),
        ("reproduce", "fig3", "--steps", "5"),
        ("reproduce", "fig2", "--config", "run.ini"),
        ("dispersion", "--sites", "51"),
        ("edge-map", "--seed", "3"),
        ("spectrum", "--threads", "2"),
        ("dispersion", "--k-res", "64"),
        ("evolve", "--steps", "6"),
        ("spectrum", "--sites", "51"),
        ("disorder", "--seed", "7"),
    ], ids="_".join)
    def test_inapplicable_flag_rejected(self, capsys, argv):
        payload = error_of(capsys, *argv)
        assert payload["error"] == "CliError"
        assert "unrecognized arguments" in payload["message"]

    def test_bad_states_option(self, capsys, tmp_path):
        cfg = write_config(tmp_path, WALK + "[spectrum]\nstates = some\n")
        payload = error_of(capsys, "spectrum", "--config", cfg)
        assert "states" in payload["message"]

    @pytest.mark.parametrize("command,text,error,message", [
        ("spectrum", "gamma = 800\n[spectrum]\n",
         "OverflowError", "math range error"),
        ("evolve", "gamma = 800\n[evolve]\nsteps = 10\n",
         "OverflowError", "math range error"),
        ("evolve", "[evolve]\nsteps = 100000000000000000\n",
         "MemoryError", "Unable to allocate"),
    ], ids=["gain-overflow-build", "gain-overflow-evolve", "steps-too-many"])
    def test_runtime_failure_is_a_json_error(self, capsys, tmp_path, command,
                                             text, error, message):
        # a failure inside the library ends the run as the one-line JSON
        # error, not a traceback; the window of 3 * 10**17 steps cannot
        # be allocated at all, so the attempt fails at once
        cfg = write_config(tmp_path, SMALL_WALK + text)
        payload = error_of(capsys, command, "--config", cfg,
                           "--out", f"{tmp_path}/f/")
        assert payload["error"] == error
        assert payload["message"].startswith(message)

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupted(argv):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_dispatch", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["dispersion"])


class TestDispersionCommand:
    CFG = ("[dispersion]\ntheta1_over_pi = 0.4\ntheta2_over_pi = 0.1\n"
           "gamma = 0.1\n")

    def test_artifacts_and_manifest(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        out = f"{tmp_path}/run1/"
        rc, stdout, _ = run(capsys, "dispersion", "--config", cfg,
                            "--out", out)
        assert rc == 0
        assert (tmp_path / "run1" / "dispersion.csv").exists()
        manifest = json.loads((tmp_path / "run1" / "manifest.json")
                              .read_text())
        assert manifest["command"] == "dispersion"
        assert manifest["parameters"]["gamma"] == 0.1
        assert manifest["parameters"]["k_res"] == 1024
        assert set(manifest["artifacts"]) == {"dispersion.csv"}
        assert len(manifest["artifacts"]["dispersion.csv"]) == 64
        assert manifest["result"]["pt_broken_fraction"] == 0.0
        assert "timestamp" not in manifest
        assert stdout.count("wrote ") == 2

    def test_byte_determinism(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        for sub in ("x", "y"):
            run(capsys, "dispersion", "--config", cfg,
                "--out", f"{tmp_path}/{sub}/")
        for name in ("dispersion.csv", "manifest.json"):
            assert (tmp_path / "x" / name).read_bytes() == \
                (tmp_path / "y" / name).read_bytes()

    def test_k_res_key(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG + "k_res = 64\n")
        out = f"{tmp_path}/o/"
        rc, _, _ = run(capsys, "dispersion", "--config", cfg, "--out", out)
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["parameters"]["k_res"] == 64
        csv = (tmp_path / "o" / "dispersion.csv").read_text().splitlines()
        # header plus k_res + 1 samples, both zone edges included
        assert len(csv) == 1 + 65

    def test_empty_grid_rejected(self, capsys, tmp_path):
        # k_res = -1 used to write an empty CSV and a NaN fraction
        cfg = write_config(tmp_path, self.CFG + "k_res = -1\n")
        payload = error_of(capsys, "dispersion", "--config", cfg,
                           "--out", f"{tmp_path}/o/")
        assert payload == {"error": "ValueError",
                           "message": "k_res must be at least 1, got -1"}
        assert not (tmp_path / "o").exists()


class TestPhaseDiagramCommand:
    CFG = ("[phase-diagram]\ntheta1_points = 4\ntheta2_points = 4\n"
           "gamma = 0.0\n")

    def test_gamma_zero_runs(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        rc, _, _ = run(capsys, "phase-diagram", "--config", cfg,
                       "--out", f"{tmp_path}/p/")
        assert rc == 0
        manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
        assert manifest["result"] == {"cells": 16, "gapless_cells": 6}
        assert "k_res" not in manifest["parameters"]

    def test_k_res_key_rejected(self, capsys, tmp_path):
        # the gap and the winding are exact, so there is no grid to size
        cfg = write_config(tmp_path, self.CFG + "k_res = 2048\n")
        payload = error_of(capsys, "phase-diagram", "--config", cfg)
        assert "unknown keys" in payload["message"]
        assert "k_res" in payload["message"]


class TestSpectrumCommand:
    def test_counts_and_state_files(self, capsys, tmp_path):
        cfg = write_config(tmp_path, WALK + "[spectrum]\nstates = nonbulk\n")
        out = f"{tmp_path}/s/"
        rc, _, _ = run(capsys, "spectrum", "--config", cfg, "--out", out)
        assert rc == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["result"]["solver"] == "pt-fold"
        counts = manifest["result"]["counts"]
        assert counts["edge_zero"] == 6
        assert counts["edge_pi"] == 6
        states = sorted((tmp_path / "s").glob("state_*.csv"))
        assert len(states) == sum(v for k, v in counts.items()
                                  if k != "bulk")
        rows = (tmp_path / "s" / "spectrum.csv").read_text().splitlines()
        assert len(rows) == 1 + 202
        walk = manifest["parameters"]["walk"]
        assert walk["theta1_b_over_pi"] == -0.6
        assert walk["half_width"] == 20

    def test_zero_window_rejected(self, capsys, tmp_path):
        # interfaces sit on bond centres, so window = 0 would call every
        # state of this walk bulk (window 10 finds 6 + 6 edge states)
        cfg = write_config(tmp_path, WALK.replace("num_sites = 101",
                                                  "num_sites = 41")
                           .replace("half_width = 20", "half_width = 10")
                           + "[spectrum]\nwindow = 0\n")
        payload = error_of(capsys, "spectrum", "--config", cfg,
                           "--out", f"{tmp_path}/s/")
        assert payload == {"error": "ValueError",
                           "message": "window must be at least 1 site, got 0"}
        assert not (tmp_path / "s").exists()

    def test_num_sites_key(self, capsys, tmp_path):
        cfg = write_config(tmp_path, WALK.replace("num_sites = 101",
                                                  "num_sites = 51")
                           + "[spectrum]\ncompute_condition = false\n")
        out = f"{tmp_path}/s/"
        rc, _, _ = run(capsys, "spectrum", "--config", cfg, "--out", out)
        assert rc == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["parameters"]["walk"]["num_sites"] == 51
        rows = (tmp_path / "s" / "spectrum.csv").read_text().splitlines()
        assert len(rows) == 1 + 102

    @pytest.mark.parametrize("condition,near_defective",
                             [("true", 22), ("false", None)])
    def test_health_counts(self, capsys, tmp_path, monkeypatch, condition,
                           near_defective):
        # the perturbed gain-loss walk takes the dense path, and no ring
        # walk is defective, so each right eigenvector is handed the left
        # eigenvector of another eigenvalue: bi-orthogonality makes the
        # two orthogonal, and every pair is then near defective.  geev
        # keeps a conjugate pair in two adjacent real columns, so the
        # left columns move on by two
        lapack = scipy.linalg.get_lapack_funcs
        calls = []

        def mismatched(names, *args, **kwargs):
            funcs = lapack(names, *args, **kwargs)
            if names != ("geev", "geev_lwork"):
                return funcs
            geev, geev_lwork = funcs

            def rolled(a, compute_vl=1, **kw):
                calls.append(bool(compute_vl))
                wr, wi, vl, vr, info = geev(a, compute_vl=compute_vl, **kw)
                return wr, wi, np.roll(vl, 2, axis=1), vr, info

            return rolled, geev_lwork

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", mismatched)
        cfg = write_config(tmp_path, SMALL_DENSE_WALK + "[spectrum]\n"
                                     f"compute_condition = {condition}\n")
        rc, _, _ = run(capsys, "spectrum", "--config", cfg,
                       "--out", f"{tmp_path}/s/")
        assert rc == 0
        assert calls == [condition == "true"]
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["result"]["near_defective"] == near_defective
        assert manifest["result"]["ambiguous"] == 0


SMALL_WALK = """\
[walk]
kind = three_step
num_sites = 11
theta1_a_over_pi = 0.671530208
theta2_a_over_pi = 0.1
"""

# gain-loss with delta: neither orthogonal nor PT-folded, so solved densely
SMALL_DENSE_WALK = """\
[walk]
kind = three_step_perturbed
num_sites = 11
layout = inner_outer
theta1_a_over_pi = 0.4
theta2_a_over_pi = 0.1
theta1_b_over_pi = -0.6
theta2_b_over_pi = 0.2
half_width = 3
gamma = 0.1
delta = 0.05
"""


class TestWalkSection:
    def walk_params(self, capsys, tmp_path, text):
        cfg = write_config(tmp_path, text + "[spectrum]\n"
                                            "compute_condition = false\n")
        rc, _, _ = run(capsys, "spectrum", "--config", cfg,
                       "--out", f"{tmp_path}/w/")
        assert rc == 0
        manifest = json.loads((tmp_path / "w" / "manifest.json").read_text())
        return manifest["parameters"]["walk"]

    def test_angle_recorded_as_given(self, capsys, tmp_path):
        # radians and back would not give the same float
        assert 0.671530208 * math.pi / math.pi != 0.671530208
        walk = self.walk_params(capsys, tmp_path, SMALL_WALK)
        assert walk["theta1_a_over_pi"] == 0.671530208
        assert walk["theta2_a_over_pi"] == 0.1

    def test_resolved_x_min_recorded(self, capsys, tmp_path):
        walk = self.walk_params(capsys, tmp_path, SMALL_WALK)
        assert (walk["boundary"], walk["x_min"]) == ("periodic", -5)
        for key in ("boundary = open\n", "x_min = -2\n"):
            cfg = write_config(tmp_path, SMALL_WALK + key)
            payload = error_of(capsys, "spectrum", "--config", cfg,
                               "--out", f"{tmp_path}/w/")
            assert payload["message"] == (
                f"unknown keys in [walk]: [{key.split()[0]!r}]")

    @pytest.mark.parametrize("old,new,message", [
        ("kind = three_step\n", "", "missing key 'kind' in section [walk]"),
        ("num_sites = 11\n", "num_sites = 11\nbogus = 1\n",
         "unknown keys in [walk]: ['bogus']"),
        ("num_sites = 11\n", "num_sites = eleven\n", "[walk] num_sites: "),
        ("num_sites = 11\n", "num_sites = 1\n",
         "[walk] need at least two sites"),
        ("kind = three_step\n", "kind = two_step\n",
         "[walk] unknown walk kind 'two_step'"),
        ("num_sites = 11\n", "num_sites = 11\nlayout = inner_outer\n"
         "theta1_b_over_pi = -0.6\ntheta2_b_over_pi = 0.2\nhalf_width = 6\n",
         "[walk] half_width 6 leaves no outer site on 11 sites"),
        ("num_sites = 11\n", "num_sites = 11\nlayout = ring\n"
         "theta1_b_over_pi = -0.6\ntheta2_b_over_pi = 0.2\n",
         "[walk] unknown layout 'ring'"),
        ("num_sites = 11\n", "num_sites = 11\nlayout = inner_outer\n"
         "theta1_b_over_pi = -0.6\ntheta2_b_over_pi = 0.2\nhalf_width = 0\n",
         "[walk] inner_outer layout needs a positive half_width"),
        ("num_sites = 11\n", "num_sites = 11\ndisorder_amplitude = -0.1\n",
         "[walk] disorder_amplitude must be nonnegative"),
        # a finite value in units of pi that overflows in radians
        ("theta2_a_over_pi = 0.1\n", "theta2_a_over_pi = 1e308\n",
         "[walk] theta2_a must be finite, got inf"),
        # finite values whose draw range or shifted coin overflows
        ("kind = three_step\n", "kind = three_step_perturbed_disordered\n"
         "disorder_amplitude = 1e308\n",
         "[walk] 2 * disorder_amplitude must be finite, got inf"),
        ("theta2_a_over_pi = 0.1\n", "theta2_a_over_pi = 3e307\n"
         "delta = 1e308\n", "[walk] theta2_a + delta must be finite, got inf"),
    ], ids=["missing", "unknown", "unparseable", "invalid", "unknown-kind",
            "no-outer-site", "unknown-layout", "no-inner-site",
            "negative-disorder", "infinite-angle", "overflowing-disorder",
            "overflowing-delta"])
    def test_error_wording(self, capsys, tmp_path, old, new, message):
        cfg = write_config(tmp_path, SMALL_WALK.replace(old, new))
        payload = error_of(capsys, "spectrum", "--config", cfg,
                           "--out", f"{tmp_path}/w/")
        assert payload["error"] == "CliError"
        assert payload["message"].startswith(message)

    def test_config_rejects_unknown_key(self):
        items = {"kind": "three_step", "num_sites": "40",
                 "theta1_a_over_pi": "0.25", "theta2_a_over_pi": "0.5"}
        spec, _ = cli._walk_spec({"walk": items})
        assert spec == WalkSpec(
            kind="three_step", lattice=Lattice(40),
            profile=CoinProfile.homogeneous(0.25 * math.pi, 0.5 * math.pi))
        with pytest.raises(cli.CliError, match="bogus"):
            cli._walk_spec({"walk": {**items, "bogus": "1"}})


class TestEvolveCommand:
    CFG = ("[walk]\nkind = three_step\nnum_sites = 11\n"
           "layout = homogeneous\ntheta1_a_over_pi = 0.4\n"
           "theta2_a_over_pi = 0.1\n"
           "[evolve]\nsteps = 12\nsnapshot_times = 4,8\n")

    def test_artifact_set(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        out = f"{tmp_path}/e/"
        rc, _, _ = run(capsys, "evolve", "--config", cfg, "--out", out)
        assert rc == 0
        names = sorted(p.name for p in (tmp_path / "e").iterdir())
        assert names == ["fourier.csv", "manifest.json", "snapshot_t4.csv",
                         "snapshot_t8.csv", "trace.csv"]
        manifest = json.loads((tmp_path / "e" / "manifest.json").read_text())
        # leaked_probability is always 0.0, so it is not reported
        assert manifest["result"] == {"log_scale": 0.0}
        params = manifest["parameters"]
        constants = manifest["constants"]
        assert constants["dynamics.RESCALE_LIMIT"] == 1e120
        # the fixed initial state is recorded; the window is always the
        # whole light cone, so there is no cap to record
        assert params["x0"] == 0
        coin_l, coin_r = constants["dynamics.DEFAULT_COIN"]
        assert coin_l[0] == coin_r[1] == 1 / math.sqrt(2)
        assert coin_l[1] == coin_r[0] == 0.0
        assert "window_cap" not in params
        trace = (tmp_path / "e" / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + 13

    def test_steps_key(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG.replace(
            "steps = 12\nsnapshot_times = 4,8\n", "steps = 6\n"))
        out = f"{tmp_path}/e/"
        rc, _, _ = run(capsys, "evolve", "--config", cfg, "--out", out)
        assert rc == 0
        trace = (tmp_path / "e" / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + 7

    @pytest.mark.parametrize("key,value", [
        ("x0", "2"), ("window_cap", "21"), ("coin_l_re", "0.6"),
        ("coin_l_im", "0.0"), ("coin_r_re", "0.8"), ("coin_r_im", "0.0"),
    ])
    def test_initial_state_keys_rejected(self, capsys, tmp_path, key, value):
        # the walker always starts at x = 0 in DEFAULT_COIN, and the
        # window is always the whole light cone
        cfg = write_config(tmp_path, self.CFG + f"{key} = {value}\n")
        payload = error_of(capsys, "evolve", "--config", cfg,
                           "--out", f"{tmp_path}/e/")
        assert payload["error"] == "CliError"
        assert payload["message"] == f"unknown keys in [evolve]: ['{key}']"
        assert not (tmp_path / "e").exists()


class TestDisorderCommand:
    def test_seed0_key(self, capsys, tmp_path):
        walk = WALK.replace("num_sites = 101", "num_sites = 51")
        cfg = write_config(tmp_path, walk + "[disorder]\ntheta_r = 0.01\n"
                                            "n_seeds = 2\nseed0 = 7\n")
        out = f"{tmp_path}/d/"
        rc, _, _ = run(capsys, "disorder", "--config", cfg, "--out", out)
        assert rc == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["parameters"]["seed0"] == 7
        assert_live_constants(manifest)
        # the walk that ran: each realization's amplitude and seed are
        # theta_r and its row's seed, not [walk] keys
        walk = manifest["parameters"]["walk"]
        assert walk["kind"] == "three_step_perturbed_disordered"
        assert "disorder_amplitude" not in walk
        assert "disorder_seed" not in walk
        rows = (tmp_path / "d" / "disorder.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["7", "8"]

    def test_no_seeds_is_an_error(self, capsys, tmp_path):
        # an empty ensemble has no fraction to report
        cfg = write_config(tmp_path, WALK + "[disorder]\ntheta_r = 0.01\n"
                                            "n_seeds = 0\n")
        payload = error_of(capsys, "disorder", "--config", cfg,
                           "--out", f"{tmp_path}/d/")
        assert payload["error"] == "ValueError"
        assert "seed" in payload["message"]

    # each realization is drawn at theta_r from its own seed, so these
    # walk keys would be recorded in the manifest but never used
    DISORDERED = WALK.replace("kind = three_step\n",
                              "kind = three_step_perturbed_disordered\n") + (
        "delta = 0.05\ndisorder_amplitude = 0.2\ndisorder_seed = 99\n")

    @pytest.mark.parametrize("walk,key,instead", [
        (DISORDERED, "disorder_amplitude", "theta_r"),
        (DISORDERED.replace("disorder_amplitude = 0.2\n", ""),
         "disorder_seed", "seed0"),
    ], ids=["amplitude", "seed"])
    def test_walk_disorder_keys_rejected(self, capsys, tmp_path, walk, key,
                                         instead):
        cfg = write_config(tmp_path, walk + "[disorder]\ntheta_r = 0.01\n"
                                            "n_seeds = 2\n")
        payload = error_of(capsys, "disorder", "--config", cfg,
                           "--out", f"{tmp_path}/d/")
        assert payload["error"] == "CliError"
        assert payload["message"] == (f"[walk] {key} is not read by "
                                      f"disorder; set [disorder] {instead} "
                                      "instead")
        assert not (tmp_path / "d").exists()


PROBE_SECTIONS = {
    "edge-map": "[edge-map]\ninner_theta1_over_pi = 0.4\n"
                "inner_theta2_over_pi = 0.1\n",
    "delta-sweep": WALK + "[delta-sweep]\ndelta_max = 0.1\n",
    "ep-find": WALK + "[ep-find]\ndelta_lo = 0.05\ndelta_hi = 0.08\n",
    "disorder": WALK + "[disorder]\ntheta_r = 0.01\n",
}


@pytest.mark.parametrize("command,key,value", [
    *((command, "window", "10") for command in PROBE_SECTIONS),
    ("ep-find", "tol_delta", "5e-4"),
    ("delta-sweep", "deltas", "0.0,0.05,0.1"),
])
def test_fixed_probe_setting_rejected(capsys, tmp_path, command, key, value):
    # the interface probes always use DEFAULT_WINDOW and TOL_DELTA, and
    # the sweep grid is always delta_min, delta_max and delta_points
    cfg = write_config(tmp_path, PROBE_SECTIONS[command] + f"{key} = {value}\n")
    payload = error_of(capsys, command, "--config", cfg,
                       "--out", f"{tmp_path}/p/")
    assert payload["error"] == "CliError"
    assert payload["message"] == f"unknown keys in [{command}]: ['{key}']"


POOLED = {
    "edge-map": PROBE_SECTIONS["edge-map"]
    + "gamma = 0.1\nnum_sites = 101\nhalf_width = 20\n"
      "theta1_min_over_pi = -0.6\ntheta1_max_over_pi = -0.2\n"
      "theta1_points = 2\ntheta2_min_over_pi = 0.2\n"
      "theta2_max_over_pi = 0.3\ntheta2_points = 2\n",
    "delta-sweep": PROBE_SECTIONS["delta-sweep"] + "delta_points = 4\n",
    "disorder": PROBE_SECTIONS["disorder"] + "n_seeds = 3\n",
}


@pytest.mark.parametrize("command", POOLED)
def test_pooled_run_writes_the_same_bytes(capsys, tmp_path, monkeypatch,
                                          command):
    # the pool forced to one worker (in process) and to two
    cfg = write_config(tmp_path, POOLED[command])
    files = []
    for cpus in (1, 2):
        monkeypatch.setattr(_pool, "_cpu_count", lambda n=cpus: n)
        rc, _, _ = run(capsys, command, "--config", cfg,
                       "--out", f"{tmp_path}/{cpus}/")
        assert rc == 0
        assert multiprocessing.active_children() == []
        files.append({p.name: p.read_bytes()
                      for p in sorted((tmp_path / str(cpus)).iterdir())})
    assert files[0] == files[1]
    assert "manifest.json" in files[0] and len(files[0]) == 2


def test_pooled_failure_is_a_json_error(capsys, tmp_path, monkeypatch):
    # a realization that raises in a worker reaches the user as the
    # one-line JSON error, and no artifact is written
    def edge_eigensystem(spec, delta):
        raise np.linalg.LinAlgError(
            f"seed {spec.profile.disorder_seed} did not converge")

    monkeypatch.setattr(_pool, "_cpu_count", lambda: 2)
    monkeypatch.setattr(perturbation, "_edge_eigensystem", edge_eigensystem)
    cfg = write_config(tmp_path, POOLED["disorder"])
    payload = error_of(capsys, "disorder", "--config", cfg,
                       "--out", f"{tmp_path}/d/")
    assert payload == {"error": "LinAlgError",
                       "message": "seed 0 did not converge"}
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "d").exists()


# outer phases (-0.2, 0.3)π with delta: a skew walk on the dense path,
# whose eigenvalue bits depend on the OpenBLAS thread count
SKEW_WALK = """\
[walk]
kind = three_step_perturbed
num_sites = 101
layout = inner_outer
theta1_a_over_pi = 0.4
theta2_a_over_pi = 0.1
theta1_b_over_pi = -0.2
theta2_b_over_pi = 0.3
half_width = 20
gamma = 0.1
delta = 0.05
[spectrum]
compute_condition = false
"""


def test_bytes_do_not_depend_on_openblas_threads(tmp_path):
    # each run a fresh interpreter, so OpenBLAS reads the variable
    cfg = write_config(tmp_path, SKEW_WALK)
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if k not in {"OMP_NUM_THREADS", "MKL_NUM_THREADS"}}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(src), env.get("PYTHONPATH")]))
    files = []
    for threads in ("1", "2"):
        subprocess.run([sys.executable, "-m", "ptwalk.cli", "spectrum",
                        "--config", cfg, "--out", f"{tmp_path}/{threads}/"],
                       check=True, capture_output=True,
                       env={**env, "OPENBLAS_NUM_THREADS": threads})
        files.append({p.name: p.read_bytes()
                      for p in sorted((tmp_path / threads).iterdir())})
    assert sorted(files[0]) == ["manifest.json", "spectrum.csv"]
    assert files[0] == files[1]

class TestDeltaSweepCommand:
    def test_grid_recorded(self, capsys, tmp_path):
        # the grid comes only from delta_min, delta_max and delta_points,
        # and the manifest records the values it resolved to
        cfg = write_config(tmp_path, PROBE_SECTIONS["delta-sweep"]
                           + "delta_points = 3\n")
        rc, _, _ = run(capsys, "delta-sweep", "--config", cfg,
                       "--out", f"{tmp_path}/s/")
        assert rc == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        params = manifest["parameters"]
        assert params["delta_points"] == 3
        assert params["deltas"] == [0.0, 0.05, 0.1]
        # bisection inserts points into this coarse grid, and every
        # point beyond the three requested is counted as inserted
        result = manifest["result"]
        assert result["inserted_points"] > 0
        assert result["n_points"] == 3 + result["inserted_points"]
        rows = (tmp_path / "s" / "delta_sweep.csv").read_text().splitlines()
        assert len(rows) > 1

    def test_manifest_reads_the_live_constant(self, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.setattr(perturbation, "MAX_INSERTED", 65)
        cfg = write_config(tmp_path, PROBE_SECTIONS["delta-sweep"]
                           + "delta_points = 2\n")
        rc, _, _ = run(capsys, "delta-sweep", "--config", cfg,
                       "--out", f"{tmp_path}/s/")
        assert rc == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["constants"]["perturbation.MAX_INSERTED"] == 65
        assert_live_constants(manifest)


class TestEpFindCommand:
    # the c06 walk: its interface eigenvalues coalesce at delta = 0.0696
    CFG = """\
[walk]
kind = three_step_perturbed
num_sites = 301
layout = inner_outer
theta1_a_over_pi = 0.4
theta2_a_over_pi = 0.1
theta1_b_over_pi = -0.2
theta2_b_over_pi = 0.3
half_width = 50
gamma = 0.1
[ep-find]
delta_lo = 0.05
delta_hi = 0.08
"""

    def test_artifacts_and_determinism(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        files = []
        for out in ("a", "b"):
            rc, _, _ = run(capsys, "ep-find", "--config", cfg,
                           "--out", f"{tmp_path}/{out}/")
            assert rc == 0
            files.append({p.name: p.read_bytes()
                          for p in sorted((tmp_path / out).iterdir())})
        assert files[0] == files[1]
        assert sorted(files[0]) == ["exceptional_point.csv", "manifest.json"]
        header, *rows = files[0]["exceptional_point.csv"].decode().splitlines()
        assert header == ("delta_ep,delta_lower,delta_upper,"
                          "coalescence_overlap,n_solves")
        assert len(rows) == 1
        manifest = json.loads(files[0]["manifest.json"])
        assert_live_constants(manifest)
        result = manifest["result"]
        assert result["delta_ep"] == pytest.approx(0.0696, abs=0.001)
        assert (result["delta_lower"] <= result["delta_ep"]
                <= result["delta_upper"])
        assert result["n_solves"] == 5
        assert int(rows[0].split(",")[-1]) == result["n_solves"]


class TestEdgeMapCommand:
    def test_kind_key_rejected(self, capsys, tmp_path):
        # cells are gated by the three_step bulk gap, so no other kind
        cfg = write_config(tmp_path, "[edge-map]\n"
                                     "inner_theta1_over_pi = 0.4\n"
                                     "inner_theta2_over_pi = 0.1\n"
                                     "kind = two_step\n")
        payload = error_of(capsys, "edge-map", "--config", cfg,
                           "--out", f"{tmp_path}/m/")
        assert payload["error"] == "CliError"
        assert "unknown keys in [edge-map]: ['kind']" in payload["message"]

    def test_inner_region_covering_the_ring(self, capsys, tmp_path):
        cfg = write_config(tmp_path, PROBE_SECTIONS["edge-map"]
                           + "num_sites = 101\nhalf_width = 51\n"
                             "theta1_min_over_pi = -0.6\n"
                             "theta1_max_over_pi = -0.5\ntheta1_points = 2\n"
                             "theta2_min_over_pi = 0.2\n"
                             "theta2_max_over_pi = 0.3\ntheta2_points = 2\n")
        payload = error_of(capsys, "edge-map", "--config", cfg,
                           "--out", f"{tmp_path}/m/")
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith("half_width 51 leaves no outer")
        assert not (tmp_path / "m").exists()

    def test_inner_region_covering_the_ring_without_gapped_cells(
            self, capsys, tmp_path):
        # every cell is gapless, so no cell would build a WalkSpec
        cfg = write_config(tmp_path, PROBE_SECTIONS["edge-map"]
                           + "gamma = 0.1\nnum_sites = 101\nhalf_width = 51\n"
                             "theta1_min_over_pi = 0.25\n"
                             "theta1_max_over_pi = 0.25\ntheta1_points = 2\n"
                             "theta2_min_over_pi = 0.25\n"
                             "theta2_max_over_pi = 0.25\ntheta2_points = 2\n")
        payload = error_of(capsys, "edge-map", "--config", cfg,
                           "--out", f"{tmp_path}/m/")
        assert payload == {"error": "ValueError", "message":
                           "half_width 51 leaves no outer site on 101 sites "
                           "(at most 50)"}
        assert not (tmp_path / "m").exists()


INFER = """\
[walk]
kind = three_step_perturbed
num_sites = 801
layout = left_right
theta1_a_over_pi = 0.75
theta2_a_over_pi = 0.05
theta1_b_over_pi = -0.3333333333333333
theta2_b_over_pi = 0.0
delta = 0.05
[infer-edges]
steps = 400
spectrum_sites = 101
"""


@pytest.fixture(scope="module")
def infer_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("infer")
    assert main(["infer-edges", "--config", write_config(tmp, INFER),
                 "--out", f"{tmp}/i/"]) == 0
    return tmp / "i"


class TestInferEdgesCommand:
    def test_artifact_set(self, infer_dir):
        names = sorted(p.name for p in infer_dir.iterdir())
        assert names == ["fourier.csv", "inference.json", "manifest.json",
                         "modes.csv", "trace.csv"]
        trace = (infer_dir / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + 401

    def test_manifest_records_the_constants(self, infer_dir):
        manifest = json.loads((infer_dir / "manifest.json").read_text())
        constants = manifest["constants"]
        assert constants["dynamics.PEAK_KAPPA"] == 6.0
        assert constants["dynamics.PERSISTENCE_THRESHOLD"] == 0.05
        assert constants["dynamics.COMPANION_WINDOW"] == 50
        assert type(constants["dynamics.COMPANION_WINDOW"]) is int
        assert_live_constants(manifest)
        assert manifest["parameters"]["spectrum_sites"] == 101
        inference = json.loads((infer_dir / "inference.json").read_text())
        assert manifest["result"] == inference
        assert inference["parity"] == "odd"

    def test_gap_regime_on_a_short_companion(self, infer_dir):
        # every state of the 101-site companion lies within the 50-site
        # window of an interface; the regime comes from the bulk bands
        inference = json.loads((infer_dir / "inference.json").read_text())
        assert inference["gap_regime"] == "large"
        assert inference["eps_m"] is not None
        assert inference["companion_solver"] == "interface"

    def test_companion_error_is_a_json_error(self, capsys, tmp_path):
        # the one-site companion ring is refused where it is built, in
        # the worker beside the evolution, and reaches the user as the
        # one-line JSON error
        cfg = write_config(tmp_path, INFER.replace("spectrum_sites = 101",
                                                   "spectrum_sites = 1"))
        payload = error_of(capsys, "infer-edges", "--config", cfg,
                           "--out", f"{tmp_path}/i/")
        assert payload == {"error": "ValueError",
                           "message": "need at least two sites"}

    @pytest.mark.parametrize("key,value", [
        ("threshold", "0.05"), ("kappa", "6.0"), ("spectrum_window", "50")])
    def test_removed_key_rejected(self, capsys, tmp_path, key, value):
        cfg = write_config(tmp_path, INFER + f"{key} = {value}\n")
        payload = error_of(capsys, "infer-edges", "--config", cfg,
                           "--out", f"{tmp_path}/i/")
        assert payload["error"] == "CliError"
        assert f"unknown keys in [infer-edges]: ['{key}']" \
            in payload["message"]


class TestReproduce:
    def test_list(self, capsys):
        rc, out, _ = run(capsys, "reproduce", "list")
        assert rc == 0
        ids = out.split()
        assert ids[0] == "fig2"
        assert "fig13" in ids
        assert ids == sorted(ids, key=lambda s: (len(s), s))

    def test_dispersion_panels(self, capsys, tmp_path):
        out = f"{tmp_path}/f/"
        rc, _, _ = run(capsys, "reproduce", "fig2", "--out", out)
        assert rc == 0
        names = sorted(p.name for p in (tmp_path / "f").iterdir())
        assert names == ["fig2a.csv", "fig2b.csv", "fig2c.csv", "fig2d.csv",
                         "manifest.json"]
        manifest = json.loads((tmp_path / "f" / "manifest.json").read_text())
        assert manifest["figure"] == "fig2"
        assert manifest["command"] == "reproduce"
        assert set(manifest["parameters"]["panels"]) == set("abcd")

    def test_phase_diagrams(self, capsys, tmp_path):
        # at gamma = 0, 128 of the gapless cells touch |d0| = 1 between
        # the momenta of an 8192-point grid; all 335 must come out gapless
        rc, _, _ = run(capsys, "reproduce", "fig3", "--out", f"{tmp_path}/")
        assert rc == 0
        for name, gapless in (("fig3a.csv", 335), ("fig3b.csv", 1303)):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            assert len(rows) == 101 * 101
            assert sum(r.endswith(",false") for r in rows) == gapless

    def test_edge_map(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "reproduce", "fig5", "--out", f"{tmp_path}/")
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["result"]["counted_cells"] == 50
        assert manifest["result"]["solvers"] == {"interface-fold": 50}

    def test_delta_sweep(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "reproduce", "fig6", "--out", f"{tmp_path}/")
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["result"]["ep_bracket"] == [0.065, 0.07]
        assert manifest["result"]["n_branches"] == 8
        assert manifest["result"]["inserted_points"] == 0

    def test_snapshots(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "reproduce", "fig9", "--out", f"{tmp_path}/")
        assert rc == 0
        for name in ("fig9a.csv", "fig9b.csv"):
            rows = (tmp_path / name).read_text().splitlines()
            assert rows[0] == "x,prob"
            total = math.fsum(float(r.split(",")[1]) for r in rows[1:])
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("panel,largest", [("a", 1.1584), ("b", 1.1183)])
    def test_snapshot_walks_amplify_edge_modes(self, panel, largest):
        # the README's noise floor of the fig9 snapshots: a real edge
        # eigenvalue past |lambda| = 1 amplifies the stepper's rounding
        # near the interface by about largest ** 246 by t = 246
        walk = cli.FIGURES["fig9"].panels[panel].config["walk"]
        spec, _ = cli._walk_spec(
            {"walk": {key: str(value) for key, value in walk.items()}})
        result = spectrum.eigendecompose(operators.build_walk_operator(spec),
                                         compute_condition=False,
                                         interface_only=True)
        edge = [p.lam for cls in ("edge_zero", "edge_pi")
                for p in result.select(cls)]
        assert max(abs(lam) for lam in edge) == pytest.approx(largest, abs=1e-4)
        assert all(lam.imag == 0.0 for lam in edge)

    def test_defective_profiles(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "reproduce", "fig13", "--out", f"{tmp_path}/")
        assert rc == 0
        assert (tmp_path / "fig13_edge.csv").is_file()
        assert (tmp_path / "fig13_defective.csv").is_file()
        result = json.loads((tmp_path / "manifest.json").read_text())["result"]
        assert result["edge_re_eps"] == pytest.approx(-5.939536940613796e-07,
                                                      abs=1e-12)
        assert result["defective_re_eps"] == pytest.approx(
            -0.040402747271619195, abs=1e-12)


FIGURE_ARTIFACTS = {
    "fig2": ["fig2a.csv", "fig2b.csv", "fig2c.csv", "fig2d.csv"],
    "fig3": ["fig3a.csv", "fig3b.csv"],
    "fig3a": ["fig3a.csv"],
    "fig3b": ["fig3b.csv"],
    "fig4": [f"fig4{p}.csv" for p in "abcdef"],
    "fig5": ["fig5.csv"],
    "fig6": ["fig6.csv"],
    "fig7": [f"fig7{c}_{r}.csv" for c in "abcd" for r in ("dnu1", "dnu2")],
    "fig8": [f"fig8{p}_{g}.csv" for p in "abc"
             for g in ("gamma0", "gamma01")],
    "fig9": ["fig9a.csv", "fig9b.csv"],
    "fig10": [f"fig10{p}_{k}.csv" for p in "abc"
              for k in ("fourier", "trace")],
    "fig11": [f"fig11{p}_{k}.csv" for p in "ab" for k in ("fourier", "trace")],
    "fig12": [f"fig12{p}_{k}.csv" for p in "abc"
              for k in ("fourier", "trace")],
    "fig13": ["fig13_defective.csv", "fig13_edge.csv"],
}

# test sizes: fewer sites, a matching half_width, a few hundred steps
# and coarse grids; keys a panel does not set stay unset.  fig13 keeps
# its 601-site ring, on which alone its defective pair forms.
SMALL = {"num_sites": 101, "half_width": 20, "steps": 300,
         "theta1_points": 3, "theta2_points": 3, "delta_points": 6}


def small_panel(panel):
    config = {}
    for section, items in panel.config.items():
        items = {key: SMALL.get(key, value) for key, value in items.items()}
        if section == "phase-diagram":
            items.update(theta1_points=5, theta2_points=5)
        config[section] = items
    return panel._replace(config=config)


class TestEveryFigure:
    @pytest.mark.parametrize("fid", list(cli.FIGURES))
    def test_runs_and_writes_its_artifacts(self, capsys, tmp_path,
                                           monkeypatch, fid):
        fig = cli.FIGURES[fid]
        panels = {name: p if fid == "fig13" else small_panel(p)
                  for name, p in fig.panels.items()}
        monkeypatch.setitem(cli.FIGURES, fid, fig._replace(panels=panels))
        rc, _, _ = run(capsys, "reproduce", fid, "--out", f"{tmp_path}/f/")
        assert rc == 0
        manifest = json.loads((tmp_path / "f" / "manifest.json").read_text())
        assert manifest["figure"] == fid
        assert manifest["subcommand"] == fig.command
        written = sorted(p.name for p in (tmp_path / "f").iterdir())
        assert written == sorted(manifest["artifacts"]) + ["manifest.json"]
        assert sorted(manifest["artifacts"]) == sorted(FIGURE_ARTIFACTS[fid])

        # the first panel, run as its own subcommand from an INI file
        # holding the same items, writes the same bytes
        name, panel = next(iter(panels.items()))
        ini = "".join(f"[{section}]\n" + "".join(
            f"{key} = {value}\n" for key, value in items.items())
            for section, items in panel.config.items())
        rc, _, _ = run(capsys, fig.command, "--config",
                       write_config(tmp_path, ini), "--out", f"{tmp_path}/s/")
        assert rc == 0
        for artifact, file_name in panel.artifacts.items():
            assert (tmp_path / "s" / artifact).read_bytes() == \
                (tmp_path / "f" / file_name).read_bytes()
        sub = json.loads((tmp_path / "s" / "manifest.json").read_text())
        own = (manifest["parameters"] if len(panels) == 1
               else manifest["parameters"]["panels"][name])
        assert sub["parameters"] == own
        assert_live_constants(manifest)
        assert_live_constants(sub)
