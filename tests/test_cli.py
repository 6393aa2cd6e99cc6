import json
import math

import pytest

from ptwalk import cli, perturbation
from ptwalk.cli import main

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
    ], ids="_".join)
    def test_inapplicable_flag_rejected(self, capsys, argv):
        payload = error_of(capsys, *argv)
        assert payload["error"] == "CliError"
        assert "unrecognized arguments" in payload["message"]

    def test_bad_states_option(self, capsys, tmp_path):
        cfg = write_config(tmp_path, WALK + "[spectrum]\nstates = some\n")
        payload = error_of(capsys, "spectrum", "--config", cfg)
        assert "states" in payload["message"]


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

    def test_k_res_flag_overrides_config(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG + "k_res = 512\n")
        out = f"{tmp_path}/o/"
        rc, _, _ = run(capsys, "dispersion", "--config", cfg, "--out", out,
                       "--k-res", "64")
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["parameters"]["k_res"] == 64
        csv = (tmp_path / "o" / "dispersion.csv").read_text().splitlines()
        # header plus k_res + 1 samples, both zone edges included
        assert len(csv) == 1 + 65


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

    def test_sites_flag_overrides_walk(self, capsys, tmp_path):
        cfg = write_config(tmp_path, WALK + "[spectrum]\n"
                                            "compute_condition = false\n")
        out = f"{tmp_path}/s/"
        rc, _, _ = run(capsys, "spectrum", "--config", cfg, "--out", out,
                       "--sites", "51")
        assert rc == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["parameters"]["walk"]["num_sites"] == 51
        rows = (tmp_path / "s" / "spectrum.csv").read_text().splitlines()
        assert len(rows) == 1 + 102


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
        assert manifest["result"]["leaked_probability"] == 0.0
        assert manifest["result"]["log_scale"] == 0.0
        assert manifest["parameters"]["rescale_limit"] == 1e120
        trace = (tmp_path / "e" / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + 13

    def test_steps_flag_overrides_config(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.CFG.replace(
            "snapshot_times = 4,8\n", ""))
        out = f"{tmp_path}/e/"
        rc, _, _ = run(capsys, "evolve", "--config", cfg, "--out", out,
                       "--steps", "6")
        assert rc == 0
        trace = (tmp_path / "e" / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + 7


class TestDisorderCommand:
    def test_seed_flag_sets_seed0(self, capsys, tmp_path):
        cfg = write_config(tmp_path, WALK + "[disorder]\ntheta_r = 0.01\n"
                                            "n_seeds = 2\n")
        out = f"{tmp_path}/d/"
        rc, _, _ = run(capsys, "disorder", "--config", cfg, "--out", out,
                       "--seed", "7", "--sites", "51")
        assert rc == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["parameters"]["seed0"] == 7
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


class TestEpFindCommand:
    def test_zero_tol_delta_is_an_error(self, capsys, tmp_path, monkeypatch):
        def no_solve(*args):
            raise AssertionError("probed before checking tol_delta")
        monkeypatch.setattr(perturbation, "_edge_eigensystem", no_solve)
        cfg = write_config(tmp_path, WALK + "[ep-find]\ndelta_lo = 0.05\n"
                                            "delta_hi = 0.08\n"
                                            "tol_delta = 0\n")
        payload = error_of(capsys, "ep-find", "--config", cfg,
                           "--out", f"{tmp_path}/e/")
        assert payload["error"] == "ValueError"
        assert "tol_delta" in payload["message"]


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
        params = manifest["parameters"]
        assert params["kappa"] == 6.0
        assert params["threshold"] == 0.05
        assert params["spectrum_window"] == 50
        assert type(params["spectrum_window"]) is int
        assert params["spectrum_sites"] == 101
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

    def test_delta_sweep(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "reproduce", "fig6", "--out", f"{tmp_path}/")
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["result"]["ep_bracket"] == [0.065, 0.07]
        assert manifest["result"]["n_branches"] == 8

    def test_snapshots(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "reproduce", "fig9", "--out", f"{tmp_path}/")
        assert rc == 0
        for name in ("fig9a.csv", "fig9b.csv"):
            rows = (tmp_path / name).read_text().splitlines()
            assert rows[0] == "x,prob"
            total = math.fsum(float(r.split(",")[1]) for r in rows[1:])
            assert total == pytest.approx(1.0, abs=1e-12)

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
