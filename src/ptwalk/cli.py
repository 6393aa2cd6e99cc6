"""Command line front end.

Every run reads an optional INI-style config file with a ``[walk]``
section for the operator recipe plus one section named after the
subcommand for its numeric controls (any other section is an error),
runs the requested analysis, and writes CSV artifacts next to a
``manifest.json`` recording the fully resolved parameters, a sha256
per artifact and every numeric constant of the library.  The config
file is the only source of a run's settings: the command line names
the file and the output prefix, nothing else.
Identical configurations produce byte-identical artifacts: floats are
printed with 17 significant digits, lines end in LF, and manifests
contain no timestamps.

Angles in config files are given in units of pi (``theta1_over_pi =
0.4`` means 0.4*pi) to keep transcription of fractional-pi parameters
exact.  All errors are reported as one JSON object on stderr with exit
status 1.

``reproduce`` runs the canned configurations of a published figure:
each panel is one subcommand run on config items written in the same
grammar, with its artifacts renamed after the panel.  ``ptwalk
reproduce list`` shows what is available.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import numbers
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, bulk, dynamics, operators, perturbation, spectrum
from .bulk import (
    dispersion,
    phase_diagram,
    write_dispersion_csv,
    write_phase_diagram_csv,
)
from .dynamics import (
    dft,
    evolve,
    infer_edge_count,
    write_fourier_csv,
    write_snapshot_csv,
    write_trace_csv,
)
from .errors import PtwalkError
from .ioutil import sha256_of, write_csv
from .operators import CoinProfile, Lattice, WalkSpec, build_walk_operator
from .perturbation import (
    delta_sweep,
    disorder_ensemble,
    find_exceptional_point,
    write_delta_sweep_csv,
    write_disorder_csv,
)
from .spectrum import (
    edge_count_map,
    eigendecompose,
    write_edge_map_csv,
    write_spectrum_csv,
    write_state_csv,
)


class CliError(PtwalkError):
    """Bad invocation: unknown subcommand, bad flag, bad config."""


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) with plain-text usage; errors must
    # come out as JSON like every other failure
    def error(self, message):
        raise CliError(message)


_REQUIRED = object()


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _parse_ints(raw: str) -> list[int]:
    return [int(part) for part in raw.split(",") if part.strip()]


class Section:
    """One config section, tracked for the manifest.

    ``take`` resolves a key from the file or else its default and
    records the resolved value; ``finish`` rejects unknown keys so
    a typo cannot silently fall back to a default.  ``angle`` is the
    one place a config value in units of pi becomes radians.
    """

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = dict(items)
        self.resolved: dict = {}

    def take(self, key: str, conv, default=_REQUIRED):
        if key in self.items:
            raw = self.items.pop(key)
            try:
                value = conv(raw)
            except ValueError as exc:
                raise CliError(f"[{self.name}] {key}: {exc}")
        elif default is _REQUIRED:
            raise CliError(f"missing key {key!r} in section [{self.name}]")
        else:
            value = default
        self.resolved[key] = value
        return value

    def angle(self, key: str, default=_REQUIRED) -> float:
        """``take`` for a value in units of pi: records it as given and
        returns it in radians."""
        return self.take(key, _parse_float, default) * math.pi

    def finish(self) -> dict:
        if self.items:
            raise CliError(
                f"unknown keys in [{self.name}]: {sorted(self.items)}")
        return self.resolved


def _load_config(path: str | None) -> dict[str, dict[str, str]]:
    """The sections of an INI file as ``{section: {key: raw string}}``."""
    # no header can name the empty section, so [DEFAULT] is an ordinary
    # section, rejected as unknown, instead of a source of every key
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    cp.optionxform = str
    if path is not None:
        try:
            found = cp.read(path)
        except configparser.Error as exc:
            raise CliError(f"bad config file: {exc}")
        if not found:
            raise CliError(f"config file not found: {path}")
    return {name: dict(cp[name]) for name in cp.sections()}


def _section(cfg: dict, name: str) -> Section:
    return Section(name, cfg.get(name, {}))


def _walk_spec(cfg: dict) -> tuple[WalkSpec, dict]:
    """The walk of the ``[walk]`` section and its resolved parameters."""
    if "walk" not in cfg:
        raise CliError("this subcommand needs a [walk] section in the config")
    sec = _section(cfg, "walk")
    kind = sec.take("kind", str)
    num_sites = sec.take("num_sites", int)
    layout = sec.take("layout", str, "homogeneous")
    profile = dict(
        layout=layout,
        theta1_a=sec.angle("theta1_a_over_pi"),
        theta2_a=sec.angle("theta2_a_over_pi"),
        delta=sec.take("delta", _parse_float, 0.0),
        disorder_amplitude=sec.take("disorder_amplitude", _parse_float, 0.0),
        disorder_seed=sec.take("disorder_seed", int, 0),
    )
    if layout != "homogeneous":
        profile["theta1_b"] = sec.angle("theta1_b_over_pi")
        profile["theta2_b"] = sec.angle("theta2_b_over_pi")
    if layout == "inner_outer":
        profile["half_width"] = sec.take("half_width", int)
    gamma = sec.take("gamma", _parse_float, 0.0)
    params = sec.finish()
    try:
        spec = WalkSpec(kind=kind, lattice=Lattice(num_sites),
                        profile=CoinProfile(**profile), gamma=gamma)
    except ValueError as exc:
        raise CliError(f"[walk] {exc}")
    # every walk runs on a centred ring; recorded so manifests say so
    params["boundary"] = "periodic"
    params["x_min"] = spec.lattice.x_min
    return spec, params


class Emitter:
    """Artifact writer rooted at the output prefix.

    ``names`` maps a subcommand's artifact names to the file names a
    figure panel writes them under; artifacts it leaves out are not
    written.  Without it every artifact keeps its own name.
    """

    def __init__(self, prefix: str, names: dict | None = None,
                 paths: dict | None = None):
        self.prefix = prefix
        self.names = names
        self.paths: dict[str, str] = {} if paths is None else paths

    def renamed(self, names: dict) -> "Emitter":
        """A writer into the same prefix and manifest, under ``names``."""
        return Emitter(self.prefix, names, self.paths)

    def _full(self, name: str) -> str:
        full = self.prefix + name
        parent = os.path.dirname(full)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return full

    def write(self, name: str, writer, *data) -> None:
        """Call ``writer(*data, path)`` for artifact ``name`` if wanted."""
        if self.names is not None:
            if name not in self.names:
                return
            name = self.names[name]
        self.paths[name] = self._full(name)
        writer(*data, self.paths[name])

    def manifest(self, command: str, parameters: dict, result: dict,
                 **extra) -> None:
        data = {
            "command": command,
            "version": __version__,
            "parameters": parameters,
            "artifacts": {name: sha256_of(path)
                          for name, path in sorted(self.paths.items())},
            "result": result,
            "constants": _constants(),
            **extra,
        }
        full = self._full("manifest.json")
        _write_json(data, full)
        for name in sorted(self.paths):
            print(f"wrote {self.paths[name]}")
        print(f"wrote {full}")


# in import order, so a constant one module takes from another is
# recorded once, under the module that defines it
_CONSTANT_MODULES = (operators, bulk, spectrum, perturbation, dynamics)


def _constants() -> dict:
    """Every public numeric constant of the library, keyed
    ``module.NAME``: a number or a tuple of numbers, complex ones as
    ``[re, im]``."""
    found = {}
    for i, module in enumerate(_CONSTANT_MODULES):
        short = module.__name__.rpartition(".")[2]
        for name, value in vars(module).items():
            items = value if isinstance(value, tuple) else (value,)
            imported = any(getattr(m, name, None) is value
                           for m in _CONSTANT_MODULES[:i])
            if (name.startswith("_") or not name.isupper() or imported
                    or not all(isinstance(v, numbers.Number) for v in items)):
                continue
            if any(isinstance(v, complex) for v in items):
                items = [[complex(v).real, complex(v).imag] for v in items]
            found[f"{short}.{name}"] = (list(items) if isinstance(value, tuple)
                                        else items[0])
    return found


def _write_json(payload: dict, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _points(sec: Section, key: str, default: int) -> int:
    n = sec.take(key, int, default)
    if n < 2:
        raise CliError(f"[{sec.name}] {key} must be at least 2")
    return n


def _angle_grid(sec: Section, prefix: str, default_points: int):
    lo = sec.angle(f"{prefix}_min_over_pi", -1.0)
    hi = sec.angle(f"{prefix}_max_over_pi", 1.0)
    n = _points(sec, f"{prefix}_points", default_points)
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# subcommand handlers: each parses its sections, runs the analysis and
# writes its artifacts through the emitter, then returns a Run


class Run(NamedTuple):
    params: dict   # resolved parameters for the manifest
    result: dict   # summary for the manifest
    data: object   # the analysis result itself


def _cmd_dispersion(cfg, em) -> Run:
    sec = _section(cfg, "dispersion")
    t1 = sec.angle("theta1_over_pi")
    t2 = sec.angle("theta2_over_pi")
    gamma = sec.take("gamma", _parse_float, 0.0)
    k_res = sec.take("k_res", int, 1024)
    params = sec.finish()

    disp = dispersion(t1, t2, gamma, k_res=k_res)
    em.write("dispersion.csv", write_dispersion_csv, disp)
    return Run(params, {"pt_broken_fraction": float(np.mean(disp.pt_broken))},
               disp)


def _cmd_phase_diagram(cfg, em) -> Run:
    sec = _section(cfg, "phase-diagram")
    t1s = _angle_grid(sec, "theta1", 101)
    t2s = _angle_grid(sec, "theta2", 101)
    gamma = sec.take("gamma", _parse_float, 0.0)
    params = sec.finish()

    pd = phase_diagram(t1s, t2s, gamma)
    em.write("phase_diagram.csv", write_phase_diagram_csv, pd)
    result = {
        "cells": int(pd.gap_open.size),
        "gapless_cells": int(np.count_nonzero(~pd.gap_open)),
    }
    return Run(params, result, pd)


def _cmd_spectrum(cfg, em) -> Run:
    spec, walk = _walk_spec(cfg)
    sec = _section(cfg, "spectrum")
    window = sec.take("window", int, spectrum.DEFAULT_WINDOW)
    states = sec.take("states", str, "none")
    compute_condition = sec.take("compute_condition", _parse_bool, True)
    params = sec.finish()
    if states not in ("none", "nonbulk", "all"):
        raise CliError(f"[spectrum] states must be none, nonbulk or all, "
                       f"got {states!r}")
    params["walk"] = walk

    result = eigendecompose(build_walk_operator(spec),
                            compute_condition=compute_condition,
                            window=window)
    em.write("spectrum.csv", write_spectrum_csv, result)
    if states != "none":
        for i, pair in enumerate(result.pairs):
            if states == "nonbulk" and pair.classification == "bulk":
                continue
            em.write(f"state_{i:04d}.csv", write_state_csv, result, i)
    summary = {
        "solver": result.solver,
        "counts": dict(result.counts),
        "eps_m": result.eps_m,
        "near_defective": (sum(p.near_defective for p in result.pairs)
                           if compute_condition else None),
        "ambiguous": sum(p.ambiguous for p in result.pairs),
    }
    return Run(params, summary, result)


def _cmd_edge_map(cfg, em) -> Run:
    sec = _section(cfg, "edge-map")
    inner = (sec.angle("inner_theta1_over_pi"),
             sec.angle("inner_theta2_over_pi"))
    gamma = sec.take("gamma", _parse_float, 0.0)
    half_width = sec.take("half_width", int, 50)
    num_sites = sec.take("num_sites", int, 801)
    t1s = _angle_grid(sec, "theta1", 21)
    t2s = _angle_grid(sec, "theta2", 21)
    params = sec.finish()
    params["kind"] = "three_step"  # the kind the bulk-gap gating fits

    emap = edge_count_map(inner, t1s, t2s, gamma, half_width=half_width,
                          num_sites=num_sites)
    em.write("edge_map.csv", write_edge_map_csv, emap)
    result = {
        "counted_cells": int(np.count_nonzero(emap.counted)),
        "skipped_cells": int(np.count_nonzero(~emap.counted)),
        "solvers": dict(sorted(emap.solvers.items())),
    }
    return Run(params, result, emap)


def _cmd_delta_sweep(cfg, em) -> Run:
    spec, walk = _walk_spec(cfg)
    sec = _section(cfg, "delta-sweep")
    lo = sec.take("delta_min", _parse_float, 0.0)
    hi = sec.take("delta_max", _parse_float)
    deltas = np.linspace(lo, hi, _points(sec, "delta_points", 21)).tolist()
    params = sec.finish()
    params["deltas"] = deltas
    params["walk"] = walk

    sweep = delta_sweep(spec, deltas)
    em.write("delta_sweep.csv", write_delta_sweep_csv, sweep)
    result = {
        "n_branches": sweep.n_branches,
        "n_points": len(sweep.points),
        "inserted_points": sum(p.inserted for p in sweep.points),
        "ep_bracket": list(sweep.ep_bracket) if sweep.ep_bracket else None,
    }
    return Run(params, result, sweep)


def _cmd_ep_find(cfg, em) -> Run:
    spec, walk = _walk_spec(cfg)
    sec = _section(cfg, "ep-find")
    delta_lo = sec.take("delta_lo", _parse_float)
    delta_hi = sec.take("delta_hi", _parse_float)
    params = sec.finish()
    params["walk"] = walk

    ep = find_exceptional_point(spec, delta_lo, delta_hi)
    result = {
        "delta_ep": ep.delta,
        "delta_lower": ep.lower,
        "delta_upper": ep.upper,
        "coalescence_overlap": ep.coalescence_overlap,
        "n_solves": ep.n_solves,
    }
    em.write("exceptional_point.csv",
             lambda row, path: write_csv(path, list(row), [row.values()]),
             result)
    return Run(params, result, ep)


def _cmd_disorder(cfg, em) -> Run:
    # every realization draws its own jitter, so the walk's would go unused
    for key, instead in (("disorder_amplitude", "theta_r"),
                         ("disorder_seed", "seed0")):
        if key in cfg.get("walk", {}):
            raise CliError(f"[walk] {key} is not read by disorder; "
                           f"set [disorder] {instead} instead")
    spec, walk = _walk_spec(cfg)
    sec = _section(cfg, "disorder")
    theta_r = sec.take("theta_r", _parse_float)
    n_seeds = sec.take("n_seeds", int, 32)
    seed0 = sec.take("seed0", int, 0)
    params = sec.finish()
    # every realization runs as this kind, at theta_r from its own seed
    walk["kind"] = "three_step_perturbed_disordered"
    del walk["disorder_amplitude"], walk["disorder_seed"]
    params["walk"] = walk

    ens = disorder_ensemble(spec, theta_r, seeds=range(seed0, seed0 + n_seeds))
    em.write("disorder.csv", write_disorder_csv, ens)
    result = {
        "fraction_all_real": ens.fraction_all_real,
        "majority_regime": ens.majority_regime,
    }
    return Run(params, result, ens)


def _cmd_evolve(cfg, em) -> Run:
    spec, walk = _walk_spec(cfg)
    sec = _section(cfg, "evolve")
    steps = sec.take("steps", int)
    snapshot_times = sec.take("snapshot_times", _parse_ints, [])
    params = sec.finish()
    params["walk"] = walk
    # the source site; its coin state is dynamics.DEFAULT_COIN
    params["x0"] = 0

    trace = evolve(spec, steps=steps, snapshot_times=snapshot_times)
    em.write("trace.csv", write_trace_csv, trace)
    em.write("fourier.csv", write_fourier_csv, dft(trace))
    for t in snapshot_times:
        em.write(f"snapshot_t{t}.csv", write_snapshot_csv, trace, t)
    return Run(params, {"log_scale": trace.log_scale}, trace)


def _write_modes_csv(modes, path) -> None:
    write_csv(path, ["omega_over_pi", "magnitude", "family", "bin_index"],
              ([m.omega / math.pi, m.magnitude, m.family, m.index]
               for m in modes))


def _cmd_infer_edges(cfg, em) -> Run:
    spec, walk = _walk_spec(cfg)
    sec = _section(cfg, "infer-edges")
    steps = sec.take("steps", int, 10000)
    spectrum_sites = sec.take("spectrum_sites", int, 801)
    params = sec.finish()
    params["walk"] = walk

    report = infer_edge_count(spec, steps=steps,
                              spectrum_sites=spectrum_sites)
    em.write("trace.csv", write_trace_csv, report.trace)
    em.write("fourier.csv", write_fourier_csv, report.fourier)
    em.write("modes.csv", _write_modes_csv, report.modes)
    payload = {f.name: getattr(report, f.name)
               for f in dataclasses.fields(report)
               if f.name not in ("modes", "trace", "fourier")}
    em.write("inference.json", _write_json, payload)
    return Run(params, payload, report)


HANDLERS = {
    "dispersion": _cmd_dispersion,
    "phase-diagram": _cmd_phase_diagram,
    "spectrum": _cmd_spectrum,
    "edge-map": _cmd_edge_map,
    "delta-sweep": _cmd_delta_sweep,
    "ep-find": _cmd_ep_find,
    "disorder": _cmd_disorder,
    "evolve": _cmd_evolve,
    "infer-edges": _cmd_infer_edges,
}


# ---------------------------------------------------------------------------
# canned figure configurations
#
# A figure is one subcommand run once per panel.  A panel holds the
# config sections that run reads (values in the config grammar, angles
# in units of pi) and the file name of each artifact it keeps.


class Panel(NamedTuple):
    config: dict      # section -> {key: value}
    artifacts: dict   # subcommand artifact name -> file name


class Figure(NamedTuple):
    command: str
    panels: dict      # panel name -> Panel
    # reads the panels' Runs, writes extra artifacts, returns result items
    pick: Callable | None = None


INNER = (0.4, 0.1)
OUTER = {
    "a": (0.7, 0.05),    # nu_shifted 0
    "b": (0.9, 0.2),     # nu_shifted 1
    "c": (-0.2, 0.3),    # nu_shifted 2
    "d": (-0.6, 0.2),    # nu_shifted 3
}
LEFT_LARGE_GAP = (0.75, 0.05)
LEFT_SMALL_GAP = (0.125, 0.1)


def _interface_walk(outer, gamma, kind="three_step", **profile) -> dict:
    return {"kind": kind, "num_sites": 801, "layout": "inner_outer",
            "theta1_a_over_pi": INNER[0], "theta2_a_over_pi": INNER[1],
            "theta1_b_over_pi": outer[0], "theta2_b_over_pi": outer[1],
            "half_width": 50, "gamma": gamma, **profile}


def _split_walk(left, right, delta, num_sites=801) -> dict:
    return {"kind": "three_step_perturbed", "num_sites": num_sites,
            "layout": "left_right",
            "theta1_a_over_pi": left[0], "theta2_a_over_pi": left[1],
            "theta1_b_over_pi": right[0], "theta2_b_over_pi": right[1],
            "delta": delta}


def _spectrum_panels(fig: str, walks: dict) -> dict:
    return {name: Panel({"walk": walk,
                         "spectrum": {"compute_condition": False}},
                        {"spectrum.csv": f"{fig}{name}.csv"})
            for name, walk in walks.items()}


def _trace_panels(fig: str, walks: dict) -> dict:
    return {name: Panel({"walk": walk, "evolve": {"steps": 10000}},
                        {"trace.csv": f"{fig}{name}_trace.csv",
                         "fourier.csv": f"{fig}{name}_fourier.csv"})
            for name, walk in walks.items()}


def _pick_fig4f(em: Emitter, runs: dict) -> dict:
    """Panel f: the interface state of panel d whose eigenvalue has the
    smallest real part (the most amplified pi mode)."""
    res = runs["d"].data
    nonbulk = [i for i, p in enumerate(res.pairs)
               if p.classification != "bulk"]
    if not nonbulk:
        raise CliError("panel d produced no interface states")
    pick = min(nonbulk, key=lambda i: (res.pairs[i].lam.real, i))
    em.write("fig4f.csv", write_state_csv, res, pick)
    return {"f": {"source_panel": "d", "pair_index": pick}}


def _pick_fig13(em: Emitter, runs: dict) -> dict:
    """The protected edge state and the member of the defective pair
    closest to eps = 0 from below."""
    res = runs["fig13"].data
    edges = [i for i, p in enumerate(res.pairs)
             if p.classification == "edge_zero"]
    defect = [i for i, p in enumerate(res.pairs)
              if p.classification == "defective_pair_member"
              and abs(p.eps.real) < math.pi / 2 and p.eps.real < 0]
    if not edges or not defect:
        raise CliError("expected both a protected edge state and a "
                       "defective pair near eps = 0")
    i_edge = min(edges, key=lambda i: (abs(res.pairs[i].eps.real), i))
    i_def = min(defect, key=lambda i: (abs(res.pairs[i].eps.real), i))
    em.write("fig13_edge.csv", write_state_csv, res, i_edge)
    em.write("fig13_defective.csv", write_state_csv, res, i_def)
    return {"edge_pair_index": i_edge, "defective_pair_index": i_def,
            "edge_re_eps": res.pairs[i_edge].eps.real,
            "defective_re_eps": res.pairs[i_def].eps.real}


_FIG3 = {name: Panel({"phase-diagram": {"gamma": gamma}},
                     {"phase_diagram.csv": f"fig3{name}.csv"})
         for name, gamma in (("a", 0.0), ("b", 0.1))}

FIGURES = {
    "fig2": Figure("dispersion", {
        name: Panel({"dispersion": {"theta1_over_pi": t1,
                                    "theta2_over_pi": t2, "gamma": 0.1}},
                    {"dispersion.csv": f"fig2{name}.csv"})
        for name, (t1, t2) in (("a", (1 / 3, 1 / 5)),
                               ("b", (-1 / 10, 1 / 8)),
                               ("c", (1 / 10, 1 / 7)),
                               ("d", (1 / 4, 1 / 4)))}),
    "fig3": Figure("phase-diagram", _FIG3),
    "fig3a": Figure("phase-diagram", {"a": _FIG3["a"]}),
    "fig3b": Figure("phase-diagram", {"b": _FIG3["b"]}),
    "fig4": Figure("spectrum", _spectrum_panels("fig4", {
        **{name: _interface_walk(outer, 0.1) for name, outer in OUTER.items()},
        "e": _interface_walk(OUTER["d"], 0.0),
    }), pick=_pick_fig4f),
    # trimmed from the published 101x101 sweep of 1602-dim solves: a
    # 9x9 grid on a 301-site ring runs in seconds through the same path
    "fig5": Figure("edge-map", {"fig5": Panel(
        {"edge-map": {"inner_theta1_over_pi": INNER[0],
                      "inner_theta2_over_pi": INNER[1], "gamma": 0.1,
                      "half_width": 50, "num_sites": 301,
                      "theta1_points": 9, "theta2_points": 9}},
        {"edge_map.csv": "fig5.csv"})}),
    "fig6": Figure("delta-sweep", {"fig6": Panel(
        {"walk": _interface_walk(OUTER["c"], 0.1, "three_step_perturbed"),
         "delta-sweep": {"delta_min": 0.0, "delta_max": 0.1,
                         "delta_points": 21}},
        {"delta_sweep.csv": "fig6.csv"})}),
    "fig7": Figure("spectrum", _spectrum_panels("fig7", {
        f"{col}_{row}": _interface_walk(outer, gamma, "three_step_perturbed",
                                        delta=delta)
        for row, outer in (("dnu1", OUTER["b"]), ("dnu2", OUTER["c"]))
        for col, (delta, gamma) in (("a", (0.05, 0.0)), ("b", (0.05, 0.1)),
                                    ("c", (0.0696, 0.1)), ("d", (0.08, 0.1)))
    })),
    "fig8": Figure("spectrum", _spectrum_panels("fig8", {
        f"{name}_{gname}": _interface_walk(
            outer, gamma, "three_step_perturbed_disordered", delta=0.05,
            disorder_amplitude=theta_r, disorder_seed=0)
        for name, (outer, theta_r) in (("a", (OUTER["b"], 0.1)),
                                       ("b", (OUTER["c"], 0.001)),
                                       ("c", (OUTER["c"], 0.1)))
        for gname, gamma in (("gamma0", 0.0), ("gamma01", 0.1))
    })),
    "fig9": Figure("evolve", {
        name: Panel({"walk": _interface_walk(outer, 0.1),
                     "evolve": {"steps": 246, "snapshot_times": 246}},
                    {"snapshot_t246.csv": f"fig9{name}.csv"})
        for name, outer in (("a", OUTER["c"]), ("b", (-0.6, 0.15)))}),
    "fig10": Figure("evolve", _trace_panels("fig10", {
        name: _split_walk(LEFT_LARGE_GAP, (-1 / 3, 0.0), delta)
        for name, delta in (("a", 0.0), ("b", 0.02), ("c", 0.05))})),
    "fig11": Figure("evolve", _trace_panels("fig11", {
        name: _split_walk(LEFT_LARGE_GAP, right, 0.05)
        for name, right in (("a", (-0.1, 0.4)), ("b", (-1 / 15, 2 / 3)))})),
    "fig12": Figure("evolve", _trace_panels("fig12", {
        name: _split_walk(LEFT_SMALL_GAP, right, 0.05)
        for name, right in (("a", (-0.2, -1 / 12)), ("b", (-0.1, 0.4)),
                            ("c", (-0.05, -1 / 7)))})),
    "fig13": Figure("spectrum", {"fig13": Panel(
        {"walk": _split_walk(LEFT_SMALL_GAP, (-0.2, -1 / 12), 0.05,
                             num_sites=601),
         "spectrum": {"window": 50, "compute_condition": False}},
        {})}, pick=_pick_fig13),
}


def _figure_ids() -> list[str]:
    return sorted(FIGURES, key=lambda s: (len(s), s))


def _cmd_reproduce(args) -> int:
    if args.figure == "list":
        for fid in _figure_ids():
            print(fid)
        return 0
    fig = FIGURES.get(args.figure)
    if fig is None:
        known = ", ".join(_figure_ids())
        raise CliError(f"unknown figure id {args.figure!r}; known: {known}")
    em = Emitter(args.out)
    runs = {}
    for name, panel in fig.panels.items():
        cfg = {section: {key: str(value) for key, value in items.items()}
               for section, items in panel.config.items()}
        runs[name] = HANDLERS[fig.command](cfg, em.renamed(panel.artifacts))
    if len(runs) == 1:
        (run,) = runs.values()
        params, result = run.params, dict(run.result)
    else:
        params = {"panels": {name: run.params for name, run in runs.items()}}
        result = {"panels": {name: run.result for name, run in runs.items()}}
    if fig.pick is not None:
        result.update(fig.pick(em, runs))
    em.manifest("reproduce", params, result, figure=args.figure,
                subcommand=fig.command)
    return 0


# ---------------------------------------------------------------------------
# dispatch

USAGE = """usage: ptwalk <subcommand> [options]

subcommands:
  dispersion     quasienergy bands over the Brillouin zone
  phase-diagram  shifted winding number on an angle grid
  spectrum       eigenvalues and state classes of a finite walk
  edge-map       protected interface mode counts on an outer-angle grid
  delta-sweep    interface eigenvalues tracked along a perturbation grid
  ep-find        locate the exceptional point of the perturbed walk
  disorder       interface eigenvalue reality across disorder seeds
  evolve         time evolution from a point source
  infer-edges    edge state count from return probability dynamics
  reproduce      canned figure configurations (use `reproduce list`)

options:
  --out <prefix>   output path prefix for artifacts (default: ./)
  --config <path>  INI config: [walk] section plus one per subcommand
                   (every subcommand but reproduce)
Every other setting is a config key; any other flag is an error.
"""

WALK_COMMANDS = ("spectrum", "delta-sweep", "ep-find", "disorder", "evolve",
                 "infer-edges")


def _build_parser(subcommand: str) -> _Parser:
    parser = _Parser(prog=f"ptwalk {subcommand}", add_help=False)
    if subcommand == "reproduce":
        parser.add_argument("figure")
    else:
        parser.add_argument("--config")
    parser.add_argument("--out", default="")
    return parser


def _dispatch(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE, end="")
        return 0
    subcommand, rest = argv[0], argv[1:]
    if subcommand not in HANDLERS and subcommand != "reproduce":
        known = ", ".join(sorted([*HANDLERS, "reproduce"]))
        raise CliError(f"unknown subcommand {subcommand!r}; known: {known}")
    args = _build_parser(subcommand).parse_args(rest)
    if subcommand == "reproduce":
        return _cmd_reproduce(args)
    cfg = _load_config(args.config)
    unread = set(cfg) - {subcommand}
    if subcommand in WALK_COMMANDS:
        unread.discard("walk")
    if unread:
        raise CliError(f"unknown sections for {subcommand}: {sorted(unread)}")
    em = Emitter(args.out)
    run = HANDLERS[subcommand](cfg, em)
    em.manifest(subcommand, run.params, run.result)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return _dispatch(argv)
    except Exception as exc:
        # a private subclass (numpy's _ArrayMemoryError) is named by its
        # public base
        name = next(cls.__name__ for cls in type(exc).__mro__
                    if not cls.__name__.startswith("_"))
        payload = {"error": name, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
