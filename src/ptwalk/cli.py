"""Command line front end.

Every run reads an optional INI-style config file with a ``[walk]``
section for the operator recipe plus one section named after the
subcommand for its numeric controls, applies any flag overrides, runs
the requested analysis, and writes CSV artifacts next to a
``manifest.json`` recording the fully resolved parameters and a sha256
per artifact.  Identical configurations produce byte-identical
artifacts: floats are printed with 17 significant digits, lines end in
LF, and manifests contain no timestamps.

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
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import dynamics as _dynamics
from . import perturbation as _perturbation
from . import spectrum as _spectrum
from .bulk import (
    GAP_TOL,
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
from .operators import WalkSpec, build_walk_operator
from .perturbation import (
    delta_sweep,
    disorder_ensemble,
    find_exceptional_point,
    write_delta_sweep_csv,
    write_disorder_csv,
)
from .spectrum import (
    DEFAULT_WINDOW,
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
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_floats(raw: str) -> list[float]:
    return [float(part) for part in raw.split(",") if part.strip()]


def _parse_ints(raw: str) -> list[int]:
    return [int(part) for part in raw.split(",") if part.strip()]


class Section:
    """One config section plus flag overrides, tracked for the manifest.

    ``take`` resolves a key with precedence override > file > default
    and records the resolved value; ``finish`` rejects unknown keys so
    a typo cannot silently fall back to a default.
    """

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = dict(items)
        self.resolved: dict = {}

    def take(self, key: str, conv, default=_REQUIRED, override=None):
        if override is not None:
            self.items.pop(key, None)
            value = override
        elif key in self.items:
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

    def finish(self) -> dict:
        if self.items:
            raise CliError(
                f"unknown keys in [{self.name}]: {sorted(self.items)}")
        return self.resolved


def _load_config(path: str | None) -> dict[str, dict[str, str]]:
    """The sections of an INI file as ``{section: {key: raw string}}``."""
    cp = configparser.ConfigParser(interpolation=None)
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


def _walk_spec(cfg: dict, args) -> WalkSpec:
    if "walk" not in cfg:
        raise CliError("this subcommand needs a [walk] section in the config")
    items = dict(cfg["walk"])
    if args.sites is not None:
        items["num_sites"] = str(args.sites)
    if args.seed is not None:
        items["disorder_seed"] = str(args.seed)
    try:
        return WalkSpec.from_config_items(items)
    except ValueError as exc:
        raise CliError(f"[walk] {exc}")


def _walk_params(spec: WalkSpec) -> dict:
    p = spec.profile
    out = {
        "kind": spec.kind,
        "num_sites": spec.lattice.num_sites,
        "boundary": spec.lattice.boundary,
        "x_min": spec.lattice.x_min,
        "gamma": spec.gamma,
        "layout": p.layout,
        "theta1_a_over_pi": p.theta1_a / math.pi,
        "theta2_a_over_pi": p.theta2_a / math.pi,
        "delta": p.delta,
        "disorder_amplitude": p.disorder_amplitude,
        "disorder_seed": p.disorder_seed,
    }
    if p.layout != "homogeneous":
        out["theta1_b_over_pi"] = p.theta1_b / math.pi
        out["theta2_b_over_pi"] = p.theta2_b / math.pi
    if p.layout == "inner_outer":
        out["half_width"] = p.half_width
    return out


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
            **extra,
        }
        full = self._full("manifest.json")
        with open(full, "w", newline="") as fh:
            fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
        for name in sorted(self.paths):
            print(f"wrote {self.paths[name]}")
        print(f"wrote {full}")


def _write_json(payload: dict, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _angle_grid(sec: Section, prefix: str, default_points: int):
    lo = sec.take(f"{prefix}_min_over_pi", float, -1.0)
    hi = sec.take(f"{prefix}_max_over_pi", float, 1.0)
    n = sec.take(f"{prefix}_points", int, default_points)
    if n < 2:
        raise CliError(f"[{sec.name}] {prefix}_points must be at least 2")
    return np.linspace(lo * math.pi, hi * math.pi, n)


# ---------------------------------------------------------------------------
# subcommand handlers: each parses its sections, runs the analysis and
# writes its artifacts through the emitter, then returns a Run


class Run(NamedTuple):
    params: dict   # resolved parameters for the manifest
    result: dict   # summary for the manifest
    data: object   # the analysis result itself


def _cmd_dispersion(args, cfg, em) -> Run:
    sec = _section(cfg, "dispersion")
    t1 = sec.take("theta1_over_pi", float)
    t2 = sec.take("theta2_over_pi", float)
    gamma = sec.take("gamma", float, 0.0)
    k_res = sec.take("k_res", int, 1024, override=args.k_res)
    params = sec.finish()

    disp = dispersion(t1 * math.pi, t2 * math.pi, gamma, k_res=k_res)
    em.write("dispersion.csv", write_dispersion_csv, disp)
    return Run(params, {"pt_broken_fraction": float(np.mean(disp.pt_broken))},
               disp)


def _cmd_phase_diagram(args, cfg, em) -> Run:
    sec = _section(cfg, "phase-diagram")
    t1s = _angle_grid(sec, "theta1", 101)
    t2s = _angle_grid(sec, "theta2", 101)
    gamma = sec.take("gamma", float, 0.0)
    params = sec.finish()
    params["gap_tol"] = GAP_TOL

    pd = phase_diagram(t1s, t2s, gamma)
    em.write("phase_diagram.csv", write_phase_diagram_csv, pd)
    result = {
        "cells": int(pd.gap_open.size),
        "gapless_cells": int(np.count_nonzero(~pd.gap_open)),
    }
    return Run(params, result, pd)


def _spectrum_tolerances() -> dict:
    return {
        "tol_edge": _spectrum.TOL_EDGE,
        "tol_real": _spectrum.TOL_REAL,
        "edge_band": _spectrum.EDGE_BAND,
        "pair_tol": _spectrum.PAIR_TOL,
        "cond_threshold": _spectrum.COND_THRESHOLD,
    }


def _cmd_spectrum(args, cfg, em) -> Run:
    spec = _walk_spec(cfg, args)
    sec = _section(cfg, "spectrum")
    window = sec.take("window", int, DEFAULT_WINDOW)
    states = sec.take("states", str, "none")
    compute_condition = sec.take("compute_condition", _parse_bool, True)
    params = sec.finish()
    if states not in ("none", "nonbulk", "all"):
        raise CliError(f"[spectrum] states must be none, nonbulk or all, "
                       f"got {states!r}")
    params["walk"] = _walk_params(spec)
    params.update(_spectrum_tolerances())

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
        "counts": dict(result.counts),
        "eps_m": result.eps_m,
    }
    return Run(params, summary, result)


def _cmd_edge_map(args, cfg, em) -> Run:
    sec = _section(cfg, "edge-map")
    inner = (sec.take("inner_theta1_over_pi", float) * math.pi,
             sec.take("inner_theta2_over_pi", float) * math.pi)
    gamma = sec.take("gamma", float, 0.0)
    half_width = sec.take("half_width", int, 50)
    num_sites = sec.take("num_sites", int, 801, override=args.sites)
    window = sec.take("window", int, DEFAULT_WINDOW)
    t1s = _angle_grid(sec, "theta1", 21)
    t2s = _angle_grid(sec, "theta2", 21)
    params = sec.finish()
    params["kind"] = "three_step"  # the kind the bulk-gap gating fits
    params.update(_spectrum_tolerances())
    params["gap_tol"] = GAP_TOL

    emap = edge_count_map(inner, t1s, t2s, gamma, half_width=half_width,
                          num_sites=num_sites, window=window)
    em.write("edge_map.csv", write_edge_map_csv, emap)
    result = {
        "counted_cells": int(np.count_nonzero(emap.counted)),
        "skipped_cells": int(np.count_nonzero(~emap.counted)),
    }
    return Run(params, result, emap)


def _sweep_tolerances() -> dict:
    return {
        "tol_im": _perturbation.TOL_IM,
        "edge_band": _spectrum.EDGE_BAND,
        "collision_tol": _perturbation.COLLISION_TOL,
        "overlap_coalesced": _perturbation.OVERLAP_COALESCED,
    }


def _cmd_delta_sweep(args, cfg, em) -> Run:
    spec = _walk_spec(cfg, args)
    sec = _section(cfg, "delta-sweep")
    deltas = sec.take("deltas", _parse_floats, None)
    if deltas is None:
        lo = sec.take("delta_min", float, 0.0)
        hi = sec.take("delta_max", float)
        n = sec.take("delta_points", int, 21)
        deltas = np.linspace(lo, hi, n).tolist()
    window = sec.take("window", int, DEFAULT_WINDOW)
    params = sec.finish()
    params["deltas"] = [float(d) for d in deltas]
    params["walk"] = _walk_params(spec)
    params["jump_factor"] = _perturbation.JUMP_FACTOR
    params.update(_sweep_tolerances())

    sweep = delta_sweep(spec, deltas, window=window)
    em.write("delta_sweep.csv", write_delta_sweep_csv, sweep)
    result = {
        "n_branches": sweep.n_branches,
        "n_points": len(sweep.points),
        "ep_bracket": list(sweep.ep_bracket) if sweep.ep_bracket else None,
    }
    return Run(params, result, sweep)


def _write_ep_csv(ep, path) -> None:
    write_csv(path, ["delta_ep", "delta_lower", "delta_upper",
                     "coalescence_overlap", "n_solves"],
              [[ep.delta, ep.lower, ep.upper, ep.coalescence_overlap,
                ep.n_solves]])


def _cmd_ep_find(args, cfg, em) -> Run:
    spec = _walk_spec(cfg, args)
    sec = _section(cfg, "ep-find")
    delta_lo = sec.take("delta_lo", float)
    delta_hi = sec.take("delta_hi", float)
    tol_delta = sec.take("tol_delta", float, 5e-4)
    window = sec.take("window", int, DEFAULT_WINDOW)
    params = sec.finish()
    params["walk"] = _walk_params(spec)
    params.update(_sweep_tolerances())

    ep = find_exceptional_point(spec, delta_lo, delta_hi,
                                tol_delta=tol_delta, window=window)
    em.write("exceptional_point.csv", _write_ep_csv, ep)
    result = {
        "delta_ep": ep.delta,
        "delta_lower": ep.lower,
        "delta_upper": ep.upper,
        "coalescence_overlap": ep.coalescence_overlap,
        "n_solves": ep.n_solves,
    }
    return Run(params, result, ep)


def _cmd_disorder(args, cfg, em) -> Run:
    spec = _walk_spec(cfg, args)
    sec = _section(cfg, "disorder")
    theta_r = sec.take("theta_r", float)
    n_seeds = sec.take("n_seeds", int, 32)
    seed0 = sec.take("seed0", int, 0, override=args.seed)
    window = sec.take("window", int, DEFAULT_WINDOW)
    params = sec.finish()
    params["walk"] = _walk_params(spec)
    params.update(_sweep_tolerances())

    ens = disorder_ensemble(spec, theta_r, n_seeds=n_seeds, seed0=seed0,
                            window=window)
    em.write("disorder.csv", write_disorder_csv, ens)
    result = {
        "fraction_all_real": ens.fraction_all_real,
        "majority_regime": ens.majority_regime,
    }
    return Run(params, result, ens)


def _take_coin(sec: Section):
    root_half = 1.0 / math.sqrt(2.0)
    re_l = sec.take("coin_l_re", float, root_half)
    im_l = sec.take("coin_l_im", float, 0.0)
    re_r = sec.take("coin_r_re", float, 0.0)
    im_r = sec.take("coin_r_im", float, root_half)
    return complex(re_l, im_l), complex(re_r, im_r)


def _cmd_evolve(args, cfg, em) -> Run:
    spec = _walk_spec(cfg, args)
    sec = _section(cfg, "evolve")
    steps = sec.take("steps", int, override=args.steps)
    x0 = sec.take("x0", int, 0)
    window_cap = sec.take("window_cap", int, 0)
    snapshot_times = sec.take("snapshot_times", _parse_ints, [])
    coin = _take_coin(sec)
    params = sec.finish()
    params["walk"] = _walk_params(spec)
    params["rescale_limit"] = _dynamics.RESCALE_LIMIT

    trace = evolve(spec, steps=steps, x0=x0, coin=coin,
                   window_cap=window_cap if window_cap > 0 else None,
                   snapshot_times=snapshot_times)
    em.write("trace.csv", write_trace_csv, trace)
    em.write("fourier.csv", write_fourier_csv, dft(trace))
    for t in snapshot_times:
        em.write(f"snapshot_t{t}.csv", write_snapshot_csv, trace, t)
    result = {
        "leaked_probability": trace.leaked_probability,
        "log_scale": trace.log_scale,
    }
    return Run(params, result, trace)


def _inference_payload(report) -> dict:
    return {
        "delta_nu": report.delta_nu,
        "candidates": list(report.candidates),
        "ambiguous": report.ambiguous,
        "parity": report.parity,
        "persistence": report.persistence,
        "families": list(report.families),
        "omega_delta_measured": report.omega_delta_measured,
        "omega_delta_hint": report.omega_delta_hint,
        "eps_m": report.eps_m,
        "gap_regime": report.gap_regime,
        "companion_solver": report.companion_solver,
        "notes": list(report.notes),
    }


def _write_modes_csv(modes, path) -> None:
    write_csv(path, ["omega_over_pi", "magnitude", "family", "bin_index"],
              ([m.omega / math.pi, m.magnitude, m.family, m.index]
               for m in modes))


def _cmd_infer_edges(args, cfg, em) -> Run:
    spec = _walk_spec(cfg, args)
    sec = _section(cfg, "infer-edges")
    steps = sec.take("steps", int, 10000, override=args.steps)
    spectrum_sites = sec.take("spectrum_sites", int, 801, override=args.sites)
    params = sec.finish()
    params["walk"] = _walk_params(spec)
    params["spectrum_window"] = _dynamics.COMPANION_WINDOW
    params["threshold"] = _dynamics.PERSISTENCE_THRESHOLD
    params["kappa"] = _dynamics.PEAK_KAPPA
    params["persistence_t_range"] = list(_dynamics.PERSISTENCE_RANGE)
    params["gap_regime_split_over_pi"] = _dynamics.GAP_REGIME_SPLIT / math.pi

    report = infer_edge_count(spec, steps=steps,
                              spectrum_sites=spectrum_sites)
    em.write("trace.csv", write_trace_csv, report.trace)
    em.write("fourier.csv", write_fourier_csv, report.fourier)
    em.write("modes.csv", _write_modes_csv, report.modes)
    payload = _inference_payload(report)
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
        runs[name] = HANDLERS[fig.command](args, cfg,
                                           em.renamed(panel.artifacts))
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
  ep-find        bisect for the exceptional point of the perturbed walk
  disorder       interface eigenvalue reality across disorder seeds
  evolve         time evolution from a point source
  infer-edges    edge state count from return probability dynamics
  reproduce      canned figure configurations (use `reproduce list`)

options:
  --out <prefix>   output path prefix for artifacts (default: ./)
  --config <path>  INI config: [walk] section plus one per subcommand
                   (every subcommand but reproduce)
  --seed <n>       disorder seed; seed0 for disorder (spectrum, delta-sweep,
                   ep-find, disorder, evolve, infer-edges)
  --sites <n>      lattice sites (the same six, and edge-map)
  --steps <n>      time steps (evolve, infer-edges)
  --k-res <n>      momentum grid resolution (dispersion)
A flag given to a subcommand that does not read it is an error.
"""

WALK_COMMANDS = ("spectrum", "delta-sweep", "ep-find", "disorder", "evolve",
                 "infer-edges")
# (flag, argparse options, subcommands that read it)
FLAGS = (
    ("--config", {}, tuple(HANDLERS)),
    ("--seed", {"type": int}, WALK_COMMANDS),
    ("--sites", {"type": int}, WALK_COMMANDS + ("edge-map",)),
    ("--steps", {"type": int}, ("evolve", "infer-edges")),
    ("--k-res", {"dest": "k_res", "type": int}, ("dispersion",)),
)


def _build_parser(subcommand: str) -> _Parser:
    parser = _Parser(prog=f"ptwalk {subcommand}", add_help=False)
    if subcommand == "reproduce":
        parser.add_argument("figure")
    parser.add_argument("--out", default="")
    for flag, options, commands in FLAGS:
        if subcommand in commands:
            parser.add_argument(flag, **options)
        else:
            # handlers read every flag; figure panels run with none set
            parser.set_defaults(**{options.get("dest", flag[2:]): None})
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
    em = Emitter(args.out)
    run = HANDLERS[subcommand](args, _load_config(args.config), em)
    em.manifest(subcommand, run.params, run.result)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return _dispatch(argv)
    except (PtwalkError, ValueError, KeyError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
