"""Command line front end.

Every run reads an optional INI-style config file with a ``[walk]``
section for the operator recipe plus one section named after the
subcommand for its numeric controls, applies any flag overrides, runs
the requested analysis, and writes CSV artifacts next to a
``manifest.json`` recording the fully resolved parameters and a sha256
per artifact.  Identical configurations produce byte-identical
artifacts: floats are printed with 17 significant digits, lines end in
LF, thread counts never change results, and manifests contain no
timestamps.

Angles in config files are given in units of pi (``theta1_over_pi =
0.4`` means 0.4*pi) to keep transcription of fractional-pi parameters
exact.  All errors are reported as one JSON object on stderr with exit
status 1.

``reproduce`` runs a canned configuration per published figure panel
and names the artifacts after it; ``ptwalk reproduce list`` shows what
is available.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys

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
    PERSISTENCE_RANGE,
    PERSISTENCE_THRESHOLD,
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


def _load_config(path: str | None) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    if path is not None:
        try:
            found = cp.read(path)
        except configparser.Error as exc:
            raise CliError(f"bad config file: {exc}")
        if not found:
            raise CliError(f"config file not found: {path}")
    return cp


def _section(cp: configparser.ConfigParser, name: str) -> Section:
    items = dict(cp[name]) if cp.has_section(name) else {}
    return Section(name, items)


def _walk_spec(cp: configparser.ConfigParser, args) -> WalkSpec:
    if not cp.has_section("walk"):
        raise CliError("this subcommand needs a [walk] section in the config")
    items = dict(cp["walk"])
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
    """Artifact writer rooted at the output prefix."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.paths: dict[str, str] = {}
        parent = os.path.dirname(prefix)
        if parent:
            os.makedirs(parent, exist_ok=True)

    def path(self, name: str) -> str:
        full = self.prefix + name
        self.paths[name] = full
        return full

    def write_json(self, name: str, payload: dict) -> None:
        with open(self.path(name), "w", newline="") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def manifest(self, command: str, parameters: dict, result=None,
                 figure=None) -> str:
        data = {
            "command": command,
            "version": __version__,
            "parameters": parameters,
            "artifacts": {name: sha256_of(path)
                          for name, path in sorted(self.paths.items())},
        }
        if figure is not None:
            data["figure"] = figure
        if result is not None:
            data["result"] = result
        full = self.prefix + "manifest.json"
        with open(full, "w", newline="") as fh:
            fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
        for name in sorted(self.paths):
            print(f"wrote {self.paths[name]}")
        print(f"wrote {full}")
        return full


def _angle_grid(sec: Section, prefix: str, default_points: int):
    lo = sec.take(f"{prefix}_min_over_pi", float, -1.0)
    hi = sec.take(f"{prefix}_max_over_pi", float, 1.0)
    n = sec.take(f"{prefix}_points", int, default_points)
    if n < 2:
        raise CliError(f"[{sec.name}] {prefix}_points must be at least 2")
    return np.linspace(lo * math.pi, hi * math.pi, n)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_dispersion(args, cp) -> int:
    sec = _section(cp, "dispersion")
    t1 = sec.take("theta1_over_pi", float)
    t2 = sec.take("theta2_over_pi", float)
    gamma = sec.take("gamma", float, 0.0)
    k_res = sec.take("k_res", int, 1024, override=args.k_res)
    params = sec.finish()

    disp = dispersion(t1 * math.pi, t2 * math.pi, gamma, k_res=k_res)
    em = Emitter(args.out)
    write_dispersion_csv(disp, em.path("dispersion.csv"))
    result = {"pt_broken_fraction": float(np.mean(disp.pt_broken))}
    em.manifest("dispersion", params, result)
    return 0


def _cmd_phase_diagram(args, cp) -> int:
    sec = _section(cp, "phase-diagram")
    t1s = _angle_grid(sec, "theta1", 101)
    t2s = _angle_grid(sec, "theta2", 101)
    gamma = sec.take("gamma", float, 0.0)
    params = sec.finish()
    params["gap_tol"] = GAP_TOL

    pd = phase_diagram(t1s, t2s, gamma, threads=args.threads)
    em = Emitter(args.out)
    write_phase_diagram_csv(pd, em.path("phase_diagram.csv"))
    result = {
        "cells": int(pd.gap_open.size),
        "gapless_cells": int(np.count_nonzero(~pd.gap_open)),
    }
    em.manifest("phase-diagram", params, result)
    return 0


def _spectrum_tolerances() -> dict:
    return {
        "tol_edge": _spectrum.TOL_EDGE,
        "tol_real": _spectrum.TOL_REAL,
        "edge_band": _spectrum.EDGE_BAND,
        "pair_tol": _spectrum.PAIR_TOL,
        "cond_threshold": _spectrum.COND_THRESHOLD,
    }


def _cmd_spectrum(args, cp) -> int:
    spec = _walk_spec(cp, args)
    sec = _section(cp, "spectrum")
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
    em = Emitter(args.out)
    write_spectrum_csv(result, em.path("spectrum.csv"))
    if states != "none":
        for i, pair in enumerate(result.pairs):
            if states == "nonbulk" and pair.classification == "bulk":
                continue
            write_state_csv(result, i, em.path(f"state_{i:04d}.csv"))
    summary = {
        "counts": dict(result.counts),
        "eps_m": result.eps_m,
    }
    em.manifest("spectrum", params, summary)
    return 0


def _cmd_edge_map(args, cp) -> int:
    sec = _section(cp, "edge-map")
    inner = (sec.take("inner_theta1_over_pi", float) * math.pi,
             sec.take("inner_theta2_over_pi", float) * math.pi)
    gamma = sec.take("gamma", float, 0.0)
    half_width = sec.take("half_width", int, 50)
    num_sites = sec.take("num_sites", int, 801, override=args.sites)
    window = sec.take("window", int, DEFAULT_WINDOW)
    kind = sec.take("kind", str, "three_step")
    t1s = _angle_grid(sec, "theta1", 21)
    t2s = _angle_grid(sec, "theta2", 21)
    params = sec.finish()
    params.update(_spectrum_tolerances())
    params["gap_tol"] = GAP_TOL

    emap = edge_count_map(inner, t1s, t2s, gamma, half_width=half_width,
                          num_sites=num_sites, window=window,
                          threads=args.threads, kind=kind)
    em = Emitter(args.out)
    write_edge_map_csv(emap, em.path("edge_map.csv"))
    result = {
        "counted_cells": int(np.count_nonzero(emap.counted)),
        "skipped_cells": int(np.count_nonzero(~emap.counted)),
    }
    em.manifest("edge-map", params, result)
    return 0


def _sweep_tolerances() -> dict:
    return {
        "tol_im": _perturbation.TOL_IM,
        "edge_band": _perturbation.EDGE_BAND,
        "collision_tol": _perturbation.COLLISION_TOL,
        "overlap_coalesced": _perturbation.OVERLAP_COALESCED,
    }


def _cmd_delta_sweep(args, cp) -> int:
    spec = _walk_spec(cp, args)
    sec = _section(cp, "delta-sweep")
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
    em = Emitter(args.out)
    write_delta_sweep_csv(sweep, em.path("delta_sweep.csv"))
    result = {
        "n_branches": sweep.n_branches,
        "n_points": len(sweep.points),
        "ep_bracket": list(sweep.ep_bracket) if sweep.ep_bracket else None,
    }
    em.manifest("delta-sweep", params, result)
    return 0


def _cmd_ep_find(args, cp) -> int:
    spec = _walk_spec(cp, args)
    sec = _section(cp, "ep-find")
    delta_lo = sec.take("delta_lo", float)
    delta_hi = sec.take("delta_hi", float)
    tol_delta = sec.take("tol_delta", float, 5e-4)
    window = sec.take("window", int, DEFAULT_WINDOW)
    params = sec.finish()
    params["walk"] = _walk_params(spec)
    params.update(_sweep_tolerances())

    ep = find_exceptional_point(spec, delta_lo, delta_hi,
                                tol_delta=tol_delta, window=window)
    em = Emitter(args.out)
    write_csv(em.path("exceptional_point.csv"),
              ["delta_ep", "delta_lower", "delta_upper",
               "coalescence_overlap", "n_solves"],
              [[ep.delta, ep.lower, ep.upper, ep.coalescence_overlap,
                ep.n_solves]])
    result = {
        "delta_ep": ep.delta,
        "delta_lower": ep.lower,
        "delta_upper": ep.upper,
        "coalescence_overlap": ep.coalescence_overlap,
        "n_solves": ep.n_solves,
    }
    em.manifest("ep-find", params, result)
    return 0


def _cmd_disorder(args, cp) -> int:
    spec = _walk_spec(cp, args)
    sec = _section(cp, "disorder")
    theta_r = sec.take("theta_r", float)
    n_seeds = sec.take("n_seeds", int, 32)
    seed0 = sec.take("seed0", int, 0, override=args.seed)
    window = sec.take("window", int, DEFAULT_WINDOW)
    params = sec.finish()
    params["walk"] = _walk_params(spec)
    params.update(_sweep_tolerances())

    ens = disorder_ensemble(spec, theta_r, n_seeds=n_seeds, seed0=seed0,
                            threads=args.threads, window=window)
    em = Emitter(args.out)
    write_disorder_csv(ens, em.path("disorder.csv"))
    result = {
        "fraction_all_real": ens.fraction_all_real,
        "majority_regime": ens.majority_regime,
    }
    em.manifest("disorder", params, result)
    return 0


def _take_coin(sec: Section):
    root_half = 1.0 / math.sqrt(2.0)
    re_l = sec.take("coin_l_re", float, root_half)
    im_l = sec.take("coin_l_im", float, 0.0)
    re_r = sec.take("coin_r_re", float, 0.0)
    im_r = sec.take("coin_r_im", float, root_half)
    return complex(re_l, im_l), complex(re_r, im_r)


def _cmd_evolve(args, cp) -> int:
    spec = _walk_spec(cp, args)
    sec = _section(cp, "evolve")
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
    em = Emitter(args.out)
    write_trace_csv(trace, em.path("trace.csv"))
    write_fourier_csv(dft(trace), em.path("fourier.csv"))
    for t in snapshot_times:
        write_snapshot_csv(trace, t, em.path(f"snapshot_t{t}.csv"))
    result = {
        "leaked_probability": trace.leaked_probability,
        "log_scale": trace.log_scale,
    }
    em.manifest("evolve", params, result)
    return 0


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
        "notes": list(report.notes),
    }


def _write_modes_csv(modes, path) -> None:
    write_csv(path, ["omega_over_pi", "magnitude", "family", "bin_index"],
              ([m.omega / math.pi, m.magnitude, m.family, m.index]
               for m in modes))


def _cmd_infer_edges(args, cp) -> int:
    spec = _walk_spec(cp, args)
    sec = _section(cp, "infer-edges")
    steps = sec.take("steps", int, 10000, override=args.steps)
    spectrum_sites = sec.take("spectrum_sites", int, 801, override=args.sites)
    spectrum_window = sec.take("spectrum_window", int, 50)
    threshold = sec.take("threshold", float, PERSISTENCE_THRESHOLD)
    kappa = sec.take("kappa", float, 6.0)
    params = sec.finish()
    params["walk"] = _walk_params(spec)
    params["persistence_t_range"] = list(PERSISTENCE_RANGE)
    params["gap_regime_split_over_pi"] = _dynamics.GAP_REGIME_SPLIT / math.pi

    report = infer_edge_count(spec, steps=steps,
                              spectrum_sites=spectrum_sites,
                              spectrum_window=spectrum_window,
                              threshold=threshold, kappa=kappa)
    em = Emitter(args.out)
    write_trace_csv(report.trace, em.path("trace.csv"))
    write_fourier_csv(report.fourier, em.path("fourier.csv"))
    _write_modes_csv(report.modes, em.path("modes.csv"))
    payload = _inference_payload(report)
    em.write_json("inference.json", payload)
    em.manifest("infer-edges", params, payload)
    return 0


# ---------------------------------------------------------------------------
# canned figure configurations

INNER = (0.4 * math.pi, 0.1 * math.pi)
OUTER = {
    "a": (0.7 * math.pi, 0.05 * math.pi),   # nu_shifted 0
    "b": (0.9 * math.pi, 0.2 * math.pi),    # nu_shifted 1
    "c": (-0.2 * math.pi, 0.3 * math.pi),   # nu_shifted 2
    "d": (-0.6 * math.pi, 0.2 * math.pi),   # nu_shifted 3
}
LEFT_LARGE_GAP = (0.75 * math.pi, 0.05 * math.pi)
LEFT_SMALL_GAP = (0.125 * math.pi, 0.1 * math.pi)


def _interface_spec(outer, gamma, delta=0.0, num_sites=801, half_width=50,
                    **profile_kw) -> WalkSpec:
    kind = "three_step_perturbed" if (
        delta != 0.0 or profile_kw.get("disorder_amplitude")) else "three_step"
    if profile_kw.pop("disordered", False):
        kind = "three_step_perturbed_disordered"
    profile = CoinProfile.inner_outer(INNER, outer, half_width, delta=delta,
                                      **profile_kw)
    return WalkSpec(kind=kind, lattice=Lattice(num_sites), profile=profile,
                    gamma=gamma)


def _split_spec(left, right, delta, num_sites=801, gamma=0.0) -> WalkSpec:
    profile = CoinProfile.left_right(left, right, delta=delta)
    return WalkSpec(kind="three_step_perturbed", lattice=Lattice(num_sites),
                    profile=profile, gamma=gamma)


def _fig_dispersion_panels(em: Emitter, threads: int):
    panels = {
        "a": (math.pi / 3, math.pi / 5),
        "b": (-math.pi / 10, math.pi / 8),
        "c": (math.pi / 10, math.pi / 7),
        "d": (math.pi / 4, math.pi / 4),
    }
    params: dict = {"gamma": 0.1, "k_res": 1024, "panels": {}}
    for name, (t1, t2) in panels.items():
        disp = dispersion(t1, t2, 0.1, k_res=1024)
        write_dispersion_csv(disp, em.path(f"fig2{name}.csv"))
        params["panels"][name] = {"theta1_over_pi": t1 / math.pi,
                                  "theta2_over_pi": t2 / math.pi}
    return params, None


def _phase_panel(em: Emitter, threads: int, name: str, gamma: float):
    grid = np.linspace(-math.pi, math.pi, 101)
    pd = phase_diagram(grid, grid, gamma, threads=threads)
    write_phase_diagram_csv(pd, em.path(f"{name}.csv"))
    return {
        "gamma": gamma,
        "theta_points": 101,
        "theta_min_over_pi": -1.0,
        "theta_max_over_pi": 1.0,
    }


def _fig_phase_a(em, threads):
    return _phase_panel(em, threads, "fig3a", 0.0), None


def _fig_phase_b(em, threads):
    return _phase_panel(em, threads, "fig3b", 0.1), None


def _fig_phase_both(em, threads):
    pa = _phase_panel(em, threads, "fig3a", 0.0)
    pb = _phase_panel(em, threads, "fig3b", 0.1)
    return {"panels": {"a": pa, "b": pb}}, None


def _fig_eigenvalue_panels(em: Emitter, threads: int):
    params: dict = {"window": DEFAULT_WINDOW, "panels": {}}
    counts = {}
    panel_d = None
    for name, outer in OUTER.items():
        spec = _interface_spec(outer, gamma=0.1)
        res = eigendecompose(build_walk_operator(spec),
                             compute_condition=False)
        write_spectrum_csv(res, em.path(f"fig4{name}.csv"))
        params["panels"][name] = _walk_params(spec)
        counts[name] = dict(res.counts)
        if name == "d":
            panel_d = res
    spec_e = _interface_spec(OUTER["d"], gamma=0.0)
    res_e = eigendecompose(build_walk_operator(spec_e),
                           compute_condition=False)
    write_spectrum_csv(res_e, em.path("fig4e.csv"))
    params["panels"]["e"] = _walk_params(spec_e)
    counts["e"] = dict(res_e.counts)

    # panel f: the edge state of panel d whose eigenvalue has the
    # smallest real part (the most amplified pi mode)
    nonbulk = [i for i, p in enumerate(panel_d.pairs)
               if p.classification != "bulk"]
    if not nonbulk:
        raise CliError("panel d produced no interface states")
    pick = min(nonbulk, key=lambda i: (panel_d.pairs[i].lam.real, i))
    write_state_csv(panel_d, pick, em.path("fig4f.csv"))
    params["panels"]["f"] = {"source_panel": "d", "pair_index": pick}
    return params, {"counts": counts}


def _fig_edge_map(em: Emitter, threads: int):
    # trimmed from the published 101x101 sweep of 1602-dim solves:
    # a 9x9 grid on a 301-site ring keeps the runtime in seconds
    # while exercising the identical counting path
    grid = np.linspace(-math.pi, math.pi, 9)
    emap = edge_count_map(INNER, grid, grid, gamma=0.1, half_width=50,
                          num_sites=301, threads=threads)
    write_edge_map_csv(emap, em.path("fig5.csv"))
    params = {
        "inner_theta1_over_pi": INNER[0] / math.pi,
        "inner_theta2_over_pi": INNER[1] / math.pi,
        "gamma": 0.1,
        "half_width": 50,
        "num_sites": 301,
        "theta_points": 9,
        "window": DEFAULT_WINDOW,
    }
    result = {"counted_cells": int(np.count_nonzero(emap.counted))}
    return params, result


def _fig_delta_sweep(em: Emitter, threads: int):
    spec = _interface_spec(OUTER["c"], gamma=0.1, delta=0.0)
    spec = WalkSpec(kind="three_step_perturbed", lattice=spec.lattice,
                    profile=spec.profile, gamma=spec.gamma)
    deltas = np.linspace(0.0, 0.1, 21)
    sweep = delta_sweep(spec, deltas)
    write_delta_sweep_csv(sweep, em.path("fig6.csv"))
    params = {"walk": _walk_params(spec),
              "deltas": [float(d) for d in deltas],
              "window": DEFAULT_WINDOW}
    result = {
        "n_branches": sweep.n_branches,
        "ep_bracket": list(sweep.ep_bracket) if sweep.ep_bracket else None,
    }
    return params, result


def _fig_perturbed_spectra(em: Emitter, threads: int):
    rows = {"dnu1": OUTER["b"], "dnu2": OUTER["c"]}
    cols = {"a": (0.05, 0.0), "b": (0.05, 0.1), "c": (0.0696, 0.1),
            "d": (0.08, 0.1)}
    params: dict = {"window": DEFAULT_WINDOW, "panels": {}}
    for rname, outer in rows.items():
        for cname, (delta, gamma) in cols.items():
            spec = _interface_spec(outer, gamma=gamma, delta=delta)
            res = eigendecompose(build_walk_operator(spec),
                                 compute_condition=False)
            name = f"fig7{cname}_{rname}"
            write_spectrum_csv(res, em.path(f"{name}.csv"))
            params["panels"][name] = _walk_params(spec)
    return params, None


def _fig_disordered_spectra(em: Emitter, threads: int):
    panels = {"a": (OUTER["b"], 0.1), "b": (OUTER["c"], 0.001),
              "c": (OUTER["c"], 0.1)}
    params: dict = {"window": DEFAULT_WINDOW, "panels": {}}
    for name, (outer, theta_r) in panels.items():
        for gname, gamma in (("gamma0", 0.0), ("gamma01", 0.1)):
            spec = _interface_spec(outer, gamma=gamma, delta=0.05,
                                   disordered=True,
                                   disorder_amplitude=theta_r,
                                   disorder_seed=0)
            res = eigendecompose(build_walk_operator(spec),
                                 compute_condition=False)
            full = f"fig8{name}_{gname}"
            write_spectrum_csv(res, em.path(f"{full}.csv"))
            params["panels"][full] = _walk_params(spec)
    return params, None


def _fig_snapshots(em: Emitter, threads: int):
    panels = {"a": OUTER["c"], "b": (-0.6 * math.pi, 0.15 * math.pi)}
    params: dict = {"steps": 246, "panels": {}}
    for name, outer in panels.items():
        spec = _interface_spec(outer, gamma=0.1)
        trace = evolve(spec, steps=246, snapshot_times=(246,))
        write_snapshot_csv(trace, 246, em.path(f"fig9{name}.csv"))
        params["panels"][name] = _walk_params(spec)
    return params, None


def _trace_bundle(em: Emitter, name: str, spec: WalkSpec, steps=10000):
    trace = evolve(spec, steps=steps)
    write_trace_csv(trace, em.path(f"{name}_trace.csv"))
    write_fourier_csv(dft(trace), em.path(f"{name}_fourier.csv"))


def _fig_large_gap_dnu3(em: Emitter, threads: int):
    params: dict = {"steps": 10000, "panels": {}}
    for name, delta in (("a", 0.0), ("b", 0.02), ("c", 0.05)):
        spec = _split_spec(LEFT_LARGE_GAP, (-math.pi / 3, 0.0), delta)
        _trace_bundle(em, f"fig10{name}", spec)
        params["panels"][name] = _walk_params(spec)
    return params, None


def _fig_large_gap_dnu21(em: Emitter, threads: int):
    rights = {"a": (-0.1 * math.pi, 0.4 * math.pi),
              "b": (-math.pi / 15, 2 * math.pi / 3)}
    params: dict = {"steps": 10000, "panels": {}}
    for name, right in rights.items():
        spec = _split_spec(LEFT_LARGE_GAP, right, delta=0.05)
        _trace_bundle(em, f"fig11{name}", spec)
        params["panels"][name] = _walk_params(spec)
    return params, None


def _fig_small_gap(em: Emitter, threads: int):
    rights = {"a": (-0.2 * math.pi, -math.pi / 12),
              "b": (-0.1 * math.pi, 0.4 * math.pi),
              "c": (-0.05 * math.pi, -math.pi / 7)}
    params: dict = {"steps": 10000, "panels": {}}
    for name, right in rights.items():
        spec = _split_spec(LEFT_SMALL_GAP, right, delta=0.05)
        _trace_bundle(em, f"fig12{name}", spec)
        params["panels"][name] = _walk_params(spec)
    return params, None


def _fig_defective_profiles(em: Emitter, threads: int):
    spec = _split_spec(LEFT_SMALL_GAP, (-0.2 * math.pi, -math.pi / 12),
                       delta=0.05, num_sites=601)
    res = eigendecompose(build_walk_operator(spec), compute_condition=False,
                         window=50)
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
    write_state_csv(res, i_edge, em.path("fig13_edge.csv"))
    write_state_csv(res, i_def, em.path("fig13_defective.csv"))
    params = {"walk": _walk_params(spec), "window": 50,
              "edge_pair_index": i_edge, "defective_pair_index": i_def}
    result = {"edge_re_eps": res.pairs[i_edge].eps.real,
              "defective_re_eps": res.pairs[i_def].eps.real}
    return params, result


FIGURES = {
    "fig2": _fig_dispersion_panels,
    "fig3": _fig_phase_both,
    "fig3a": _fig_phase_a,
    "fig3b": _fig_phase_b,
    "fig4": _fig_eigenvalue_panels,
    "fig5": _fig_edge_map,
    "fig6": _fig_delta_sweep,
    "fig7": _fig_perturbed_spectra,
    "fig8": _fig_disordered_spectra,
    "fig9": _fig_snapshots,
    "fig10": _fig_large_gap_dnu3,
    "fig11": _fig_large_gap_dnu21,
    "fig12": _fig_small_gap,
    "fig13": _fig_defective_profiles,
}


def _cmd_reproduce(args, cp) -> int:
    if args.figure == "list":
        for fid in sorted(FIGURES, key=lambda s: (len(s), s)):
            print(fid)
        return 0
    builder = FIGURES.get(args.figure)
    if builder is None:
        known = ", ".join(sorted(FIGURES, key=lambda s: (len(s), s)))
        raise CliError(f"unknown figure id {args.figure!r}; known: {known}")
    em = Emitter(args.out)
    params, result = builder(em, args.threads)
    em.manifest("reproduce", params, result, figure=args.figure)
    return 0


# ---------------------------------------------------------------------------
# dispatch

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
    "reproduce": _cmd_reproduce,
}

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
  --threads <n>    worker threads where supported (never changes results)
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
    ("--config", {}, tuple(c for c in HANDLERS if c != "reproduce")),
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
    parser.add_argument("--threads", type=int, default=1)
    for flag, options, commands in FLAGS:
        if subcommand in commands:
            parser.add_argument(flag, **options)
    return parser


def _dispatch(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE, end="")
        return 0
    subcommand, rest = argv[0], argv[1:]
    handler = HANDLERS.get(subcommand)
    if handler is None:
        known = ", ".join(sorted(HANDLERS))
        raise CliError(f"unknown subcommand {subcommand!r}; known: {known}")
    args = _build_parser(subcommand).parse_args(rest)
    if args.threads < 1:
        raise CliError("--threads must be positive")
    cp = _load_config(getattr(args, "config", None))
    return handler(args, cp)


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
