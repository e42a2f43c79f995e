"""Command-line entry point and scenario/config serialization.

Subcommands: ``analyze`` (closed-form predictions), ``sim1d`` (scalar
ensemble), ``sim4d`` (full formation run), ``sweep`` (rate/ell/seed grid),
``audit`` (rigidity and positive-definiteness checks). Configs are JSON
objects built straight into the config dataclasses, which check every
field; time series are CSV with a fixed column order and 17-digit numbers,
and every file-producing command writes a manifest next to its primary
output so the run can be regenerated from the artifact alone.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .control import ControllerConfig
from .core import AgentPose, is_number
from .graphs import ObservationGraph
from .oned import (OneDConfig, conditional_variance_at_target,
                   convergence_metrics_1d, effective_gain,
                   expected_coherence_time, motion_probability,
                   run_1d_ensemble, sigma_ss_proportional,
                   sigma_ss_restrained)
from .rigidity import (gradient_consistency_residual,
                       is_positive_definite_minors, m_matrix)
from .sensors import SensorSpec
from .sim import (Scenario, ScenarioError, builtin_scenarios,
                  heading_loop_gain, run, sweep)


def _fmt(x) -> str:
    """A CSV cell: an int exactly, a float in 17 digits (which round-trip,
    and print an integral float below 1e17 as the integer)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_table(path, header, table):
    """A CSV of the header and one CRLF line per row of a 2-D array, its
    cells as _fmt writes them; a float array's rows take one format."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        if table.dtype == float:
            line = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
            fh.writelines(line % tuple(row) for row in table)
        else:
            fh.writelines(",".join(map(_fmt, row)) + "\r\n" for row in table)


def canonical_json(obj) -> str:
    """Key-order-independent JSON rendering used for config hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def write_manifest(primary_out: str, config: dict, seed: int, outputs):
    manifest = {
        "tool": "rigidflock",
        "version": __version__,
        "config_hash": config_hash(config),
        "master_seed": seed,
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(),
        "outputs": list(outputs),
    }
    path = primary_out + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return path


# --- scenario (de)serialization ----------------------------------------------


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "name": s.name,
        "agents": [{"p": [float(v) for v in a.p], "psi": float(a.psi)}
                   for a in s.desired],
        "edges": [[i, j] for i, j in s.graph.sorted_edges()],
        "controller": dataclasses.asdict(s.controller),
        "sensor": dataclasses.asdict(s.sensor),
        "init_radius": float(s.init_radius),
        "horizon_steps": s.horizon_steps,
        "seed": s.seed,
    }


def _field(name: str, convert, value):
    """convert(value); a failure is bad input that names the field."""
    try:
        return convert(value)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid field {name}: {exc}") from exc


def _config(cls, data, name: str, **given):
    """cls(**data, **given) from the JSON object ``name``; the dataclass
    checks each field, so a wrong type, an unknown or a missing one fails."""
    if not isinstance(data, dict):
        raise ScenarioError(f"invalid field {name}: expected an object, got "
                            f"{data!r}")
    return _field(name, lambda fields: cls(**fields, **given), data)


def _agent(a) -> AgentPose:
    """A desired pose; p is checked here, as np.asarray would take "5"."""
    p = a["p"]
    if not (isinstance(p, list) and len(p) == 3 and all(map(is_number, p))):
        raise TypeError(f"expected p: three numbers, got {a!r}")
    return AgentPose(p, a.get("psi", 0.0))


def scenario_from_dict(data) -> Scenario:
    """Build and validate a Scenario, naming the offending field on error."""
    data = _config(dict, data, "scenario")  # a copy; its parts are popped
    desired = _field("agents", lambda d: tuple(map(_agent, d.pop("agents"))),
                     data)
    graph = _field("edges", lambda d: ObservationGraph(len(desired),
                                                      d.pop("edges")), data)
    parts = {name: _config(cls, data.pop(name, {}), name) for name, cls in
             (("controller", ControllerConfig), ("sensor", SensorSpec))}
    return _config(Scenario, data, "scenario", desired=desired, graph=graph,
                   **parts)


def parse_scenario(path: str) -> Scenario:
    """Load a scenario from a JSON file or a ``builtin:<name>`` reference."""
    if path.startswith("builtin:"):
        key = path.split(":", 1)[1]
        scenarios = builtin_scenarios()
        for scen in scenarios:
            if scen.name == key:
                return scen
        names = ", ".join(s.name for s in scenarios)
        raise ScenarioError(f"unknown builtin scenario {key!r}; "
                            f"available: {names}")
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


# --- subcommands --------------------------------------------------------------


def _cmd_analyze(args) -> int:
    cfg = OneDConfig(k_ef=args.k_ef, ell=args.ell, sigma_m=args.sigma_m,
                     f=args.f)
    out = {
        "k_ef": args.k_ef, "ell": args.ell, "sigma_m": args.sigma_m,
        "sigma_ss": sigma_ss_proportional(cfg),
        "motion_prob_at_target": motion_probability(0.0, args.sigma_m,
                                                    args.ell),
        "effective_gain": effective_gain(cfg),
        "conditional_variance_at_target": conditional_variance_at_target(cfg),
    }
    try:
        out["sigma_ss_res"] = sigma_ss_restrained(cfg)
        out["ratio"] = out["sigma_ss_res"] / out["sigma_ss"]
        out["coherence_time_steps"] = expected_coherence_time(cfg)
    except ValueError:
        out["sigma_ss_res"] = None
        out["ratio"] = None
        out["coherence_time_steps"] = None
    print(json.dumps(out, indent=2))
    return 0


def _cmd_sim1d(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    cfg = _config(OneDConfig, raw, "config")
    if cfg.horizon < 10:  # the convergence metrics need 10 samples
        raise ScenarioError(f"invalid field horizon: sim1d needs at least 10 "
                            f"steps, got {cfg.horizon}")
    trace = run_1d_ensemble(cfg)
    metrics = convergence_metrics_1d(trace.mean_abs_dd, cfg.f)
    payload = {
        "t_c": metrics["t_c"],
        "sigma_t": metrics["sigma_t"],
        "mean_dv": float(np.mean(trace.mean_abs_dv)),
        "converged": metrics["converged"],
        "k_c_literal": metrics["k_c_literal"],
        "sigma_ss_pred": sigma_ss_proportional(cfg),
    }
    try:
        payload["sigma_ss_res_pred"] = sigma_ss_restrained(cfg)
    except ValueError:
        payload["sigma_ss_res_pred"] = None
    _write_table(args.out, ["step", "mean_abs_dd", "sigma_a", "mean_abs_dv"],
                 np.column_stack([np.arange(cfg.horizon), trace.mean_abs_dd,
                                  trace.sigma_a, trace.mean_abs_dv]))
    outputs = [args.out]
    if args.metrics:
        with open(args.metrics, "w") as fh:
            json.dump(payload, fh, indent=2)
        outputs.append(args.metrics)
    write_manifest(args.out, raw, cfg.seed, outputs)
    return 0


def _cmd_sim4d(args) -> int:
    scen = parse_scenario(args.scenario)
    if args.seed is not None:
        scen = dataclasses.replace(scen, seed=args.seed)
    rec = run(scen)
    n = scen.graph.n
    dt = 1.0 / scen.sensor.rate_hz
    cols = ["step", "time_s", "e_F", "e_p", "e_psi", "fiedler"]
    for a in range(n):
        cols += [f"p{a}_x", f"p{a}_y", f"p{a}_z", f"psi{a}"]
    for a in range(n):
        cols += [f"u{a}_x", f"u{a}_y", f"u{a}_z", f"omega{a}"]
    k = np.arange(scen.horizon_steps + 1)
    poses = np.dstack([rec.positions, rec.headings])
    # No command follows the last state: its command cells are nan.
    commands = np.vstack([np.dstack([rec.u, rec.omega]),
                          np.full((1, n, 4), np.nan)])
    _write_table(args.out, cols, np.column_stack([
        k, k * dt, rec.e_f, rec.e_p, rec.e_psi, rec.fiedler,
        poses.reshape(k.size, -1), commands.reshape(k.size, -1)]))
    outputs = [args.out]
    if args.summary:
        with open(args.summary, "w") as fh:
            json.dump(rec.summary, fh, indent=2)
        outputs.append(args.summary)
    write_manifest(args.out, scenario_to_dict(scen), scen.seed, outputs)
    return 0


def _parse_rates(text: str):
    vals = [float(v) for v in text.split(":" if ":" in text else ",") if v]
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"rates must be finite, got {text!r}")
    if ":" in text:
        lo, hi, step = vals
        if not step > 0.0:
            raise ValueError(f"--rates step must be positive, got {step:g}")
        vals = []
        while lo <= hi + 1e-9:
            vals.append(round(lo, 9))
            lo += step
    return vals


def _cmd_sweep(args) -> int:
    scen = parse_scenario(args.scenario)
    if scen.horizon_steps < 9:  # a row's summary needs 10 recorded states
        raise ScenarioError(f"invalid field horizon_steps: a sweep needs at "
                            f"least 9 steps, got {scen.horizon_steps}")
    rates = _field("--rates", _parse_rates, args.rates)
    ells = _field("--ells", lambda text: [float(v) for v in text.split(",")
                                          if v], args.ells)
    for option, empty in (("--rates", not rates), ("--ells", not ells),
                          ("--seeds", args.seeds < 1)):
        if empty:
            raise ValueError(f"{option} gives an empty grid")
    rows = sweep(scen, rates, ells, args.seeds)
    # Rows all hold the full summary; object cells keep seeds exact ints.
    _write_table(args.out, list(rows[0]), np.array(
        [list(row.values()) for row in rows], dtype=object))
    write_manifest(args.out, {**scenario_to_dict(scen),
                              "rates": rates, "ells": ells,
                              "seeds": args.seeds}, scen.seed, [args.out])
    return 0


def _finite(name: str, value):
    """value, or a FloatingPointError naming it if it overflowed."""
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(f"{name} is not finite (overflow)")
    return value


def _cmd_audit(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    scen = parse_scenario(args.scenario)
    m_desired = _finite("M at the desired formation",
                        m_matrix(scen.desired, scen.graph))
    pd_ok, minors = is_positive_definite_minors(m_desired)
    rng = np.random.default_rng(np.random.SeedSequence(scen.seed,
                                                       spawn_key=(11,)))
    residuals = []
    pd_flags = []
    for s in range(args.samples):
        poses = tuple(AgentPose(rng.uniform(-10, 10, 3),
                                rng.uniform(-math.pi, math.pi))
                      for _ in range(scen.graph.n))
        residuals.append(gradient_consistency_residual(
            poses, scen.desired, scen.graph, scen.controller.k_e))
        m = _finite(f"M at sample {s}", m_matrix(poses, scen.graph))
        pd_flags.append(is_positive_definite_minors(m)[0])
    out = {
        "scenario": scen.name,
        "desired_pd": pd_ok,
        "desired_minors": minors,
        "samples": args.samples,
        "gradient_residual_max": float(_finite("the gradient residual",
                                               np.max(residuals))),
        "pd_fraction_random_poses": float(np.mean(pd_flags)),
        "heading_loop_gain": heading_loop_gain(scen),
    }
    print(json.dumps(out, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidflock",
        description="Formation control simulator and analysis toolkit")
    parser.add_argument("--version", action="version",
                        version=f"rigidflock {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form predictions")
    p.add_argument("--k-ef", type=float, required=True, dest="k_ef")
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--sigma-m", type=float, required=True, dest="sigma_m")
    p.add_argument("--f", type=float, default=10.0)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sim1d", help="scalar ensemble simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics")
    p.set_defaults(func=_cmd_sim1d)

    p = sub.add_parser("sim4d", help="formation simulation run")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--summary")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_sim4d)

    p = sub.add_parser("sweep", help="rate/ell/seed grid")
    p.add_argument("--scenario", required=True)
    p.add_argument("--rates", default="10:200:10",
                   help="lo:hi:step or comma list")
    p.add_argument("--ells", default="0.05,0.2,0.35,0.5")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("audit", help="rigidity and stability audit")
    p.add_argument("--scenario", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=_cmd_audit)
    return parser


@contextlib.contextmanager
def _outputs(args):
    """Open every output of the command for appending before its work,
    which writes and truncates nothing, so a path that cannot be written
    fails at once. The files this creates go again if the command fails."""
    given = vars(args)
    paths = []
    if "out" in given:  # sim1d, sim4d and sweep
        paths = [given["out"], given["out"] + ".manifest.json",
                 given.get("summary"), given.get("metrics")]
    made = []
    try:
        for path in filter(None, paths):
            new = not os.path.exists(path)
            open(path, "a").close()
            if new:
                made.append(path)
        yield
    except BaseException:
        for path in made:
            os.remove(path)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Overflow is reported by the finiteness checks that name it, not
        # by numpy warnings ahead of the JSON error.
        with np.errstate(over="ignore", invalid="ignore"), _outputs(args):
            return args.func(args)
    # Numerical failures first: LinAlgError subclasses ValueError.
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # bad input
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
