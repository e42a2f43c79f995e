"""The benchmark's workloads: inputs from a seed, the timed job, its checks.

Each workload is a fixed job at a stated size. ``job`` is the timed section
and returns one output per operation (a sweep cell, the sim4d run, an
analysis task, an audit sample); an operation that raises is recorded as
``Raised`` and the job carries on. ``check`` returns the reason each failed
operation failed; ``check_once`` holds checks that do not depend on the
job's outputs and run once per process. All package calls go through module
attributes (``sim.sweep``, not a name bound at import), so the tracer's
wrappers see them.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

from rigidflock import cli, graphs, oned, rigidity, sim
from rigidflock.control import ControllerConfig
from rigidflock.core import AgentPose

DEFAULT_SEED = 0
# Never used while the benchmark or a change is tuned; a claim is re-checked
# on it before it is accepted.
HELD_OUT_SEED = 1009

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class Raised:
    """An operation that raised, kept by exception type and message."""

    def __init__(self, exc: BaseException):
        self.error = type(exc).__name__
        self.message = str(exc)

    def __repr__(self):
        return f"{self.error}: {self.message}"


def attempt(fn, *args, **kwargs):
    """Call fn; an exception becomes a ``Raised`` output, not an abort."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # one failing operation must not stop the job
        return Raised(exc)


def digest(obj) -> str:
    """sha256 over a nested structure of outputs, exact to the last bit."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            h.update(b"{")
            for key in sorted(x):
                feed(key)
                feed(x[key])
            h.update(b"}")
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
            h.update(b"]")
        elif dataclasses.is_dataclass(x):
            feed(dataclasses.asdict(x))
        elif isinstance(x, np.ndarray):
            h.update(f"nd{x.dtype.str}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (float, np.floating)):
            h.update(b"f" + float(x).hex().encode())
        elif isinstance(x, Raised):
            h.update(f"raised:{x.error}".encode())
        else:
            h.update(f"{type(x).__name__}:{x!r}".encode())

    feed(obj)
    return h.hexdigest()


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _builtin(name: str, seed: int):
    for scen in sim.builtin_scenarios(seed=seed):
        if scen.name == name:
            return scen
    raise KeyError(name)


class Workload:
    """Common shape of a workload; see the module docstring."""

    name = ""
    work_unit = ""
    sizes: dict = {}

    def __init__(self, seed: int, size: str, scratch: Path):
        self.seed = seed
        self.size = dict(self.sizes[size])
        self.scratch = scratch

    def setup(self):
        """Validate the generated inputs and warm up every code path."""

    def job(self) -> dict:
        raise NotImplementedError

    def digest_outputs(self, outputs: dict):
        """The part of the outputs the digest covers."""
        return outputs

    def check(self, outputs: dict) -> dict:
        return {}

    def check_once(self) -> dict:
        return {}

    def work(self) -> float:
        """Units of work one job does (its ``work_unit``)."""
        raise NotImplementedError

    def layer_counts(self, outputs: dict) -> dict:
        """Exact per-layer counts the tracer cannot see."""
        return {}


# --- formation_sweep -----------------------------------------------------------

SWEEP_COLUMNS = ("t_cp", "t_cpsi", "sigma_tp", "sigma_tpsi", "mean_dv",
                 "mean_domega", "a_p", "v_psi", "stable_rms_p")


def heading_loop_gain(scen) -> float:
    """Predicted per-step heading loop gain (k_e / f) max_i sum_j d_ij^2."""
    sums = [0.0] * scen.graph.n
    for i, j in scen.graph.sorted_edges():
        d = scen.desired[j].p - scen.desired[i].p
        sums[i] += float(d @ d)
    return scen.controller.k_e / scen.sensor.rate_hz * max(sums)


def _cell_scenario(base, rate, ell, s):
    return dataclasses.replace(
        base, controller=dataclasses.replace(base.controller, ell=ell),
        sensor=dataclasses.replace(base.sensor, rate_hz=rate),
        seed=base.seed + s)


def _row_problems(row, rate, ell, seed) -> str | None:
    if (row.get("rate_hz"), row.get("ell"), row.get("seed")) != (rate, ell,
                                                                  seed):
        return f"row is for cell {row.get('rate_hz')}/{row.get('ell')}/" \
               f"{row.get('seed')}"
    missing = [c for c in SWEEP_COLUMNS + ("converged",) if c not in row]
    if missing:
        return f"row lacks {missing}"
    if not _finite(row[c] for c in SWEEP_COLUMNS):
        return "row has a non-finite metric"
    return None


class FormationSweep(Workload):
    """The paper's rate x ell x seed trade-off sweep on builtin triangle6."""

    name = "formation_sweep"
    work_unit = "sweep cells"
    # The full grid is the 80-cell shape the ROADMAP states its sweep
    # speed-up gate on (rates 10, 20, ..., 200 Hz x 4 ells x 1 seed); the
    # horizon is what lets a 28 s run repeat it about six times. See
    # bench/README.md for the measured share of per-cell cost at this size.
    sizes = {
        "full": {"rates": tuple(float(r) for r in range(10, 201, 10)),
                 "ells": (0.05, 0.2, 0.35, 0.5), "seeds": 1, "horizon": 50},
        "smoke": {"rates": (10.0, 200.0), "ells": (0.2, 0.5), "seeds": 1,
                  "horizon": 12},
    }
    # Cells re-run alone through sim.run; each must equal its sweep row.
    RECOMPUTE = (0, -1)

    def __init__(self, seed, size, scratch):
        super().__init__(seed, size, scratch)
        z = self.size
        self.scenario = dataclasses.replace(
            _builtin("triangle6", seed), horizon_steps=z["horizon"])
        self.cells = [(r, e, self.scenario.seed + s) for r in z["rates"]
                      for e in z["ells"] for s in range(z["seeds"])]

    def setup(self):
        self.scenario.validate()
        sim.sweep(dataclasses.replace(self.scenario, horizon_steps=3),
                  self.size["rates"][:1], (0.2, 0.5), 1)

    def job(self):
        z = self.size
        rows = attempt(sim.sweep, self.scenario, z["rates"], z["ells"],
                       z["seeds"])
        if isinstance(rows, Raised):
            return {cell: rows for cell in self.cells}
        if len(rows) != len(self.cells):
            bad = Raised(ValueError(f"{len(rows)} rows for "
                                    f"{len(self.cells)} cells"))
            return {cell: bad for cell in self.cells}
        return dict(zip(self.cells, rows))

    def check(self, outputs):
        reasons = {}
        for cell, row in outputs.items():
            problem = (repr(row) if isinstance(row, Raised)
                       else _row_problems(row, *cell))
            if problem:
                reasons[cell] = problem
        for idx in self.RECOMPUTE:
            cell = self.cells[idx]
            if cell in reasons:
                continue
            rate, ell, seed = cell
            alone = attempt(sim.run, _cell_scenario(
                self.scenario, rate, ell, seed - self.scenario.seed))
            if isinstance(alone, Raised):
                reasons[cell] = f"single run raised {alone!r}"
            elif digest(alone.summary) != digest(
                    {k: outputs[cell][k] for k in alone.summary}):
                reasons[cell] = "sweep row differs from a single run()"
        return reasons

    def check_once(self):
        """Compare a fixed slice of cells with the stored reference.

        Flags must match exactly. Metrics must match to 1e-9 on cells whose
        predicted heading loop gain is below the stability bound of 2; on
        the others the heading loop is chaotic, so a change in the last bit
        of any operation changes every metric, and only finiteness is
        required.
        """
        ref = json.loads(REFERENCE_PATH.read_text())["formation_sweep"]
        rows = attempt(reference_sweep, ref["horizon"], ref["seed"],
                       ref["rates"], ref["ells"])
        if isinstance(rows, Raised):
            return {"reference_slice": repr(rows)}
        problems = []
        for got, want in zip(rows, ref["rows"]):
            cell = f"{want['rate_hz']} Hz ell={want['ell']}"
            if bool(got["converged"]) != bool(want["converged"]):
                problems.append(f"{cell}: converged {got['converged']}")
            stable = want["loop_gain"] < 2.0
            for c in SWEEP_COLUMNS:
                if not math.isfinite(got[c]) or (stable and not math.isclose(
                        got[c], want[c], rel_tol=1e-9, abs_tol=1e-12)):
                    problems.append(f"{cell}: {c}={got[c]!r} vs {want[c]!r}")
        if len(rows) != len(ref["rows"]):
            problems.append(f"{len(rows)} rows, want {len(ref['rows'])}")
        return {"reference_slice": "; ".join(problems) or None}

    def work(self):
        return float(len(self.cells))


def reference_sweep(horizon, seed, rates, ells):
    scen = dataclasses.replace(_builtin("triangle6", seed),
                               horizon_steps=horizon)
    rows = sim.sweep(scen, rates, ells, 1)
    for row in rows:
        row["loop_gain"] = heading_loop_gain(_cell_scenario(
            scen, row["rate_hz"], row["ell"], 0))
    return rows


# --- sim4d_long ----------------------------------------------------------------


def sim4d_columns(n: int) -> list:
    cols = ["step", "time_s", "e_F", "e_p", "e_psi", "fiedler"]
    for a in range(n):
        cols += [f"p{a}_x", f"p{a}_y", f"p{a}_z", f"psi{a}"]
    for a in range(n):
        cols += [f"u{a}_x", f"u{a}_y", f"u{a}_z", f"omega{a}"]
    return cols


class Sim4dLong(Workload):
    """One long ``rigidflock sim4d`` run through cli.main, in process."""

    name = "sim4d_long"
    work_unit = "horizon steps simulated and written"
    sizes = {"full": {"horizon": 2000}, "smoke": {"horizon": 40}}

    def __init__(self, seed, size, scratch):
        super().__init__(seed, size, scratch)
        scen = _builtin("triangle3", seed)
        scen = dataclasses.replace(
            scen, controller=ControllerConfig(ell=0.2),
            sensor=dataclasses.replace(scen.sensor, rate_hz=100.0),
            horizon_steps=self.size["horizon"])
        self.scenario = cli.scenario_to_dict(scen)
        self.n_agents = len(self.scenario["agents"])
        self.scenario_path = scratch / "scenario.json"
        self.out_dir = scratch / "sim4d"

    def _argv(self, scenario_path, out_dir):
        return ["sim4d", "--scenario", str(scenario_path),
                "--out", str(out_dir / "run.csv"),
                "--summary", str(out_dir / "summary.json")]

    def setup(self):
        self.scenario_path.write_text(json.dumps(self.scenario))
        cli.parse_scenario(str(self.scenario_path))
        warm = self.scratch / "warmup"
        warm.mkdir(exist_ok=True)
        (warm / "scenario.json").write_text(
            json.dumps(dict(self.scenario, horizon_steps=5)))
        rc = cli.main(self._argv(warm / "scenario.json", warm))
        shutil.rmtree(warm)
        if rc != 0:
            raise RuntimeError(f"warm-up sim4d exited {rc}")

    def job(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        rc = attempt(cli.main, self._argv(self.scenario_path, self.out_dir))
        return {"sim4d": {"rc": rc, "dir": self.out_dir}}

    @staticmethod
    def _files(out):
        """CSV, summary and manifest, with the manifest's timestamp and
        output directory left out (they differ between identical runs)."""
        d = out["dir"]
        manifest = json.loads((d / "run.csv.manifest.json").read_text())
        manifest.pop("created_utc", None)
        manifest["outputs"] = [os.path.basename(p)
                               for p in manifest.get("outputs", [])]
        return {"rc": out["rc"], "csv": (d / "run.csv").read_bytes(),
                "summary": (d / "summary.json").read_bytes(),
                "manifest": manifest}

    def digest_outputs(self, outputs):
        out = outputs["sim4d"]
        if isinstance(out["rc"], Raised):
            return out["rc"]
        try:
            return self._files(out)
        except (OSError, ValueError) as exc:
            return Raised(exc)

    def check(self, outputs):
        out = outputs["sim4d"]
        if isinstance(out["rc"], Raised):
            return {"sim4d": repr(out["rc"])}
        if out["rc"] != 0:
            return {"sim4d": f"sim4d exited {out['rc']}"}
        d = out["dir"]
        try:
            with open(d / "run.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            summary = json.loads((d / "summary.json").read_text())
            manifest = json.loads((d / "run.csv.manifest.json").read_text())
        except (OSError, ValueError) as exc:
            return {"sim4d": f"output unreadable: {Raised(exc)!r}"}
        horizon = self.size["horizon"]
        want_cols = sim4d_columns(self.n_agents)
        problems = []
        if rows[0] != want_cols:
            problems.append("CSV header differs from the expected columns")
        if len(rows) != horizon + 2:
            problems.append(f"CSV has {len(rows) - 1} rows, want "
                            f"{horizon + 1}")
        n_state = 6 + 4 * self.n_agents
        if not all(len(r) == len(want_cols) and _finite(r[:n_state])
                   for r in rows[1:]):
            problems.append("CSV has a short row or a non-finite state")
        if "converged" not in summary:
            problems.append("summary lacks 'converged'")
        names = [os.path.basename(p) for p in manifest.get("outputs", [])]
        if names != ["run.csv", "summary.json"]:
            problems.append(f"manifest lists outputs {names}")
        return {"sim4d": "; ".join(problems)} if problems else {}

    def work(self):
        return float(self.size["horizon"])

    def layer_counts(self, outputs):
        path = outputs["sim4d"]["dir"] / "run.csv"
        return {"cli.csv_mb": path.stat().st_size / 1e6
                if path.exists() else 0.0}


# --- analysis_1d ---------------------------------------------------------------

# C3: expected coherence time at k_ef = 0.1, sigma_m = 0.1, to 1e-2.
COHERENCE_TABLE = {0.45: 1.1083, 0.3: 1.6494, 0.1: 4.8912, 0.05: 9.7489}


class Analysis1D(Workload):
    """The 1D verification the paper's closed forms rest on.

    Bands are those of the acceptance suite: C1 (ensemble sigma within 3%
    of the closed form), C3 (Monte Carlo coherence time within 3% of the
    quadrature, quadrature within 1e-2 of the table), C5 (two restrained
    agents at k_ef = 0.9 contract), C9d (restrained trade-off points on or
    below the ell = 0.5 curve, 5% band, both planes) and C10 (restrained
    steady state KL < 0.02 nats).
    """

    name = "analysis_1d"
    work_unit = "1D agent-steps"
    sizes = {
        "full": {"n": 10_000, "horizon": 400, "pair_n": 2000,
                 "pair_horizon": 150, "k_grid": (0.05, 0.1, 0.2, 0.45, 0.8),
                 "t_ells": (0.1, 0.3, 0.5), "t_runs": 200, "t_horizon": 1000,
                 "mc_ells": (0.3, 0.1), "mc_steps": 200_000,
                 "quad_k": (0.1, 0.5, 1.0)},
        "smoke": {"n": 10_000, "horizon": 60, "pair_n": 500,
                  "pair_horizon": 60, "k_grid": (0.1, 0.45),
                  "t_ells": (0.3, 0.5), "t_runs": 50, "t_horizon": 100,
                  "mc_ells": (0.3,), "mc_steps": 40_000, "quad_k": (0.1,)},
    }
    MC_BURN = 20_000

    def __init__(self, seed, size, scratch):
        super().__init__(seed, size, scratch)
        z = self.size
        s = seed
        self.ensemble = oned.OneDConfig(
            k_ef=0.5, ell=0.5, sigma_m=3.0, sigma_init=100.0, n_agents=z["n"],
            horizon=z["horizon"], seed=s)
        restrained = oned.OneDConfig(k_ef=0.5, ell=0.3, sigma_m=1.0)
        self.restrained = dataclasses.replace(
            restrained, sigma_init=oned.sigma_ss_restrained(restrained),
            n_agents=z["n"], horizon=z["horizon"], seed=s + 1)
        self.pair = oned.OneDConfig(
            k_ef=0.9, ell=0.3, sigma_m=1.0, sigma_init=30.0,
            n_agents=z["pair_n"], horizon=z["pair_horizon"], seed=s + 2)
        self.coherence = [oned.OneDConfig(k_ef=0.1, ell=e, sigma_m=0.1,
                                          seed=s + 3 + k)
                          for k, e in enumerate(z["mc_ells"])]
        self.quad_grid = [oned.OneDConfig(k_ef=k, ell=e, sigma_m=0.1)
                          for k in z["quad_k"] for e in COHERENCE_TABLE]

    def setup(self):
        tiny = dataclasses.replace(self.restrained, n_agents=10, horizon=3)
        oned.run_1d_ensemble(tiny)
        oned.run_1d_two_agents(tiny)
        oned.tradeoff_sweep((0.1,), (0.3,), n_runs=2, horizon=20)
        oned.estimate_coherence_time(self.coherence[0], steps=100, burn=10)
        oned.expected_coherence_time(self.quad_grid[0])
        oned.kl_divergence_gaussianity(np.linspace(-1.0, 1.0, 10_000))

    def job(self):
        z = self.size
        out = {
            "ensemble": attempt(oned.run_1d_ensemble, self.ensemble,
                                restrained=False),
            "ensemble_restrained": attempt(oned.run_1d_ensemble,
                                           self.restrained),
            "two_agents": attempt(oned.run_1d_two_agents, self.pair),
            "tradeoff": attempt(oned.tradeoff_sweep, z["k_grid"],
                                z["t_ells"], n_runs=z["t_runs"],
                                horizon=z["t_horizon"], seed=self.seed),
        }
        for cfg in self.coherence:
            out[f"coherence_mc_{cfg.ell}"] = attempt(
                oned.estimate_coherence_time, cfg, steps=z["mc_steps"],
                burn=self.MC_BURN)
        out["coherence_quad"] = [attempt(oned.expected_coherence_time, cfg)
                                 for cfg in self.quad_grid]
        final = out["ensemble_restrained"]
        out["kl"] = (final if isinstance(final, Raised) else
                     attempt(oned.kl_divergence_gaussianity,
                             final.final_states))
        return out

    def check(self, outputs):
        z = self.size
        reasons = {}
        for key, value in outputs.items():
            values = value if isinstance(value, list) else [value]
            raised = [v for v in values if isinstance(v, Raised)]
            if raised:
                reasons[key] = repr(raised[0])
        if "ensemble" not in reasons:
            pred = oned.sigma_ss_proportional(self.ensemble)
            got = float(outputs["ensemble"].sigma_a[-1])
            if not abs(got / pred - 1.0) <= 0.03:
                reasons["ensemble"] = f"sigma {got:.4f} vs closed form " \
                                      f"{pred:.4f} (C1 band 3%)"
        if "ensemble_restrained" not in reasons and not _finite(
                outputs["ensemble_restrained"].final_states):
            reasons["ensemble_restrained"] = "non-finite final states"
        if "kl" not in reasons and not outputs["kl"] < 0.02:
            reasons["kl"] = f"KL {outputs['kl']:.4f} >= 0.02 (C10)"
        if "two_agents" not in reasons:
            last = float(outputs["two_agents"].delta_mean[-1])
            if not abs(last) < 2.0:
                reasons["two_agents"] = f"|E[delta]| {abs(last):.3f} >= 2 " \
                                        "(C5)"
        if "tradeoff" not in reasons:
            sweep = outputs["tradeoff"]
            dv_plane = {k: (v[0], v[2], v[2]) for k, v in sweep.items()}
            ok, viol = oned.dominance_check(sweep, z["k_grid"], z["t_ells"])
            ok_dv, viol_dv = oned.dominance_check(dv_plane, z["k_grid"],
                                                  z["t_ells"])
            if not (ok and ok_dv):
                reasons["tradeoff"] = f"dominance violated: sigma {viol}, " \
                                      f"dv {viol_dv} (C9d)"
        quad = {(c.k_ef, c.ell): v for c, v in zip(self.quad_grid,
                                                   outputs["coherence_quad"])}
        if "coherence_quad" not in reasons:
            for k in z["quad_k"]:
                row = [quad[(k, e)] for e in sorted(COHERENCE_TABLE)]
                if not (_finite(row) and all(a > b > 0.0 for a, b in
                                             zip(row, row[1:]))):
                    reasons["coherence_quad"] = \
                        f"k_ef={k}: not decreasing in ell: {row}"
            table = {e: quad[(0.1, e)] for e in COHERENCE_TABLE
                     if (0.1, e) in quad}
            off = {e: v for e, v in table.items()
                   if not abs(v - COHERENCE_TABLE[e]) <= 1e-2}
            if off:
                reasons["coherence_quad"] = f"table mismatch (C3) {off}"
        for cfg in self.coherence:
            key = f"coherence_mc_{cfg.ell}"
            if key in reasons:
                continue
            ref = quad.get((cfg.k_ef, cfg.ell))
            if isinstance(ref, Raised) or ref is None:
                ref = oned.expected_coherence_time(cfg)
            got = outputs[key]
            if not abs(got / ref - 1.0) <= 0.03:
                reasons[key] = f"Monte Carlo {got:.4f} vs quadrature " \
                               f"{ref:.4f} (C3 band 3%)"
        return reasons

    def work(self):
        z = self.size
        return float(
            2 * z["n"] * z["horizon"] + z["pair_n"] * z["pair_horizon"]
            + len(z["k_grid"]) * len(z["t_ells"]) * z["t_runs"]
            * z["t_horizon"]
            + len(self.coherence) * (z["mc_steps"] + self.MC_BURN))



# --- analysis_rigidity -----------------------------------------------------------


class AnalysisRigidity(Workload):
    """The audit path on triangle6 over random poses, plus blockwise M."""

    name = "analysis_rigidity"
    work_unit = "audit samples"
    sizes = {"full": {"samples": 40, "blockwise": 2},
             "smoke": {"samples": 3, "blockwise": 1}}

    def __init__(self, seed, size, scratch):
        super().__init__(seed, size, scratch)
        self.scenario = _builtin("triangle6", seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                           spawn_key=(11,)))
        n = self.scenario.graph.n
        self.poses = [tuple(AgentPose(rng.uniform(-10, 10, 3),
                                      rng.uniform(-math.pi, math.pi))
                            for _ in range(n))
                      for _ in range(self.size["samples"])]

    def setup(self):
        self.scenario.validate()
        scen = self.scenario
        m = rigidity.m_matrix(scen.desired, scen.graph)
        rigidity.is_positive_definite_minors(m[:8, :8])
        rigidity.gradient_consistency_residual(self.poses[0], scen.desired,
                                               scen.graph, scen.controller.k_e)
        rigidity.assemble_m_blockwise(graphs.ObservationGraph.complete(2),
                                      scen.desired[:2])

    def _sample(self, poses):
        scen = self.scenario
        residual = rigidity.gradient_consistency_residual(
            poses, scen.desired, scen.graph, scen.controller.k_e)
        m = rigidity.m_matrix(poses, scen.graph)
        pd, minors = rigidity.is_positive_definite_minors(m)
        return {"residual": residual, "m": m, "pd": pd, "minors": minors}

    def _desired(self):
        scen = self.scenario
        m = rigidity.m_matrix(scen.desired, scen.graph)
        pd, minors = rigidity.is_positive_definite_minors(m)
        return {"m": m, "pd": pd, "minors": minors}

    def job(self):
        scen = self.scenario
        out = {"desired": attempt(self._desired)}
        for k, poses in enumerate(self.poses):
            out[f"sample[{k}]"] = attempt(self._sample, poses)
        targets = [scen.desired] + self.poses[:self.size["blockwise"] - 1]
        for k, poses in enumerate(targets):
            out[f"blockwise[{k}]"] = attempt(rigidity.assemble_m_blockwise,
                                             scen.graph, poses)
        return out

    def check(self, outputs):
        """Residuals at most 1e-10 (C6); M at the desired formation PSD.

        M = H H^T has the rigid-motion null space whenever observations are
        mutual, so on triangle6 it is only positive semidefinite (the
        audit reports desired_pd false by design). Positive definiteness is
        required where it holds: M of every single observation edge at the
        desired formation (C7).
        """
        scen = self.scenario
        reasons = {k: repr(v) for k, v in outputs.items()
                   if isinstance(v, Raised)}
        for key, out in outputs.items():
            if key in reasons or not key.startswith("sample"):
                continue
            if not out["residual"] <= 1e-10:
                reasons[key] = f"gradient residual {out['residual']:.3e} " \
                               "> 1e-10 (C6)"
        if "desired" not in reasons:
            m = outputs["desired"]["m"]
            scale = max(float(np.abs(m).max()), 1.0)
            lowest = float(np.linalg.eigvalsh(m).min())
            single = [rigidity.is_positive_definite_minors(rigidity.m_matrix(
                scen.desired, graphs.ObservationGraph(scen.graph.n,
                                                      frozenset([e]))))[0]
                      for e in scen.graph.sorted_edges()]
            if lowest < -1e-9 * scale or not all(single):
                reasons["desired"] = f"M not PSD (lowest eigenvalue " \
                                     f"{lowest:.3e}) or a single-edge M " \
                                     f"not PD ({single.count(False)})"
        targets = [outputs["desired"]] + [
            outputs[f"sample[{k}]"] for k in range(self.size["blockwise"] - 1)]
        for k, ref in enumerate(targets):
            key = f"blockwise[{k}]"
            if key in reasons or isinstance(ref, Raised):
                continue
            m = ref["m"]
            err = float(np.abs(outputs[key] - m).max())
            if not err <= 1e-9 * max(float(np.abs(m).max()), 1.0):
                reasons[key] = f"blockwise M differs from H H^T by {err:.3e}"
        return reasons

    def work(self):
        return float(self.size["samples"])


WORKLOADS = {w.name: w for w in (FormationSweep, Sim4dLong, Analysis1D,
                                 AnalysisRigidity)}
