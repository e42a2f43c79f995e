"""Span tracing at the layer boundaries of rigidflock, from outside the package.

The tracer replaces module-level functions (and one method) of the package
with thin wrappers that record a span per call: name, thread, start, end and
the span that was open on the same thread when the call began. Spans stay in
memory until the benchmark derives its per-layer metrics and writes them
out. Nothing under ``src/`` is edited; uninstalling restores every original
object. A hook whose target no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

# (span name, module, attribute). The span names are the layer vocabulary
# of the per-layer metrics below.
HOOKS = (
    ("sim.sweep", "rigidflock.sim", "sweep"),
    ("sim.run", "rigidflock.sim", "run"),
    ("sim.step", "rigidflock.sim", "_step_recorded"),
    ("sim.true_relative", "rigidflock.sim", "_true_relative"),
    ("sim.noise", "rigidflock.sim", "_draw_noise"),
    ("sim.edge_commands", "rigidflock.sim", "_edge_commands"),
    ("sim.error_series", "rigidflock.sim", "_error_series_entry"),
    ("sim.summary", "rigidflock.sim", "_summarize"),
    ("graphs.validate", "rigidflock.sim", "Scenario.validate"),
    ("graphs.fiedler", "rigidflock.graphs", "fiedler_value"),
    ("core.symmetric_eigen", "rigidflock.core", "symmetric_eigen"),
    ("core.quantile", "rigidflock.core", "std_normal_quantile"),
    ("core.wrap_angle", "rigidflock.core", "wrap_angle"),
    ("sensors.init_stream", "rigidflock.sensors", "init_stream"),
    ("sensors.measurement_stream", "rigidflock.sensors",
     "measurement_stream"),
    ("oned.convergence_metrics", "rigidflock.oned", "convergence_metrics_1d"),
    ("oned.ensemble", "rigidflock.oned", "run_1d_ensemble"),
    ("oned.two_agents", "rigidflock.oned", "run_1d_two_agents"),
    ("oned.tradeoff", "rigidflock.oned", "tradeoff_sweep"),
    ("oned.coherence_mc", "rigidflock.oned", "estimate_coherence_time"),
    ("oned.coherence_quad", "rigidflock.oned", "expected_coherence_time"),
    ("oned.kl", "rigidflock.oned", "kl_divergence_gaussianity"),
    ("rigidity.m_matrix", "rigidflock.rigidity", "m_matrix"),
    ("rigidity.pd_minors", "rigidflock.rigidity",
     "is_positive_definite_minors"),
    ("rigidity.gradient_residual", "rigidflock.rigidity",
     "gradient_consistency_residual"),
    ("rigidity.blockwise", "rigidflock.rigidity", "assemble_m_blockwise"),
    ("cli.build_parser", "rigidflock.cli", "build_parser"),
    ("cli.parse_scenario", "rigidflock.cli", "parse_scenario"),
    ("cli.sim4d", "rigidflock.cli", "_cmd_sim4d"),
    ("cli.manifest", "rigidflock.cli", "write_manifest"),
)

# Per-layer metrics and their units, in the order they are reported. A
# layer the workload does not reach reads 0.
LAYER_METRICS = {
    "sim.true_relative_us": "us/step", "sim.noise_us": "us/step",
    "sim.edge_commands_us": "us/step", "sim.integrate_us": "us/step",
    "sim.error_series_us": "us/step",
    "sim.run_setup_ms": "ms/run", "sim.summary_ms": "ms/run",
    "graphs.validate_ms": "ms/cell", "graphs.fiedler_ms": "ms/cell",
    "core.symmetric_eigen_ms": "ms/cell", "sensors.stream_init_us": "us/cell",
    "oned.convergence_metrics_us": "us/cell",
    "sim.pool_workers": "count", "sim.pool_busy_frac": "ratio",
    "core.quantile_calls": "1/step", "core.quantile_us": "us/step",
    "core.wrap_angle_calls": "1/step", "core.wrap_angle_us": "us/step",
    "sim.history_mb": "MB",
    "cli.parse_ms": "ms", "cli.csv_write_s": "s", "cli.csv_mb": "MB",
    "cli.manifest_ms": "ms",
    "oned.ensemble_s": "s", "oned.two_agents_s": "s", "oned.tradeoff_s": "s",
    "oned.coherence_mc_s": "s", "oned.coherence_quad_ms": "ms",
    "oned.kl_ms": "ms",
    "rigidity.m_matrix_us": "us/call", "rigidity.pd_minors_us": "us/call",
    "rigidity.gradient_residual_us": "us/call",
    "rigidity.blockwise_ms": "ms/call",
    "sim.steps": "count", "sim.edge_steps": "count", "sim.cells": "count",
    "sim.converged_cells": "count", "sim.omega_cap_frac": "ratio",
    "oned.agent_steps": "count", "oned.coherence_moves": "count",
    "rigidity.samples": "count",
    "trace.overhead_frac": "ratio",
}


def _run_observer(call, record):
    """Exact counts of one formation run, taken from its inputs and record."""
    scenario = call["scenario"]
    steps = record.omega.shape[0]
    cap = scenario.controller.omega_cap / (1.0 / scenario.sensor.rate_hz)
    history = sum(a.nbytes for a in (
        record.positions, record.headings, record.u, record.omega,
        record.e_f, record.e_p, record.e_psi, record.fiedler))
    return {
        "edge_steps": steps * len(scenario.graph.edges),
        "converged": int(bool(record.summary.get("converged", False))),
        "omega_capped": int((abs(record.omega) >= cap).sum()),
        "omega_total": int(record.omega.size),
        "history_bytes": int(history),
    }


def _coherence_observer(call, tau):
    """Steps of one coherence-time run and the motions it counted."""
    return {"agent_steps": call["steps"] + call["burn"],
            "coherence_moves": round(call["steps"] / tau)}


# Exact counts taken from a hooked call's bound arguments and its result,
# so they read what the program was asked to do and did, not the
# benchmark's size settings.
OBSERVERS = {
    "sim.run": _run_observer,
    "oned.ensemble": lambda call, trace: {
        "agent_steps": trace.sigma_a.size * trace.final_states.size},
    "oned.two_agents": lambda call, trace: {
        "agent_steps": trace.delta_mean.size * call["cfg"].n_agents},
    "oned.tradeoff": lambda call, cells: {
        "agent_steps": len(cells) * call["n_runs"] * call["horizon"]},
    "oned.coherence_mc": _coherence_observer,
}


class Tracer:
    """Installs the span wrappers and keeps the spans of the current job.

    A span is the tuple (id, name, thread, start_ns, end_ns, parent_id);
    parent_id is -1 for a span opened with no other span open on its
    thread (sweep cells run on pool threads, so their runs are roots).
    """

    def __init__(self):
        self.spans = []
        self.observations = []
        self.absent = []  # hooks whose target is gone, set by install()
        self._patched = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _wrap(self, name, fn):
        spans, observations = self.spans, self.observations
        ids, local, clock = self._ids, self._local, time.perf_counter_ns
        observer = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observer else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, threading.get_ident(), start, end,
                              parent))
            if observer is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                observations.append((name, observer(call.arguments,
                                                    result)))
            return result

        return wrapper

    def install(self):
        """Wrap every hook target that exists, in every package namespace.

        A function imported into another module (``from .core import
        wrap_angle``) is a second reference to the same object, so each
        module of the package is scanned for the original by identity.
        """
        self.absent.clear()
        targets = []
        for name, mod_name, attr in HOOKS:
            try:
                owner = importlib.import_module(mod_name)
                for part in attr.split(".")[:-1]:
                    owner = getattr(owner, part)
                leaf = attr.split(".")[-1]
                targets.append((name, owner, leaf, getattr(owner, leaf)))
            except (ImportError, AttributeError):
                self.absent.append(name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "rigidflock" or n.startswith("rigidflock.")]
        for name, owner, leaf, original in targets:
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patched.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def reset(self):
        self.spans.clear()
        self.observations.clear()

    def write(self, path):
        """Write the spans kept in memory as CSV, one line per span."""
        with open(path, "w") as fh:
            fh.write("id,name,thread,start_ns,end_ns,parent\n")
            for span in sorted(self.spans):
                fh.write(",".join(str(v) for v in span) + "\n")


def layer_metrics(spans, observations):
    """Per-layer metrics of one traced job, from its spans and run counts.

    Durations are inclusive; ``integrate`` and the CLI's CSV writing are
    self times (a span's duration minus the time its child spans cover, so
    the wrap_angle calls a step makes count under core.wrap_angle_us).
    Per-step values divide by the job's 4D steps, per-cell values by its
    formation runs, rigidity values by calls.
    """
    name_of = {sid: name for sid, name, *_ in spans}
    dur, calls, child_time, first_step = {}, {}, {}, {}
    true_relative_in_step = 0
    for sid, name, _, start, end, parent in spans:
        dur[name] = dur.get(name, 0) + end - start
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0) + end - start
            if name == "sim.step":
                first_step[parent] = min(first_step.get(parent, start), start)
            elif (name == "sim.true_relative"
                  and name_of[parent] == "sim.step"):
                true_relative_in_step += end - start
    self_time, run_setup, run_threads = {}, 0, set()
    for sid, name, tid, start, end, _ in spans:
        self_time[name] = (self_time.get(name, 0) + end - start
                           - child_time.get(sid, 0))
        if name == "sim.run":
            run_threads.add(tid)
            if sid in first_step:
                run_setup += first_step[sid] - start
    steps = calls.get("sim.step", 0)
    cells = calls.get("sim.run", 0)
    workers = len(run_threads) if "sim.sweep" in calls else 0

    def per(value, count, scale):
        return value / count * scale if count else 0.0

    def per_call(name, scale):
        return per(dur.get(name, 0), calls.get(name, 0), scale)

    runs = [obs for name, obs in observations if name == "sim.run"]
    oned_runs = [obs for name, obs in observations
                 if name.startswith("oned.")]
    omegas = sum(o["omega_total"] for o in runs)
    us, ms, s = 1e-3, 1e-6, 1e-9
    def d(name):
        return dur.get(name, 0)

    return {
        "sim.true_relative_us": per(true_relative_in_step, steps, us),
        "sim.noise_us": per(d("sim.noise"), steps, us),
        "sim.edge_commands_us": per(d("sim.edge_commands"), steps, us),
        "sim.integrate_us": per(self_time.get("sim.step", 0), steps, us),
        "sim.error_series_us": per(d("sim.error_series"), steps, us),
        "sim.run_setup_ms": per(run_setup, len(first_step), ms),
        "sim.summary_ms": per(d("sim.summary"), cells, ms),
        "graphs.validate_ms": per(d("graphs.validate"), cells, ms),
        "graphs.fiedler_ms": per(d("graphs.fiedler"), cells, ms),
        "core.symmetric_eigen_ms": per(d("core.symmetric_eigen"), cells, ms),
        "sensors.stream_init_us": per(d("sensors.init_stream")
                                      + d("sensors.measurement_stream"),
                                      cells, us),
        "oned.convergence_metrics_us": per(d("oned.convergence_metrics"),
                                           cells, us),
        "sim.pool_workers": float(workers),
        "sim.pool_busy_frac": per(d("sim.run"), d("sim.sweep") * workers,
                                  1.0),
        "core.quantile_calls": per(calls.get("core.quantile", 0), steps, 1.0),
        "core.quantile_us": per(d("core.quantile"), steps, us),
        "core.wrap_angle_calls": per(calls.get("core.wrap_angle", 0), steps,
                                     1.0),
        "core.wrap_angle_us": per(d("core.wrap_angle"), steps, us),
        "sim.history_mb": max((o["history_bytes"] for o in runs),
                              default=0) / 1e6,
        "cli.parse_ms": (d("cli.build_parser") + d("cli.parse_scenario"))
        * ms,
        "cli.csv_write_s": self_time.get("cli.sim4d", 0) * s,
        "cli.manifest_ms": d("cli.manifest") * ms,
        "oned.ensemble_s": d("oned.ensemble") * s,
        "oned.two_agents_s": d("oned.two_agents") * s,
        "oned.tradeoff_s": d("oned.tradeoff") * s,
        "oned.coherence_mc_s": d("oned.coherence_mc") * s,
        "oned.coherence_quad_ms": d("oned.coherence_quad") * ms,
        "oned.kl_ms": d("oned.kl") * ms,
        "rigidity.m_matrix_us": per_call("rigidity.m_matrix", us),
        "rigidity.pd_minors_us": per_call("rigidity.pd_minors", us),
        "rigidity.gradient_residual_us": per_call(
            "rigidity.gradient_residual", us),
        "rigidity.blockwise_ms": per_call("rigidity.blockwise", ms),
        "sim.steps": float(steps),
        "sim.edge_steps": float(sum(o["edge_steps"] for o in runs)),
        "sim.cells": float(cells),
        "sim.converged_cells": float(sum(o["converged"] for o in runs)),
        "sim.omega_cap_frac": per(sum(o["omega_capped"] for o in runs),
                                  omegas, 1.0),
        "oned.agent_steps": float(sum(o["agent_steps"] for o in oned_runs)),
        "oned.coherence_moves": float(sum(o.get("coherence_moves", 0)
                                          for o in oned_runs)),
        "rigidity.samples": float(calls.get("rigidity.gradient_residual",
                                            0)),
    }
