"""Bit-for-bit digests of the package's seeded results.

Run ``PYTHONPATH=src python tests/digests.py [--small]``. It prints one
JSON object, keys sorted, of sha256 digests:

* every field of the ``run()`` records of the four builtin scenarios at
  seeds 0 and 1, ell 0.05, 0.2 and 0.5 and 10 and 100 Hz, over 2000, 9, 1
  and 0 steps;
* the ``sweep`` rows of each builtin at scenario seeds 0 and 1009: a
  5 x 4 x 2 (rate x ell x seed) grid at 300 steps, whose cells step in
  batches, and a 1 x 2 x 2 grid, whose cells are each alone on their law
  branch;
* per builtin, read from a scenario file: the CSV and summary of ``sim4d``,
  the CSV of a 3 x 3 x 2 ``sweep`` and the JSON that
  ``audit --samples 20`` prints;
* per builtin, ``m_matrix`` and ``gradient_consistency_residual`` at the
  desired formation and at 3 seeded random pose sets.

``--small`` keeps one seed and 30 steps. Two checkouts that print the same
object reproduce each other bit for bit on this grid. Pytest does not
collect this file.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import tempfile

import numpy as np

from rigidflock.cli import main, scenario_to_dict
from rigidflock.core import AgentPose
from rigidflock.rigidity import gradient_consistency_residual, m_matrix
from rigidflock.sim import builtin_scenarios, run, sweep


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(value) -> str:
    """An array by dtype, shape and bytes; anything else as its JSON."""
    if isinstance(value, np.ndarray):
        a = np.ascontiguousarray(value)
        return _sha(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return _sha(json.dumps(value, sort_keys=True).encode())


def _cli(argv) -> str:
    """Run the console script in process; its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"rigidflock {' '.join(argv)} exited {rc}")
    return out.getvalue()


def digests(small: bool) -> dict:
    seeds, long_steps, sweep_steps = ((0,), 30, 30) if small else (
        (0, 1), 2000, 300)
    n_seeds = len(seeds)
    out = {}
    for seed in seeds:
        for scen in builtin_scenarios(seed):
            for ell in (0.05, 0.2, 0.5):
                for rate in (10.0, 100.0):
                    for steps in (long_steps, 9, 1, 0):
                        rec = run(dataclasses.replace(
                            scen, horizon_steps=steps,
                            sensor=dataclasses.replace(scen.sensor,
                                                       rate_hz=rate),
                            controller=dataclasses.replace(scen.controller,
                                                           ell=ell)))
                        key = (f"run/{scen.name}/seed{seed}/ell{ell}/"
                               f"rate{rate:g}/steps{steps}")
                        for f in dataclasses.fields(rec):
                            out[f"{key}/{f.name}"] = _digest(
                                getattr(rec, f.name))
    grids = {"batched": ([10.0, 25.0, 50.0, 100.0, 200.0],
                         [0.05, 0.2, 0.35, 0.5]),
             "lone": ([50.0], [0.2, 0.5])}
    for seed in (0, 1009)[:n_seeds]:
        for scen in builtin_scenarios(seed):
            scen = dataclasses.replace(scen, horizon_steps=sweep_steps)
            for grid, (rates, ells) in grids.items():
                out[f"sweep/{scen.name}/seed{seed}/{grid}"] = _digest(
                    sweep(scen, rates, ells, n_seeds))
    with tempfile.TemporaryDirectory() as tmp:
        for scen in builtin_scenarios():
            path = os.path.join(tmp, f"{scen.name}.json")
            with open(path, "w") as fh:
                json.dump(scenario_to_dict(dataclasses.replace(
                    scen, horizon_steps=long_steps)), fh)
            files = {name: os.path.join(tmp, f"{scen.name}.{name}")
                     for name in ("sim4d.csv", "sim4d.json", "sweep.csv")}
            _cli(["sim4d", "--scenario", path, "--out", files["sim4d.csv"],
                  "--summary", files["sim4d.json"]])
            _cli(["sweep", "--scenario", path, "--rates", "10,50,100",
                  "--ells", "0.05,0.2,0.5", "--seeds", str(n_seeds),
                  "--out", files["sweep.csv"]])
            for name, file in files.items():
                with open(file, "rb") as fh:
                    out[f"cli/{scen.name}/{name}"] = _sha(fh.read())
            out[f"cli/{scen.name}/audit"] = _sha(_cli(
                ["audit", "--scenario", path, "--samples", "20"]).encode())
    for seed, scen in enumerate(builtin_scenarios()):
        rng = np.random.default_rng(seed)
        sets = [scen.desired] + [
            tuple(AgentPose(rng.uniform(-10, 10, 3),
                            rng.uniform(-math.pi, math.pi))
                  for _ in range(scen.graph.n)) for _ in range(3)]
        for k, poses in enumerate(sets):
            key = f"rigidity/{scen.name}/{'desired' if k == 0 else k}"
            out[f"{key}/m_matrix"] = _digest(m_matrix(poses, scen.graph))
            out[f"{key}/gradient_residual"] = _digest(
                gradient_consistency_residual(poses, scen.desired, scen.graph,
                                              scen.controller.k_e))
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--small", action="store_true",
                        help="one seed and 30 steps")
    print(json.dumps(digests(parser.parse_args().small), indent=1,
                     sort_keys=True))
