#!/usr/bin/env python3
"""turbfuse benchmark.

    python3 bench/run.py --workload {pipeline,ablate,verify} --seed N --seconds S --trace {0,1}

Run it from the root of a turbfuse checkout: it runs the package in
``src/`` there and writes only under ``.bench_out/``. Every phase runs in
a fresh interpreter whose environment fixes PYTHONHASHSEED and pins BLAS to
one thread before numpy loads. With ``--trace 0`` the run builds the
workload's inputs SETUP_REPEATS times, then times whole rounds of its
operations for at least ``--seconds``, and reports the end-to-end metrics.
With ``--trace 1`` a separate traced run reports per-layer metrics. The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import RATES, SETUP_REPEATS, WORKLOADS  # noqa: E402

DEADLINE_S = 170.0  # every worker must have ended by then
OUT_ROOT = ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "synth_images_per_s": "images/s",
    "degrade_images_per_s": "images/s",
    "pretrain_samples_per_s": "samples/s",
    "train_samples_per_s": "samples/s",
    "eval_probes_per_s": "probes/s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Session:
    def __init__(self, root, run_dir):
        self.root = root
        self.run_dir = run_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.update(
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PYTHONPATH=str(root / "src"),
            # `eval` and `ablate` run `git describe`; keep its search inside the checkout
            GIT_CEILING_DIRECTORIES=str(root.parent),
        )

    def spawn(self, name, spec):
        """Run one worker phase to its end; returns its result dict."""
        spec = dict(spec, run_dir=str(self.run_dir), src=str(self.root / "src"))
        spec["result"] = str(self.run_dir / f"{name}.result.json")
        spec_path = self.run_dir / f"{name}.spec.json"
        spec_path.write_text(json.dumps(spec, indent=1) + "\n")
        log = self.run_dir / f"{name}.log"
        with open(log, "w") as fh:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=self.root,
                env=self.env,
                stdout=fh,
                stderr=subprocess.STDOUT,
            )
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{name}: worker did not finish within {DEADLINE_S:.0f} s")
        if rc != 0:
            tail = log.read_text()[-3000:]
            raise BenchError(f"{name}: worker exited with {rc}\n{tail}")
        return json.loads(Path(spec["result"]).read_text())


def _records(ops, key):
    """Timed records for one key: the commands named key and the calls inside them."""
    found = [r for r in ops if r["cmd"] == key]
    found += [c for r in ops for c in r.get("calls", ()) if c["key"] == key]
    return found


def _rate(groups, key):
    """Work per second for key, pooled over groups (rounds or setups).

    Total work over total time: it averages the machine's speed over the
    whole run, which a median of a few short phases does not.
    """
    recs = [r for ops in groups for r in _records(ops, key)]
    return sum(r["work"] for r in recs) / sum(r["s"] for r in recs) if recs else None


def end_to_end(setups, measured):
    rounds = [rd["ops"] for rd in measured["rounds"]]
    setup_ops = [s["setup_ops"] for s in setups]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(rd["wall_s"] for rd in measured["rounds"]),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    for metric, keys in RATES.items():
        value = next((v for k in keys if (v := _rate(rounds, k)) is not None), None)
        if value is None:
            value = next((v for k in keys if (v := _rate(setup_ops, k)) is not None), None)
        if value is None:
            raise BenchError(f"no timed record for {metric}")
        values[metric] = value
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def run(args, root):
    run_dir = root / OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    session = Session(root, run_dir)
    base = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    try:
        if args.trace:
            import tracer

            traced = session.spawn("trace", dict(base, phase="trace", inputs=str(run_dir / "inputs")))
            failures = traced["failures"]
            rounds = traced["rounds"]
            metrics = {n: {"value": traced["layers"][n], "unit": u} for n, u in tracer.LAYER_METRICS}
            env, figs = traced["env"], traced["figures"]
        else:
            setups = []
            for i in range(SETUP_REPEATS):
                spec = dict(base, phase="setup", inputs=str(run_dir / f"setup-{i}"), check=(i == 0))
                setups.append(session.spawn(f"setup-{i}", spec))
            measured = session.spawn("measure", dict(base, phase="measure", inputs=str(run_dir / "setup-0")))
            failures = [f for s in setups for f in s["failures"]] + measured["failures"]
            if len({s["digest"] for s in setups}) != 1:
                failures.append("setup: repeated builds from the same config differ in their bytes")
            rounds = measured["rounds"]
            metrics = end_to_end(setups, measured)
            env, figs = measured["env"], measured["figures"]
    finally:
        for path in run_dir.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    ops = [r for rd in rounds for r in rd["ops"]]
    info = dict(base, trace=args.trace, env=env, rounds=len(rounds), checks_failed=len(failures), figures=figs)
    print(json.dumps({"run": info}, sort_keys=True))
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(1 for r in ops if r["rc"] != 0),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    root = Path.cwd()
    if not (root / "src" / "turbfuse" / "__init__.py").is_file():
        print("bench: no turbfuse sources at src/turbfuse; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        result = run(args, root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
