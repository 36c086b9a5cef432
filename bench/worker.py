"""One phase of a benchmark run, in a fresh interpreter started by run.py.

    python3 bench/worker.py <spec.json>

Phases: ``setup`` builds a workload's inputs once; ``measure`` runs whole
rounds of the workload's operations for the given seconds; ``trace`` does
both with spans recorded around every layer's public functions, then one
untraced round to measure the tracing overhead. Each operation is one CLI
command run through ``turbfuse.cli.main``. Outputs are checked after all
timing has ended, and the result is written to the spec's ``result`` path.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

T_START = time.perf_counter()  # setup_s counts the package import too

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import ROUND, SETUP, config  # noqa: E402


def _env_info():
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def _n_images(cfg):
    d = cfg["dataset"]
    return d["n_identities"] * d["per_identity"] + d["n_test_identities"] * d["test_per_identity"]


def _work(cmd, cfg, summary):
    """Images, samples or probes one command processes, from config and summary."""
    d = cfg["dataset"]
    if cmd in ("synth", "degrade", "restore"):
        return _n_images(cfg)
    if cmd == "pretrain":
        b = cfg["backbone"]
        n_train = d["n_identities"] * d["per_identity"]
        return b["epochs"] * (n_train // b["batch_size"]) * b["batch_size"]
    if cmd == "train":
        return summary.get("optimizer_steps", 0) * cfg["train"]["batch_size"]
    if cmd == "eval":
        return d["n_test_identities"] * d["test_per_identity"]
    return 0


def tree_digest(root, sub=""):
    """sha256 over relative paths and bytes of every file under root/sub."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted((root / sub).rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class Calls:
    """Times the calls inside a command that rates use, and keeps the
    full-precision ScoreSet of every evaluation for the accuracy check."""

    def __init__(self, harness):
        self.harness = harness
        self.records, self.evals = [], []
        self._orig = {}
        self._wrap("degrade_stack", lambda args, out: len(args[0]))
        self._wrap("train_adapter", lambda args, out: out.optimizer_steps * args[6].batch_size)
        self._wrap("evaluate_strategy", self._keep_eval)

    def _keep_eval(self, args, out):
        report, score_set = out
        self.evals.append(
            {
                "strategy": args[1],
                "accuracy": report.accuracy,
                "n_folds": args[0]["eval"]["n_folds"],
                "scores": score_set.scores.copy(),
                "labels": score_set.labels.copy(),
            }
        )
        return len(args[6])

    def _wrap(self, name, work):
        fn = self._orig[name] = getattr(self.harness, name)

        def timed(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            self.records.append({"key": name, "s": time.perf_counter() - t0, "work": work(args, out)})
            return out

        setattr(self.harness, name, timed)

    def uninstall(self):
        for name, fn in self._orig.items():
            setattr(self.harness, name, fn)

    def take(self):
        """Records and evaluations since the last take."""
        taken = self.records, self.evals
        self.records, self.evals = [], []
        return taken


class Runner:
    def __init__(self, workload, cfg, run_dir):
        from turbfuse import cli

        self.cli = cli
        self.workload = workload
        self.cfg = cfg
        self.run_dir = Path(run_dir)
        self.cfg_path = self.run_dir / "config.json"
        if not self.cfg_path.exists():
            self.cfg_path.write_text(json.dumps(self.cfg, indent=2, sort_keys=True) + "\n")
        self.op_index = 0
        self.tracer = None

    def op(self, cmd, sets, out):
        """Run one CLI command; returns its record. Only cli.main is timed."""
        out = Path(out)
        frozen_before = tree_digest(out, "pretrain/backbone") if cmd == "train" else None
        argv = [cmd, "--config", str(self.cfg_path), "--out", str(out)]
        for s in sets:
            argv += ["--set", s]
        self.op_index += 1
        if self.tracer is not None:
            self.tracer.op_id = self.op_index
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        dt = time.perf_counter() - t0
        lines = buf.getvalue().strip().splitlines()
        summary = json.loads(lines[-1]) if rc == 0 and lines else {}
        rec = {"cmd": cmd, "sets": list(sets), "out": str(out), "rc": rc, "s": dt}
        rec["work"] = _work(cmd, self.cfg, summary)
        rec["summary"] = summary
        if cmd == "train":
            rec["frozen_identical"] = frozen_before == tree_digest(out, "pretrain/backbone")
        if rc == 0 and cmd in ("eval", "ablate"):
            # read now: later rounds overwrite the same report file
            name = "ablate.json" if cmd == "ablate" else f"eval_{summary['strategy']}_{summary['level']}.json"
            rec["report"] = json.loads((out / "reports" / name).read_text())
        return rec

    def setup(self, out):
        return [self.op(cmd, sets, out) for cmd, sets in SETUP[self.workload]]

    def round(self, index, inputs, calls):
        out = self.run_dir / f"round-{index}" if self.workload == "pipeline" else inputs
        ops = []
        for cmd, sets in ROUND[self.workload]:
            rec = self.op(cmd, sets, out)
            rec["calls"], rec["evals"] = calls.take()
            ops.append(rec)
        return {"ops": ops, "wall_s": sum(r["s"] for r in ops)}

    def rounds(self, inputs, calls, seconds):
        rounds = []
        t0 = time.perf_counter()
        while not rounds or time.perf_counter() - t0 < seconds:
            rounds.append(self.round(len(rounds), inputs, calls))
        return rounds


def _check(runner, ops):
    import checks

    failures = []
    for rec in ops:
        if rec["rc"] != 0:
            continue
        failures += [f"{rec['cmd']} in {rec['out']}: {f}" for f in checks.check_op(runner.cfg_path, rec)]
    return failures


def figures(ops):
    """Reference figures from the reports: accuracies, ladder and restorer MSEs."""
    fig = {}
    for rec in ops:
        rep = rec.get("report")
        if rep is None:
            continue
        if rec["cmd"] == "eval":
            fig.setdefault("eval_accuracy", {})[rep["strategy"]] = rep["report"]["accuracy"]
            continue
        fig["ladder"] = {r["level"]: [r["mse"], r["accuracy"]] for r in rep["intensity"]["rows"]}
        fig["restorer"] = {f"{r['mode']}@{r['fidelity_w']}": [r["mse_to_clean"], r["accuracy"]] for r in rep["restorer"]["rows"]}
        fig["table3"] = {r["strategy"]: r["accuracy_mean"] for r in rep["table3"]["rows"]}
        fig["fusion_grid"] = {r["variant"]: r["accuracy"] for r in rep["fusion_grid"]["rows"]}
    return fig


def _strip(rec):
    """A record as written to the result file: no arrays, no reports."""
    return {k: v for k, v in rec.items() if k not in ("evals", "report")}


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    runner = Runner(spec["workload"], config(spec["workload"], spec["seed"]), spec["run_dir"])
    from turbfuse import harness

    src = Path(spec["src"]).resolve()
    if src not in Path(harness.__file__).resolve().parents:
        raise RuntimeError(f"imported turbfuse from {harness.__file__}, not from {src}")
    phase = spec["phase"]
    result = {"phase": phase, "env": _env_info()}

    if phase == "setup":
        ops = runner.setup(spec["inputs"])
        result["setup_s"] = time.perf_counter() - T_START
        result["setup_ops"] = [_strip(r) for r in ops]
        result["digest"] = tree_digest(spec["inputs"])
        result["failures"] = _check(runner, ops) if spec.get("check", True) else []
    elif phase == "measure":
        calls = Calls(harness)
        rounds = runner.rounds(spec["inputs"], calls, spec["seconds"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["failures"] = _check(runner, [r for rd in rounds for r in rd["ops"]])
        result["figures"] = figures(rounds[0]["ops"])
        result["rounds"] = [{"wall_s": rd["wall_s"], "ops": [_strip(r) for r in rd["ops"]]} for rd in rounds]
    elif phase == "trace":
        import tracer as tracing

        runner.tracer = tracing.Tracer()
        runner.tracer.install()
        calls = Calls(harness)  # on top of the traced functions, so both see each call
        setup_ops = runner.setup(spec["inputs"])
        calls.take()  # setup calls belong to no timed operation
        traced = runner.rounds(spec["inputs"], calls, spec["seconds"])
        calls.uninstall()
        runner.tracer.uninstall()
        plain = runner.round(len(traced), spec["inputs"], Calls(harness))
        runner.tracer.dump(runner.run_dir / "spans.jsonl")
        traced_wall = statistics.median(rd["wall_s"] for rd in traced)
        result["layers"] = runner.tracer.metrics()
        result["layers"]["trace.overhead_pct"] = 100.0 * (traced_wall / plain["wall_s"] - 1.0)
        all_ops = setup_ops + [r for rd in traced for r in rd["ops"]] + plain["ops"]
        result["failures"] = _check(runner, all_ops)
        result["figures"] = figures(traced[0]["ops"])
        result["rounds"] = [{"wall_s": rd["wall_s"], "ops": [_strip(r) for r in rd["ops"]]} for rd in traced + [plain]]
    else:
        raise ValueError(f"unknown phase {phase!r}")
    Path(spec["result"]).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
