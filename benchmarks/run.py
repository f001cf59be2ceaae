"""derc benchmark: one workload per run, end-to-end metrics or a traced run.

    python3 benchmarks/run.py --workload cli_small|prescreen_wide|train_paper
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the repository root; derc is imported from ./src. Inputs come
from gen.py and depend only on --seed. Work files go to ./.perfbench_work.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are setup_s, wall_s and peak_rss_mb;
with --trace 1 they are the per-layer metrics of worker.per_layer_spec().
The line before it holds every stage metric of the workload with its unit,
the checks and the environment. Exit 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cli_plan  # noqa: E402
import envinfo  # noqa: E402
from shapes import IMPORTS, SIZES, WORKLOADS  # noqa: E402

RUN_BUDGET_S = 170.0   # every child is killed past this, so a run ends within 180 s
SETUP_PROBES = 2       # extra import-only interpreters for in-process workloads
STAGE_UNITS = {"acc": "1", "recon_mse": "1", "pretrain_step_ms": "ms", "derc_step_ms": "ms"}


class Run:
    """Spawns children, keeps the counts and samples of one benchmark run."""

    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.work = root / ".perfbench_work" / (
            args.workload if args.size == "full" else f"{args.size}-{args.workload}")
        self.inputs = self.work / "inputs"
        self.attempted = 0
        self.failed = 0
        self.checks: list[list] = []
        self.setup_samples: list[float] = []
        self.peak_rss_kib = 0

    def spawn(self, cmd: list[str], log_name: str, probe: bool = False) -> tuple[int, float]:
        """Run one child to completion; returns (exit code, wall seconds).

        A child that writes the stamp file adds a setup_s sample; every child
        but an import-only probe counts towards peak_rss_mb."""
        stamp = self.work / "stamp"
        stamp.unlink(missing_ok=True)
        cmd = [c.replace("{stamp}", str(stamp)) for c in cmd]
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(self.work / log_name, "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.root, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not probe:
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        if stamp.exists():
            self.setup_samples.append(float(stamp.read_text()) - t0)
        if proc.returncode != 0:
            tail = (self.work / log_name).read_text(errors="replace")[-2000:]
            print(f"{cmd[1:3]} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return proc.returncode, wall

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.checks.append([name, bool(ok), detail])
        if not ok:
            self.failed += 1
            print(f"check failed: {name} {detail}", file=sys.stderr)

    def python(self, script: str, *args: str) -> list[str]:
        return [sys.executable, str(HERE / script), *args]

    # --- cli_small, one interpreter per stage --------------------------------

    def cli_passes(self) -> list[dict]:
        s = SIZES[self.args.size]["cli_small"]
        out = self.work / "out"
        passes: list[dict] = []
        t_start = time.monotonic()
        while True:
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            times = {}
            t0 = time.monotonic()
            for stage in cli_plan.STAGES:
                argv = cli_plan.argv(stage, self.args.seed, self.inputs, out, s)
                self.attempted += 1
                code, times[stage] = self.spawn(
                    self.python("entry.py", "{stamp}", "derc.cli", *argv), f"{stage}.log")
                if code != 0:
                    self.failed += 1
                    return passes
            wall = time.monotonic() - t0
            for name, ok, detail in cli_plan.check_outputs(out, s):
                self.check(name, ok, detail)
            outputs = cli_plan.read_outputs(out)
            if passes:
                self.check("pred/report/kept repeat across passes",
                           outputs == passes[0]["outputs"])
            passes.append({
                "wall": wall,
                "outputs": outputs,
                "stages": {
                    "prescreen_s": times["prescreen"],
                    "pretrain_s": times["pretrain-ae"] + times["pretrain-vae"],
                    "train_derc_s": times["train-derc"],
                    "acc": cli_plan.report_acc(out),
                },
            })
            median = statistics.median(p["wall"] for p in passes)
            now = time.monotonic()
            if now - t_start + median > self.args.seconds or now + median > self.deadline:
                return passes

    # --- in-process workloads, and every traced run ---------------------------

    def worker(self) -> dict:
        out = self.work / "worker.json"
        args = self.args
        code, _ = self.spawn(self.python(
            "worker.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size, "--work", str(self.work), "--stamp", "{stamp}",
            "--out", str(out)), "worker.log")
        if code != 0 or not out.exists():
            self.attempted += 1
            self.failed += 1
            return {"passes": [], "checks": []}
        result = json.loads(out.read_text())
        for p in result["passes"]:
            self.attempted += p["ops"]
            self.failed += p.get("failed_ops", 0)
        for name, ok, detail in result["checks"]:
            self.check(name, ok, detail)
        return result


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="tiny shrinks every input; for the smoke test only")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "derc" / "__init__.py").is_file():
        print("run.py: src/derc not found; run from the root of a derc checkout",
              file=sys.stderr)
        return 2

    os.environ.update(envinfo.blas_env())  # before numpy loads, here and in children
    import numpy as np
    import scipy

    import gen

    run = Run(root, args)
    shutil.rmtree(run.work, ignore_errors=True)
    run.inputs.mkdir(parents=True)
    compileall.compile_dir(str(root / "src" / "derc"), quiet=1)
    gen.make_inputs(args.workload, args.seed, run.inputs, args.size)

    detail = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace}
    if args.trace:
        result = run.worker()
        metrics = result.get("metrics", {})
        detail.update(env=result.get("env"), counters=result.get("counters"))
    else:
        if args.workload == "cli_small":
            passes = run.cli_passes()
        else:
            for i in range(SETUP_PROBES):
                run.spawn(run.python("entry.py", "{stamp}", ",".join(IMPORTS[args.workload])),
                          f"probe{i}.log", probe=True)
            passes = run.worker()["passes"]
        metrics = {}
        if passes:
            metrics = {
                "setup_s": _metric(statistics.median(run.setup_samples), "s"),
                "wall_s": _metric(statistics.median(p["wall"] for p in passes), "s"),
                "peak_rss_mb": _metric(run.peak_rss_kib / 1024, "MiB"),
            }
            stage_metrics = {
                k: _metric(statistics.median(p["stages"][k] for p in passes),
                           STAGE_UNITS.get(k, "s"))
                for k in passes[0]["stages"]}
            detail.update(passes=len(passes), setup_samples=len(run.setup_samples),
                          metrics={**metrics, **stage_metrics})
        detail["env"] = envinfo.environment(root, np, scipy)
    detail["checks"] = run.checks

    correct = run.failed == 0 and bool(metrics)
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed if correct else max(run.failed, 1),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
