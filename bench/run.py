"""gcfit benchmark: one workload, end-to-end timings or a per-layer trace.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads are defined in
``bench/workloads.py``.  A run makes at least two repetitions of the
workload, and more while the run is still expected to end by S seconds.
A repetition builds the inputs from the seed
(``bench/inputs.py``) and runs the steps ``gcf --version``, ``gcf
enumerate``, ``gcf synth`` and the scoring step (``gcf score --svg``, or
``bench/exact.py`` on exact-wide); a step shorter than MIN_STEP_S runs
again until its runs add up to MIN_STEP_S.  Every step is a child process
started from this one, one at a time, with ``PYTHONPATH=src``; its wall
time is measured here and its peak RSS is read from ``os.wait4``.
Repetitions after the first must reproduce the first one's output bytes,
and ``bench/checks.py`` verifies the first one's outputs independently of
gcfit.

Timings are scaled by the fixed reference job ``bench/reference.py``, run
before the steps, after them, and between them once REFERENCE_EVERY_S of
steps has passed: a timing is multiplied by REFERENCE_S over the mean of
the two reference runs around it.  On a
shared host the speed of the same job drifts by up to 1.5x over tens of
seconds, which no amount of repetition inside a run averages out; the
unscaled samples are kept in the results file and printed as well.

With ``--trace 0`` the run reports the end-to-end metrics, medians of the
scaled samples.  With ``--trace 1`` it then runs each step once more
under ``bench/tracer.py`` and reports the per-layer metrics (unscaled);
the traced outputs must equal the untraced ones.  Human-readable lines go
first; the last line of standard output is the JSON result.  Details (all
samples, checks, layer shares, spans) are written under
``.bench_work/WORKLOAD/``.

This file uses the standard library only, so that this process stays
small: on Linux a child's peak RSS also covers the memory of the process
that started it, up to its exec.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS, Workload

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PY = sys.executable
PROGRAMS = {
    "inputs": [PY, os.path.join(BENCH, "inputs.py")],
    "cli": [PY, "-m", "gcfit.cli"],
    "exact": [PY, os.path.join(BENCH, "exact.py")],
    "reference": [PY, os.path.join(BENCH, "reference.py")],
}

REFERENCE_S = 0.25  # timings are scaled to a host where bench/reference.py takes this long
REFERENCE_EVERY_S = 1.0
MIN_STEP_S = 0.5  # each step runs until its runs in a repetition add up to this
MIN_REPS = 2  # the second repetition is the determinism check

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("startup_s", "s", "lower", 0.25),
    ("enumerate_s", "s", "lower", 0.25),
    ("synth_s", "s", "lower", 0.25),
    ("score_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

LAYERS = ("cli", "tables", "bayesnet", "graphs", "scoring", "divergences", "svg")

# name, unit, better; values are sums over the traced steps of one repetition
PER_LAYER = [
    ("tables.read_csv_s", "s", "lower"),
    ("tables.csv_bytes_read", "bytes", "lower"),
    ("tables.write_csv_s", "s", "lower"),
    ("tables.csv_bytes_written", "bytes", "lower"),
    ("tables.empirical_s", "s", "lower"),
    ("tables.empirical_calls", "count", "lower"),
    ("bayesnet.sample_s", "s", "lower"),
    ("bayesnet.rows_sampled", "count", "lower"),
    ("bayesnet.fit_cpts_s", "s", "lower"),
    ("bayesnet.fit_cpts_calls", "count", "lower"),
    ("bayesnet.families_fitted", "count", "lower"),
    ("bayesnet.joint_s", "s", "lower"),
    ("bayesnet.joint_calls", "count", "lower"),
    ("bayesnet.do_intervene_s", "s", "lower"),
    ("bayesnet.exact_cells", "cells", "lower"),
    ("divergences.kl_s", "s", "lower"),
    ("divergences.kl_calls", "count", "lower"),
    ("divergences.kl_cells", "cells", "lower"),
    ("graphs.enumerate_s", "s", "lower"),
    ("graphs.acyclicity_checks", "count", "lower"),
    ("graphs.dags_kept", "count", "lower"),
    ("graphs.useful_share", "ratio", "higher"),
    ("scoring.tables_s", "s", "lower"),
    ("scoring.tables_calls", "count", "lower"),
    ("scoring.dodiv_s", "s", "lower"),
    ("scoring.dodiv_calls", "count", "lower"),
    ("scoring.gf_s", "s", "lower"),
    ("scoring.gf_calls", "count", "lower"),
    ("scoring.gcf_s", "s", "lower"),
    ("scoring.from_net_s", "s", "lower"),
    ("scoring.family_reuse", "ratio", "higher"),
    ("svg.scatter_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
]

# Shares of a traced step predicted before this benchmark existed:
# workload -> (label, step, numerator, subtract startup_s?, low, high)
PREDICTIONS = {
    "cli-bigdata": ("tables.read_csv share of score_s", "score", "tables.read_csv", False, 0.85, 0.90),
    "cli-manydags": ("bayesnet.fit_cpts share of score_s", "score", "bayesnet.fit_cpts", False, 0.65, 0.75),
    "enumerate-wide": ("graphs share of enumerate_s less startup_s", "enumerate", "graphs", True, 0.90, 1.0),
}


RSS_NOTE = ("peak_rss_mb comes only from os.wait4 of this benchmark's own children; "
            "nothing machine-wide is traced and no caches are dropped")
RUN_LIMIT_S = 170  # every run ends within this, even if a child hangs


class ChildFailed(Exception):
    pass


class Run:
    """One benchmark run: children, operation counts and samples."""

    def __init__(self, workload: Workload, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.checks: list = []
        self.samples: dict[str, list[float]] = {}
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        self.failed += not ok
        self.checks.append([name, ok, detail])
        if not ok:
            print(f"FAILED {name}: {detail}", file=sys.stderr)
        return ok

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def child(self, name: str, argv: list[str], stdout_path: str | None = None):
        """Run one child to completion; return (wall seconds, peak RSS MB)."""
        err_path = os.path.join(self.work, "stderr.txt")
        with open(stdout_path or os.devnull, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
            timer.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
                if status is None:  # interrupted: leave no child running
                    proc.kill()
                    os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, errors="replace") as fh:
            tail = fh.read()[-2000:]
        if not self.op(name, proc.returncode == 0, f"exit {proc.returncode}: {tail}"):
            raise ChildFailed(name)
        return wall, usage.ru_maxrss / 1024.0

    def reference(self) -> float:
        wall, _ = self.child("reference", PROGRAMS["reference"])
        self.sample("reference_s", wall)
        return wall

    # -- the workload's steps -------------------------------------------------

    def step_args(self, out: str) -> list[tuple[str, str, list[str], str | None]]:
        """(step, kind, args, stdout file) for one repetition writing under ``out``."""
        w = self.workload
        graph = os.path.join(self.work, "graph.json")
        net = os.path.join(self.work, "net.json")
        steps = [
            ("enumerate", "cli", ["enumerate", "--graph", graph], os.path.join(out, "enumerate.txt")),
            ("synth", "cli", ["synth", "--net", net, "--n-obs", str(w.n_obs), "--n-do", str(w.n_do),
                              "--seed", str(self.seed), "--out-dir", os.path.join(out, "data")], None),
        ]
        if w.scorer == "exact":
            steps.append(("score", "exact", [net, graph, os.path.join(out, "exact.json")],
                          os.path.join(out, "exact-times.json")))
        else:
            # always the first repetition's data: every score reads the same manifest
            score = ["score", "--graph", graph, "--manifest", os.path.join(self.work, "data", "manifest.json"),
                     "--out-dir", os.path.join(out, "score"), "--svg"]
            if w.subset:
                score += ["--subset", *w.subset]
            steps.append(("score", "cli", score, None))
        return steps

    def run_step(self, step: str, kind: str, args: list[str], stdout: str | None) -> list[tuple[str, float]]:
        """Run a step at least once and until its runs add up to MIN_STEP_S
        (short steps rewrite the same outputs); return its timings."""
        timings, spent = [], 0.0
        while spent < MIN_STEP_S:
            wall, peak = self.child(step, PROGRAMS[kind] + args, stdout)
            spent += wall
            self.sample("rss_mb", peak)
            self.sample(f"{step}_wall_s", wall)
            if kind == "exact":
                with open(stdout) as fh:
                    times = json.load(fh)
                timings += [("exact_load_s", times["load_s"]), ("score_s", times["score_s"])]
            else:
                timings.append((f"{step}_s", wall))
        return timings

    def repetition(self, out: str) -> None:
        """Run every step, with the reference job first, last, and after every
        REFERENCE_EVERY_S of steps; each timing is scaled by the two
        reference runs around it."""
        os.makedirs(out, exist_ok=True)
        setup = ["--workload", self.workload.name, "--seed", str(self.seed), "--out-dir", self.work]
        steps = [("setup", "inputs", setup, None), ("startup", "cli", ["--version"], None)]
        steps += self.step_args(out)
        before, pending, since = self.reference(), [], time.perf_counter()
        for i, step in enumerate(steps):
            pending += self.run_step(*step)
            if i + 1 < len(steps) and time.perf_counter() - since < REFERENCE_EVERY_S:
                continue
            after = self.reference()
            scale = REFERENCE_S / ((before + after) / 2)
            for name, seconds in pending:
                self.sample(f"raw_{name}", seconds)
                self.sample(name, seconds * scale)
            before, pending, since = after, [], time.perf_counter()

    def compare(self, out: str, label: str) -> None:
        """The outputs under ``out`` must equal the first repetition's bytes."""
        for name in ("enumerate.txt", "data", "score", "exact.json"):
            first, again = os.path.join(self.work, name), os.path.join(out, name)
            if os.path.exists(first) or os.path.exists(again):
                self.op(f"{label} {name}", same_bytes(first, again), f"{again} differs from {first}")

    def check_outputs(self) -> None:
        out = os.path.join(self.work, "checks.json")
        self.child("checks", [PY, os.path.join(BENCH, "checks.py"), self.workload.name, self.work], out)
        with open(out) as fh:
            for name, ok, detail in json.load(fh)["checks"]:
                self.op(f"check {name}", ok, detail)

    def end_to_end(self) -> dict[str, float]:
        """Medians of the reference-scaled timings, and the highest peak RSS."""
        med = {k: statistics.median(v) for k, v in self.samples.items()}
        return {
            "setup_s": med["setup_s"] + med.get("exact_load_s", 0.0),
            "startup_s": med["startup_s"],
            "enumerate_s": med["enumerate_s"],
            "synth_s": med["synth_s"],
            "score_s": med["score_s"],
            "peak_rss_mb": max(self.samples["rss_mb"]),
        }

    # -- traced repetition ------------------------------------------------------

    def traced(self) -> tuple[dict[str, float], dict]:
        out = os.path.join(self.work, "traced")
        os.makedirs(out, exist_ok=True)
        summaries, walls = {}, {}
        for step, kind, args, stdout in self.step_args(out):
            spans = os.path.join(out, f"spans-{step}.json")
            walls[step], _ = self.child(f"traced {step}", [PY, os.path.join(BENCH, "tracer.py"), spans, kind, *args], stdout)
            with open(spans) as fh:
                summaries[step] = json.load(fh)["summary"]
        self.compare(out, "traced equals untraced:")
        untraced = sum(statistics.median(self.samples[f"{s}_wall_s"]) for s in walls)
        metrics = per_layer_metrics(summaries, sum(walls.values()) - untraced, sum(walls.values()))
        report = {"steps": {}, "startup_s": statistics.median(self.samples["raw_startup_s"])}
        for step, summary in summaries.items():
            report["steps"][step] = {
                "wall_s": walls[step],
                "layer_share": {k: v / walls[step] for k, v in summary["layer_self_s"].items()},
                "inclusive_share": {k: v / walls[step] for k, v in summary["inclusive_s"].items()},
            }
        prediction = PREDICTIONS.get(self.workload.name)
        if prediction:
            label, step, numerator, less_startup, low, high = prediction
            summary = summaries[step]
            seconds = summary["layer_self_s"].get(numerator, summary["inclusive_s"].get(numerator, 0.0))
            base = walls[step] - (report["startup_s"] if less_startup else 0.0)
            share = seconds / base
            report["prediction"] = {
                "label": label,
                "measured": share,
                "predicted": [low, high],
                "verdict": "consistent" if low <= share <= high else "contradicted",
            }
        return metrics, report


def same_bytes(a: str, b: str) -> bool:
    if os.path.isdir(a) and os.path.isdir(b):
        names = sorted(os.listdir(a))
        return names == sorted(os.listdir(b)) and all(same_bytes(os.path.join(a, n), os.path.join(b, n)) for n in names)
    return os.path.isfile(a) and os.path.isfile(b) and filecmp.cmp(a, b, shallow=False)


def per_layer_metrics(summaries: dict, overhead: float, traced_wall: float) -> dict[str, float]:
    inclusive, calls, layer_self, counts = {}, {}, {}, {}
    self_by_name, families, covered = {}, set(), 0.0
    for s in summaries.values():
        for target, source in ((inclusive, s["inclusive_s"]), (calls, s["calls"]),
                               (layer_self, s["layer_self_s"]), (counts, s["counts"]),
                               (self_by_name, s["self_s"])):
            for k, v in source.items():
                target[k] = target.get(k, 0) + v
        families.update(s["families"])
        covered += s["covered_s"]

    def t(name):
        return inclusive.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def c(name):
        return counts.get(name, 0)

    families_scored = c("families_scored")
    metrics = {
        "tables.read_csv_s": t("tables.read_csv"),
        "tables.csv_bytes_read": c("csv_bytes_read"),
        "tables.write_csv_s": t("tables.write_csv"),
        "tables.csv_bytes_written": c("csv_bytes_written"),
        "tables.empirical_s": t("tables.empirical"),
        "tables.empirical_calls": n("tables.empirical"),
        "bayesnet.sample_s": t("bayesnet.sample"),
        "bayesnet.rows_sampled": c("rows_sampled"),
        "bayesnet.fit_cpts_s": t("bayesnet.fit_cpts"),
        "bayesnet.fit_cpts_calls": n("bayesnet.fit_cpts"),
        "bayesnet.families_fitted": c("families_fitted"),
        "bayesnet.joint_s": t("bayesnet.joint"),
        "bayesnet.joint_calls": n("bayesnet.joint"),
        "bayesnet.do_intervene_s": t("bayesnet.do_intervene"),
        "bayesnet.exact_cells": c("exact_cells"),
        "divergences.kl_s": t("divergences.kl"),
        "divergences.kl_calls": n("divergences.kl"),
        "divergences.kl_cells": c("kl_cells"),
        "graphs.enumerate_s": t("graphs.enumerate"),
        "graphs.acyclicity_checks": c("acyclicity_checks"),
        "graphs.dags_kept": c("dags_kept"),
        "graphs.useful_share": c("dags_kept") / max(c("acyclicity_checks"), 1),
        "scoring.tables_s": t("scoring.tables"),
        "scoring.tables_calls": n("scoring.tables"),
        "scoring.dodiv_s": t("scoring.dodiv"),
        "scoring.dodiv_calls": n("scoring.dodiv"),
        "scoring.gf_s": t("scoring.gf"),
        "scoring.gf_calls": n("scoring.gf"),
        "scoring.gcf_s": t("scoring.gcf"),
        "scoring.from_net_s": t("scoring.from_net"),
        "scoring.family_reuse": 1 - len(families) / families_scored if families_scored else 0.0,
        "svg.scatter_s": t("svg.scatter"),
        "cli.write_s": self_by_name.get("cli.cmd_score", 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.coverage"] = covered / traced_wall
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after the other")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through Run.child
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "gcfit", "cli.py")):
        print(f"error: no gcfit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        run_workload(WORKLOADS[name], args)
    return 0


def run_workload(workload: Workload, args: argparse.Namespace) -> None:
    """One run of ``workload``: repetitions, checks, then the end-to-end
    metrics or the traced repetition; prints the result."""
    work = os.path.join(ROOT, ".bench_work", workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(workload, args.seed, work)
    metrics, report = {}, {}
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    try:
        start = time.perf_counter()
        reps = 0
        while True:
            began = time.perf_counter()
            out = work if reps == 0 else os.path.join(work, "again")
            run.repetition(out)
            if reps:
                run.compare(out, f"repetition {reps + 1} equals the first:")
                shutil.rmtree(out)
            reps += 1
            now = time.perf_counter()
            # on average the run ends at --seconds
            if reps >= MIN_REPS and now - start + (now - began) / 2 > args.seconds:
                break
        run.check_outputs()
        if args.trace:
            metrics, report = run.traced()
        else:
            metrics = run.end_to_end()
    except ChildFailed:
        pass

    for name, value in metrics.items():
        samples = run.samples.get(f"raw_{name}") if not args.trace else None
        detail = (f"  (median of {len(samples)} scaled samples; unscaled median "
                  f"{statistics.median(samples):.6g})" if samples else "")
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{workload.name} {name} = {shown} {units[name]}{detail}")
    for step, info in report.get("steps", {}).items():
        shares = ", ".join(f"{k} {v:.1%}" for k, v in info["layer_share"].items() if v >= 0.005)
        print(f"{workload.name} traced {step} ({info['wall_s']:.3f} s) layer self-time shares: {shares}")
    if "prediction" in report:
        p = report["prediction"]
        print(f"{workload.name} {p['label']}: measured {p['measured']:.1%}, predicted "
              f"{p['predicted'][0]:.0%}-{p['predicted'][1]:.0%}: {p['verdict']}")
    print(f"{workload.name} error_rate = {run.failed}/{run.attempted} = {run.failed / max(run.attempted, 1):.3g}")
    print(f"{workload.name} note: {RSS_NOTE}")

    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                   "metrics": metrics, "samples": run.samples, "operations": run.checks,
                   "trace_report": report, "notes": [RSS_NOTE]}, fh, indent=1)
    for name in ("data", "score", "traced/data", "traced/score", "again"):
        shutil.rmtree(os.path.join(work, name), ignore_errors=True)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
