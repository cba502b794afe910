"""Pipeline benchmark for the tmfusion CLI.

    python3 bench/run.py --workload numeric_many_tweets --seed 1 --seconds 30 --trace 0

Run it from the repository root; it benchmarks the code under ``src/``. It
writes the workload's inputs from the seed, then runs the five CLI stages
(ingest, features, train, evaluate, report) one after another, each in its
own process as a user runs them: a closed loop with one client. It repeats
the whole pipeline until ``--seconds`` have passed (at least
``MIN_REPEATS`` times), checks every stage's output, and reports medians.

``--trace 0`` prints the end-to-end metrics, measured from the CLI alone.
``--trace 1`` also makes traced in-process replays (see ``traced.py``),
alternating with CLI runs, and prints the per-layer metrics together with
the tracing overhead. Spans, per-repeat figures and the environment go to
``.bench_work/<workload>/``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

This process imports neither numpy nor the library: generating the inputs
and the traced replays run in child processes. A child's peak RSS as
``wait4`` reports it starts from its parent's at spawn, so a small parent
keeps the stages' peak RSS their own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from traced import GROUPS, STAGES, dir_bytes
from workloads import WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCH = Path(__file__).resolve().parent

#: Pipeline repeats per run at least, whatever --seconds says; a traced run
#: alternates a CLI pipeline with a traced replay, and makes fewer rounds.
MIN_REPEATS = 3
MIN_TRACED_ROUNDS = 2
#: No new repeat starts after this many seconds, so a run ends within 180 s.
HARD_STOP_S = 120.0
#: The seed code reached tweet accuracy 0.68-0.81 on every workload over
#: seeds 1-40; below this floor the evaluate stage counts as failed.
ACCURACY_FLOOR = 0.6
MB = 2**20

END_TO_END_UNITS = {
    "setup_s": "s", "features_s": "s", "train_s": "s", "evaluate_s": "s",
    "pipeline_s": "s", "tweets_per_s": "1/s", "peak_rss_mb": "MB", "dataset_mb": "MB",
    "tweet_accuracy": "fraction", "daily_accuracy": "fraction",
}
#: Per-layer figures taken from the CLI runs of a traced run, next to ``traced.GROUPS``.
CLI_LAYER_UNITS = {
    "cli.process_floor_s": "s", "cli.features_rss_mb": "MB", "cli.train_rss_mb": "MB",
    "cli.evaluate_rss_mb": "MB", "trace.cli_stage_total_s": "s", "trace.overhead_s": "s",
}
PER_LAYER_UNITS = dict(CLI_LAYER_UNITS)
for _group in GROUPS.values():
    PER_LAYER_UNITS.update(_group)


def child_env() -> dict:
    """This process's environment, with the sources under test first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_json(argv: list[str]) -> dict:
    """Run a helper process and parse the JSON object on its last output line."""
    done = subprocess.run(argv, capture_output=True, text=True, env=child_env(), check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    numpy, blas, blas_version = run_json([sys.executable, "-c", (
        "import json, numpy; b = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
        "print(json.dumps([numpy.__version__, b.get('name'), b.get('version')]))")])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "blas": f"{blas} {blas_version}",
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
        "loadavg": os.getloadavg(),
        "seed": seed,
    }


def run_stage(stage: str, config: Path, log) -> dict:
    """Wall time, peak RSS and exit code of one CLI stage in a process of its own."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "tmfusion", stage, "--config", str(config)],
        stdout=log, stderr=subprocess.STDOUT, env=child_env(),
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"s": wall, "rss_mb": usage.ru_maxrss * 1024 / MB, "exit": proc.returncode}


class Pipeline:
    """Runs the CLI pipeline on one workload's inputs and checks every stage."""

    def __init__(self, inputs: Path, tweets: int) -> None:
        self.config = inputs / "run.json"
        self.out = inputs / "out"
        self.tweets = tweets
        self.log = open(inputs.parent / "cli.log", "ab")
        self.checkpoint_sha = None
        self.repeats: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def close(self) -> None:
        self.log.close()

    def warm_up(self) -> None:
        """One untimed ingest, so that bytecode and the page cache are in place."""
        run_stage("ingest", self.config, self.log)

    def run(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        stages: dict[str, dict] = {}
        for stage in STAGES:
            self.attempted += 1
            result = run_stage(stage, self.config, self.log)
            problem = f"exit code {result['exit']}" if result["exit"] else self.checked(stage)
            stages[stage] = dict(result, problem=problem)
            if problem:
                # the stages after a failed one are failed too, without running
                self.failed += len(STAGES) - STAGES.index(stage)
                self.attempted += len(STAGES) - STAGES.index(stage) - 1
                break
        repeat = {"stages": stages, "ok": not any(s["problem"] for s in stages.values())}
        if repeat["ok"]:
            report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
            repeat["tweet_accuracy"] = report["tweet_level"]["accuracy"]
            repeat["daily_accuracy"] = report["daily_level"]["accuracy"]
            repeat["dataset_bytes"] = dir_bytes(self.out / "dataset")
            repeat["samples"] = self.build_report["samples"]
        self.repeats.append(repeat)

    def checked(self, stage: str) -> str | None:
        try:
            return self.check(stage)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"{stage} output unreadable: {type(exc).__name__}: {exc}"

    def check(self, stage: str) -> str | None:
        """What is wrong with the stage's output, or None."""
        if stage == "ingest":
            manifest = json.loads((self.out / "ingest_manifest.json").read_text("utf-8"))
            if manifest["tweets"]["count"] != self.tweets:
                return f"ingest saw {manifest['tweets']['count']} of {self.tweets} tweets"
        elif stage == "features":
            # the generator places every tweet on a labeled trading day past warmup
            self.build_report = json.loads(
                (self.out / "dataset" / "build_report.json").read_text("utf-8"))
            r = self.build_report
            if r["samples"] != self.tweets or r["train_samples"] + r["test_samples"] != self.tweets:
                return f"build report counts {r['samples']} samples for {self.tweets} tweets"
        elif stage == "train":
            sha = hashlib.sha256((self.out / "checkpoint.json").read_bytes()).hexdigest()
            if self.checkpoint_sha is None:
                self.checkpoint_sha = sha
            elif sha != self.checkpoint_sha:
                return "checkpoint.json differs from the first repeat's"
        elif stage == "evaluate":
            report = json.loads((self.out / "report.json").read_text("utf-8"))
            if not report["tweet_level"]["accuracy"] >= ACCURACY_FLOOR:
                return f"tweet accuracy {report['tweet_level']['accuracy']} below {ACCURACY_FLOOR}"
        return None

    def check_traced_samples(self, traced: float | None) -> None:
        """The last repeat's build report must count the traced replay's samples."""
        repeat = self.repeats[-1]
        if traced is None or not repeat["ok"] or repeat["samples"] == traced:
            return
        repeat["ok"] = False
        repeat["stages"]["features"]["problem"] = (
            f"build report counts {repeat['samples']} samples, the traced replay {traced}")
        self.failed += 1

    def end_to_end(self) -> dict[str, float]:
        ok = [r for r in self.repeats if r["ok"]]
        if not ok:
            return {}

        def median_stage(stage: str, key: str = "s") -> float:
            return statistics.median(r["stages"][stage][key] for r in ok)

        pipeline_s = statistics.median(sum(s["s"] for s in r["stages"].values()) for r in ok)
        return {
            "setup_s": median_stage("ingest"),
            "features_s": median_stage("features"),
            "train_s": median_stage("train"),
            "evaluate_s": median_stage("evaluate"),
            "pipeline_s": pipeline_s,
            "tweets_per_s": self.tweets / pipeline_s,
            "peak_rss_mb": statistics.median(
                max(s["rss_mb"] for s in r["stages"].values()) for r in ok),
            "dataset_mb": statistics.median(r["dataset_bytes"] for r in ok) / MB,
            "tweet_accuracy": statistics.median(r["tweet_accuracy"] for r in ok),
            "daily_accuracy": statistics.median(r["daily_accuracy"] for r in ok),
        }


def traced_replay(inputs: Path, trace_id: int) -> dict:
    """One traced replay in a process of its own; {"metrics", "absent", "errors", "spans"}."""
    out = inputs / "traced_out"
    shutil.rmtree(out, ignore_errors=True)
    try:
        return run_json([sys.executable, str(BENCH / "traced.py"),
                         str(inputs / "run.json"), str(out), str(trace_id)])
    except subprocess.CalledProcessError as exc:
        reason = (exc.stderr or "").strip().splitlines()[-1:] or [f"exit code {exc.returncode}"]
        return {"metrics": {}, "absent": {}, "errors": {"replay": reason[0]}, "spans": []}


def per_layer(pipeline: Pipeline, replays: list[dict]) -> tuple[dict, dict]:
    """Medians over the traced replays, plus the CLI-side layer figures."""
    metrics, absent = {}, {}
    for name in (n for group in GROUPS.values() for n in group):
        values = [r["metrics"][name] for r in replays if name in r["metrics"]]
        if values:
            metrics[name] = statistics.median(values)
        else:
            absent[name] = next((r["absent"][name] for r in replays if name in r["absent"]),
                                next((e for r in replays for e in r["errors"].values()), "not run"))
    ok = [r for r in pipeline.repeats if r["ok"]]
    if ok:
        def median_stage(stage: str, key: str) -> float:
            return statistics.median(r["stages"][stage][key] for r in ok)

        cli_total = statistics.median(sum(s["s"] for s in r["stages"].values()) for r in ok)
        metrics["cli.process_floor_s"] = median_stage("report", "s")
        metrics["cli.features_rss_mb"] = median_stage("features", "rss_mb")
        metrics["cli.train_rss_mb"] = median_stage("train", "rss_mb")
        metrics["cli.evaluate_rss_mb"] = median_stage("evaluate", "rss_mb")
        metrics["trace.cli_stage_total_s"] = cli_total
        if "trace.stage_total_s" in metrics:
            # each CLI stage pays the process floor that the in-process replay does not
            metrics["trace.overhead_s"] = metrics["trace.stage_total_s"] - (
                cli_total - len(STAGES) * metrics["cli.process_floor_s"])
    for name in CLI_LAYER_UNITS:
        if name not in metrics:
            absent[name] = "no successful CLI pipeline" if not ok else "trace.stage_total_s is absent"
    return metrics, absent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tmfusion" / "cli.py").is_file():
        print(f"error: no tmfusion sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    work.mkdir(parents=True)
    env = environment(args.seed)
    facts = run_json([sys.executable, str(BENCH / "generate.py"),
                      workload.name, str(args.seed), str(inputs)])

    pipeline = Pipeline(inputs, workload.tweets)
    replays: list[dict] = []
    try:
        pipeline.warm_up()
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            enough = len(pipeline.repeats) >= (MIN_TRACED_ROUNDS if args.trace else MIN_REPEATS)
            if elapsed > HARD_STOP_S or (enough and elapsed >= args.seconds):
                break
            pipeline.run()
            if args.trace:
                replays.append(traced_replay(inputs, len(replays)))
                pipeline.check_traced_samples(replays[-1]["metrics"].get("dataset.samples"))
    finally:
        pipeline.close()

    failed_share = pipeline.failed / pipeline.attempted
    if args.trace:
        metrics, absent = per_layer(pipeline, replays)
        units = PER_LAYER_UNITS
    else:
        metrics, absent = pipeline.end_to_end(), {}
        units = END_TO_END_UNITS

    result = {
        "workload": workload.name, "trace": args.trace, "environment": env, "inputs": facts,
        "attempted": pipeline.attempted, "failed": pipeline.failed,
        "failed_share": failed_share, "metrics": metrics, "absent": absent,
        "repeats": pipeline.repeats,
        "replay_errors": [r["errors"] for r in replays if r["errors"]],
    }
    (work / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if args.trace:
        spans = [s for r in replays for s in r["spans"]]
        (work / "spans.json").write_text(json.dumps(spans), encoding="utf-8")

    print(f"workload {workload.name} seed {args.seed}: {len(pipeline.repeats)} CLI pipelines, "
          f"{len(replays)} traced replays")
    print("environment " + json.dumps(env))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'failed_share':40s} {failed_share:14.6g} fraction "
          f"({pipeline.failed} of {pipeline.attempted} stage runs)")
    for name, reason in absent.items():
        print(f"  {name:40s} {'absent':>14s} ({reason})")
    for problem in {s["problem"] for r in pipeline.repeats for s in r["stages"].values()
                    if s["problem"]}:
        print(f"check failed: {problem}")

    correct = pipeline.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": pipeline.attempted,
        "failed": pipeline.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
