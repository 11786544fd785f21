"""Offline benchmark of ``aidiscover analyze`` over seeded synthetic corpora.

Usage::

    python3 perfbench/run.py --workload cold-corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each measured invocation runs the real CLI entry point, ``aidiscover.cli.main``,
in a fresh process (``worker.py``) with ``--jobs`` equal to the CPU count, a
closed loop: every worker thread waits for its own backend replies. The
backend is the offline mock behind a seeded latency model (``latency.py``).
Invocations repeat until they give 40 per-app times, and then while the next
one is expected to end within ``--seconds`` (``run_seconds`` of
``BENCHMARK.json``); every report of every invocation is checked against the
corpus's planted truth. With ``--trace 0`` the end-to-end
metrics of ``BENCHMARK.json`` are printed, with ``--trace 1`` its per-layer
metrics, from traced invocations interleaved with untraced ones. The last line
of standard output is one JSON object; the exit code is 1 when a report was
wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_BATCHES = 8  # set-up probe processes per run
SETUP_PROBES = 3  # set-ups per probe process, at least ...
SETUP_PROBE_S = 0.3  # ... and more until this long has passed
INVOCATION_TIMEOUT_S = 120
MIN_APP_SAMPLES = 40  # app_s.p75 then has at least 10 samples beyond it


@dataclass(frozen=True)
class Workload:
    profile: str  # name of a corpus.Profile
    prefill: bool  # an untimed pass fills the KB and summary cache first
    audience: str  # audience of the timed invocations


WORKLOADS = {
    "cold-corpus": Workload("ORDINARY", prefill=False, audience="user"),
    "warm-corpus": Workload("ORDINARY", prefill=True, audience="user"),
    "ai-heavy-audience": Workload("AI_HEAVY", prefill=True, audience="developer"),
}
PREFILL_AUDIENCE = "user"


def check_reports(out_dir: Path, truth: dict[str, dict[str, str]]) -> int:
    """Apps without a report, or whose report is degraded, wrong or holds a failed item.

    Every planted AI component must be reported AI with its planted domain,
    nothing else may be reported AI, and no report may be degraded.
    Provenance is not compared: under ``--jobs`` > 1 it depends on scheduling.
    """
    from aidiscover.pipeline import FAILURE_ANALYSIS, FAILURE_RATIONALE
    from aidiscover.taxonomy import parse_domain

    bad_apps = 0
    for app_id, planted in truth.items():
        path = out_dir / f"{app_id}.json"
        if not path.exists():
            bad_apps += 1
            continue
        report = json.loads(path.read_text(encoding="utf-8"))
        rows = report["verdicts"]
        failed_item = any(
            r["rationale"] == FAILURE_RATIONALE or r["analysis"] == FAILURE_ANALYSIS for r in rows
        )
        reported = {f"{r['kind']}::{r['text']}": parse_domain(r["domain"]) for r in rows if r["is_ai"]}
        expected = {key: parse_domain(domain) for key, domain in planted.items()}
        bad_apps += report["degraded"] or failed_item or reported != expected
    return bad_apps


class Runner:
    """Generates one workload's corpus and runs invocations over it."""

    def __init__(self, name: str, seed: int, work: Path):
        import corpus

        self.workload = WORKLOADS[name]
        self.name, self.seed, self.work = name, seed, work
        self.jobs = os.cpu_count() or 1
        profile = getattr(corpus, self.workload.profile)
        self.apks, self.truth = corpus.write_corpus(seed, profile, work / "apks")
        self.snapshot = work / "snapshot"  # KB files every timed invocation starts from
        self.snapshot.mkdir()
        self.attempted = self.failed = 0
        self.runs = 0

    def invoke(
        self,
        apks: list[Path],
        audience: str,
        latency: bool,
        trace: bool,
        repeat: int = 1,
        repeat_s: float = 0.0,
    ) -> tuple[list[dict], Path]:
        """Analyze invocations in one process, on a copy of the snapshot's KB files.

        There are at least ``repeat`` of them, and more until ``repeat_s`` have passed.
        """
        self.runs += 1
        run_dir = self.work / f"run{self.runs}"
        shutil.copytree(self.snapshot, run_dir / "state")
        spec = {
            "seed": self.seed,
            "apks": [str(p) for p in apks],
            "kb": str(run_dir / "state" / "kb.jsonl"),
            "out": str(run_dir / "out"),
            "jobs": self.jobs,
            "audience": audience,
            "latency": latency,
            "trace": trace,
            "repeat": repeat,
            "repeat_s": repeat_s,
            "trace_out": str(HERE / "_out" / f"{self.name}.spans.jsonl"),
            "result": str(run_dir / "result.json"),
        }
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT,
            # Fixed string hashing: set iteration order, and with it the
            # order of work inside the program, is the same in every process.
            env={**os.environ, "PYTHONHASHSEED": "0"},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=INVOCATION_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        return json.loads((run_dir / "result.json").read_text(encoding="utf-8")), run_dir

    def analyze(self, audience: str, latency: bool, trace: bool) -> tuple[dict, Path]:
        """Invoke on the whole corpus and check every report."""
        results, run_dir = self.invoke(self.apks, audience, latency, trace)
        self.attempted += len(self.apks)
        self.failed += check_reports(run_dir / "out", self.truth)
        return results[0], run_dir

    def prepare(self) -> None:
        """Fill the snapshot with what an untimed pass leaves, if the workload asks."""
        if not self.workload.prefill:
            return
        _, run_dir = self.analyze(PREFILL_AUDIENCE, latency=False, trace=False)
        shutil.rmtree(self.snapshot)
        shutil.copytree(run_dir / "state", self.snapshot)
        shutil.rmtree(run_dir)

    def probe_setup(self) -> list[float]:
        """Set-up times of invocations on two missing APKs, repeated in one process.

        ``main()`` does all of its set-up and starts its worker threads as it
        does for the whole corpus, then both apps fail at once. So set-up is
        measured many times per run at little cost.
        """
        missing = [self.work / "missing1.apk", self.work / "missing2.apk"]
        results, run_dir = self.invoke(
            missing, self.workload.audience, True, False, SETUP_PROBES, SETUP_PROBE_S
        )
        shutil.rmtree(run_dir)
        return [r["setup_s"] for r in results]

    def measure(self, seconds: float, trace: bool) -> tuple[list[dict], list[dict], list[float]]:
        """Untraced and traced invocation results, alternating when tracing, and set-up times.

        Invocations repeat until the untraced ones give MIN_APP_SAMPLES per-app
        times, and then while the next one, at the mean duration so far, is
        expected to end within ``seconds``. Untraced runs put a batch of set-up
        probes before each of the first SETUP_BATCHES invocations, so the
        probes spread over the run, and run the batches still missing at the end.
        """
        plain: list[dict] = []
        traced: list[dict] = []
        setups: list[float] = []
        batches = SETUP_BATCHES if trace else 0
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            done = len(plain) + len(traced)
            enough = len(plain) * len(self.apks) >= MIN_APP_SAMPLES and (traced or not trace)
            if enough and elapsed * (done + 1) / done > seconds:
                break
            if batches < SETUP_BATCHES:
                setups += self.probe_setup()
                batches += 1
            with_trace = trace and len(traced) < len(plain)
            result, run_dir = self.analyze(self.workload.audience, latency=True, trace=with_trace)
            shutil.rmtree(run_dir)
            (traced if with_trace else plain).append(result)
        for _ in range(batches, SETUP_BATCHES):
            setups += self.probe_setup()
        return plain, traced, setups


def _apps_per_s(results: list[dict]) -> float:
    return statistics.median(len(r["app_s"]) / r["wall_s"] for r in results)


def end_to_end(plain: list[dict], setups: list[float], attempted: int, failed: int) -> dict[str, float]:
    quartiles = statistics.quantiles([s for r in plain for s in r["app_s"]], n=4)
    return {
        "apps_per_s": _apps_per_s(plain),
        "app_s.p50": quartiles[1],
        "app_s.p75": quartiles[2],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "ok_share": (attempted - failed) / attempted,
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
    }
    metrics["trace.slowdown"] = _apps_per_s(plain) / _apps_per_s(traced)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    (HERE / "_work").mkdir(exist_ok=True)
    (HERE / "_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=HERE / "_work"))
    try:
        runner = Runner(name, seed, work)
        runner.prepare()
        plain, traced, setups = runner.measure(seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        values, declared = per_layer(plain, traced), spec["per_layer"]
    else:
        values, declared = end_to_end(plain, setups, runner.attempted, runner.failed), spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for metric_name, metric in metrics.items():
        print(f"{name:<18} {metric_name:<32} {metric['value']:>14.6g} {metric['unit']}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True, help="run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aidiscover").is_dir() or not (ROOT / "tests" / "helpers.py").is_file():
        print("error: run from a checkout of the repository (src/ and tests/ are missing)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), spec) for n in names]
    if len(results) == 1:
        outcome = results[0]
    else:
        outcome = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}/{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }
    print(json.dumps(outcome, sort_keys=True))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
