"""One ``aidiscover analyze`` invocation in a fresh process, measured from outside.

Usage: ``python3 perfbench/worker.py SPEC.json``. The spec names the APKs,
the KB path, the output directory, the audience, ``--jobs``, the latency
seed, whether requests wait out their latency, whether to trace, and how often
to invoke ``main()`` in this process: at least ``repeat`` times, and again
until ``repeat_s`` seconds have passed. The list of results is written as JSON
to ``spec["result"]``.
The benchmark's latency backend replaces the ``MockBackend`` name that
``aidiscover.cli.make_gateway`` constructs, the one backend seam of the CLI.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aidiscover import cli  # noqa: E402

from latency import LatencyBackend  # noqa: E402
from probes import Tracer, app_times, layer_metrics  # noqa: E402


def run(spec: dict) -> dict:
    backend = LatencyBackend(spec["seed"], sleep=time.sleep if spec["latency"] else lambda s: None)
    cli.MockBackend = lambda: backend
    tracer = Tracer(full=spec["trace"])
    tracer.install(LatencyBackend)
    argv = [
        "analyze", *spec["apks"],
        "--backend", "mock",
        "--kb", spec["kb"],
        "--out", spec["out"],
        "--jobs", str(spec["jobs"]),
        "--audience", spec["audience"],
    ]
    gc.collect()  # a repeated invocation starts without the last one's garbage
    start = time.perf_counter()
    cli.main(argv)
    wall_s = time.perf_counter() - start
    tracer.uninstall()

    first_app = min((s[2] for s in tracer.spans if s[1] == "app"), default=start + wall_s)
    result = {
        "wall_s": wall_s,
        "setup_s": first_app - start,
        "app_s": [end - begin for begin, end in app_times(tracer.spans).values()],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": backend.counters(),
    }
    if spec["trace"]:
        result["layers"] = layer_metrics(tracer, result["backend"], wall_s, len(spec["apks"]))
        tracer.write(Path(spec["trace_out"]))
    return result


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    results, start = [], time.perf_counter()
    while len(results) < spec["repeat"] or time.perf_counter() - start < spec["repeat_s"]:
        results.append(run(spec))
    Path(spec["result"]).write_text(json.dumps(results), encoding="utf-8")
