"""facevec benchmark: one workload, one seed, measured for a fixed time.

    python3 bench/run.py --workload {sweep,sample,dense,bounds} --seed N
                         --seconds S --trace {0,1} [--scale {full,tiny}]

Run from a source checkout; the package is imported from ``src/``.  The
inputs are made from the seed here, then the workload runs as a single
client in a closed loop: one episode at a time, each in a fresh interpreter
(``episode.py``), so the program's caches start empty as they do for every
CLI call.  A round is one pass over the inputs: one episode, or for
``dense`` one episode per graph.  Rounds repeat until the next one would
end after ``--seconds``.

With ``--trace 0`` it reports the end-to-end metrics: medians over rounds
(wall_s, ops_per_s, peak_rss_mb), over episodes (setup_s) and over all ops
(op_p50_us, op_p90_us).  With ``--trace 1`` it alternates untraced and
traced rounds and reports the per-layer metrics of the traced rounds, the
two wall times and the tracing overhead; the spans and the per-layer
self-time table go to ``.bench_out/``.  A table of every metric, with its
unit and sample count, is printed first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from inputs import GENERATORS
from tracing import LAYERS, PER_LAYER_UNITS, derive, merge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

MIN_ROUNDS = 3          # untraced rounds, even when they overrun --seconds
MAX_MEASURE_S = 120.0   # no round starts later than this, whatever --seconds says
DEADLINE_S = 165.0      # an episode still running this long after start is killed

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_us": "us",
    "op_p90_us": "us", "peak_rss_mb": "MB",
}


def machine_record() -> dict:
    """Where the numbers come from: cores, CPU model, Python, code version."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": model,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_episode(workload: str, inputs_path: Path, index: int, traced: bool,
                ops: int, timeout: float, spans_out: str = "") -> dict:
    """Spawn one episode and wait for it; a crash counts all its ops failed."""
    env = {k: v for k, v in os.environ.items() if k != "FACEVEC_GUARD"}
    spawned = time.monotonic()
    cmd = [sys.executable, str(BENCH / "episode.py"), "--workload", workload,
           "--inputs", str(inputs_path), "--index", str(index), "--spawned", repr(spawned),
           "--trace", str(int(traced)), "--spans-out", spans_out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        stdout = ""
    lines = stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
        else:
            result["latencies"] = array("d", result["latencies"])  # compact: runs keep them all
            return result
    return {"crashed": f"episode exited {proc.returncode}", "attempted": ops, "failed": ops,
            "messages": [f"episode {workload}[{index}] exited {proc.returncode}"]}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Run:
    def __init__(self, args) -> None:
        self.args = args
        self.workload = args.workload
        self.rounds: list[list[dict]] = []         # untraced
        self.traced_rounds: list[list[dict]] = []
        self.digests: dict[int, set[str]] = {}

    def prepare(self) -> None:
        self.started = start = time.perf_counter()
        self.inputs = GENERATORS[self.workload](self.args.seed, self.args.scale)
        self.run_dir = OUT / f"run-{self.workload}-{self.args.seed}-{os.getpid()}"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        if self.workload == "dense":
            for i, graph in enumerate(self.inputs["graphs"]):
                path = self.run_dir / f"graph{i}.g6"
                path.write_text(graph["g6"] + "\n")
                graph["path"] = str(path)
            self.episodes = [(i, 1) for i in range(len(self.inputs["graphs"]))]
        else:
            self.episodes = [(0, self.inputs["ops"])]
        self.inputs_path = self.run_dir / "inputs.json"
        self.inputs_path.write_text(json.dumps(self.inputs))
        self.gen_s = time.perf_counter() - start

    def round(self, traced: bool, spans: bool = False) -> list[dict]:
        results = []
        for index, ops in self.episodes:
            spans_out = ""
            if spans:
                spans_out = str(OUT / f"spans-{self.workload}-seed{self.args.seed}-{index}.jsonl.gz")
            timeout = DEADLINE_S - (time.perf_counter() - self.started)
            result = run_episode(self.workload, self.inputs_path, index, traced, ops, timeout,
                                 spans_out)
            if "digest" in result:
                self.digests.setdefault(index, set()).add(result["digest"])
            results.append(result)
        return results

    def measure(self) -> None:
        start = time.perf_counter()
        durations: list[float] = []
        while True:
            begun = time.perf_counter()
            self.rounds.append(self.round(traced=False))
            if self.args.trace:
                self.traced_rounds.append(self.round(traced=True, spans=not self.traced_rounds))
            durations.append(time.perf_counter() - begun)
            elapsed = time.perf_counter() - start
            enough = self.args.trace or len(self.rounds) >= MIN_ROUNDS
            if elapsed >= MAX_MEASURE_S or (
                    enough and elapsed + statistics.median(durations) > self.args.seconds):
                break

    def episodes_all(self) -> list[dict]:
        return [ep for rnd in self.rounds + self.traced_rounds for ep in rnd]

    def verdict(self) -> tuple[bool, int, int, list[str]]:
        attempted = failed = 0
        messages: list[str] = []
        for ep in self.episodes_all():
            attempted += ep["attempted"]
            failed += ep["failed"]
            messages += ep["messages"]
        for index, digests in self.digests.items():
            if len(digests) > 1:
                messages.append(f"episodes on input {index} disagree: {len(digests)} digests")
        crashed = any("crashed" in ep for ep in self.episodes_all())
        correct = failed == 0 and not crashed and all(len(d) == 1 for d in self.digests.values())
        return correct, attempted, failed, messages

    def end_to_end(self) -> tuple[dict[str, tuple[float, int]], dict]:
        """Metric -> (value, sample count), and the report-only figures."""
        eps = [ep for ep in self.episodes_all() if "crashed" not in ep]
        rounds = [rnd for rnd in self.rounds if all("crashed" not in ep for ep in rnd)]
        if not rounds:
            return {}, {}
        walls = [sum(ep["wall_s"] for ep in rnd) for rnd in rounds]
        ops = [sum(ep["attempted"] for ep in rnd) for rnd in rounds]
        faces = [sum(ep["faces"] for ep in rnd) for rnd in rounds]
        lat = sorted(x for rnd in rounds for ep in rnd for x in ep["latencies"])
        out = {
            "setup_s": (statistics.median(ep["setup_s"] for ep in eps), len(eps)),
            "wall_s": (statistics.median(walls), len(rounds)),
            "ops_per_s": (statistics.median(o / w for o, w in zip(ops, walls)), len(rounds)),
            "op_p50_us": (1e6 * percentile(lat, 0.5), len(lat)),
            "op_p90_us": (1e6 * percentile(lat, 0.9), len(lat)),
            "peak_rss_mb": (statistics.median(max(ep["rss_mb"] for ep in rnd) for rnd in rounds),
                            len(rounds)),
        }
        report = {"gen_s": (self.gen_s, 1)}
        if any(faces):
            report["faces_per_s"] = (statistics.median(f / w for f, w in zip(faces, walls)),
                                     len(rounds))
        return out, report

    def per_layer(self) -> tuple[dict[str, tuple[float, int]], dict]:
        rounds = [rnd for rnd in self.traced_rounds if all("trace" in ep for ep in rnd)]
        untraced = [rnd for rnd in self.rounds if all("crashed" not in ep for ep in rnd)]
        if not rounds or not untraced:
            return {}, {}
        merged = [merge([ep["trace"] for ep in rnd]) for rnd in rounds]
        derived = [derive(agg) for agg in merged]
        out = {name: (statistics.median(d[name] for d in derived), len(derived))
               for name in derived[0]}
        traced_wall = statistics.median(agg["wall_s"] for agg in merged)
        untraced_wall = statistics.median(sum(ep["wall_s"] for ep in rnd) for rnd in untraced)
        out["traced_wall_s"] = (traced_wall, len(merged))
        out["untraced_wall_s"] = (untraced_wall, len(untraced))
        out["trace_overhead_s"] = (traced_wall - untraced_wall, min(len(merged), len(untraced)))
        first = merged[0]
        table = {
            "note": "self_s values are derived: a span's time minus the spans beneath it",
            "layers": {layer: {"self_s": first["self"][layer], "derived": True}
                       for layer in LAYERS},
            "unattributed_s": first["unattributed_s"],
            "traced_wall_s": first["wall_s"],
            "self_plus_unattributed_s": sum(first["self"].values()) + first["unattributed_s"],
            "spans_by_name": {name: {"s": first["time"][name], "calls": first["calls"][name],
                                     "work": first["work"][name]} for name in first["time"]},
            "targets_missing": sorted({m for ep in rounds[0] for m in ep["trace"]["missing"]}),
        }
        return out, table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: minute inputs, for the self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "facevec" / "__init__.py").is_file():
        print(f"bench: no facevec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args)
    try:
        run.prepare()
        run.measure()
    finally:
        if hasattr(run, "run_dir"):
            shutil.rmtree(run.run_dir, ignore_errors=True)
    correct, attempted, failed, messages = run.verdict()
    for message in messages[:10]:
        print(f"bench: FAIL {message}", file=sys.stderr)

    machine = machine_record()
    if args.trace:
        metrics, table = run.per_layer()
        units = {**PER_LAYER_UNITS, "traced_wall_s": "s", "untraced_wall_s": "s",
                 "trace_overhead_s": "s", "fail_ratio": "ratio"}
        report: dict = {}
    else:
        metrics, report = run.end_to_end() if run.rounds else ({}, {})
        units = {**END_TO_END_UNITS, "faces_per_s": "1/s", "gen_s": "s", "fail_ratio": "ratio"}
        table = {}
    correct = correct and bool(metrics)
    report["fail_ratio"] = (failed / attempted if attempted else 1.0, attempted)

    print(f"machine {json.dumps(machine)}")
    print(f"{'metric':<32} {'value':>16} {'unit':<6} samples")
    for name, (value, samples) in {**metrics, **report}.items():
        note = " (derived)" if name.endswith("self_s") else ""
        print(f"{name:<32} {value:>16.6g} {units[name]:<6} {samples}{note}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "machine": machine,
              "correct": correct, "attempted": attempted, "failed": failed,
              "messages": messages[:10],
              "episodes": [[{k: ep.get(k) for k in ("setup_s", "wall_s", "rss_mb")} for ep in rnd]
                           for rnd in run.rounds],
              "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                          for k, (v, n) in {**metrics, **report}.items()}}
    (OUT / f"run-{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if table:
        (OUT / f"trace-{stem}.json").write_text(json.dumps({"machine": machine, **table},
                                                           indent=1))
        print(f"bench: spans and self-time table in {OUT.relative_to(ROOT)}/", file=sys.stderr)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
