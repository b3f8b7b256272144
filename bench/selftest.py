"""Self-test of the benchmark itself; exits 0 when every check holds.

    python3 bench/selftest.py

1. Runs all four workloads at tiny size, untraced and traced, and asserts
   that each prints every metric BENCHMARK.json declares, with its unit, in
   the final JSON line and with a sample count in the table before it, and
   that no operation failed.
2. Feeds every checker one real output and corrupted copies of it (a
   flipped record field, a wrong bound, a non-rainbow facet, ...) and
   asserts that the real output passes and each corruption counts as failed.
3. Runs the benchmark from a directory that holds only BENCHMARK.json and
   the benchmark's files, and asserts that it fails without a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import facevec  # noqa: E402
import facevec.cli  # noqa: E402,F401

from checks import check_bounds, check_dense, check_sample, check_sweep  # noqa: E402
from episode import run_bounds, run_dense, run_sample, run_sweep  # noqa: E402
from inputs import GENERATORS  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in GENERATORS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            lines = proc.stdout.strip().splitlines()
            tag = f"{workload} --trace {trace}"
            expect(proc.returncode == 0 and bool(lines), f"{tag}: exits 0 with output")
            if not lines:
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: last line has exactly the four keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: correct, {result['attempted']} attempted, none failed")
            declared = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == declared, f"{tag}: prints exactly the declared {key} metrics")
            table = {line.split()[0]: line.split() for line in lines[:-1] if line.split()}
            expect(all(name in table and table[name][2] == unit and int(table[name][3]) >= 1
                       for name, unit in declared.items()),
                   f"{tag}: table gives each metric with unit and sample count")


def _tiny(workload: str) -> dict:
    inputs = GENERATORS[workload](7, "tiny")
    if workload == "dense":
        path = ROOT / ".bench_out" / "selftest-graph.g6"
        path.parent.mkdir(exist_ok=True)
        path.write_text(inputs["graphs"][0]["g6"] + "\n")
        inputs["graphs"][0]["path"] = str(path)
    return inputs


def check_checkers() -> None:
    # sweep: a flipped ok field, a shifted clique vector, a dropped record.
    inputs = _tiny("sweep")
    text = run_sweep(facevec, inputs, 0, None)[1]["text"]
    n = inputs["n"]
    expect(check_sweep(text, n).failed == 0, "sweep: real output passes")
    lines = text.split("\n")
    flipped = lines.copy()
    flipped[5] = flipped[5].replace(" ok=1", " ok=0")
    expect(check_sweep("\n".join(flipped), n).failed >= 1, "sweep: flipped ok=0 fails")
    wrong = lines.copy()
    head, _, tail = wrong[-2].partition(" cliquevec=")
    vec, _, rest = tail.partition(" ")
    bumped = ",".join(vec.split(",")[:-1] + [str(int(vec.split(",")[-1]) + 1)])
    wrong[-2] = f"{head} cliquevec={bumped} {rest.replace('facevec=' + vec, 'facevec=' + bumped)}"
    expect(check_sweep("\n".join(wrong), n).failed == 1 << (n * (n - 1) // 2),
           "sweep: a wrong clique vector breaks the identity, all records fail")
    expect(check_sweep("\n".join(lines[:3] + lines[4:]), n).failed >= 1,
           "sweep: a dropped record fails")

    # dense: a non-rainbow facet and a wrong face vector.
    inputs = _tiny("dense")
    text = run_dense(facevec, inputs, 0, None)[1]["text"]
    cv = inputs["graphs"][0]["cliquevec"]
    expect(check_dense(text, cv)[0].failed == 0, "dense: real output passes")
    lines = text.split("\n")
    facet = next(line for line in lines if line.startswith("facet ") and len(line.split()) > 2)
    u, v = facet.split()[1:3]
    colors = dict(tok.split(":") for tok in lines[3].split()[1:])
    recolored = lines.copy()
    recolored[3] = lines[3].replace(f" {v}:{colors[v]}", f" {v}:{colors[u]}")
    expect(check_dense("\n".join(recolored), cv)[0].failed == 1,
           "dense: a facet that is not rainbow fails")
    wrong = lines.copy()
    wrong[2] = wrong[2] + "0"
    expect(check_dense("\n".join(wrong), cv)[0].failed == 1, "dense: a wrong face-vector fails")

    # sample: a pair that misses c_{k+1}, and a coloring that does not hold.
    inputs = _tiny("sample")
    ops = run_sample(facevec, inputs, 0, None)[1]
    expect(check_sample(ops, inputs["graphs"]).failed == 0, "sample: real output passes")
    for field, value, what in ((2, -1, "a wrong c_{k+1}"), (3, False, "check_coloring false")):
        bad = json.loads(json.dumps(ops))
        bad[1]["pairs"][-1][field] = value
        expect(check_sample(bad, inputs["graphs"]).failed == 1, f"sample: {what} fails")
    bad = json.loads(json.dumps(ops))
    bad[0]["ok"] = False
    expect(check_sample(bad, inputs["graphs"]).failed == 1, "sample: a record not ok fails")

    # bounds: a wrong bound, a non-greedy expansion, a wrong oracle count.
    inputs = _tiny("bounds")
    ops = run_bounds(facevec, inputs, 0, None)[1]
    queries = inputs["queries"]
    expect(check_bounds(ops, queries).failed == 0, "bounds: real output passes")
    i = next(i for i, (m, k, r) in enumerate(queries) if k >= 2 and m > 50)
    j = next(i for i, op in enumerate(ops) if op[3] is not None)
    for idx, mutate, what in (
        (i, lambda op: op.__setitem__(1, op[1] + 1), "a wrong bound"),
        (i, lambda op: op[0][0].__setitem__(0, op[0][0][0] - 1), "a non-greedy term"),
        (i, lambda op: op.__setitem__(2, op[2] + 1), "evaluate() != m"),
        (j, lambda op: op[3].__setitem__(1, op[3][1] + 1), "an oracle that misses the bound"),
    ):
        bad = json.loads(json.dumps(ops))
        mutate(bad[idx])
        expect(check_bounds(bad, queries).failed == 1, f"bounds: {what} fails")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("sweep", 0, cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and '"metrics"' not in last[0],
           "without the sources it exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_checkers()
    check_printed_metrics()
    check_bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
