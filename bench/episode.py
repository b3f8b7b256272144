"""One episode: a fresh interpreter that runs one workload's ops once.

Started by ``run.py`` with the monotonic time of its spawn, so the set-up
time covers interpreter start, importing ``facevec`` and loading the inputs.
The timed section runs the ops single-threaded, one after another; the
outputs are judged afterwards, outside it.  Prints one JSON line.

    python3 bench/episode.py --workload sweep --inputs FILE --spawned T
        [--index I] [--trace 0|1] [--spans-out FILE]
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from checks import Verdict, check_bounds, check_dense, check_sample, check_sweep
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent

ORACLE_M_MAX = 16  # bounds queries with m this small are closed by the oracle


class HashSink:
    """Text sink that hashes what it is given and stamps every line end."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.stamps: list[float] = []
        self.digest = hashlib.sha256()
        self.nbytes = 0

    def write(self, text: str) -> int:
        self.parts.append(text)
        data = text.encode()
        self.digest.update(data)
        self.nbytes += len(data)
        if text.endswith("\n"):
            self.stamps.append(time.perf_counter())
        return len(text)

    def flush(self) -> None:
        pass


def _at(vec, i: int) -> int:
    return vec[i] if 0 <= i < len(vec) else 0


def _rss_mb() -> float:
    """Peak RSS of this process.  VmHWM belongs to this process image alone;
    ru_maxrss (the fallback) can carry the spawning process's peak across exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Each runner does the timed section, calls ``tracer.stop()`` as soon as the
# timing ends, and returns (stats, output); ``judge`` then checks the output.

def _run_cli(fv, argv: list[str], tracer) -> tuple[dict, dict]:
    """One CLI command into a hashing sink; per-op latency is per output line."""
    sink, err = HashSink(), io.StringIO()
    if tracer:
        sink.write = tracer.wrap("bench.sink", sink.write)
    t0 = time.perf_counter()
    rc = fv.cli.run(argv, out=sink, err=err)
    wall = time.perf_counter() - t0
    rss = _rss_mb()
    if tracer:
        tracer.stop()
    stamps = [t0] + sink.stamps
    stats = {"wall_s": wall, "rss_mb": rss, "digest": sink.digest.hexdigest(),
             "bytes_out": sink.nbytes, "latencies": [b - a for a, b in zip(stamps, stamps[1:])]}
    return stats, {"text": "".join(sink.parts), "rc": rc, "stderr": err.getvalue().strip()}


def run_sweep(fv, inputs: dict, index: int, tracer) -> tuple[dict, dict]:
    argv = ["verify", "--exhaustive", str(inputs["n"]), "--output", "records"]
    return _run_cli(fv, argv, tracer)


def run_dense(fv, inputs: dict, index: int, tracer) -> tuple[dict, dict]:
    stats, output = _run_cli(fv, ["construct", inputs["graphs"][index]["path"]], tracer)
    stats["latencies"] = [stats["wall_s"]]  # the op is the whole twin
    return stats, output


def _rainbow(cc) -> bool:
    """Every facet's vertices carry distinct colors (checked here, not by facevec)."""
    for facet in cc.complex.facets:
        colors = {cc.coloring.get(v) for v in facet}
        if None in colors or len(colors) != len(facet):
            return False
    return True


def run_sample(fv, inputs: dict, index: int, tracer) -> tuple[dict, list]:
    parse_graph, verify_graph = fv.graphs.parse_graph, fv.verify.verify_graph
    construct_pair, face_vector = fv.construct.construct_pair, fv.complexes.face_vector
    results, latencies = [], []
    t0 = time.perf_counter()
    for graph in inputs["graphs"]:
        start = time.perf_counter()
        try:
            g = parse_graph(graph["g6"])
            rec = verify_graph(g)
            pairs = []
            for k in range(rec.colors):
                cc, trace = construct_pair(g, rec.colors, k)
                pairs.append((k, cc, trace, face_vector(cc.complex)))
            results.append((rec, pairs))
        except Exception as exc:  # a failing op is counted, never fatal
            results.append(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - start)
    wall = time.perf_counter() - t0
    rss = _rss_mb()
    if tracer:
        tracer.stop()
    ops, digest = [], hashlib.sha256()
    for result in results:
        if isinstance(result, str):
            ops.append({"error": result})
            continue
        rec, pairs = result
        ops.append({
            "ok": rec.ok, "cliquevec": list(rec.clique_vec), "facevec": list(rec.face_vec),
            "pairs": [[k, _at(fvec, k), _at(fvec, k + 1),
                       fv.complexes.check_coloring(cc), _rainbow(cc), sum(fvec)]
                      for k, cc, _, fvec in pairs],
        })
        digest.update(repr((rec, [(k, fvec, trace) for k, _, trace, fvec in pairs])).encode())
    stats = {"wall_s": wall, "rss_mb": rss, "latencies": latencies,
             "digest": digest.hexdigest(), "bytes_out": 0}
    return stats, ops


def run_bounds(fv, inputs: dict, index: int, tracer) -> tuple[dict, list]:
    kk_canonical, ffk_canonical = fv.combinat.kk_canonical, fv.combinat.ffk_canonical
    results, latencies = [], []
    t0 = time.perf_counter()
    for m, k, r in inputs["queries"]:
        start = time.perf_counter()
        try:
            rep = kk_canonical(m, k) if r is None else ffk_canonical(m, k, r)
            results.append((rep, rep.successor_bound()))
        except Exception as exc:  # a failing op is counted, never fatal
            results.append(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - start)
    wall = time.perf_counter() - t0
    rss = _rss_mb()
    if tracer:
        tracer.stop()
    ops, digest, oracle_cache = [], hashlib.sha256(), {}
    LevelSpec, oracle_face_count = fv.revlex.LevelSpec, fv.verify.oracle_face_count
    for (m, k, r), result in zip(inputs["queries"], results):
        if isinstance(result, str):
            ops.append(result)
            continue
        rep, bound = result
        oracle = None
        if m <= ORACLE_M_MAX:
            key = (m, k, r, bound)
            if key not in oracle_cache:
                vec = oracle_face_count(LevelSpec.of((k, m), (k + 1, bound)), r)
                oracle_cache[key] = [_at(vec, k), _at(vec, k + 1)]
            oracle = oracle_cache[key]
        ops.append([[list(t) for t in rep.terms], bound, rep.evaluate(), oracle])
        digest.update(repr((rep.terms, bound)).encode())
    stats = {"wall_s": wall, "rss_mb": rss, "latencies": latencies,
             "digest": digest.hexdigest(), "bytes_out": 0}
    return stats, ops


RUNNERS = {"sweep": run_sweep, "dense": run_dense, "sample": run_sample, "bounds": run_bounds}


def _with_exit(verdict: Verdict, output: dict) -> Verdict:
    if output["rc"] != 0:
        verdict.fail(f"exit {output['rc']}: {output['stderr'][:200]}", verdict.attempted)
    return verdict


def judge(workload: str, output, inputs: dict, index: int) -> tuple[Verdict, int, int]:
    """Verdict on one episode's output, with its face count and distinct vectors."""
    if workload == "sweep":
        verdict = _with_exit(check_sweep(output["text"], inputs["n"]), output)
        faces, vectors = 0, set()
        for line in output["text"].split("\n"):
            vec = line.partition(" facevec=")[2].partition(" ")[0]
            if vec and vec != "-":
                faces += sum(int(x) for x in vec.split(","))
                vectors.add(vec)
        return verdict, faces, len(vectors)
    if workload == "dense":
        verdict, faces = check_dense(output["text"], inputs["graphs"][index]["cliquevec"])
        return _with_exit(verdict, output), faces, 0
    if workload == "sample":
        done = [op for op in output if "error" not in op]
        faces = sum(sum(op["facevec"]) + sum(p[5] for p in op["pairs"]) for op in done)
        vectors = {tuple(op["cliquevec"]) for op in done}
        return check_sample(output, inputs["graphs"]), faces, len(vectors)
    return check_bounds(output, inputs["queries"]), 0, 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import facevec
    import facevec.cli  # noqa: F401  (the submodules are the layers)

    inputs = json.loads(Path(args.inputs).read_text())
    setup_s = time.monotonic() - args.spawned

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.start()
    stats, output = RUNNERS[args.workload](facevec, inputs, args.index, tracer)
    verdict, faces, distinct = judge(args.workload, output, inputs, args.index)
    result = {
        "setup_s": setup_s, **stats, "faces": faces, "distinct_vectors": distinct,
        "attempted": verdict.attempted, "failed": verdict.failed, "messages": verdict.messages,
    }
    if tracer:
        agg = tracer.aggregate()
        agg.update(bytes_out=stats["bytes_out"], distinct_vectors=distinct)
        attributed = sum(agg["self"].values()) + agg["unattributed_s"]
        if abs(attributed - agg["wall_s"]) > 1e-6 * max(1.0, agg["wall_s"]):
            result["failed"] = result["attempted"]
            result["messages"].append(f"self times sum to {attributed}, wall {agg['wall_s']}")
        result["trace"] = agg
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
