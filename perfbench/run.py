#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload lenet-serve --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the daemon and the benchmark binary from source
into .bench_build/ (first run only; later runs are a no-op build), fills a
benchmark-private model cache there once, runs one workload and prints, as
its last stdout line, {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Raw samples and provenance are kept in .bench_build/results/.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import metrics as mx

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
CACHE = os.path.join(BUILD, "cache")
RESULTS = os.path.join(BUILD, "results")
LINGER_MS = 2.0  # the daemon's default max_delay_us

# End-to-end metrics: the same names on every workload, name -> unit. The
# two CPU-time costs stand for a different operation on each workload
# (SOURCES); README.md explains the choice.
END_TO_END = {
    "setup_s": "s", "primary_cpu_ms": "ms", "secondary_cpu_ms": "ms",
    "size_ratio": "x", "peak_rss_mb": "MB",
}
SOURCES = {
    "lenet-serve": {
        "primary_cpu_ms": "closed_loop_cpu_ms_per_request",
        "secondary_cpu_ms": "open_loop_cpu_ms_per_request",
    },
    "alexnet-rollout": {
        "primary_cpu_ms": "lifecycle_cpu_ms",
        "secondary_cpu_ms": "closed_loop_cpu_ms_per_request",
    },
    "deepsz-compress": {
        "primary_cpu_ms": "compress_cpu_ms",
        "secondary_cpu_ms": "encode_cpu_ms",
    },
}
# Measured on every run and reported in the details line only: wall-clock
# figures that track the host's CPU steal (README.md gives their spreads),
# and the figures the generic metrics above fold together.
DETAILS = {
    "lenet-serve": ("infer_p50_ms", "infer_p99_ms", "rows_per_s",
                    "rows_per_cpu_s"),
    "alexnet-rollout": ("infer_p50_ms", "infer_p99_ms", "rows_per_s",
                        "rows_per_cpu_s", "cold_load_ms", "swap_ms",
                        "cold_load_cpu_ms", "swap_cpu_ms",
                        "open_loop_cpu_ms_per_request"),
    "deepsz-compress": ("compress_s", "encode_s", "encode_ratio",
                        "top1_drop_pct"),
}

# Per-layer metrics, name -> unit. Every workload's traced run probes every
# layer on its own inputs.
PER_LAYER = {
    "server.handle_ms": "ms", "server.http_ms": "ms",
    "server.scheduler.queue_ms": "ms", "server.scheduler.compute_ms": "ms",
    "server.scheduler.batch_rows": "count",
    "server.scheduler.open_batch_rows": "count",
    "server.repository.load_ms": "ms",
    "server.repository.delta_load_ms": "ms", "nn.network_build_ms": "ms",
    "nn.evaluate_ms": "ms",
    "serve.session.infer_b1_ms": "ms", "serve.session.infer_b16_ms": "ms",
    "serve.sparse_forward.b16_ms": "ms", "serve.model_store.warmup_ms": "ms",
    "serve.model_store.lossless_ms": "ms",
    "serve.model_store.eb_decode_ms": "ms",
    "serve.model_store.reconstruct_ms": "ms",
    "serve.model_store.resident_mb": "MB", "serve.model_store.hit_rate": "ratio",
    "tensor.gemm.gemv_ms": "ms", "core.reader_open_ms": "ms",
    "core.decode_model_ms": "ms", "core.decode.lossless_ms": "ms",
    "core.decode.sz_ms": "ms", "core.decode.reconstruct_ms": "ms",
    "core.encode_model_s": "s", "core.encode_delta_s": "s",
    "core.data_bytes": "count", "core.index_bytes": "count",
    "util.crc32_mb_per_s": "MB/s",
    "sz.compress_ms": "ms", "sz.decompress_ms": "ms",
    "lossless.zstd.compress_ms": "ms", "lossless.zstd.decompress_ms": "ms",
    "lossless.huffman.compress_ms": "ms",
    "lossless.huffman.decompress_ms": "ms",
    "compress.assess_s": "s", "compress.optimize_s": "s",
    "compress.encode_s": "s", "compress.tested_bounds": "count",
    "trace.overhead_pct": "%",
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, log_path, **kw):
    with open(log_path, "a") as f:
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, **kw)


def build():
    """Configures once, then builds (a no-op when nothing changed)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("perfbench: no deepsz source tree beside perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = run_logged(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen, log_path)
        if r.returncode:
            shutil.rmtree(CMAKE_DIR, ignore_errors=True)
            raise SystemExit(f"perfbench: cmake configure failed, see {log_path}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = run_logged(["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
                    "deepsz_tool", "-j", jobs], log_path)
    if r.returncode:
        raise SystemExit(f"perfbench: build failed, see {log_path}")


def binary(name):
    for sub in ("", "deepsz"):
        path = os.path.join(CMAKE_DIR, sub, name)
        if os.path.isfile(path):
            return path
    raise SystemExit(f"perfbench: {name} not built")


def prepare():
    """Fills the model cache once, before any timed run."""
    marker = os.path.join(CACHE, "READY")
    if os.path.isfile(marker):
        return
    os.makedirs(CACHE, exist_ok=True)
    r = run_logged([binary("perfbench"), "prepare", "--cache", CACHE],
                   os.path.join(BUILD, "prepare.log"), timeout=800)
    if r.returncode:
        raise SystemExit("perfbench: cache preparation failed")
    open(marker, "w").close()


def source_digest():
    """git sha when available, else a digest of the sources built."""
    try:
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        # Only this tree's own repository counts, not one enclosing it.
        if git.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def raw_value(raw, name, details):
    """A measured figure by its raw name: an open-loop latency quantile,
    the median of a sample list, or a scalar."""
    s, v = raw["samples"], raw["values"]
    if name in ("infer_p50_ms", "infer_p99_ms"):
        o = raw["open_loop"]
        lat = mx.due_time_latency_ms(o["due_ns"], o["done_ns"])
        details["samples"][name] = len(lat)
        return mx.quantile(lat, 0.5 if name == "infer_p50_ms" else 0.99)
    if name in s:
        details["samples"][name] = len(s[name])
        return mx.median(s[name])
    return v[name]


def end_to_end(raw, workload, details):
    out = {}
    for name in END_TO_END:
        source = SOURCES[workload].get(name, name)
        out[name] = raw_value(raw, source, details)
        if source != name:
            details.setdefault("sources", {})[name] = source
    details["measured"] = {name: raw_value(raw, name, details)
                           for name in DETAILS[workload]}
    if "open_loop" in raw and raw["open_loop"]:
        o = raw["open_loop"]
        late = mx.lateness_ms(o["due_ns"], o["sent_ns"])
        details["generator_lateness_ms"] = {
            "p50": mx.quantile(late, 0.5), "p99": mx.quantile(late, 0.99),
            "max": max(late)}
        # A generator that fell behind by more than the linger measured its
        # own stalls, not the daemon's queueing.
        details["generator_late"] = details["generator_lateness_ms"]["p99"] > LINGER_MS
        if details["generator_late"]:
            log(f"WARNING: open-loop generator p99 lateness "
                f"{details['generator_lateness_ms']['p99']:.3f} ms exceeds "
                f"the {LINGER_MS} ms linger")
    return out


def per_layer(raw, workload, details):
    spans, counts = raw["spans_ms"], raw["counts"]
    out = {}
    for name in PER_LAYER:
        if name == "server.http_ms":
            out[name] = mx.median(spans["server.http_rtt_ms"]) - \
                mx.median(spans["server.handle_ms"])
        elif name == "util.crc32_mb_per_s":
            mb = counts["util.container_bytes"][0] / 2**20
            out[name] = mb / (mx.median(spans["util.crc32_ms"]) / 1e3)
        elif name in spans:
            ms = mx.median(spans[name])
            out[name] = ms / 1e3 if name.endswith("_s") else ms
            details["samples"][name] = len(spans[name])
        else:
            out[name] = sum(counts[name]) / len(counts[name])
            details["samples"][name] = len(counts[name])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SOURCES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    prepare()
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    raw_path = stem + ".raw.json"
    if os.path.exists(raw_path):
        os.remove(raw_path)
    ticks0 = cpu_ticks()
    r = subprocess.run(
        [binary("perfbench"), "run", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--cache", CACHE,
         "--tool", binary("deepsz_tool"), "--out", raw_path],
        timeout=170)
    ticks1 = cpu_ticks()
    if r.returncode:
        raise SystemExit(f"perfbench: workload {args.workload} failed")
    with open(raw_path) as f:
        raw = json.load(f)

    env = raw["env"]
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "source": source_digest(),
        "compiler": env["compiler"], "avx2": bool(env["avx2"]),
        "DEEPSZ_THREADS": env["deepsz_threads"] or None,
        "nproc": int(env["nproc"]), "samples": {},
        # Load shape, top-1 figures and other scalars the run recorded.
        "values": raw["values"],
        "failures": raw["failures"].splitlines(),
    }
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # CPU time the hypervisor gave to other guests while this run was
        # measuring: the main source of run-to-run noise on shared hosts.
        details["steal_pct"] = 100.0 * (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    try:
        if args.trace:
            values = per_layer(raw, args.workload, details)
            units = PER_LAYER
        else:
            values = end_to_end(raw, args.workload, details)
            units = END_TO_END
    except (KeyError, mx.TooFewSamples) as e:
        raise SystemExit(f"perfbench: incomplete measurement: {e!r}")
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise SystemExit(f"perfbench: non-finite metrics {bad}")
    details["error_rate"] = mx.error_rate(attempted, failed)

    with open(stem + ".json", "w") as f:
        json.dump({"details": details, "metrics": values}, f, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    main()
