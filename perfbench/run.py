#!/usr/bin/env python3
"""Benchmark of the ``analyze`` pipeline (parse -> model -> rank -> CA/TCA ->
distortion -> emit).

One process drives a closed loop with one client: each request is one
analysis, a call of the public entry point ``catax.main(argv)`` on a CSV file
written during set-up, with stdout captured.  Every output is checked by
``checker.py``, which does not use catax.  The program is imported from
``src/`` of the checkout this file sits in and is not edited.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

With ``--trace 0`` the last stdout line is a JSON object whose metrics are the
end-to-end ones; with ``--trace 1`` an untraced phase is followed by a traced
one and the metrics are the per-layer ones.  ``--workload all`` runs every
workload in turn, each in its own process, and prints a table.  Details of
each run (environment, digests, samples, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set before numpy loads, so BLAS-bound layers see the same thread count on
# every machine; never more threads than CPUs.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

WORKLOADS = ("corpus", "enum50x20", "tied40x18", "sacred590x8265")
SETUP_REPS = 3
END_TO_END_UNITS = {"tables_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics every traced run reports, 0 where a layer did not run;
# the tracer's other figures go to the run record only.
PER_LAYER = {
    "contingency.load_table": ("calls", "s"),
    "contingency.build_model": ("calls", "s"),
    "decomposition.numerical_rank": ("calls", "s", "rank"),
    "ca.ca_decompose": ("s", "self_s"),
    "tca.tca_decompose": ("s", "self_s"),
    "tca.tsvd_step_iterative": ("calls", "s", "self_s"),
    "tca.tsvd_step_exhaustive": ("calls", "s", "classes"),
    "distortion.distortion_report": ("calls", "s"),
    "report.emit_report": ("s",),
    "report.report_to_dict": ("s",),
    "svgmap.emit_map": ("s",),
    "cli.main": ("s", "self_s"),
    "kernel.linalg": ("calls", "s", "flops"),
    "trace": ("overhead_s",),
}
LAYER_UNITS = {"calls": "count", "classes": "count", "rank": "count", "flops": "flop"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_catax():
    """Import catax from this checkout's ``src/`` and nowhere else.

    The benchmark's own modules import numpy too, so they are imported only
    after this, and the time measured here includes numpy's import."""
    if not os.path.isfile(os.path.join(SRC, "catax", "__init__.py")):
        raise SystemExit(f"error: no catax package under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import catax

    seconds = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(catax.__file__))) != SRC:
        raise SystemExit(f"error: catax was imported from {catax.__file__}, not {SRC}")
    return catax, seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def blas_threads_reported() -> int | None:
    """Thread count OpenBLAS reports, read through the loaded library."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def source_commit() -> str | None:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    sources = sorted(
        os.path.join(SRC, "catax", name)
        for name in os.listdir(os.path.join(SRC, "catax"))
        if name.endswith(".py")
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_reported": blas_threads_reported(),
        "commit": source_commit(),
        "catax_source_sha256": sha256_files(sources),
    }


class Bench:
    """Set-up, measurement loop and checks of one workload in one process."""

    def __init__(self, catax, name: str, seed: int) -> None:
        import checker
        import workloads

        self.catax = catax
        self.checker = checker
        self.workdir = os.path.join(OUT, f"{name}-seed{seed}-pid{os.getpid()}")
        setup_times, input_digests = [], set()
        for rep in range(SETUP_REPS):
            repdir = os.path.join(self.workdir, f"setup{rep}")
            os.makedirs(repdir)
            start = time.perf_counter()
            workload = workloads.build(name, seed, repdir)
            warmup = workloads.warmup_table(repdir)
            refs = [
                checker.reference(t.counts, t.row_labels, t.col_labels)
                for t in workload.tables + [warmup]
            ]
            setup_times.append(time.perf_counter() - start)
            input_digests.add(sha256_files(t.path for t in workload.tables))
            if rep:
                shutil.rmtree(os.path.join(self.workdir, f"setup{rep - 1}"))
        if len(input_digests) != 1:
            raise RuntimeError("the same seed generated different inputs")
        self.setup_times = setup_times
        self.setup_peak_rss_mb = peak_rss_mb()
        self.input_digest = input_digests.pop()
        self.workload, self.warmup, self.refs = workload, warmup, refs
        self.svg_path = os.path.join(repdir, "map.svg")
        self.max_dims = int(workload.flags[workload.flags.index("--dims") + 1])

    def analyse(self, table, ref, tracer=None, request: int = 0):
        """One request: returns (seconds, exit code, stdout, svg bytes or None)."""
        argv = ["--input", table.path, *self.workload.flags]
        # A map of axes 1 and 2 needs two axes; the CLI rejects it (exit 2)
        # on a rank-1 table, so such tables run without one.
        wants_map = self.workload.svg and ref.rank >= 2
        if wants_map:
            argv += ["--map", self.svg_path]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = self.catax.main(argv)
                else:
                    with tracer.request(request):
                        code = self.catax.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed request, not a crashed benchmark
                code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        svg = None
        if wants_map and code == 0:
            try:
                with open(self.svg_path, "rb") as handle:
                    svg = handle.read()
                os.remove(self.svg_path)
            except FileNotFoundError:
                code = "exit 0 but no map written"
        return seconds, code, out.getvalue(), svg

    def problems(self, ref, code, stdout, svg) -> list[str]:
        return self.checker.check(self.workload.fmt, ref, self.max_dims, code, stdout, svg)

    def warm_up(self) -> list[str]:
        _, code, stdout, svg = self.analyse(self.warmup, self.refs[-1])
        return self.problems(self.refs[-1], code, stdout, svg)

    def measure(self, seconds: float, tracer=None, expected: list[str] | None = None) -> dict:
        """Closed loop over the tables, at least one pass, starting no request
        that the previous one's duration says would end after ``seconds``.
        A traced loop decides only at the end of a pass, by the last pass's
        duration, so its per-analysis layer figures cover whole passes.

        Without ``expected`` the first output of each table is checked in
        full; every other output must repeat, byte for byte, the first one
        or the one ``expected`` gives by its digest."""
        tables = self.workload.tables
        n = len(tables)
        samples, first, failures = [], [], []
        start = pass_start = time.perf_counter()
        k = 0
        while True:
            table = tables[k % n]
            elapsed, code, stdout, svg = self.analyse(table, self.refs[k % n], tracer, k)
            samples.append(elapsed)
            digest = hashlib.sha256(stdout.encode() + (svg or b"")).hexdigest()
            if k < n and expected is None:
                first.append(digest)
                problems = self.problems(self.refs[k], code, stdout, svg)
            else:
                same = digest == (expected or first)[k % n]
                problems = [] if same else ["output differs from the first, checked one"]
            if problems:
                failures.append({"table": table.name, "problems": problems[:5]})
            k += 1
            now = time.perf_counter()
            if k % n == 0:
                last_pass, pass_start = now - pass_start, now
            if k < n or (tracer is not None and k % n):
                continue
            if now - start + (elapsed if tracer is None else last_pass) > seconds:
                break
        return {
            "samples": samples,
            "failures": failures,
            "digests": first,
        }

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def timing_summary(samples: list[float]) -> dict:
    ordered = sorted(samples)
    summary = {
        "n": len(ordered),
        "mean": statistics.fmean(ordered),
        "p50": statistics.median(ordered),
    }
    if len(ordered) >= 100:
        # p90 has at least ten samples beyond it only from 100 samples on.
        summary["p90"] = statistics.quantiles(ordered, n=10)[-1]
    return summary


def run_one(args: argparse.Namespace) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    catax, import_s = import_catax()
    import numpy

    import tracer as tracing

    os.makedirs(OUT, exist_ok=True)
    bench = Bench(catax, args.workload, args.seed)
    try:
        warmup_problems = bench.warm_up()
        untraced = bench.measure(args.seconds)
        traced = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = bench.measure(args.seconds, tracer, untraced["digests"])
            finally:
                tracer.restore()
    finally:
        bench.close()

    runs = [untraced] + ([traced] if traced else [])
    attempted = 1 + sum(len(r["samples"]) for r in runs)
    failed = int(bool(warmup_problems)) + sum(len(r["failures"]) for r in runs)
    timing = timing_summary(untraced["samples"])
    end_to_end = {
        # 1 / mean time per analysis.  On the 2-vCPU VM this was tuned on,
        # CPU speed switches between two levels about 1.4x apart every few
        # seconds; a median jumps to whichever level held longest, a mean
        # weights them by time and is about twice as steady from run to run.
        "tables_per_s": 1.0 / timing["mean"],
        "setup_s": import_s + statistics.median(bench.setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    if traced:
        per_layer = tracer.summary(len(traced["samples"]))
        per_layer["trace.overhead_s"] = (
            timing_summary(traced["samples"])["mean"] - timing["mean"]
        )
        metrics = {
            f"{layer}.{field}": {
                "value": per_layer.get(f"{layer}.{field}", 0.0),
                "unit": LAYER_UNITS.get(field, "s"),
            }
            for layer, fields in PER_LAYER.items()
            for field in fields
        }
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}

    output_digest = hashlib.sha256("".join(untraced["digests"]).encode()).hexdigest()
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(numpy),
        "digests": {"input": bench.input_digest, "output": output_digest},
        "recorded_digests": recorded_digest_status(args.workload, args.seed, bench.input_digest,
                                                   output_digest),
        "import_s": import_s,
        "setup_times": bench.setup_times,
        "timing": timing,
        "end_to_end": end_to_end,
        "error_rate": failed / attempted,
        "failures": (["warmup: " + p for p in warmup_problems]
                     + [f for r in runs for f in r["failures"]])[:20],
        "setup_peak_rss_mb": bench.setup_peak_rss_mb,
        "samples": untraced["samples"],
        "metrics": metrics,
        "layers": per_layer if traced else None,
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if traced:
        tracer.write(stem + ".spans.jsonl")

    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({"digests": record["digests"], "recorded": record["recorded_digests"]}))
    print(f"{args.workload}: {timing['n']} analyses, error_rate={record['error_rate']:.4f}, "
          + ", ".join(f"table_s.{key}={value:.6f} s" for key, value in timing.items() if key != "n"))
    for failure in record["failures"]:
        print(f"failure: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def recorded_digest_status(workload: str, seed: int, input_digest: str, output_digest: str) -> str:
    """Compare with ``digests.json``: "same", "changed" or "unrecorded"."""
    try:
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
            recorded = json.load(handle)[workload][str(seed)]
    except (OSError, KeyError):
        return "unrecorded"
    same = recorded == {"input": input_digest, "output": output_digest}
    return "same" if same else "changed"


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one table of metrics with units."""
    rows, status = [], 0
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rows.append((name, "error_rate", result["failed"] / result["attempted"], "1"))
        rows.extend((name, metric, v["value"], v["unit"]) for metric, v in result["metrics"].items())
    width = max(len(metric) for _, metric, _, _ in rows) if rows else 0
    for name, metric, value, unit in rows:
        print(f"{name:<16} {metric:<{width}} {value:>14.6g} {unit}")
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
