"""Benchmark of ``regpart``: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {cantor5,field2d,verify} \\
        --seed N --seconds S --trace {0,1}

Run it from anywhere; the checkout root is the parent of this directory
and the program is imported from its ``src/`` tree.  The run

1. times three fresh ``setup`` child processes (imports, seeded input
   generation, model files written) and checks they wrote the same bytes;
2. runs one ``measure`` child that drives ``regpart.cli.main(argv)`` in
   rounds for ``S`` seconds after one untimed warm-up round (with
   ``--trace 1``: half the time untraced, half with spans recorded);
3. checks every output (see ``checks.py``) and prints a table, then, as
   its last line, ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics come from ``--trace 0`` runs only; ``--trace 1``
reports the per-layer metrics.  Names and units are read from
``BENCHMARK.json``.  All files go under ``.bench_build/`` in the
checkout; the per-run temporary directory is deleted at exit, the span
file of a traced run is kept in ``.bench_build/traces/``.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

sys.dont_write_bytecode = True

import checks  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
BUILD = os.path.join(ROOT, ".bench_build")

#: Set-up children per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Every run ends within this many seconds.
RUN_LIMIT = 170.0
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
             "PYTHONDONTWRITEBYTECODE": "1"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def tail(values):
    """p95 when at least ten samples lie above it (from 200 samples on),
    else the upper quartile; returns the value and its label.

    The level depends only on the sample count's range, so it stays fixed
    for a workload: ``verify`` always has hundreds of ``compute`` samples,
    ``cantor5`` and ``field2d`` under twenty.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = math.ceil(0.95 * n) - 1
    if n - 1 - k >= 10:
        return ordered[k], "p95"
    if n == 1:
        return ordered[0], "max of 1"
    return statistics.quantiles(ordered, n=4, method="inclusive")[2], "p75"


def _run_child(argv, env, deadline):
    """Run a worker to completion; returns ``(exit code, wall seconds)``.

    The wait blocks in the kernel, so the time is not rounded to a polling
    interval; a timer kills the child at the deadline.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before %s" % argv[0])
    expired = threading.Event()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + argv, env=env,
                            stdout=sys.stderr, stderr=sys.stderr)

    def kill():
        expired.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    took = time.perf_counter() - start
    if expired.is_set():
        raise BenchError("%s child timed out" % argv[0])
    return code, took


class Run:
    """One benchmark run: its children, its failures and its count of
    attempted operations."""

    def __init__(self, args):
        self.args = args
        self.failures = []      # (what, message)
        self.attempted = 0
        self.deadline = time.monotonic() + RUN_LIMIT

    def fail(self, what, message):
        self.failures.append((what, message))

    def setup(self, tmp, env):
        repeats = 1 if self.args.trace else SETUP_REPEATS
        dirs, seconds = [], []
        for k in range(repeats):
            model_dir = os.path.join(tmp, "setup%d" % k)
            os.makedirs(model_dir)
            argv = ["setup", "--workload", self.args.workload,
                    "--seed", str(self.args.seed), "--dir", model_dir]
            if self.args.smoke:
                argv.append("--smoke")
            code, took = _run_child(argv, env, self.deadline)
            self.attempted += 1
            if code != 0:
                self.fail("setup", "setup child exited with %d" % code)
                continue
            dirs.append(model_dir)
            seconds.append(took)
        if not dirs:
            raise BenchError("no set-up child succeeded")
        digests = [{name: checks.sha256_of(os.path.join(d, name))
                    for name in sorted(os.listdir(d))} for d in dirs]
        if len(digests) > 1:
            self.attempted += 1
            if any(dg != digests[0] for dg in digests[1:]):
                self.fail("setup", "one seed gave different model bytes")
        return dirs[0], seconds

    def measure(self, model_dir, tmp, env):
        out_dir = os.path.join(tmp, "out")
        os.makedirs(out_dir)
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        self.trace_file = os.path.join(
            traces, "%s-seed%d.json" % (self.args.workload, self.args.seed))
        result_file = os.path.join(tmp, "result.json")
        argv = ["measure", "--dir", model_dir, "--out-dir", out_dir,
                "--seconds", str(self.args.seconds),
                "--trace", str(self.args.trace), "--result", result_file,
                "--trace-out", self.trace_file]
        code, _ = _run_child(argv, env, self.deadline)
        if code != 0:
            raise BenchError("measure child exited with %d" % code)
        with open(result_file) as handle:
            return json.load(handle)

    def check_reports(self, manifest, model_dir, result):
        """Full check of one report per model; every compute of that model
        must have produced the same bytes."""
        ops = result["ops"]
        for model, path in result["kept"].items():
            with open(os.path.join(model_dir,
                                   manifest["models"][model])) as handle:
                model_doc = json.load(handle)
            with open(path) as handle:
                report = json.load(handle)
            try:
                errors = checks.check_report(model_doc, report,
                                             cantor=manifest["cantor"])
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                errors = ["report does not have the expected form: %r"
                          % exc]
            first = checks.sha256_of(path)
            for rec in ops:
                if rec["kind"] != "compute" or rec["model"] != model \
                        or rec["errors"]:
                    continue
                if rec["sha256"] != first:
                    rec["errors"].append("report bytes differ from the "
                                         "first compute of this model")
                rec["errors"].extend(errors)
        for rec in ops:
            self.attempted += 1
            if rec["errors"]:
                self.fail("%s %s" % (rec["kind"], rec["model"] or ""),
                          "; ".join(rec["errors"]))


def end_to_end(ops, setup_seconds, peak_rss_mb, trials):
    """``{name: (value, samples, note)}`` from the timed rounds."""
    timed = [r for r in ops if r["round"] >= 0]
    compute = [r["seconds"] for r in timed if r["kind"] == "compute"]
    probe = [r["seconds"] for r in timed if r["kind"] == "probe"]
    models = checks.verify_models(trials)
    rate = [models / r["seconds"] for r in timed if r["kind"] == "verify"]
    tail_value, tail_note = tail(compute)
    return {
        "setup_s": (statistics.median(setup_seconds), len(setup_seconds),
                    "median of fresh set-up processes"),
        "compute_s": (statistics.median(compute), len(compute), "median"),
        "compute_tail_s": (tail_value, len(compute), tail_note),
        "probe_s": (statistics.median(probe), len(probe), "median"),
        "verify_models_per_s": (statistics.median(rate), len(rate),
                                "median, %d models per verify" % models),
        "peak_rss_mb": (peak_rss_mb, 1, "measure process"),
    }


def per_layer(result, manifest, model_dir):
    layers = dict(result["layers"])
    layers["modelio.model_bytes"] = sum(
        os.path.getsize(os.path.join(model_dir, f))
        for f in manifest["models"].values())
    layers["modelio.report_bytes"] = sum(
        os.path.getsize(p) for p in result["kept"].values())
    return {name: (value, len(result["traced_round_seconds"]),
                   "per round")
            for name, value in layers.items()}


def print_table(run, metrics, units, result):
    args = run.args
    print("regpart benchmark: workload %s, seed %d, %s, %d rounds"
          % (args.workload, args.seed,
             "traced" if args.trace else "untraced",
             len(result.get("traced_round_seconds",
                            result["round_seconds"]))))
    for name in units:
        value, samples, note = metrics[name]
        print("  %-48s %14.6g %-14s n=%-4d %s"
              % (name, value, units[name], samples, note))
    failed = len(run.failures)
    print("  %-48s %14.6g %-14s n=%-4d failed %d of %d operations"
          % ("failed_frac", failed / run.attempted, "fraction",
             run.attempted, failed, run.attempted))
    for what, message in run.failures:
        print("  FAILED %s: %s" % (what, message))
    if args.trace:
        print_shares(result, run.trace_file)
    facts = result["machine"]
    print("  machine: python %s, numpy %s, scipy %s, BLAS %s, nproc %d, "
          "memory %d MB, threads %s"
          % (facts["python"], facts["numpy"], facts["scipy"], facts["blas"],
             facts["nproc"], facts["mem_total_mb"],
             ",".join("%s=%s" % kv for kv in facts["threads"].items())))


def print_shares(result, trace_file):
    shares = result["shares"]
    for kind in ("compute", "probe", "verify"):
        ranked = sorted(shares[kind].items(), key=lambda kv: -kv[1])
        print("  self time share in %s: %s" % (kind, ", ".join(
            "%s %.1f%%" % (m, 100 * v) for m, v in ranked)))
    compute = shares["compute"]
    dense = compute.get("completion", 0.0) + compute.get("diagnostics", 0.0)
    layers = {m: v for m, v in compute.items() if m != "op"}
    largest = max(layers, key=layers.get) if layers else "none"
    print("  compute: completion+diagnostics self time %.1f%% of wall; "
          "largest layer %s" % (100 * dense, largest))
    print("  verify: %.3f V-space builds per oracle model"
          % result["layers"]["completion.build_v_subspace.calls_per_model"])
    print("  spans written to %s" % trace_file)


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description="regpart benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes, for the benchmark's tests")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    args = parse_args(argv, spec)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(ROOT, "src", "regpart", "cli.py")):
        print("run.py: no regpart sources under %s" % ROOT, file=sys.stderr)
        return 2
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD, "tmp"))
    env = dict(os.environ, TMPDIR=tmp, **CHILD_ENV)
    run = Run(args)
    try:
        model_dir, setup_seconds = run.setup(tmp, env)
        with open(os.path.join(model_dir, "manifest.json")) as handle:
            manifest = json.load(handle)
        result = run.measure(model_dir, tmp, env)
        run.check_reports(manifest, model_dir, result)
        if args.trace:
            metrics = per_layer(result, manifest, model_dir)
        else:
            metrics = end_to_end(result["ops"], setup_seconds,
                                 result["peak_rss_mb"],
                                 manifest["verify_trials"])
        print_table(run, metrics, units, result)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]}
                    for name in units},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
