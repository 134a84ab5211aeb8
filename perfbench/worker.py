"""Child process of the benchmark: ``setup`` or ``measure`` one workload.

``setup`` imports the package, generates the workload's inputs from the
seed and writes the model files; its wall time, taken by the parent, is
the set-up time.  ``measure`` runs the workload's rounds through the
in-process command-line entry ``regpart.cli.main(argv)`` and writes a
JSON result file for the parent.

The parent sets the BLAS/OpenMP thread variables to 1 in this process's
environment, before numpy is loaded.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from regpart import cli  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Rounds measured even when one round outlasts the time budget.
MIN_ROUNDS = 2


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/meminfo") as handle:
        mem_kb = next(int(line.split()[1]) for line in handle
                      if line.startswith("MemTotal:"))
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Runner:
    """Runs and checks operations; keeps one report per model for the
    parent's full check and deletes every other output."""

    def __init__(self, manifest, model_dir, out_dir):
        self.manifest = manifest
        self.ops = workloads.round_ops(manifest, model_dir)
        self.out_dir = out_dir
        self.tracer = None
        self.records = []
        self.kept = {}
        self._serial = 0

    def _fresh(self, stem):
        self._serial += 1
        return os.path.join(self.out_dir, "%s-%d.json" % (stem, self._serial))

    def run_op(self, kind, model, argv_for, round_no):
        out = self._fresh(kind)
        argv = argv_for(out)
        captured = io.StringIO()
        errors = []
        root = self.tracer.begin_op(kind, round_no) if self.tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(captured):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = None
            errors.append("raised %r" % exc)
        finally:
            seconds = time.perf_counter() - start
            if root is not None:
                self.tracer.end_op(root)
        if code != 0:
            errors.append("exit code %r: %s" % (code, captured.getvalue()
                                                 .strip()[-300:]))
        record = {"kind": kind, "model": model, "round": round_no,
                  "seconds": seconds, "errors": errors}
        if not errors:
            if kind == "compute":
                record["sha256"] = checks.sha256_of(out)
                if model not in self.kept:
                    self.kept[model] = out
                    out = None
            elif kind == "probe":
                with open(out) as handle:
                    doc = json.load(handle)
                errors.extend(checks.check_probe(doc) if isinstance(doc, dict)
                              else ["probe output is not an object"])
            else:
                errors.extend(checks.check_verify(
                    captured.getvalue(), self.manifest["verify_trials"]))
        if out is not None and os.path.exists(out):
            os.remove(out)
        self.records.append(record)

    def run_round(self, round_no):
        gc.collect()
        start = time.perf_counter()
        for kind, model, argv_for in self.ops:
            self.run_op(kind, model, argv_for, round_no)
        return time.perf_counter() - start

    def run_rounds(self, first, budget):
        """Rounds numbered from ``first`` while the next one is expected to
        end within ``budget`` seconds; returns their wall times."""
        times = []
        start = time.perf_counter()
        while len(times) < MIN_ROUNDS or (time.perf_counter() - start
                                          + statistics.median(times)
                                          <= budget):
            times.append(self.run_round(first + len(times)))
        return times


def measure(args):
    with open(os.path.join(args.dir, workloads.MANIFEST)) as handle:
        manifest = json.load(handle)
    runner = Runner(manifest, args.dir, args.out_dir)
    runner.run_round(-1)  # untimed warm-up
    result = {"machine": machine_facts()}
    if not args.trace:
        result["round_seconds"] = runner.run_rounds(0, args.seconds)
    else:
        untraced = runner.run_rounds(0, args.seconds / 2.0)
        tracer = spans.Tracer()
        tracer.install()
        runner.tracer = tracer
        first = len(untraced)
        traced = runner.run_rounds(first, args.seconds / 2.0)
        tracer.uninstall()
        rounds = list(range(first, first + len(traced)))
        layers = spans.layer_metrics(
            tracer, rounds, checks.verify_models(manifest["verify_trials"]))
        layers["trace.overhead_frac"] = (statistics.median(traced)
                                         / statistics.median(untraced) - 1.0)
        result.update(
            round_seconds=untraced, traced_round_seconds=traced,
            layers=layers,
            shares={kind: spans.module_shares(tracer, kind)
                    for kind in ("compute", "probe", "verify")})
        tracer.dump(args.trace_out, extra={"workload": manifest["workload"],
                                           "seed": manifest["seed"],
                                           "machine": result["machine"]})
    result.update(
        ops=runner.records, kept=runner.kept,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0)
    with open(args.result, "w") as handle:
        json.dump(result, handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", required=True,
                        help="directory of the model files")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--result")
    parser.add_argument("--trace-out", dest="trace_out")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        workloads.generate(args.workload, args.seed, args.dir, args.smoke)
    else:
        measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
