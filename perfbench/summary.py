"""Every workload, untraced then traced, in one command.

    python3 perfbench/summary.py [--seed N] [--seconds S]

Prints each run's table (metric, value, unit, sample count) as
``run.py`` writes it, then one line per workload with its result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def main(argv=None):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    status = 0
    verdicts = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                verdicts.append("%s trace %d: no result (exit %d)\n%s"
                                % (workload, trace, proc.returncode,
                                   proc.stderr[-2000:]))
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            status |= not result["correct"]
            verdicts.append("%s trace %d: correct=%s, failed %d of %d"
                            % (workload, trace, result["correct"],
                               result["failed"], result["attempted"]))
    print("\n".join(verdicts))
    return status


if __name__ == "__main__":
    sys.exit(main())
