"""Split-evidence benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload approx_s16 --seed 0 --seconds 20 --trace 0

The runner writes the workload's inputs from ``--seed`` into
``perfbench/out/<workload>/``, starts the program's process
(``program.py``) with one BLAS/OpenMP thread, reads back its pass times,
checks the outputs against references computed here with plain numpy, and
prints one JSON object as the last line of standard output:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Metric names and units come from ``BENCHMARK.json`` at the checkout root.
It exits non-zero when an output check fails.
"""
import os

# One BLAS/OpenMP thread, set before numpy loads here and inherited by the
# program's process: threaded BLAS on 5x5 and n x 5 matrices is slower and
# far noisier than one thread (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

from checks import check_outputs, references  # noqa: E402
from tracing import median_metrics  # noqa: E402
from workloads import WORKLOADS, artifacts, comm_files, expected_counts  # noqa: E402
from workloads import make_data, pass_commands, write_inputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170


def fail(message: str):
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def start_program(config_path: str):
    """Run program.py; returns (set-up seconds, its result dict)."""
    started = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "program.py"), config_path],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - started
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        fail(f"program process failed (exit {proc.returncode})")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "splitevidence", "cli.py")):
        fail(f"no splitevidence sources under {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    X, y = make_data(workload, args.seed)
    write_inputs(workload, X, y, workdir)
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(
            {
                "src": SRC,
                "workdir": workdir,
                "commands": pass_commands(workload, args.seed),
                "artifacts": artifacts(workload),
                "comm_files": comm_files(workload),
                "seconds": args.seconds,
                "trace": args.trace,
            },
            fh,
        )

    setup_s, res = start_program(config_path)

    problems = list(res["errors"])
    if res["missing"]:
        problems.append(f"artifacts missing: {res['missing'][:3]}")
    if res["mismatched"]:
        problems.append(f"passes wrote different bytes: {res['mismatched'][:3]}")
    if not problems:
        refs = references(workload, X, y, args.seed)
        problems += check_outputs(workload, workdir, refs)
    failed = res["failed"]
    if problems and not failed:
        failed = 1  # the outputs of the pass's last operation were wrong

    run_s = statistics.median(res["walls"])
    if args.trace:
        layers = median_metrics(res["layers"])
        for layer in res["layers"]:
            for key, want in expected_counts(workload).items():
                if layer[key] != want:
                    problems.append(f"{key} = {layer[key]}, configuration implies {want}")
        layers["trace_overhead_s"] = statistics.median(res["traced_walls"]) - run_s
        values, listed = layers, declared["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "run_s": run_s,
            "comm_bytes": res["comm_bytes"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        listed = declared["end_to_end"]

    for line in problems:
        sys.stderr.write(f"check failed: {line}\n")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": res["attempted"],
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
                },
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
