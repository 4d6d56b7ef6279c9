"""Show that every output check can fail: tamper with a copy and re-check.

Run after ``run.py`` has left a workload's outputs in ``perfbench/out``:

    python3 perfbench/run.py --workload rj_s3 --seed 0 --seconds 1 --trace 0
    python3 perfbench/tamper.py --workload rj_s3 --seed 0

For each tampering the outputs are copied to ``perfbench/out/tamper``, one
file is altered, and the checks of ``checks.py`` (plus the byte-identity
comparison between passes) run on the copy.  The untouched copy must pass
and every tampered one must fail; the exit code is non-zero otherwise.
"""
import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from checks import check_outputs, digests, references  # noqa: E402
from workloads import WORKLOADS, artifacts, make_data  # noqa: E402


def edit_json(path, change):
    with open(path) as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def shift_evidence(rel_result, rel_evidence, model_id, delta):
    """Move a local evidence and the combined value together (identity kept)."""
    def apply(workdir):
        edit_json(os.path.join(workdir, rel_result),
                  lambda d: d["log_local_evidence"].__setitem__(
                      "value", d["log_local_evidence"]["value"] + delta))
        edit_json(os.path.join(workdir, rel_evidence),
                  lambda d: d["models"][model_id].__setitem__(
                      "log_evidence", d["models"][model_id]["log_evidence"] + delta))
    return apply


def both(first, second):
    return lambda workdir: (first(workdir), second(workdir))


def set_key(rel, key, change):
    return lambda workdir: edit_json(
        os.path.join(workdir, rel), lambda d: d.__setitem__(key, change(d[key])))


def edit_stream(rel, change):
    """Apply ``change(records)`` to the records of one NDJSON stream."""
    def apply(workdir):
        path = os.path.join(workdir, rel)
        with open(path) as fh:
            lines = fh.read().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        records = change(records)
        with open(path, "w") as fh:
            fh.write("\n".join([lines[0]] + [json.dumps(r) for r in records]) + "\n")
    return apply


def asymmetric(records):
    records[3]["prec_row_major"][1] += 1.0
    return records


def indefinite(records):
    prec = np.array(records[3]["prec_row_major"]).reshape(5, 5)
    prec -= 2.0 * np.linalg.eigvalsh(prec).max() * np.eye(5)
    records[3]["prec_row_major"] = prec.ravel().tolist()
    return records


def rj_visits(rel):
    def apply(workdir):
        def bump(doc):
            first = next(iter(doc["models"].values()))
            first["count"] += 1
        edit_json(os.path.join(workdir, rel), bump)
    return apply


def rj_bf(changes):
    def apply(workdir):
        def bump(doc):
            for key, delta in changes.items():
                doc["log_bf"][key] += delta
        edit_json(os.path.join(workdir, "rj/rj_summary.json"), bump)
    return apply


def append_byte(rel):
    def apply(workdir):
        with open(os.path.join(workdir, rel), "a") as fh:
            fh.write(" ")
    return apply


BYTES = "byte-identical passes"

TAMPERS = {
    "approx_s16": [
        ("recombination identity", set_key("run/full/result_3.json", "log_local_evidence",
                                           lambda v: {**v, "value": v["value"] + 0.01})),
        ("reference log evidence", shift_evidence("run/full/result_3.json",
                                                  "run/evidence.json", "full", 30.0)),
        ("reference log BF", both(
            shift_evidence("run/full/result_3.json", "run/evidence.json", "full", 15.0),
            shift_evidence("run/no_x5/result_3.json", "run/evidence.json", "no_x5", -15.0),
        )),
        ("n_obs sum to n", set_key("run/full/result_0.json", "n_obs", lambda v: v - 1)),
        ("draws kept", set_key("run/no_x5/result_5.json", "n_samples", lambda v: v + 1)),
        (BYTES, append_byte("run/report.csv")),
    ],
    "conditional_s16_files": [
        ("recombination identity", set_key("result_7.json", "log_local_evidence",
                                           lambda v: {**v, "value": v["value"] - 0.01})),
        ("reference log evidence", shift_evidence("result_2.json", "evidence.json",
                                                  "full", 30.0)),
        ("n_obs sum to n", set_key("result_0.json", "n_obs", lambda v: v + 1)),
        ("draws kept", set_key("result_9.json", "n_samples", lambda v: v - 1)),
        ("records per stream", edit_stream("cond_4.ndjson", lambda r: r[:-1])),
        ("symmetric precision", edit_stream("cond_5.ndjson", asymmetric)),
        ("positive-definite precision", edit_stream("cond_6.ndjson", indefinite)),
        (BYTES, append_byte("cond_1.ndjson")),
    ],
    "rj_s3": [
        ("visits sum to samples - burn-in", rj_visits("rj/rj_result_1.json")),
        ("log BF transitivity", rj_bf({"11111|01111": 0.01})),
        ("reference log BF", rj_bf({"11111|01111": 10.0, "11111|10111": 10.0})),
        (BYTES, append_byte("rj/rj_summary.json")),
    ],
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    source = os.path.join(HERE, "out", workload.name)
    copy = os.path.join(HERE, "out", "tamper", workload.name)
    X, y = make_data(workload, args.seed)
    refs = references(workload, X, y, args.seed)
    files = artifacts(workload)

    def fresh():
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(source, copy)

    def failures(check):
        if check != BYTES:
            return check_outputs(workload, copy, refs)
        os.chdir(copy)
        try:
            changed = [f for f, d in digests(files).items() if d != original[f]]
        finally:
            os.chdir(HERE)
        return [f"passes wrote different bytes: {changed}"] if changed else []

    fresh()
    os.chdir(copy)
    original = digests(files)
    os.chdir(HERE)
    untouched = failures(BYTES) + failures(None)
    print(f"{workload.name}, untouched copy: {untouched or 'all checks pass'}")
    missed = bool(untouched)
    for check, tamper in TAMPERS[workload.name]:
        fresh()
        tamper(copy)
        found = failures(check)
        missed |= not found
        print(f"  {check}: {'FAILS' if found else 'NOT DETECTED'}: {found}")
    shutil.rmtree(copy, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
