"""Command-line surface: artifact layout, byte-level reproducibility,
config merging, the hand-operated worker/combine flow, and structured
error reporting."""
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from splitevidence import cli, samplers
from splitevidence.models import (
    Dataset,
    LinearKnownVar,
    LogisticLikelihood,
    ModelSpec,
    NormalPrior,
    model_spec_from_json,
    model_spec_to_json,
    save_csv,
)
from splitevidence.sharding import read_plan


@pytest.fixture(scope="module")
def conjugate_fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("conjugate")
    code = cli.main(
        ["synth", "--scenario", "linear_conjugate", "--seed", "0", "--out", str(root)]
    )
    assert code == 0
    return {"data": str(root / "data.csv"), "model": str(root / "model_m1.json")}


@pytest.fixture(scope="module")
def logistic_fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("logistic")
    rng = np.random.default_rng(12)
    X = rng.standard_normal((300, 2))
    logits = X @ np.array([1.0, -0.5])
    y = (rng.random(300) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    data_path = root / "data.csv"
    save_csv(Dataset(X=X, y=y), data_path)
    base = ModelSpec(
        model_id="m_a",
        likelihood=LogisticLikelihood(),
        prior=NormalPrior(mean=np.zeros(2), cov=np.eye(2)),
        dim=2,
    )
    model_path = root / "model_a.json"
    model_path.write_text(model_spec_to_json(base))
    twin_path = root / "model_b.json"
    twin_path.write_text(model_spec_to_json(replace(base, model_id="m_b")))
    return {
        "data": str(data_path),
        "model": str(model_path),
        "twin": str(twin_path),
    }


def _read_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)["error"]


@pytest.fixture(scope="module")
def exchange(logistic_fixture, tmp_path_factory):
    """A model file, a plan, and two conditional results with their streams."""
    root = tmp_path_factory.mktemp("exchange")
    shutil.copy(logistic_fixture["model"], root / "model.json")
    plan = str(root / "plan.json")
    assert cli.main(
        ["shard", "--data", logistic_fixture["data"], "--splits", "2", "--out", plan]
    ) == 0
    for sid in range(2):
        assert cli.main(
            ["worker", "--data", logistic_fixture["data"], "--model",
             str(root / "model.json"), "--plan", plan, "--shard-id", str(sid),
             "--mode", "conditional", "--samples", "150", "--burn-in", "50",
             "--out", str(root / f"result_{sid}.json")]
        ) == 0
    return root


def _edit_line(index, change):
    """Replace line ``index`` of an NDJSON file by ``change`` of its decoded JSON."""
    def edit(text):
        lines = text.splitlines(keepends=True)
        lines[index] = json.dumps(change(json.loads(lines[index]))) + "\n"
        return "".join(lines)
    return edit


def _with_precision(change):
    return lambda rec: {**rec, "prec_row_major": change(list(rec["prec_row_major"]))}


def _upper_triangle(prec):
    prec[1] += 1.0
    return prec


# one malformed document per row: the file to edit and the edit
MALFORMED_DOCUMENTS = [
    pytest.param("model.json", lambda text: "[]\n", id="model-not-an-object"),
    pytest.param("model.json", lambda text: text.replace('"dim":2', '"dim":"five"'),
                 id="model-dim-string"),
    pytest.param("model.json",
                 lambda text: text.replace('"mean":[0.0,0.0]', '"mean":"zero"'),
                 id="model-prior-mean-string"),
    pytest.param("cond_1.ndjson", _edit_line(3, lambda rec: [1, 2]),
                 id="stream-record-not-an-object"),
    pytest.param("cond_1.ndjson",
                 _edit_line(3, lambda rec: {"type": rec["type"], "n": rec["n"]}),
                 id="stream-record-without-precision"),
    pytest.param("cond_0.ndjson", _edit_line(0, lambda head: {**head, "eta": "abc"}),
                 id="stream-eta-string"),
    pytest.param("cond_1.ndjson",
                 _edit_line(3, _with_precision(lambda prec: [1.0, 0.0, 0.0, -1.0])),
                 id="stream-precision-indefinite"),
    pytest.param("cond_0.ndjson", _edit_line(5, _with_precision(_upper_triangle)),
                 id="stream-precision-upper-triangle"),
    pytest.param("result_0.json",
                 lambda text: re.sub(r'"std_err":[^,}]+', '"std_err":NaN', text),
                 id="result-std-err-nan"),
    pytest.param("result_1.json",
                 lambda text: text.replace('"acceptance_rate":null', '"acceptance_rate":true'),
                 id="result-acceptance-rate-bool"),
]


class TestSynthAndShard:
    def test_synth_writes_data_and_models(self, tmp_path):
        out = tmp_path / "fixtures"
        assert cli.main(
            ["synth", "--scenario", "rj_mixture", "--seed", "3", "--out", str(out)]
        ) == 0
        assert (out / "data.csv").is_file()
        for model_id in ("full", "m1", "m2", "m3"):
            assert (out / f"model_{model_id}.json").is_file()

    def test_synth_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            cli.main(
                ["synth", "--scenario", "linear_conjugate", "--seed", "5", "--out", str(out)]
            )
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
        assert (a / "model_m1.json").read_bytes() == (b / "model_m1.json").read_bytes()

    def test_shard_writes_loadable_plan(self, conjugate_fixture, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert cli.main(
            [
                "shard",
                "--data", conjugate_fixture["data"],
                "--splits", "4",
                "--seed", "2",
                "--out", str(plan_path),
            ]
        ) == 0
        plan = read_plan(plan_path)
        assert plan.n_splits == 4
        assert sum(plan.sizes()) == 2000

    def test_shard_stratified(self, logistic_fixture, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert cli.main(
            [
                "shard",
                "--data", logistic_fixture["data"],
                "--splits", "3",
                "--strategy", "stratified",
                "--kmeans-k", "4",
                "--seed", "2",
                "--out", str(plan_path),
            ]
        ) == 0
        assert read_plan(plan_path).strategy == "stratified"


class TestRunPipeline:
    def test_exact_mode_matches_oracle(self, conjugate_fixture, tmp_path):
        from splitevidence.diagnostics import exact_evidence_conjugate_gaussian
        from splitevidence.models import design, load_csv, whole_shard

        out = tmp_path / "run"
        assert cli.main(
            [
                "run",
                "--data", conjugate_fixture["data"],
                "--model", conjugate_fixture["model"],
                "--splits", "1",
                "--mode", "exact",
                "--seed", "0",
                "--out", str(out),
            ]
        ) == 0
        report = json.loads((out / "evidence.json").read_text())
        data = load_csv(conjugate_fixture["data"])
        model = model_spec_from_json(open(conjugate_fixture["model"]).read())
        oracle = exact_evidence_conjugate_gaussian(
            design(model, whole_shard(data)),
            data.y,
            model.prior.mean,
            model.prior.cov,
            model.likelihood.noise_var,
        )
        assert report["models"]["m1"]["log_evidence"] == pytest.approx(
            oracle, abs=1e-6
        )

    def test_artifact_layout(self, conjugate_fixture, tmp_path):
        out = tmp_path / "run"
        cli.main(
            [
                "run",
                "--data", conjugate_fixture["data"],
                "--model", conjugate_fixture["model"],
                "--splits", "3",
                "--mode", "exact",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert (out / "plan.json").is_file()
        assert (out / "evidence.json").is_file()
        assert (out / "report.csv").is_file()
        for sid in range(3):
            assert (out / "m1" / f"result_{sid}.json").is_file()

    def test_rerun_is_byte_identical(self, conjugate_fixture, tmp_path):
        out = tmp_path / "run"
        flags = [
            "run",
            "--data", conjugate_fixture["data"],
            "--model", conjugate_fixture["model"],
            "--splits", "2",
            "--mode", "approx",
            "--samples", "500",
            "--burn-in", "150",
            "--evidence-samples", "600",
            "--seed", "7",
            "--out", str(out),
        ]
        assert cli.main(flags) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("plan.json", "evidence.json", "report.csv")
        }
        first_results = {
            sid: (out / "m1" / f"result_{sid}.json").read_bytes() for sid in range(2)
        }
        assert cli.main(flags) == 0
        for name, payload in first.items():
            assert (out / name).read_bytes() == payload, name
        for sid, payload in first_results.items():
            assert (out / "m1" / f"result_{sid}.json").read_bytes() == payload

    def test_equal_models_split_posterior_mass(
        self, logistic_fixture, tmp_path, capsys
    ):
        out = tmp_path / "run"
        assert cli.main(
            [
                "run",
                "--data", logistic_fixture["data"],
                "--model", logistic_fixture["model"],
                "--model", logistic_fixture["twin"],
                "--splits", "2",
                "--mode", "approx",
                "--samples", "400",
                "--burn-in", "100",
                "--evidence-samples", "500",
                "--seed", "4",
                "--out", str(out),
            ]
        ) == 0
        report = json.loads((out / "evidence.json").read_text())
        # identical specs under two names: same seeds, same estimates
        assert report["posterior_probs"] == [0.5, 0.5]
        matrix = report["log_bf_matrix"]
        assert matrix[0][1] == -matrix[1][0]
        assert "posterior prob 0.500000" in capsys.readouterr().out

    def test_report_csv_shape(self, conjugate_fixture, tmp_path):
        out = tmp_path / "run"
        cli.main(
            [
                "run",
                "--data", conjugate_fixture["data"],
                "--model", conjugate_fixture["model"],
                "--splits", "1",
                "--mode", "exact",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        with open(out / "report.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["record", "model_id", "second_model_id", "shard_id", "value"]
        shard_rows = [r for r in rows if r[0] == "n_obs"]
        assert len(shard_rows) == 1
        assert shard_rows[0][3] == "0"
        payload_rows = [r for r in rows if r[0] == "payload_bytes"]
        assert len(payload_rows) == 1 and int(payload_rows[0][4]) > 0

    def test_report_payload_is_result_file_size(self, logistic_fixture, tmp_path):
        # a conditional result names its stream relative to the result file,
        # so the bytes written differ from those of the in-memory result
        out = tmp_path / "deeper" / "run"
        assert cli.main(
            ["run", "--data", logistic_fixture["data"], "--model", logistic_fixture["model"],
             "--splits", "2", "--mode", "conditional", "--samples", "60", "--burn-in", "20",
             "--out", str(out)]
        ) == 0
        results = [str(out / "m_a" / f"result_{s}.json") for s in range(2)]
        assert cli.main(
            ["combine", "--model", logistic_fixture["model"], "--results", *results,
             "--report", str(tmp_path / "combined.csv"), "--out", str(tmp_path / "ev.json")]
        ) == 0
        for report in (out / "report.csv", tmp_path / "combined.csv"):
            with open(report) as handle:
                payload = [int(r[4]) for r in csv.reader(handle) if r[0] == "payload_bytes"]
            assert payload == [os.path.getsize(path) for path in results]

    def test_verbose_access_log_isolates_shards(self, conjugate_fixture, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(
            [
                "run",
                "--data", conjugate_fixture["data"],
                "--model", conjugate_fixture["model"],
                "--splits", "3",
                "--mode", "exact",
                "--seed", "0",
                "--verbose",
                "--out", str(out),
            ]
        ) == 0
        access = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("access ")
        ]
        assert len(access) == 3
        plan = read_plan(out / "plan.json")
        sizes = plan.sizes()
        for sid, line in enumerate(access):
            assert line.count("shard=") == 1
            assert f"shard={sid} " in line
            assert line.endswith(f"rows={sizes[sid]}")

    def test_config_file_with_flag_override(self, conjugate_fixture, tmp_path):
        base = {
            "data": conjugate_fixture["data"],
            "models": [conjugate_fixture["model"]],
            "splits": 2,
            "mode": "exact",
            "seed": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base))
        out_a = tmp_path / "a"
        assert cli.main(
            ["run", "--config", str(cfg_path), "--seed", "2", "--out", str(out_a)]
        ) == 0
        out_b = tmp_path / "b"
        assert cli.main(
            [
                "run",
                "--data", conjugate_fixture["data"],
                "--model", conjugate_fixture["model"],
                "--splits", "2",
                "--mode", "exact",
                "--seed", "2",
                "--out", str(out_b),
            ]
        ) == 0
        assert (out_a / "evidence.json").read_bytes() == (
            out_b / "evidence.json"
        ).read_bytes()
        assert (out_a / "plan.json").read_bytes() == (out_b / "plan.json").read_bytes()

    def test_config_file_with_every_key_matches_flags(
        self, logistic_fixture, tmp_path, capsys
    ):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        settings = {
            "data": logistic_fixture["data"],
            "models": [logistic_fixture["model"], logistic_fixture["twin"]],
            "out": str(out_a),
            "splits": 2,
            "strategy": "stratified",
            "kmeans_k": 3,
            "verbose": True,
            "mode": "approx",
            "evidence": "laplace",
            "samples": 400,
            "burn_in": 100,
            "evidence_samples": 300,
            "seed": 5,
            "parallelism": 2,
        }
        assert set(settings) == set(cli._CONFIG_KEYS)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(settings))
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        from_file = capsys.readouterr()
        assert cli.main(
            [
                "run",
                "--data", logistic_fixture["data"],
                "--model", logistic_fixture["model"],
                "--model", logistic_fixture["twin"],
                "--splits", "2",
                "--strategy", "stratified",
                "--kmeans-k", "3",
                "--verbose",
                "--mode", "approx",
                "--evidence", "laplace",
                "--samples", "400",
                "--burn-in", "100",
                "--evidence-samples", "300",
                "--seed", "5",
                "--parallelism", "2",
                "--out", str(out_b),
            ]
        ) == 0
        from_flags = capsys.readouterr()
        assert from_file.err == from_flags.err
        assert from_file.err.count("access ") == 4
        assert "[approx]" in from_file.out
        files = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        assert len(files) == 3 + 2 * 2
        assert files == sorted(
            p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file()
        )
        for name in files:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        plan = read_plan(out_a / "plan.json")
        assert plan.strategy == "stratified"
        assert json.loads((out_a / "m_a" / "result_0.json").read_text())[
            "log_local_evidence"
        ]["method"] == "laplace"


class TestWorkerCombineByHand:
    def test_matches_run_pipeline_approx(self, conjugate_fixture, tmp_path):
        out = tmp_path / "auto"
        flags = ["--samples", "400", "--burn-in", "100", "--evidence-samples", "500"]
        assert cli.main(
            [
                "run",
                "--data", conjugate_fixture["data"],
                "--model", conjugate_fixture["model"],
                "--splits", "2",
                "--mode", "approx",
                *flags,
                "--seed", "9",
                "--out", str(out),
            ]
        ) == 0
        hand = tmp_path / "hand"
        hand.mkdir()
        plan_path = hand / "plan.json"
        assert cli.main(
            [
                "shard",
                "--data", conjugate_fixture["data"],
                "--splits", "2",
                "--seed", "9",
                "--out", str(plan_path),
            ]
        ) == 0
        assert plan_path.read_bytes() == (out / "plan.json").read_bytes()
        results = []
        for sid in range(2):
            result_path = hand / f"result_{sid}.json"
            assert cli.main(
                [
                    "worker",
                    "--data", conjugate_fixture["data"],
                    "--model", conjugate_fixture["model"],
                    "--plan", str(plan_path),
                    "--shard-id", str(sid),
                    "--mode", "approx",
                    *flags,
                    "--seed", "9",
                    "--out", str(result_path),
                ]
            ) == 0
            results.append(str(result_path))
            assert result_path.read_bytes() == (
                out / "m1" / f"result_{sid}.json"
            ).read_bytes()
        evidence_path = hand / "evidence.json"
        assert cli.main(
            [
                "combine",
                "--model", conjugate_fixture["model"],
                "--results", *results,
                "--out", str(evidence_path),
            ]
        ) == 0
        assert evidence_path.read_bytes() == (out / "evidence.json").read_bytes()

    def test_matches_run_pipeline_conditional(self, logistic_fixture, tmp_path):
        # each worker parses only its own rows, yet writes the bytes `run` writes
        out = tmp_path / "auto"
        flags = ["--mode", "conditional", "--samples", "300", "--burn-in", "50",
                 "--seed", "4"]
        assert cli.main(
            ["run", "--data", logistic_fixture["data"], "--model",
             logistic_fixture["model"], "--splits", "3", *flags, "--out", str(out)]
        ) == 0
        hand = tmp_path / "hand"
        hand.mkdir()
        plan_path = hand / "plan.json"
        assert cli.main(
            ["shard", "--data", logistic_fixture["data"], "--splits", "3",
             "--seed", "4", "--out", str(plan_path)]
        ) == 0
        results = []
        for sid in range(3):
            result_path = hand / f"result_{sid}.json"
            assert cli.main(
                ["worker", "--data", logistic_fixture["data"], "--model",
                 logistic_fixture["model"], "--plan", str(plan_path), "--shard-id",
                 str(sid), *flags, "--out", str(result_path)]
            ) == 0
            results.append(str(result_path))
            for name in (f"result_{sid}.json", f"cond_{sid}.ndjson"):
                assert (hand / name).read_bytes() == (out / "m_a" / name).read_bytes()
        evidence_path = hand / "evidence.json"
        assert cli.main(
            ["combine", "--model", logistic_fixture["model"], "--results", *results,
             "--out", str(evidence_path)]
        ) == 0
        assert evidence_path.read_bytes() == (out / "evidence.json").read_bytes()

    def test_worker_and_run_share_their_defaults(self, conjugate_fixture, tmp_path):
        # no chain flags on either side: both take cluster.RunConfig's defaults
        out = tmp_path / "auto"
        assert cli.main(
            ["run", "--data", conjugate_fixture["data"], "--model",
             conjugate_fixture["model"], "--splits", "2", "--out", str(out)]
        ) == 0
        plan_path = tmp_path / "plan.json"
        assert cli.main(
            ["shard", "--data", conjugate_fixture["data"], "--splits", "2",
             "--out", str(plan_path)]
        ) == 0
        for sid in range(2):
            result_path = tmp_path / f"result_{sid}.json"
            assert cli.main(
                ["worker", "--data", conjugate_fixture["data"], "--model",
                 conjugate_fixture["model"], "--plan", str(plan_path), "--shard-id",
                 str(sid), "--out", str(result_path)]
            ) == 0
            assert result_path.read_bytes() == (out / "m1" / f"result_{sid}.json").read_bytes()

    def test_conditional_flow_round_trips_streams(self, logistic_fixture, tmp_path):
        out = tmp_path / "auto"
        flags = ["--samples", "400", "--burn-in", "100"]
        assert cli.main(
            [
                "run",
                "--data", logistic_fixture["data"],
                "--model", logistic_fixture["model"],
                "--splits", "2",
                "--mode", "conditional",
                *flags,
                "--seed", "11",
                "--out", str(out),
            ]
        ) == 0
        assert (out / "m_a" / "cond_0.ndjson").is_file()
        assert (out / "m_a" / "cond_1.ndjson").is_file()

        hand = tmp_path / "hand"
        hand.mkdir()
        plan_path = hand / "plan.json"
        cli.main(
            [
                "shard",
                "--data", logistic_fixture["data"],
                "--splits", "2",
                "--seed", "11",
                "--out", str(plan_path),
            ]
        )
        results = []
        for sid in range(2):
            result_path = hand / f"result_{sid}.json"
            assert cli.main(
                [
                    "worker",
                    "--data", logistic_fixture["data"],
                    "--model", logistic_fixture["model"],
                    "--plan", str(plan_path),
                    "--shard-id", str(sid),
                    "--mode", "conditional",
                    *flags,
                    "--seed", "11",
                    "--out", str(result_path),
                ]
            ) == 0
            assert (hand / f"cond_{sid}.ndjson").is_file()
            results.append(str(result_path))
        evidence_path = hand / "evidence.json"
        assert cli.main(
            [
                "combine",
                "--model", logistic_fixture["model"],
                "--results", *results,
                "--out", str(evidence_path),
            ]
        ) == 0
        hand_value = json.loads(evidence_path.read_text())["models"]["m_a"][
            "log_evidence"
        ]
        auto_value = json.loads((out / "evidence.json").read_text())["models"]["m_a"][
            "log_evidence"
        ]
        # streams round-trip exactly, so the combination is bit-equal
        assert hand_value == auto_value

    def test_conditional_results_move_with_their_streams(
        self, logistic_fixture, tmp_path, monkeypatch
    ):
        first = tmp_path / "A"
        first.mkdir()
        monkeypatch.chdir(first)
        assert cli.main(
            [
                "shard",
                "--data", logistic_fixture["data"],
                "--splits", "2",
                "--seed", "11",
                "--out", "plan.json",
            ]
        ) == 0
        for sid in range(2):
            assert cli.main(
                [
                    "worker",
                    "--data", logistic_fixture["data"],
                    "--model", logistic_fixture["model"],
                    "--plan", "plan.json",
                    "--shard-id", str(sid),
                    "--mode", "conditional",
                    "--samples", "300",
                    "--burn-in", "100",
                    "--seed", "11",
                    "--out", f"result_{sid}.json",
                ]
            ) == 0
            recorded = json.loads((first / f"result_{sid}.json").read_text())
            assert recorded["conditional_stream_path"] == f"cond_{sid}.ndjson"
        combine = [
            "combine",
            "--model", logistic_fixture["model"],
            "--results", "result_0.json", "result_1.json",
        ]
        assert cli.main([*combine, "--out", "evidence.json"]) == 0

        # move the whole exchange directory, then combine again from its new home
        moved = tmp_path / "B"
        monkeypatch.chdir(tmp_path)
        first.rename(moved)
        monkeypatch.chdir(moved)
        assert cli.main([*combine, "--out", "evidence_moved.json"]) == 0
        assert (moved / "evidence_moved.json").read_bytes() == (
            moved / "evidence.json"
        ).read_bytes()
        # results read from another directory find their streams too
        monkeypatch.chdir(tmp_path)
        assert cli.main(
            [
                "combine",
                "--model", logistic_fixture["model"],
                "--results", "B/result_0.json", "B/result_1.json",
                "--out", "evidence_outside.json",
            ]
        ) == 0
        assert (tmp_path / "evidence_outside.json").read_bytes() == (
            moved / "evidence.json"
        ).read_bytes()

    def test_combine_writes_report(self, conjugate_fixture, tmp_path):
        plan_path = tmp_path / "plan.json"
        cli.main(
            [
                "shard",
                "--data", conjugate_fixture["data"],
                "--splits", "1",
                "--seed", "0",
                "--out", str(plan_path),
            ]
        )
        result_path = tmp_path / "result_0.json"
        cli.main(
            [
                "worker",
                "--data", conjugate_fixture["data"],
                "--model", conjugate_fixture["model"],
                "--plan", str(plan_path),
                "--shard-id", "0",
                "--mode", "exact",
                "--seed", "0",
                "--out", str(result_path),
            ]
        )
        report_path = tmp_path / "report.csv"
        assert cli.main(
            [
                "combine",
                "--model", conjugate_fixture["model"],
                "--results", str(result_path),
                "--report", str(report_path),
                "--out", str(tmp_path / "evidence.json"),
            ]
        ) == 0
        with open(report_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "record"
        assert any(r[0] == "log_evidence" for r in rows)


    def test_combine_reports_low_ess(self, conjugate_fixture, tmp_path, capsys):
        plan = str(tmp_path / "plan.json")
        assert cli.main(
            ["shard", "--data", conjugate_fixture["data"], "--splits", "2", "--out", plan]
        ) == 0
        results = []
        for sid in range(2):
            path = tmp_path / f"result_{sid}.json"
            assert cli.main(
                ["worker", "--data", conjugate_fixture["data"], "--model",
                 conjugate_fixture["model"], "--plan", plan, "--shard-id", str(sid),
                 "--mode", "exact", "--out", str(path)]
            ) == 0
            path.write_text(path.read_text().replace('"ess":null', '"ess":5.0'))
            results.append(str(path))
        capsys.readouterr()
        out = tmp_path / "evidence.json"
        assert cli.main(
            ["combine", "--model", conjugate_fixture["model"], "--results", *results,
             "--out", str(out)]
        ) == 0
        models = json.loads(out.read_text())["models"]
        assert [m["warnings"] for m in models.values()] == [["low_ess"]]
        assert "warnings low_ess" in capsys.readouterr().out


class TestRjmcmcCommand:
    def test_writes_summary_and_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((60, 2))
        y = X @ np.array([0.3, 0.2]) + rng.standard_normal(60)
        data_path = tmp_path / "data.csv"
        save_csv(Dataset(X=X, y=y), data_path)
        spec = ModelSpec(
            model_id="lin",
            likelihood=LinearKnownVar(noise_var=1.0),
            prior=NormalPrior(mean=np.zeros(2), cov=np.eye(2)),
            dim=2,
        )
        model_path = tmp_path / "model.json"
        model_path.write_text(model_spec_to_json(spec))
        out = tmp_path / "rj"
        flags = [
            "rjmcmc",
            "--data", str(data_path),
            "--model", str(model_path),
            "--splits", "2",
            "--samples", "4000",
            "--burn-in", "500",
            "--min-visits", "50",
            "--seed", "9",
            "--indicator", "11",
            "--indicator", "10",
            "--out", str(out),
        ]
        assert cli.main(flags) == 0
        summary = json.loads((out / "rj_summary.json").read_text())
        assert summary["n_splits"] == 2
        assert "11|10" in summary["log_bf"]
        assert (out / "rj_result_0.json").is_file()
        assert (out / "rj_result_1.json").is_file()
        first = (out / "rj_summary.json").read_bytes()
        assert cli.main(flags) == 0
        assert (out / "rj_summary.json").read_bytes() == first


class TestDiagnoseCommand:
    def test_writes_report_rows(self, tmp_path):
        out = tmp_path / "report.csv"
        assert cli.main(
            [
                "diagnose",
                "--scenario", "linear_conjugate",
                "--splits", "1,2",
                "--repetitions", "2",
                "--samples", "300",
                "--burn-in", "100",
                "--evidence-samples", "400",
                "--seed", "0",
                "--out", str(out),
            ]
        ) == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "scenario",
            "model_id",
            "n_splits",
            "repetition",
            "log_evidence",
            "method",
            "wall_time_ms",
        ]
        assert len(rows) == 1 + 4
        assert {r[2] for r in rows[1:]} == {"1", "2"}
        assert all(r[5] == "combined_approx" for r in rows[1:])
        values = [float(r[4]) for r in rows[1:]]
        assert all(np.isfinite(values))


class TestErrorReporting:
    def test_missing_data_file(self, conjugate_fixture, tmp_path, capsys):
        code = cli.main(
            [
                "run",
                "--data", str(tmp_path / "nope.csv"),
                "--model", conjugate_fixture["model"],
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code != 0
        error = _read_error(capsys)
        assert error["code"] == "E_INPUT"
        assert "nope.csv" in error["message"]

    @pytest.mark.parametrize(
        "command, settings, word",
        [
            pytest.param(command, ["--mode", mode, "--evidence", evidence], "chib", id=label)
            for command in ("run", "worker", "diagnose")
            for mode, evidence, label in (
                ("approx", "chib", command),
                ("conditional", "importance", f"{command}-conditional-importance"),
            )
        ] + [
            # the stream is a conditional-mode output too
            pytest.param("worker", ["--mode", "approx", "--stream-out", "cond_0.ndjson"],
                         "--stream-out needs conditional mode", id="worker-stream-out"),
        ],
    )
    def test_chib_outside_conditional_mode(
        self, conjugate_fixture, tmp_path, capsys, command, settings, word
    ):
        data = ["--data", conjugate_fixture["data"], "--model", conjugate_fixture["model"]]
        if command == "run":
            argv = ["run", *data]
        elif command == "worker":
            plan_path = str(tmp_path / "plan.json")
            assert cli.main(
                ["shard", "--data", conjugate_fixture["data"], "--splits", "2",
                 "--out", plan_path]
            ) == 0
            argv = ["worker", *data, "--plan", plan_path, "--shard-id", "0"]
        else:
            argv = ["diagnose", "--scenario", "linear_conjugate", "--splits", "1"]
        code = cli.main(argv + settings + ["--out", str(tmp_path / "out")])
        assert code != 0
        error = _read_error(capsys)
        assert error["code"] == "E_INPUT"
        assert word in error["message"]

    def _two_workers(self, fixture, tmp_path, shard_flags):
        """Run shard s of a two-way plan with ``shard_flags[s]``; the result paths."""
        plan_path = str(tmp_path / "plan.json")
        assert cli.main(
            ["shard", "--data", fixture["data"], "--splits", "2", "--out", plan_path]
        ) == 0
        results = []
        for sid, flags in enumerate(shard_flags):
            results.append(str(tmp_path / f"result_{sid}.json"))
            assert cli.main(
                ["worker", "--data", fixture["data"], "--model", fixture["model"],
                 "--plan", plan_path, "--shard-id", str(sid), *flags,
                 "--out", results[-1]]
            ) == 0
        return results

    def test_truncated_stream_rejected(self, logistic_fixture, tmp_path, capsys):
        flags = ["--mode", "conditional", "--samples", "300", "--burn-in", "50"]
        results = self._two_workers(logistic_fixture, tmp_path, [flags, flags])
        # keep the header and the first 100 of 250 records
        stream = tmp_path / "cond_1.ndjson"
        lines = stream.read_text().splitlines(keepends=True)
        stream.write_text("".join(lines[:101]))
        code = cli.main(
            ["combine", "--model", logistic_fixture["model"], "--results", *results,
             "--out", str(tmp_path / "evidence.json")]
        )
        assert code == 1
        error = _read_error(capsys)
        assert error["code"] == "E_INPUT"
        assert "shard 1" in error["message"]
        assert "100" in error["message"] and "250" in error["message"]
        assert not (tmp_path / "evidence.json").exists()

    @pytest.mark.parametrize(
        "second, code, words",
        [
            pytest.param(
                ["--mode", "conditional", "--samples", "150", "--burn-in", "50"],
                "E_DOMAIN", ["100", "250"], id="draw-counts",
            ),
            pytest.param(
                ["--mode", "approx", "--evidence", "importance", "--samples", "300",
                 "--burn-in", "50", "--evidence-samples", "500"],
                "E_COMBINE", ["chib", "importance"], id="mixed-estimators",
            ),
        ],
    )
    def test_incompatible_results_rejected(
        self, logistic_fixture, tmp_path, capsys, second, code, words
    ):
        first = ["--mode", "conditional", "--samples", "300", "--burn-in", "50"]
        results = self._two_workers(logistic_fixture, tmp_path, [first, second])
        assert cli.main(
            ["combine", "--model", logistic_fixture["model"], "--results", *results,
             "--out", str(tmp_path / "evidence.json")]
        ) == 1
        error = _read_error(capsys)
        assert error["code"] == code
        assert all(word in error["message"] for word in words), error["message"]
        assert not (tmp_path / "evidence.json").exists()

    def test_samples_must_exceed_burn_in(self, conjugate_fixture, tmp_path, capsys):
        code = cli.main(
            [
                "run",
                "--data", conjugate_fixture["data"],
                "--model", conjugate_fixture["model"],
                "--samples", "100",
                "--burn-in", "100",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code != 0
        assert _read_error(capsys)["code"] == "E_INPUT"

    def test_worker_shard_out_of_range(self, conjugate_fixture, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        cli.main(
            [
                "shard",
                "--data", conjugate_fixture["data"],
                "--splits", "2",
                "--seed", "0",
                "--out", str(plan_path),
            ]
        )
        code = cli.main(
            [
                "worker",
                "--data", conjugate_fixture["data"],
                "--model", conjugate_fixture["model"],
                "--plan", str(plan_path),
                "--shard-id", "5",
                "--mode", "exact",
                "--seed", "0",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code != 0
        assert _read_error(capsys)["code"] == "E_INPUT"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_worker_fails_on_non_finite_pg_draws(
        self, logistic_fixture, tmp_path, capsys, monkeypatch, bad
    ):
        real = samplers.sample_pg_vec

        def broken(c, rng):
            omega = real(c, rng)
            omega[0] = bad
            return omega

        monkeypatch.setattr(samplers, "sample_pg_vec", broken)
        plan_path = tmp_path / "plan.json"
        assert cli.main(
            ["shard", "--data", logistic_fixture["data"], "--splits", "2",
             "--seed", "0", "--out", str(plan_path)]
        ) == 0
        assert cli.main(
            ["worker", "--data", logistic_fixture["data"], "--model", logistic_fixture["model"],
             "--plan", str(plan_path), "--shard-id", "1", "--mode", "conditional",
             "--samples", "100", "--burn-in", "10", "--out", str(tmp_path / "r.json")]
        ) == 1
        error = _read_error(capsys)
        assert error["code"] == "E_WORKER"
        assert "conditional precision on shard 1 is not finite" in error["message"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "edit, code, message",
        [
            pytest.param(lambda lines: lines + [lines[-1]], "E_DOMAIN",
                         "plan covers 300 rows, dataset has 301", id="extra-row"),
            pytest.param(lambda lines: lines[:-1], "E_DOMAIN",
                         "plan covers 300 rows, dataset has 299", id="missing-row"),
            pytest.param(lambda lines: ["y,x1,x3\n"] + lines[1:], "E_INPUT",
                         "feature columns must be x1..x2", id="bad-header"),
        ],
    )
    def test_worker_checks_the_whole_file(
        self, logistic_fixture, tmp_path, capsys, edit, code, message
    ):
        plan_path = tmp_path / "plan.json"
        assert cli.main(
            ["shard", "--data", logistic_fixture["data"], "--splits", "2",
             "--seed", "0", "--out", str(plan_path)]
        ) == 0
        with open(logistic_fixture["data"]) as handle:
            lines = handle.readlines()
        data_path = tmp_path / "data.csv"
        data_path.write_text("".join(edit(lines)))
        assert cli.main(
            ["worker", "--data", str(data_path), "--model", logistic_fixture["model"],
             "--plan", str(plan_path), "--shard-id", "1", "--mode", "conditional",
             "--samples", "100", "--burn-in", "10", "--out", str(tmp_path / "r.json")]
        ) == 1
        error = _read_error(capsys)
        assert error["code"] == code
        assert message in error["message"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["run", "worker", "rjmcmc"])
    @pytest.mark.parametrize(
        "case, message",
        [
            pytest.param("outcome", "logistic outcome must be coded 0/1", id="outcome"),
            pytest.param("features", "expects 3 features, data has 2", id="features"),
        ],
    )
    def test_model_must_fit_its_data(
        self, logistic_fixture, tmp_path, capsys, command, case, message
    ):
        if case == "outcome":
            # a logistic model over a continuous outcome
            rng = np.random.default_rng(5)
            X = rng.standard_normal((300, 2))
            data_path = str(tmp_path / "linear.csv")
            save_csv(Dataset(X=X, y=X @ np.array([0.5, -0.2]) + 1.5), data_path)
            model_path = logistic_fixture["model"]
        else:
            data_path = logistic_fixture["data"]
            with open(logistic_fixture["model"]) as handle:
                spec = model_spec_from_json(handle.read())
            wide = replace(
                spec, dim=3, prior=NormalPrior(mean=np.zeros(3), cov=np.eye(3))
            )
            model_path = str(tmp_path / "model_wide.json")
            with open(model_path, "w") as handle:
                handle.write(model_spec_to_json(wide))
        out = str(tmp_path / "out")
        chain = ["--samples", "100", "--burn-in", "10"]
        if command == "worker":
            plan_path = str(tmp_path / "plan.json")
            assert cli.main(
                ["shard", "--data", data_path, "--splits", "2", "--seed", "0",
                 "--out", plan_path]
            ) == 0
            flags = ["worker", "--plan", plan_path, "--shard-id", "0", *chain]
        else:
            flags = [command, "--splits", "2", *chain]
        if command == "rjmcmc":
            flags += ["--min-visits", "1"]
        code = cli.main(
            flags + ["--data", data_path, "--model", model_path, "--out", out]
        )
        assert code == 1
        error = _read_error(capsys)
        assert error["code"] == "E_INPUT"
        assert message in error["message"]

    def test_bad_splits_list_in_diagnose(self, tmp_path, capsys):
        code = cli.main(
            [
                "diagnose",
                "--scenario", "linear_conjugate",
                "--splits", "1,x",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code != 0
        assert _read_error(capsys)["code"] == "E_INPUT"

    def test_unknown_config_key(self, conjugate_fixture, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": conjugate_fixture["data"], "bogus": 1}))
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code != 0
        error = _read_error(capsys)
        assert error["code"] == "E_INPUT"
        assert "bogus" in error["message"]


    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"splits": "2"}, "bad config value"),
            ({"samples": "x"}, "bad config value"),
            ({"samples": None}, "bad config value"),
            ({"strategy": "bogus"}, "unknown strategy 'bogus'"),
            ({"seed": -1}, "seed must be non-negative"),
            (
                {"mode": "approx", "evidence": "importance", "evidence_samples": 50},
                "needs evidence_samples >= 100, got 50",
            ),
            (
                {"mode": "approx", "samples": 3, "burn_in": 1},
                "samples - burn_in = 2: moments need at least dim+2 = 7 draws",
            ),
        ],
        ids=["splits", "samples", "samples-null", "strategy", "seed", "evidence-samples",
             "chain-too-short"],
    )
    def test_bad_config_value(self, conjugate_fixture, tmp_path, capsys, setting, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "data": conjugate_fixture["data"],
                    "models": [conjugate_fixture["model"]],
                    "mode": "exact",
                    **setting,
                }
            )
        )
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        error = _read_error(capsys)
        assert error["code"] == "E_INPUT"
        assert message in error["message"]


    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--samples", "300", "--burn-in", "300"], "need samples > burn_in >= 0"),
            (["--samples", "300", "--burn-in", "100", "--min-visits", "-1"],
             "min_visits must be non-negative, got -1"),
        ],
        ids=["burn-in", "min-visits"],
    )
    def test_bad_rjmcmc_chain_setting(self, logistic_fixture, tmp_path, capsys, flags, message):
        out = tmp_path / "rj"
        code = cli.main(
            ["rjmcmc", "--data", logistic_fixture["data"], "--model",
             logistic_fixture["model"], "--splits", "2", *flags, "--out", str(out)]
        )
        assert code == 1
        error = _read_error(capsys)
        assert error["code"] == "E_INPUT"
        assert message in error["message"]
        assert not out.exists()  # checked before any shard is sampled

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("run", ["--model", "MODEL", "--mode", "approx", "--samples", "3",
                     "--burn-in", "1"]),
            ("run", ["--model", "MODEL", "--mode", "conditional", "--model", "LINEAR"]),
            ("rjmcmc", ["--model", "MODEL", "--splits", "0"]),
        ],
        ids=["run-chain-too-short", "run-second-model", "rjmcmc-splits"],
    )
    def test_rejected_command_writes_nothing(
        self, logistic_fixture, tmp_path, capsys, command, flags
    ):
        linear = ModelSpec(
            model_id="lin",
            likelihood=LinearKnownVar(noise_var=1.0),
            prior=NormalPrior(mean=np.zeros(2), cov=np.eye(2)),
            dim=2,
        )
        (tmp_path / "linear.json").write_text(model_spec_to_json(linear))
        paths = {"MODEL": logistic_fixture["model"], "LINEAR": str(tmp_path / "linear.json")}
        out = tmp_path / "out"
        code = cli.main(
            [command, "--data", logistic_fixture["data"],
             *(paths.get(flag, flag) for flag in flags), "--out", str(out)]
        )
        assert code == 1
        assert _read_error(capsys)["code"] == "E_INPUT"
        assert not out.exists()  # every task is checked before anything is written

    @pytest.mark.parametrize("name, edit", MALFORMED_DOCUMENTS)
    def test_malformed_document_rejected(self, exchange, tmp_path, capsys, name, edit):
        work = tmp_path / "exchange"
        shutil.copytree(exchange, work)
        path = work / name
        text = path.read_text()
        path.write_text(edit(text))
        assert path.read_text() != text
        code = cli.main(
            ["combine", "--model", str(work / "model.json"), "--results",
             str(work / "result_0.json"), str(work / "result_1.json"),
             "--out", str(work / "evidence.json")]
        )
        assert code == 1
        assert _read_error(capsys)["code"] == "E_INPUT"
        assert not (work / "evidence.json").exists()

    @pytest.mark.parametrize("command", ["shard", "rjmcmc", "synth", "diagnose"])
    def test_negative_seed(self, logistic_fixture, tmp_path, capsys, command):
        inputs = {
            "shard": ["--data", logistic_fixture["data"], "--splits", "2"],
            "rjmcmc": ["--data", logistic_fixture["data"], "--model",
                       logistic_fixture["model"], "--splits", "2"],
            "synth": ["--scenario", "linear_conjugate"],
            "diagnose": ["--scenario", "linear_conjugate", "--splits", "2"],
        }[command]
        code = cli.main([command, *inputs, "--seed", "-1", "--out", str(tmp_path / "out")])
        assert code == 1
        error = _read_error(capsys)
        assert error["code"] == "E_INPUT"
        assert "seed must be non-negative, got -1" in error["message"]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "fixtures"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "splitevidence.cli",
                "synth",
                "--scenario", "linear_conjugate",
                "--seed", "0",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "data.csv").is_file()

    def test_module_invocation_error_path(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "splitevidence.cli",
                "shard",
                "--data", str(tmp_path / "missing.csv"),
                "--splits", "2",
                "--out", str(tmp_path / "plan.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stderr.strip())["error"]["code"] == "E_INPUT"

    def test_runs_without_scipy(self, tmp_path):
        """The package imports and every subcommand runs with scipy unimportable."""
        script = r"""
import sys
sys.modules["scipy"] = None  # from here on, any scipy import fails
import splitevidence, splitevidence.cli
loaded = sorted(n for n, m in sys.modules.items() if n.startswith("scipy") and m is not None)
assert not loaded, loaded
from splitevidence.cli import main

def run(*argv):
    assert main(list(argv)) == 0, argv

chain = ["--samples", "300", "--burn-in", "100"]
for scenario in ("logistic_basic", "rj_mixture"):
    run("synth", "--scenario", scenario, "--seed", "0", "--out", scenario)
model = "logistic_basic/model_m1.json"
data = "logistic_basic/data.csv"
for mode in ("approx", "conditional"):
    run("run", "--data", data, "--model", model, "--mode", mode, "--splits", "2",
        *chain, "--evidence-samples", "200", "--out", "run_" + mode)
run("shard", "--data", data, "--splits", "2", "--out", "plan.json")
for s in ("0", "1"):
    run("worker", "--data", data, "--model", model, "--plan", "plan.json", "--shard-id", s,
        "--mode", "conditional", *chain, "--stream-out", "cond_" + s + ".ndjson",
        "--out", "result_" + s + ".json")
run("combine", "--model", model, "--results", "result_0.json", "result_1.json",
    "--out", "evidence.json")
run("rjmcmc", "--data", "rj_mixture/data.csv", "--model", "rj_mixture/model_full.json",
    "--splits", "2", "--samples", "1000", "--burn-in", "200", "--min-visits", "10",
    "--indicator", "11111", "--indicator", "11101", "--out", "rj")
run("diagnose", "--scenario", "logistic_basic", "--splits", "2", *chain,
    "--evidence-samples", "200", "--out", "diagnose.csv")
print(sorted(n for n, m in sys.modules.items() if n.startswith("scipy") and m is not None))
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"
        assert json.loads((tmp_path / "evidence.json").read_text())
