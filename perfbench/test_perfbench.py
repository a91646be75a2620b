"""Tests of the benchmark itself, on its small ``smoke`` workload.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import pytest

import layers
import run

CLI = run.load_qborel()
REFERENCE = run.load_reference()


def _main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run.main(list(argv))
    return rc, [json.loads(line) for line in out.getvalue().splitlines()]


def _docs(tracer=None):
    """Verdict and case list of each smoke invocation at pass seed 0."""
    docs = []
    for argv in run.WORKLOADS["smoke"]:
        full = argv + ["--seed", "0", "--format", "json"]
        if tracer is None:
            rc, out, _err, _w, _c = run.invoke(CLI, full)
        else:
            with tracer:
                rc, out, _err, _w, _c = run.invoke(CLI, full)
        doc = json.loads(out)
        docs.append((rc, doc["passed"], run.case_names(doc)))
    return docs


def test_smoke_workload_prints_every_end_to_end_metric():
    rc, lines = _main("--workload", "smoke", "--seed", "0", "--seconds", "0.5",
                      "--trace", "0")
    assert rc == 0
    record, result = lines[-2]["record"], lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == record["passes"] * len(run.WORKLOADS["smoke"])
    assert record["pass_seeds"][:run.MIN_PASSES] == [0, 30, 60]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    rc, lines = _main("--workload", "smoke", "--seed", "3", "--seconds", "0",
                      "--trace", "1")
    assert rc == 0
    result = lines[-1]
    assert result["correct"]
    metrics = result["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == \
        [(name, unit) for name, unit, _better in layers.PER_LAYER]
    assert metrics["verify.cases"]["value"] == sum(map(len, REFERENCE["smoke"]))
    assert metrics["shuffle.eval_free.calls"]["value"] > 0
    assert metrics["cli.run_command.self_s"]["value"] < metrics["cli.run_command.s"]["value"]


def test_traced_pass_matches_untraced_and_restores_originals():
    import qborel.coeffring
    import qborel.verify

    before = (qborel.coeffring.LaurentPoly.__mul__, qborel.verify.eval_free,
              CLI.run_command)
    tracer = layers.Tracer()
    assert _docs(tracer) == _docs()
    assert (qborel.coeffring.LaurentPoly.__mul__, qborel.verify.eval_free,
            CLI.run_command) == before
    edges = {layer for layer, _parent in tracer.edges}
    assert {"shuffle.eval_free", "coeffring.laurent_mul", "verify.pbw"} <= edges


def test_gate_fires_on_a_tampered_case_list():
    argv = run.WORKLOADS["smoke"][0] + ["--seed", "7", "--format", "json"]
    rc, out, err, _w, _c = run.invoke(CLI, argv)
    expected = REFERENCE["smoke"][0]
    assert run.check_output(expected, 7, rc, out, err) is None
    assert run.check_output(expected, 8, rc, out, err) is not None
    assert run.check_output(expected[1:], 7, rc, out, err) is not None
    doc = json.loads(out)
    doc["reports"][0]["cases"].pop()
    assert run.check_output(expected, 7, rc, json.dumps(doc), err) is not None
    doc = json.loads(out)
    doc["passed"] = False
    assert run.check_output(expected, 7, rc, json.dumps(doc), err) is not None
    assert run.check_output(expected, 7, 1, out, err) is not None


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    assert all(len(REFERENCE[w]) == len(run.WORKLOADS[w]) for w in run.WORKLOADS)


def test_refuses_a_directory_without_sources():
    with pytest.raises(run.BenchmarkError):
        run.load_qborel(run.HERE / "no-such-checkout")
