"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``.

They run each workload at a smoke size (one pass), so they take about half a
minute.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


@pytest.fixture(scope="module")
def program():
    return bench.load_program()


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def last_result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_names_match_the_benchmark():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert bench.main(argv) == 0
    result = last_result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _tampering(original):
    def main(argv):
        code = original(argv)
        out = Path(argv[argv.index("--out") + 1])
        doc = json.loads(out.read_text())
        doc["results"]["best_margin"] += 1e-6
        out.write_text(json.dumps(doc))
        return code
    return main


def test_tampered_margin_is_caught(program, tmp_path, monkeypatch):
    monkeypatch.setattr(program.cli, "main", _tampering(program.cli.main))
    results = bench.run_pass(program, workloads.search_scalar(4), tmp_path)
    assert results and all(any("best_margin" in p for p in r.problems) for r in results)


def test_tampered_output_counts_as_failed(program, monkeypatch, capsys):
    monkeypatch.setattr(program.cli, "main", _tampering(program.cli.main))
    assert bench.main(["--workload", "search-matrix", "--seed", "2", "--seconds", "0.01"]) == 0
    result = last_result(capsys)
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_verify_check_catches_missing_records_and_theorem_events():
    dims, ps, trials = range(1, 3), range(3, 6), 2
    records = {
        suite: [{"check": c, "n": n, "p": p, "field": f, "trials": t}
                for (c, n, p, f), t in expected.items()]
        for suite, expected in workloads.expected_verify_records(dims, ps, trials).items()
    }
    doc = {"results": {s: {"records": r, "events": [], "unconditional_failures": 0} for s, r in records.items()}}
    work, problems = workloads.check_verify(doc, dims, ps, trials)
    assert problems == [] and work == sum(r["trials"] for rs in records.values() for r in rs)

    doc["results"]["unconditional"]["records"].pop()
    doc["results"]["conditional"]["events"].append({"n": 2, "p": 4})
    doc["results"]["identities"]["unconditional_failures"] = 1
    _, problems = workloads.check_verify(doc, dims, ps, trials)
    assert len(problems) == 3


def test_traced_output_equals_untraced(program, tmp_path):
    originals = {name: getattr(program.search, name) for name in ("minimize_margin", "cyclic_sum_trace")}
    cmd = workloads.search_scalar(7).commands[0]
    plain = bench.run_command(program, cmd, tmp_path / "plain.json")
    traced = bench.run_command(program, cmd, tmp_path / "traced.json", Tracer())
    assert plain.problems == [] and traced.problems == []
    assert bench.stripped(plain.doc) == bench.stripped(traced.doc)
    assert {name: getattr(program.search, name) for name in originals} == originals

    spans = traced.spans
    names = {s[0] for s in spans}
    assert {"cli.main", "search.minimize_margin", "search.margin_gradient",
            "inequalities.cyclic_sum_trace", "pdcore.inverse_pd"} <= names
    grads = [s for s in spans if s[0] == "search.margin_gradient"]
    # restarts run on pool threads, yet their spans hang under the search that submitted them
    assert all(s[4][0] == "search.minimize_margin" for s in grads)
    assert len({s[1] for s in grads}) == 2
    assert all(self_s >= 0 for _, self_s in self_times(spans).values())


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = ["p", 1, 0.0, 10.0, None]
    spans = [parent, ["c", 2, 1.0, 4.0, parent], ["c", 3, 2.0, 6.0, parent], ["c", 2, 8.0, 9.0, parent]]
    table = self_times(spans)
    assert table["p"] == [1, pytest.approx(4.0)]
    assert table["c"] == [3, pytest.approx(8.0)]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", ".run-*", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "verify-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
