import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cyclicpd as cp
from cyclicpd.cli import main, _parse_range
from cyclicpd.search import MAX_RIDGE, MIN_RIDGE


def strip_timestamps(doc):
    return {k: v for k, v in doc.items() if k not in ("started", "elapsed_ms")}


def save_family(fam, path):
    path.write_text(json.dumps(cp.family_to_dict(fam)))


def test_parse_range():
    assert _parse_range("3..6") == [3, 4, 5, 6]
    assert _parse_range("5") == [5]
    assert _parse_range("3,5,7") == [3, 5, 7]
    for repeated in ("3,3", "3..5,4", "1..2,1..2"):
        with pytest.raises(ValueError, match="repeated"):
            _parse_range(repeated)


def test_reproduce_all(capsys):
    assert main(["reproduce", "--case", "all"]) == 0
    captured = capsys.readouterr()
    assert "2.6393" in captured.err
    doc = json.loads(captured.out)
    assert doc["command"] == "reproduce"
    assert [r["check"] for r in doc["results"]] == ["counterexample_p4_eigs", "s4_decomposition"]


def test_reproduce_single_cases():
    assert main(["reproduce", "--case", "shapiro4-eig"]) == 0
    assert main(["reproduce", "--case", "shapiro4-trace"]) == 0


def test_sample_eval_roundtrip(tmp_path, capsys):
    out = tmp_path / "fam.json"
    assert main(["sample", "--n", "2", "--p", "3", "--count", "1", "--seed", "9",
                 "--out", str(out)]) == 0
    doc1 = json.loads(out.read_text())
    assert main(["sample", "--n", "2", "--p", "3", "--count", "1", "--seed", "9",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == doc1  # bit-stable resample

    fam = cp.family_from_dict(doc1)
    capsys.readouterr()
    assert main(["eval", "--family", str(out), "--expr", "margin"]) == 0
    val = json.loads(capsys.readouterr().out)
    assert val == pytest.approx(cp.cyclic_sum_trace(fam) - fam.p * fam.dim / 2.0, abs=0)


def test_eval_identity_family(tmp_path, capsys):
    fam = cp.CyclicFamily(cp.validate_family([np.eye(2)] * 4))
    path = tmp_path / "id.json"
    save_family(fam, path)
    assert main(["eval", "--family", str(path), "--expr", "Fp"]) == 0
    assert json.loads(capsys.readouterr().out) == pytest.approx(4.0, abs=1e-12)
    assert main(["eval", "--family", str(path), "--expr", "nesbitt_eigs"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["min_real"] == pytest.approx(4.0, abs=1e-10)
    assert main(["eval", "--family", str(path), "--expr", "bidirectional"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"]


def test_eval_fixture_values(tmp_path, capsys):
    path = tmp_path / "fix.json"
    save_family(cp.counterexample_family(), path)
    assert main(["eval", "--family", str(path), "--expr", "Fp"]) == 0
    assert json.loads(capsys.readouterr().out) == pytest.approx(5.2786, abs=1e-3)
    assert main(["eval", "--family", str(path), "--expr", "margin"]) == 0
    assert json.loads(capsys.readouterr().out) == pytest.approx(1.2786, abs=1e-3)


def test_eval_bad_file(tmp_path):
    assert main(["eval", "--family", str(tmp_path / "missing.json"), "--expr", "Fp"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 3, "members": []}')
    assert main(["eval", "--family", str(bad), "--expr", "Fp"]) == 2


MEMBER = {"n": 1, "field": "real", "entries": [[1.0]]}
MALFORMED_FAMILIES = {
    "number": 5,
    "list_of_number": [1],
    "members_number": {"p": 3, "members": 5},
    "complex_entry_not_a_pair": {"p": 3, "members": [{"n": 1, "field": "complex", "entries": [[1.0]]}] * 3},
    "quaternion_field": {"p": 3, "members": [{**MEMBER, "field": "quaternion"}] * 3},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FAMILIES))
def test_malformed_family_rejected(tmp_path, capsys, name):
    doc = MALFORMED_FAMILIES[name]
    for d in doc if isinstance(doc, list) else [doc]:
        with pytest.raises(ValueError):
            cp.family_from_dict(d)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "--family", str(path), "--expr", "Fp"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot load family:") and captured.out == ""


I2 = [[1.0, 0.0], [0.0, 1.0]]
INDEFINITE = [[1.0, 2.0], [2.0, 1.0]]
NAN = [[float("nan"), 0.0], [0.0, 1.0]]


def family_doc(*members, p=None):
    docs = [{"n": len(m), "field": "real", "entries": m} for m in members]
    return {"p": len(docs) if p is None else p, "members": docs}


# One fault in one member of a p = 3 family of 2x2 identities, and eval's error line for it.
FAULTY_FAMILIES = {
    "non_square": (family_doc(I2, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], I2),
                   "entries shape (2, 3) does not match n=2"),
    "nan": (family_doc(I2, NAN, I2), "matrix has an infinite or NaN entry"),
    "huge": (family_doc(I2, [[1e101, 0.0], [0.0, 1.0]], I2),
             "matrix has an entry above 1e+100 in magnitude"),
    "asymmetric": (family_doc(I2, [[1.0, 5.0], [0.0, 1.0]], I2), "asymmetry 7.07107 exceeds tolerance"),
    "indefinite": (family_doc(I2, INDEFINITE, I2),
                   "matrix is not positive definite (min eigenvalue -1)"),
    "mixed_dims": (family_doc(I2, [[1.0]], I2), "members have mixed dimensions [1, 2]"),
    "wrong_p": (family_doc(I2, I2, I2, p=4), "declared p does not match member count"),
    "empty": ({"p": 0, "members": []}, "a cyclic family needs at least one member"),
    "empty_list": ([], "the file holds an empty list, not a family"),
    # faults in several members: the form (member shapes, p, one dimension)
    # is checked before the numbers, and each numeric check runs over the
    # whole stack, in the gate's order, and names the first failing member
    "asymmetric_twice": (family_doc(I2, [[1.0, 5.0], [0.0, 1.0]], [[1.0, 9.0], [0.0, 1.0]]),
                         "asymmetry 7.07107 exceeds tolerance"),
    "indefinite_twice": (family_doc(I2, INDEFINITE, [[1.0, 4.0], [4.0, 1.0]]),
                         "matrix is not positive definite (min eigenvalue -1)"),
    "asymmetric_then_indefinite": (family_doc([[1.0, 5.0], [0.0, 1.0]], I2, INDEFINITE),
                                   "asymmetry 7.07107 exceeds tolerance"),
    "mixed_dims_and_wrong_p": (family_doc(I2, [[1.0]], I2, p=4), "declared p does not match member count"),
    "indefinite_then_nan": (family_doc(INDEFINITE, NAN, I2), "matrix has an infinite or NaN entry"),
    "indefinite_then_huge": (family_doc(INDEFINITE, [[1e101, 0.0], [0.0, 1.0]], I2),
                             "matrix has an entry above 1e+100 in magnitude"),
    "nan_and_wrong_p": (family_doc(I2, NAN, I2, p=4), "declared p does not match member count"),
    "mixed_dims_and_indefinite": (family_doc(INDEFINITE, [[1.0]], I2), "members have mixed dimensions [1, 2]"),
}


@pytest.mark.parametrize("name", list(FAULTY_FAMILIES))
def test_eval_error_line_names_the_fault(tmp_path, capsys, name):
    doc, message = FAULTY_FAMILIES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))  # NaN is written as the JSON extension NaN
    assert main(["eval", "--family", str(path), "--expr", "Fp"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot load family: {message}\n" and captured.out == ""


def test_eval_non_finite_family(tmp_path):
    path = tmp_path / "inf.json"
    member = {"n": 1, "field": "real", "entries": [[float("inf")]]}
    path.write_text(json.dumps({"p": 3, "members": [member] * 3}))  # writes Infinity
    assert main(["eval", "--family", str(path), "--expr", "Fp"]) == 2


def huge_families():
    """A p = 4 family of diagonal 2x2 members with entries 1e200..4e200, and its
    copy with an upper off-diagonal 5e199: both far past ``pdcore.MAX_ENTRY``."""
    diagonals = [(1e200, 2e200), (2e200, 3e200), (3e200, 4e200), (4e200, 1e200)]

    def family(upper):
        members = [[[x, upper], [0.0, y]] for x, y in diagonals]
        return {"p": 4, "members": [{"n": 2, "field": "real", "entries": m} for m in members]}

    return {"diagonal": family(0.0), "asymmetric": family(5e199)}


@pytest.mark.parametrize("name", ["diagonal", "asymmetric"])
def test_huge_entry_family_rejected(tmp_path, capsys, name):
    doc = huge_families()[name]
    with pytest.raises(cp.EntryTooLarge):
        cp.family_from_dict(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "--family", str(path), "--expr", "margin"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "1e+100" in captured.err
    assert captured.out == ""


def test_eval_spectrum_beyond_the_entry_bound(tmp_path, capsys):
    """The entry bound holds loaded members, not computed matrices: here
    A_1 (A_2 + A_3)^{-1} = 5e110 I."""
    path = tmp_path / "wide.json"
    save_family(cp.CyclicFamily(cp.validate_family([np.eye(2) * s for s in (1e100, 1e-11, 1e-11)])), path)
    assert main(["eval", "--family", str(path), "--expr", "nesbitt_eigs"]) == 0
    assert json.loads(capsys.readouterr().out)["min_real"] > 1e110


def test_eval_output_is_strict_json(tmp_path, capsys, monkeypatch):
    """eval prints through the strict JSON writer: a non-finite value is an
    error line and exit 2, never a bare NaN on stdout."""
    path = tmp_path / "id.json"
    save_family(cp.CyclicFamily(cp.validate_family([np.eye(2)] * 3)), path)
    monkeypatch.setattr(cp.inequalities, "cyclic_sum_trace", lambda fam: float("nan"))
    assert main(["eval", "--family", str(path), "--expr", "Fp"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("expr", ["Fp", "margin", "bidirectional"])
def test_eval_p2_family_rejected(tmp_path, capsys, expr):
    path = tmp_path / "p2.json"
    save_family(cp.CyclicFamily(cp.validate_family([np.eye(2)] * 2)), path)
    assert main(["eval", "--family", str(path), "--expr", expr]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("p", [1, 2])
def test_eval_nesbitt_eigs_rejects_short_family(tmp_path, capsys, p):
    path = tmp_path / "short.json"
    save_family(cp.CyclicFamily(cp.validate_family([np.eye(2)] * p)), path)
    assert main(["eval", "--family", str(path), "--expr", "nesbitt_eigs"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_python_dash_m_entry_point():
    src = str(Path(cp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "cyclicpd", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == cp.__version__


def test_sample_bad_params():
    assert main(["sample", "--n", "0", "--p", "3"]) == 2
    # no cyclic sum has fewer than three members, so eval would reject the family
    assert main(["sample", "--n", "2", "--p", "2"]) == 2
    assert main(["sample", "--n", "2", "--p", "1"]) == 2


def test_verify_small_run(tmp_path):
    out = tmp_path / "v.json"
    rc = main(["verify", "--suite", "all", "--dims", "1..2", "--p", "3..4",
               "--trials", "3", "--seed", "7", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "verify"
    assert doc["results"]["unconditional"]["unconditional_failures"] == 0
    assert doc["results"]["identities"]["unconditional_failures"] == 0


def test_verify_conditional_counterexamples_do_not_fail_run(tmp_path):
    out = tmp_path / "c.json"
    rc = main(["verify", "--suite", "conditional", "--dims", "1", "--p", "14",
               "--trials", "50", "--seed", "3", "--field", "real", "--out", str(out)])
    assert rc == 0  # events, if any, are reported rather than failing the run


def test_verify_bad_range():
    assert main(["verify", "--dims", "oops", "--trials", "1"]) == 2


def test_verify_zero_trials(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--trials", "0", "--out", str(out)]) == 2
    assert not out.exists()


def test_manifest_replay_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "unconditional", "--dims", "1..2", "--p", "3",
            "--trials", "2", "--seed", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    da = strip_timestamps(json.loads(a.read_text()))
    db = strip_timestamps(json.loads(b.read_text()))
    assert da == db


def test_search_cli_and_replay(tmp_path, capsys):
    out = tmp_path / "s.json"
    rc = main(["search", "--p", "4", "--n", "2", "--restarts", "3",
               "--max-iters", "100", "--seed", "5", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    res = doc["results"]
    fam = cp.family_from_dict(res["best_family"])
    assert cp.cyclic_sum_trace(fam) - fam.p * fam.dim / 2.0 == pytest.approx(res["best_margin"], abs=1e-9)
    assert res["best_margin"] >= -1e-9  # p=4 is a theorem

    out2 = tmp_path / "s2.json"
    rc = main(["search", "--p", "4", "--n", "2", "--restarts", "3",
               "--max-iters", "100", "--seed", "5", "--out", str(out2)])
    assert rc == 0
    assert strip_timestamps(json.loads(out.read_text())) == strip_timestamps(
        json.loads(out2.read_text()))


def test_search_at_min_ridge_replays(tmp_path, capsys):
    """At the smallest accepted ridge a member sits on the ridge floor, and the
    reported family still loads and evaluates to the reported margin."""
    out = tmp_path / "s.json"
    assert main(["search", "--p", "23", "--n", "3", "--restarts", "2", "--max-iters", "1000",
                 "--seed", "11", "--ridge", repr(MIN_RIDGE), "--out", str(out)]) == 0
    res = json.loads(out.read_text())["results"]
    floor = min(np.linalg.eigvalsh(np.array(m["entries"]))[0] for m in res["best_family"]["members"])
    assert floor < 2 * MIN_RIDGE
    fam = tmp_path / "best.json"
    fam.write_text(json.dumps(res["best_family"]))
    capsys.readouterr()
    assert main(["eval", "--family", str(fam), "--expr", "margin"]) == 0
    assert json.loads(capsys.readouterr().out) == pytest.approx(res["best_margin"], abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 3])
def test_search_at_max_ridge_replays(tmp_path, capsys, n):
    """At the largest accepted ridge each denominator's determinant is about
    (2e100)^n, near overflow at n = 3; the search still ends cleanly, and its
    family evaluates to the reported margin."""
    out = tmp_path / "s.json"
    assert main(["search", "--p", "5", "--n", str(n), "--restarts", "2", "--max-iters", "50",
                 "--seed", "3", "--ridge", repr(MAX_RIDGE), "--out", str(out)]) == 0
    res = json.loads(out.read_text())["results"]
    fam = tmp_path / "best.json"
    fam.write_text(json.dumps(res["best_family"]))
    capsys.readouterr()
    assert main(["eval", "--family", str(fam), "--expr", "margin"]) == 0
    assert json.loads(capsys.readouterr().out) == pytest.approx(res["best_margin"], abs=1e-9)


def test_search_bad_config():
    assert main(["search", "--p", "2"]) == 2


def test_search_tolerance_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--p", "5", "--tol-rel", "1e-9"])
    assert exc.value.code == 2
    assert "--tol-rel" in capsys.readouterr().err


def test_search_stdout_is_one_json_document(capsys):
    """Without --out the JSON goes to stdout alone; the summary line goes to stderr."""
    assert main(["search", "--p", "14", "--n", "1", "--restarts", "2", "--max-iters", "20",
                 "--seed", "3"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["command"] == "search" and "best_margin" in doc["results"]
    assert captured.err.startswith("p=14 n=1: best margin")


@pytest.mark.parametrize("argv", [
    ["verify", "--dims", "0"],
    ["verify", "--p", "2"],
    ["verify", "--p", "1"],
    ["verify", "--dims", "2", "--p", "3,3", "--trials", "5"],
    ["verify", "--dims", "1..2,2", "--p", "3", "--trials", "5"],
    ["verify", "--tol-rel", "nan"],
    ["verify", "--tol-rel", "inf"],
    ["verify", "--tol-rel", "0"],
    ["verify", "--tol-rel=-1e-9"],
    ["verify", "--tol-rel", "1"],
    ["verify", "--tol-rel", "1e308"],
    ["search", "--p", "5", "--ridge", "nan"],
    ["search", "--p", "5", "--ridge", "inf"],
    ["search", "--p", "5", "--ridge", "1e200"],
    ["search", "--p", "23", "--n", "3", "--restarts", "2", "--max-iters", "1000",
     "--seed", "11", "--ridge", "1e-14"],
    ["search", "--p", "5", "--step-init", "nan"],
    ["search", "--p", "14", "--n", "1", "--restarts", "8", "--max-iters", "50",
     "--seed", "11", "--step-init", "1e16"],
    ["verify", "--seed", "-1"],
    ["search", "--p", "5", "--seed", "-1"],
    ["sample", "--n", "2", "--p", "3", "--seed", "-1"],
    ["verify", "--suite", "identities", "--dims", "1", "--p", "3", "--trials", "1",
     "--out", "nodir/x.json"],
    ["sample", "--n", "2", "--p", "3", "--out", "nodir/x.json"],
    ["sample", "--n", "2", "--p", "3", "--out", "."],
], ids="_".join)
def test_invalid_input_rejected_before_work(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    if "--out" not in argv:
        argv = argv + ["--out", "out.json"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_search_sweep_manifest_lists_dims(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["search", "--p", "12", "--restarts", "2", "--max-iters", "20",
                 "--seed", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["n"] == [1, 2, 3]
    assert sorted(doc["results"]) == ["1", "2", "3"]

    assert main(["search", "--p", "12", "--n", "2", "--restarts", "2", "--max-iters", "20",
                 "--seed", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["n"] == 2
    assert doc["results"]["best_family"]["members"][0]["n"] == 2
