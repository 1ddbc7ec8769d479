"""Golden-output gate: CLI JSON compared with files committed under tests/golden/.

``tests/golden/manifest.json`` names each golden file, the argv that made it,
the tolerance its floats are held to, and the numpy / BLAS / Python versions
it was made with. Everything but ``started``/``elapsed_ms`` is compared:
strings, booleans and integers (verdicts, classifications, failure, trial and
iteration counts) exactly, floats (margins, histories, matrix entries) to
|new - golden| <= rtol * (1 + |golden|).

Regenerating the files (``python tests/test_golden.py``) changes the reference
itself; say why in CHANGES.md.
"""
import json
import sys
from pathlib import Path

import pytest

from cyclicpd.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def run_cli(argv, out: Path) -> dict:
    assert main(list(argv) + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc.pop("started", None)
    doc.pop("elapsed_ms", None)
    return doc


def mismatches(new, old, rtol: float, path: str = "$"):
    """Paths where ``new`` differs from ``old``; floats within rtol agree."""
    if type(new) is not type(old):
        return [f"{path}: {type(old).__name__} {old!r} became {type(new).__name__} {new!r}"]
    if isinstance(old, dict):
        if new.keys() != old.keys():
            return [f"{path}: keys {sorted(old)} became {sorted(new)}"]
        return [m for k in old for m in mismatches(new[k], old[k], rtol, f"{path}.{k}")]
    if isinstance(old, list):
        if len(new) != len(old):
            return [f"{path}: length {len(old)} became {len(new)}"]
        return [m for i, (a, b) in enumerate(zip(new, old)) for m in mismatches(a, b, rtol, f"{path}[{i}]")]
    if isinstance(old, float):
        ok = abs(new - old) <= rtol * (1.0 + abs(old))
    else:
        ok = new == old
    return [] if ok else [f"{path}: {old!r} became {new!r}"]


def test_mismatches_compares_counts_exactly_and_floats_within_rtol():
    old = {"failures": 0, "classification": "candidate", "margin": -0.5, "h": [[1, 2.0]]}
    assert mismatches(dict(old), old, 1e-9) == []
    assert mismatches({**old, "margin": -0.5 * (1 + 1e-12)}, old, 1e-9) == []
    assert mismatches({**old, "margin": -0.5 * (1 + 1e-6)}, old, 1e-9)
    assert mismatches({**old, "failures": 1}, old, 1e-9)
    assert mismatches({**old, "failures": 0.0}, old, 1e-9)
    assert mismatches({**old, "classification": "numerical_noise"}, old, 1e-9)
    assert mismatches({**old, "h": [[2, 2.0]]}, old, 1e-9)
    assert mismatches({**old, "extra": 1}, old, 1e-9)


@pytest.mark.parametrize("name", sorted(MANIFEST["files"]))
def test_cli_output_matches_golden(name, tmp_path):
    entry = MANIFEST["files"][name]
    golden = json.loads((GOLDEN / name).read_text())
    problems = mismatches(run_cli(entry["argv"], tmp_path / name), golden, entry["rtol"])
    assert not problems, f"{len(problems)} differences from {name}: {problems[:5]}"


def regenerate():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    MANIFEST["environment"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }
    for name, entry in MANIFEST["files"].items():
        doc = run_cli(entry["argv"], GOLDEN / name)
        (GOLDEN / name).write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    (GOLDEN / "manifest.json").write_text(json.dumps(MANIFEST, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
