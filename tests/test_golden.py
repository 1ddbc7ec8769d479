"""Golden-output gate: CLI JSON compared with files committed under tests/golden/.

``tests/golden/manifest.json`` names each golden file, the argv that made it,
the tolerance its floats are held to, and the numpy / BLAS / Python versions
it was made with. Everything but ``started``/``elapsed_ms`` is compared:
strings, booleans and integers (verdicts, classifications, failure, trial and
iteration counts) exactly, floats (margins, histories, matrix entries) to
|new - golden| <= rtol * (1 + |golden|).

The rtol comparison holds everywhere. The manifest also pins the bits: each
file's ``sha256`` is the digest of its command's canonical output (the JSON
minus ``started``/``elapsed_ms``, with sorted keys), taken with the numpy,
BLAS and CPU features of the ``digests`` block, and where those three match
the output must have that digest.

Regenerating the files changes the reference itself; say why in CHANGES.md.
``python tests/test_golden.py`` regenerates every file, and
``python tests/test_golden.py NAME...`` only the named ones (the manifest's
environment block is rewritten either way); both refresh every digest.
``python tests/test_golden.py --digests`` refreshes the digests alone and
rewrites no golden file.
"""
import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
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


def digest(doc: dict) -> str:
    """SHA-256 of a document's canonical form: its JSON with sorted keys."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True, allow_nan=False).encode()).hexdigest()


def environment() -> dict:
    """What the bits of an output depend on besides the code: numpy, its BLAS
    and the SIMD extensions numpy dispatches to on this CPU."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd": config["SIMD Extensions"]["found"]}


@functools.cache
def output(name: str) -> dict:
    """The manifest command's output for golden file ``name``, run once per session."""
    with tempfile.TemporaryDirectory() as tmp:
        return run_cli(MANIFEST["files"][name]["argv"], Path(tmp) / name)


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


def test_digest_reads_canonical_json():
    doc = {"b": [1, 0.1], "a": {"y": True, "x": "s"}}
    assert digest(doc) == digest(json.loads(json.dumps(dict(reversed(doc.items())))))
    assert digest(doc) != digest({**doc, "b": [1, 0.1 + 2**-56]})  # one bit of one float


@pytest.mark.parametrize("name", sorted(MANIFEST["files"]))
def test_cli_output_matches_golden(name):
    entry = MANIFEST["files"][name]
    golden = json.loads((GOLDEN / name).read_text())
    problems = mismatches(output(name), golden, entry["rtol"])
    assert not problems, f"{len(problems)} differences from {name}: {problems[:5]}"


@pytest.mark.parametrize("name", sorted(MANIFEST["files"]))
def test_cli_output_matches_digest(name):
    if environment() != MANIFEST["digests"]:
        pytest.skip(f"digests taken with {MANIFEST['digests']}, not {environment()}")
    assert digest(output(name)) == MANIFEST["files"][name]["sha256"], f"{name} changed bits"


def regenerate(names=(), files=True):
    """Refresh every digest, and with ``files`` rewrite the named golden files
    (all of them when none are named) and the environment block."""
    unknown = sorted(set(names) - MANIFEST["files"].keys())
    if unknown:
        raise SystemExit(f"not in the manifest: {', '.join(unknown)}")
    env = environment()
    if files:
        MANIFEST["environment"] = {"python": sys.version.split()[0], "numpy": env["numpy"], "blas": env["blas"]}
    MANIFEST["digests"] = env
    for name, entry in MANIFEST["files"].items():
        doc = output(name)
        entry["sha256"] = digest(doc)
        if files and (not names or name in names):
            (GOLDEN / name).write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    (GOLDEN / "manifest.json").write_text(json.dumps(MANIFEST, indent=2) + "\n")


if __name__ == "__main__":
    args = sys.argv[1:]
    regenerate([] if args == ["--digests"] else args, files=args != ["--digests"])
