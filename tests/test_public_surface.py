"""The package's public names, and the program attributes the benchmark reads.

A name added to or dropped from ``cyclicpd.__all__`` is added to or dropped
from ``PUBLIC`` here in the same change. ``perfbench/`` drives the CLI and
re-checks each search result through the program's own functions; the
benchmark's output checks run outside tier-1, but every attribute they read
must exist here, or the benchmark cannot run at all.
"""
import importlib
import re
from pathlib import Path

import numpy as np

import cyclicpd

PUBLIC = [
    "CheckReport", "ConvergenceFailure", "CyclicFamily", "CyclicPDError", "DimensionMismatch",
    "EntryTooLarge", "FixtureMismatch", "HermMatrix", "IllConditioned", "NotFinite",
    "NotHermitian", "NotPositiveDefinite", "NotSquare", "PDMatrix", "SearchConfig",
    "SearchResult", "SingularDenominator", "Tolerance", "counterexample_family",
    "counterexample_fixture", "cyclic_sum_trace", "diagonal_embed", "errors",
    "family_from_dict", "family_to_dict", "inequalities", "make_herm", "make_pd",
    "margin_gradient", "matrix_from_dict", "matrix_to_dict", "minimize_margin", "pdcore",
    "probe_conjecture", "random_family", "random_pd", "reproduce_counterexample",
    "scalar_cyclic_sum", "search", "serialize", "shapiro_margin",
]

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_public_names_are_the_listed_ones():
    assert sorted(cyclicpd.__all__) == PUBLIC


def test_attributes_the_benchmark_reads_exist():
    reads = set()
    for name in ("run.py", "workloads.py"):
        reads |= set(re.findall(r"\bprogram\.(\w+)\.(\w+)", (PERFBENCH / name).read_text()))
    assert reads >= {("cli", "main"), ("serialize", "family_from_dict"),
                     ("inequalities", "cyclic_sum_trace"), ("search", "scalar_cyclic_sum")}
    for module, attr in sorted(reads):
        assert callable(getattr(importlib.import_module(f"cyclicpd.{module}"), attr)), (module, attr)
    # what workloads.check_search reads from a loaded best_family
    fam = cyclicpd.family_from_dict(cyclicpd.family_to_dict(
        cyclicpd.random_family(1, 14, np.random.default_rng(0))))
    assert (fam.p, fam.dim) == (14, 1)
    assert all(m.mat.shape == (1, 1) for m in fam.members)
