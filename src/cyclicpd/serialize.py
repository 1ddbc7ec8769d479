"""JSON wire formats for matrices and cyclic families.

Matrix: {"n": int, "field": "real"|"complex", "entries": [[..]]} where a
complex entry is a [re, im] pair. Family: {"p": int, "members": [matrix, ..]}.
Doubles round-trip bit-exactly (shortest-repr decimal serialization).
"""
from __future__ import annotations

import json

import numpy as np

from .pdcore import CyclicFamily, PDMatrix, Tolerance, DEFAULT_TOL, _entries_of, make_pd


def matrix_to_dict(m) -> dict:
    a = _entries_of(m)
    if np.iscomplexobj(a):
        entries = [[[float(z.real), float(z.imag)] for z in row] for row in a]
        field = "complex"
    else:
        entries = [[float(x) for x in row] for row in a]
        field = "real"
    return {"n": int(a.shape[0]), "field": field, "entries": entries}


def matrix_from_dict(d: dict, tol: Tolerance = DEFAULT_TOL) -> PDMatrix:
    n = int(d["n"])
    if d["field"] == "complex":
        a = np.array(
            [[complex(e[0], e[1]) for e in row] for row in d["entries"]],
            dtype=np.complex128,
        )
    else:
        a = np.array(d["entries"], dtype=np.float64)
    if a.shape != (n, n):
        raise ValueError(f"entries shape {a.shape} does not match n={n}")
    return make_pd(a, tol)


def family_to_dict(f: CyclicFamily) -> dict:
    return {"p": f.p, "members": [matrix_to_dict(m) for m in f.members]}


def family_from_dict(d: dict, tol: Tolerance = DEFAULT_TOL) -> CyclicFamily:
    members = tuple(matrix_from_dict(m, tol) for m in d["members"])
    if int(d["p"]) != len(members):
        raise ValueError("declared p does not match member count")
    return CyclicFamily(members)


def save_family(f: CyclicFamily, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_to_dict(f), fh)


def load_family(path, tol: Tolerance = DEFAULT_TOL) -> CyclicFamily:
    with open(path, encoding="utf-8") as fh:
        return family_from_dict(json.load(fh), tol)
