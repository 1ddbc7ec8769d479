"""JSON wire format for cyclic families.

Family: {"p": int, "members": [matrix, ..]}, each member a matrix
{"n": int, "field": "real"|"complex", "entries": [[..]]} where a complex
entry is a [re, im] pair. Doubles round-trip bit-exactly (shortest-repr
decimal serialization). A document of any other shape raises ValueError.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .pdcore import CyclicFamily, _pd_floor, validate_family


def _matrix_to_dict(a: np.ndarray) -> dict:
    if np.iscomplexobj(a):
        entries = [[[float(z.real), float(z.imag)] for z in row] for row in a]
        field = "complex"
    else:
        entries = [[float(x) for x in row] for row in a]
        field = "real"
    return {"n": int(a.shape[0]), "field": field, "entries": entries}


def _int(d: dict, key: str) -> int:
    if type(d[key]) is not int:
        raise ValueError(f"{key!r} must be an integer, got {d[key]!r}")
    return d[key]


def _matrix_from_dict(d: dict) -> np.ndarray:
    if not isinstance(d, dict) or d.get("field") not in ("real", "complex"):
        raise ValueError(f'a matrix must be an object with field "real" or "complex", got {d!r:.80}')
    n, field = _int(d, "n"), d["field"]
    try:
        a = np.array(d["entries"], dtype=np.float64)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"matrix entries must be numbers: {exc}") from exc
    pairs = field == "complex"
    if a.shape != ((n, n, 2) if pairs else (n, n)):
        raise ValueError(f"entries shape {a.shape} does not match n={n}"
                         + (" with [re, im] pairs" if pairs else ""))
    return a.view(np.complex128)[..., 0] if pairs else a


def family_to_dict(f: CyclicFamily) -> dict:
    """The document of a family. The families the program writes are PD by
    construction, so only the positivity floor is checked here."""
    _pd_floor(f.mats)
    return {"p": f.p, "members": [_matrix_to_dict(m) for m in f.mats]}


def family_from_dict(d: dict) -> CyclicFamily:
    """The family of a document: its form is checked first (each member, the
    declared p, one dimension), then its numbers, by ``validate_family``."""
    if not isinstance(d, dict) or not isinstance(d.get("members"), list):
        raise ValueError(f"a family must be an object with a list of members, got {d!r:.80}")
    members = [_matrix_from_dict(m) for m in d["members"]]
    if _int(d, "p") != len(members):
        raise ValueError("declared p does not match member count")
    dims = {len(m) for m in members}
    if len(dims) > 1:
        raise DimensionMismatch(f"members have mixed dimensions {sorted(dims)}")
    return CyclicFamily(validate_family(np.array(members)))
