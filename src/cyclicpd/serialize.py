"""JSON wire format for cyclic families.

Family: {"p": int, "members": [matrix, ..]}, each member a matrix
{"n": int, "field": "real"|"complex", "entries": [[..]]} where a complex
entry is a [re, im] pair, and each number a JSON integer or float. Doubles
round-trip bit-exactly (shortest-repr decimal serialization). A document of
any other shape raises ValueError. The writer takes the family's (p, n, n)
stack; the reader wraps the validated stack in a ``CyclicFamily``, a record
that belongs to the benchmark's reader alone.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .pdcore import CyclicFamily, _pd_floor, validate_family


def _int(d: dict, key: str) -> int:
    if type(d[key]) is not int:
        raise ValueError(f"{key!r} must be an integer, got {d[key]!r}")
    return d[key]


def _matrix_from_dict(d: dict) -> np.ndarray:
    if not isinstance(d, dict) or d.get("field") not in ("real", "complex"):
        raise ValueError(f'a matrix must be an object with field "real" or "complex", got {d!r:.80}')
    n, field = _int(d, "n"), d["field"]
    # as objects, so that no string or boolean is converted to a number
    a = np.array(d["entries"], dtype=object)
    pairs = field == "complex"
    if a.shape != ((n, n, 2) if pairs else (n, n)):
        raise ValueError(f"entries shape {a.shape!r:.80} does not match n={n}"
                         + (" with [re, im] pairs" if pairs else ""))
    for x in a.flat:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"matrix entries must be numbers, got {x!r:.40}")
    try:
        a = a.astype(np.float64)
    except OverflowError as exc:
        raise ValueError(f"matrix entry out of the float range: {exc}") from exc
    return a.view(np.complex128)[..., 0] if pairs else a


def family_to_dict(mats: np.ndarray) -> dict:
    """The document of the family of one stack (p, n, n). The families the
    program writes are PD by construction, so only the positivity floor is
    checked here."""
    _pd_floor(mats)
    if np.iscomplexobj(mats):
        field, numbers = "complex", np.stack((mats.real, mats.imag), axis=-1)
    else:
        field, numbers = "real", np.asarray(mats, dtype=np.float64)
    n = int(mats.shape[-1])
    # tolist reads each double as the Python float of its bits, -0.0 included
    return {"p": len(mats), "members": [{"n": n, "field": field, "entries": m} for m in numbers.tolist()]}


def family_from_dict(d: dict) -> CyclicFamily:
    """The family of a document: its form is checked first (each member, the
    declared p, one dimension), then its numbers, by ``validate_family``. The
    program reads only ``.mats``; the record is kept for the benchmark's reader."""
    if not isinstance(d, dict) or not isinstance(d.get("members"), list):
        raise ValueError(f"a family must be an object with a list of members, got {d!r:.80}")
    members = [_matrix_from_dict(m) for m in d["members"]]
    if _int(d, "p") != len(members):
        raise ValueError("declared p does not match member count")
    dims = {len(m) for m in members}
    if len(dims) > 1:
        raise DimensionMismatch(f"members have mixed dimensions {sorted(dims)}")
    return CyclicFamily(validate_family(np.array(members)))
