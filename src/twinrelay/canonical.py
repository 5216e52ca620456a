"""Canonical JSON and the stream-addressing constants, without numpy.

Every JSON file the package writes goes through `canonical_dumps`: sorted
keys, floats at 12 significant digits, NaN as null and infinities as
strings, so a rerun of the same configuration gives the same bytes.
Numpy scalars are written as the Python values they stand for; they are
looked for only when numpy is already imported, since no numpy value can
exist before that, so a caller that never imports numpy (`twinrelay
rates`) does not load it here.
"""

from __future__ import annotations

import json
import math
import sys

# Trials per random stream.  Changing it re-addresses every draw, so it is
# recorded with STREAM_VERSION in the CLI's provenance.
BLOCK = 4096
STREAM_VERSION = 2


def _round_floats(obj):
    """obj with floats at 12 significant digits and numpy scalars as Python
    ones; `canonical_dumps` sorts the keys."""
    kind = type(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if kind is dict:
        return {k: _round_floats(v) for k, v in obj.items()}
    if kind is list or kind is tuple:
        return [_round_floats(v) for v in obj]
    if kind is float:
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(f"{obj:.12g}")
    # Subclasses and numpy scalars, as the plain values they stand for.
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return _round_floats(float(obj))
    if isinstance(obj, float):
        return _round_floats(float(obj))
    if isinstance(obj, dict):
        return _round_floats(dict(obj))
    if isinstance(obj, (list, tuple)):
        return _round_floats(list(obj))
    return obj


def canonical_dumps(obj) -> str:
    return json.dumps(_round_floats(obj), sort_keys=True, separators=(",", ":"))
