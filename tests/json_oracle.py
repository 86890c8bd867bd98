"""The element-wise JSON emitter that ``lqg_codesign.cli.dumps`` must match.

Every value goes through its own call, floats as "%.17g" and non-finite
floats as null. ``cli.dumps`` instead reads every report once into a shape
and its values and fills one template per shape; the tests compare it with
this writer byte for byte, and CI re-emits every report kind through it:

    PYTHONPATH=tests python -c "import json, sys; from json_oracle import dumps; \
        print(dumps(json.load(open(sys.argv[1]), parse_int=float)))" report.json
"""

from __future__ import annotations

import json
import math

import numpy as np


def dumps(obj, indent: int = 0) -> str:
    """Serialize nested dict/list/scalar data with %.17g floats."""
    if isinstance(obj, (float, np.floating)):
        return "%.17g" % obj if math.isfinite(obj) else "null"
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{dumps(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return json.dumps(obj)
