#!/usr/bin/env python3
"""Print two benchmark result files side by side.

    python3 perfbench/compare.py before.json after.json

Each file is one written by ``run.py --json-out``, for one workload or for
``--workload all``. Every metric is listed with both values and the ratio
after/before.
"""

import json
import sys


def _metrics(path):
    with open(path, encoding="utf-8") as f:
        result = json.load(f)["result"]
    return result, result["metrics"]


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    (ra, a), (rb, b) = _metrics(argv[0]), _metrics(argv[1])
    print("%-56s %14s %14s %8s" % ("metric", "before", "after", "ratio"))
    for name in sorted(set(a) | set(b)):
        va = a.get(name, {}).get("value")
        vb = b.get(name, {}).get("value")
        unit = (a.get(name) or b.get(name))["unit"]
        ratio = "%8.3f" % (vb / va) if va and vb is not None else "%8s" % "-"
        print("%-56s %14s %14s %s" % ("%s [%s]" % (name, unit),
                                      "-" if va is None else "%.6g" % va,
                                      "-" if vb is None else "%.6g" % vb,
                                      ratio))
    for key in ("correct", "attempted", "failed"):
        print("%-56s %14s %14s" % (key, ra[key], rb[key]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
