"""Regenerate ``reference/labels.json``, the label sets of the fixed
enumerate families, from the current sources:

    python3 bench/make_reference.py

Only rerun it when a change is meant to alter those label sets; the file is
what later runs are compared against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run  # noqa: F401  (pins BLAS threads before numpy loads)
import workloads
from checks import REFERENCE


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import momentflow as mf
    import momentflow.cli  # noqa: F401
    ref = {}
    for fam, n in sorted(set(workloads.ENUM_FAMILIES + workloads.TINY_ENUM_FAMILIES)):
        out = workloads.cli_call(mf, ["labels-enumerate", "--family", fam, "--n", str(n)])()
        doc = json.loads(out["stdout"])
        ref[f"{fam}{n}"] = {"zero_label": doc["zero_label"],
                            "labels": sorted(lab["eta"] for lab in doc["labels"])}
    body = ",\n".join(f" {json.dumps(k)}: {json.dumps(ref[k])}" for k in sorted(ref))
    REFERENCE.write_text("{\n" + body + "\n}\n")


if __name__ == "__main__":
    main()
