"""Write one workload's seeded inputs; ``workloads.write_inputs_in_child`` runs it.

    python3 perfbench/make_inputs.py '{"workload": "fit_large", "fields": {...}, "seed": 0, "workdir": "..."}'

``fields`` are the workload's dataclass fields, so shrunken copies in the
tests generate their own small inputs.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

spec = json.loads(sys.argv[1])
workload = workloads.WORKLOADS[spec["workload"]](**spec["fields"])
workload.write_inputs(spec["seed"], Path(spec["workdir"]))
