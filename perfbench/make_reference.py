"""Record cv_protocol's non-timing report fields for the given seeds.

    python3 perfbench/make_reference.py 0 1 2

Writes ``perfbench/cv_reference.json``, which the cv_protocol check compares
against. Seeds already recorded are recomputed and replaced. Only regenerate
it on purpose: a change to the program must reproduce these values.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv) -> int:
    run.set_blas_threads()
    run.import_hubridge()
    import workloads

    w = workloads.CvProtocol()
    path = workloads.REFERENCE_PATH
    doc = {"workload": w.fingerprint(), "seeds": workloads.load_reference(w.fingerprint())}
    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for seed in (int(s) for s in argv):
            w.prepare(seed, workdir)
            report = w.op(w.setup(), 0)
            doc["seeds"][str(seed)] = workloads.report_fields(report)
            agg = {a.method: a for a in report.aggregates}
            print(seed, {m: (round(a.mean_accuracy, 4), round(a.mean_skewness, 3))
                         for m, a in agg.items()}, flush=True)
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
