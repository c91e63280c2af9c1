"""Record the reference digests that run.py checks outputs against.

Usage (from the repository root, at a commit whose output is trusted):

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: for each workload, the digest of every
point of the first units of a run at REFERENCE_SEED (64 single-point
units on the fixed-point workloads, 2 calls on each sweep).
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import WORKLOADS, run_unit  # noqa: E402

REFERENCE_SEED = 1


def main() -> None:
    reference = {}
    for w in WORKLOADS.values():
        code = None if w.is_sweep else w.code()
        units = []
        for u in range(2 if w.is_sweep else 64):
            out_dir = Path(tempfile.mkdtemp(dir=ROOT))
            try:
                points = run_unit(w, code, REFERENCE_SEED, u, out_dir)["points"]
            finally:
                shutil.rmtree(out_dir)
            for f in points:
                print(w.name, u, f["p_d"], f["trials"], f["frame_errors"],
                      f["total_iterations"], file=sys.stderr)
            units.append([checks.digest(f) for f in points])
        reference[w.name] = {"seed": REFERENCE_SEED, "units": units}
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
