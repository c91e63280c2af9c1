"""Time one code set-up in a fresh interpreter, excluding the import.

Usage: python3 setup_probe.py SRC_DIR P

Prints one JSON object with the times of the three set-up layers (build_code,
JointBpDecoder.for_code, first access of both stabilizer row spaces)
and their sum, in seconds.
"""

import json
import sys
from time import perf_counter

sys.path.insert(0, sys.argv[1])

from qcldpc import JointBpDecoder, build_code, builtin_pair_j3_l8  # noqa: E402

P = int(sys.argv[2])
t0 = perf_counter()
code = build_code(builtin_pair_j3_l8(), P)
t1 = perf_counter()
JointBpDecoder.for_code(code)
t2 = perf_counter()
_ = code.x_stabilizers, code.z_stabilizers
t3 = perf_counter()
print(json.dumps({"codes.build_code_s": t1 - t0, "decoder.init_s": t2 - t1,
                  "gf2.rowspace_s": t3 - t2, "setup_s": t3 - t0}))
