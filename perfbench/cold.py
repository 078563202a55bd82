"""One cold pass of a workload in a fresh interpreter, for run.py.

    python3 -s -E perfbench/cold.py SRC WORKLOAD SEED

Times `import gegenfun` from SRC, then sends every request of the workload
once, as the first work after the import.  Writes to stdout a pickle of
{"import_s": float, "replies": [(wall ns, reply, error or None), ...]}; the
caller gates the replies against its own references.
"""

import sys
import time

src, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, src)
t = time.perf_counter()
import gegenfun  # noqa: E402,F401

import_s = time.perf_counter() - t

import pickle  # noqa: E402

from workloads import make_workload, timed_call  # noqa: E402

replies = [timed_call(req) for req in make_workload(name, seed, references=False).requests]
sys.stdout.buffer.write(pickle.dumps({"import_s": import_s, "replies": replies}))
