"""Cold start of one workload in a fresh interpreter.

    python3 bench/coldstart.py <src dir> <workload> <seed> <work dir>

Imports densigraph.cli from <src dir>, builds and validates the workload's
configuration, and prints {"import_s": ...} as JSON.  run.py times the whole
process from the outside; that wall time is the benchmark's setup_s.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import densigraph.cli as cli  # noqa: E402

t_import = perf_counter() - t0

import workloads  # noqa: E402

workloads.build_config(cli, sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
print(json.dumps({"import_s": t_import}))
