"""Run one command; write its exit code, wall time and peak RSS as JSON.

Usage: python3 -I -S launch.py RESULT.json PROGRAM [ARG ...]

The benchmark starts every CLI child through this small interpreter rather
than from its own process: Linux carries the resident set of the process
that calls exec into the child's ru_maxrss, so a child started straight
from run.py (which holds numpy, jcdyn and the reference tables) would
report the size of run.py instead of its own.
"""

import json
import os
import sys
import time

result_path, argv = sys.argv[1], sys.argv[2:]
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(result_path, "w", encoding="utf-8") as fh:
    json.dump(
        {
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
        },
        fh,
    )
