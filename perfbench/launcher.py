"""Starts the benchmark's child processes from a small process.

On Linux a child's peak RSS (``ru_maxrss``) counts the memory of the process
that forked it, so children forked by the benchmark itself, which holds the
inputs and the checks' arrays, would report its size instead of their own.
This process stays small. It reads one JSON request per line on stdin
(``argv``, ``cpus``, ``stderr`` file) and answers each with one JSON line:
wall seconds from spawn to exit, peak RSS in KiB from ``os.wait4``, and the
exit code. It ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    request = json.loads(line)
    own = os.sched_getaffinity(0)
    with open(request["stderr"], "wb") as err:
        os.sched_setaffinity(0, request["cpus"])  # the child inherits this mask
        start = time.perf_counter()
        try:
            child = subprocess.Popen(request["argv"], stdout=subprocess.DEVNULL, stderr=err)
        finally:
            os.sched_setaffinity(0, own)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "rss_kib": usage.ru_maxrss, "code": child.returncode}),
          flush=True)
