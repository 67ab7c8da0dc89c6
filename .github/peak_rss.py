"""Runs one command and bounds its peak RSS: ``python3 .github/peak_rss.py LIMIT_MB COMMAND...``

On Linux a child's peak RSS (``ru_maxrss``) starts from the resident size of
the process that forked it. This process imports nothing beyond the standard
library, so the figure is the command's own. It prints the command's exit
code, wall time and peak RSS, and exits 1 unless the command exits 0 with a
peak RSS below LIMIT_MB.
"""

import os
import shlex
import subprocess
import sys
import time

limit_mb, argv = float(sys.argv[1]), sys.argv[2:]
start = time.perf_counter()
child = subprocess.Popen(argv)
_, status, usage = os.wait4(child.pid, 0)
wall = time.perf_counter() - start
code, rss_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024  # ru_maxrss is in KiB
print(f"{shlex.join(argv)}\n  exit {code}, wall {wall:.2f} s, peak RSS {rss_mb:.1f} MB "
      f"(limit {limit_mb:g} MB)")
sys.exit(0 if code == 0 and rss_mb < limit_mb else 1)
