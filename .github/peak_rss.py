"""Run one permsnake command as this launcher's only child and bound its peak RSS.

    python .github/peak_rss.py LIMIT_MB TOKEN ARG...

Runs ``python -m permsnake.cli ARG...``, echoes its stdout, then prints
its exit code, wall time and peak RSS, the child's ``ru_maxrss`` read back
from RUSAGE_CHILDREN (KB on Linux).  Exits 1 unless the command exits 0,
TOKEN is one of the words of its stdout and the peak is at most LIMIT_MB.
"""
import resource
import subprocess
import sys
import time

limit, token, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
t0 = time.perf_counter()
got = subprocess.run([sys.executable, "-m", "permsnake.cli", *argv], stdout=subprocess.PIPE, text=True)
wall = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{got.stdout}{' '.join(argv)}: exit {got.returncode}, wall {wall:.2f} s, peak {peak:.1f} MB (limit {limit:g} MB)")
sys.exit(1 if got.returncode or token not in got.stdout.split() or peak > limit else 0)
