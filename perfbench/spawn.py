"""Run one command; print its wall time, exit code and peak RSS as JSON.

On Linux a child's peak RSS starts from its parent's at fork, and run.py
holds the whole corpus in memory, so run.py starts each measured command
through this small interpreter instead:

    python3 perfbench/spawn.py STDERR_FILE TIMEOUT_S CPUS CMD...

The command's stdout is discarded, its stderr goes to STDERR_FILE, and it is
killed if it runs longer than TIMEOUT_S. CPUS is a comma-separated list of
CPU numbers the command may run on, or ``-`` to keep this process's own.
"""
import json
import os
import signal
import subprocess
import sys
import time

err_path, timeout, cpus, *cmd = sys.argv[1:]
if cpus != "-":
    os.sched_setaffinity(0, {int(cpu) for cpu in cpus.split(",")})
with open(err_path, "wb") as err:
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
    signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.alarm(int(timeout))
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall,
    "returncode": os.waitstatus_to_exitcode(status),
    "peak_rss_mb": usage.ru_maxrss / 1024,
}))
