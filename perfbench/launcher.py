"""Small process that starts the benchmark's CLI calls, one at a time.

Linux counts the RSS of the forking process toward a child's ``ru_maxrss``
(the forked address space is folded in at exec). Forking from the
benchmark, which holds numpy and mpmath, would report its size for every
call; forking from this lean process reports the child's own peak.

Protocol: one JSON argv list per stdin line; for each, one JSON header line
``{"code", "wall", "maxrss_kb", "bytes"}`` on stdout followed by that many
bytes of the child's stdout. The child's stderr goes to this process's
stderr. EOF on stdin ends the loop.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 60


def main() -> None:
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        argv = json.loads(line)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        header = {"code": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss,
                  "bytes": len(stdout)}
        out.write(json.dumps(header).encode() + b"\n" + stdout)
        out.flush()


if __name__ == "__main__":
    main()
