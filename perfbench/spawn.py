"""Starts the benchmark's child processes on behalf of run.py.

The max RSS that wait4 reports for a child includes the peak RSS of the
process that started it, so the children are started from this small
process instead of from run.py, whose memory grows with the inputs and
outputs it holds. run.py starts it before loading anything.

One request per line on stdin, ``[argv, stdout path, stderr path]``, and
one reply per line on stdout, ``[exit code, wall seconds, max RSS KiB]``.
The child runs in this process's directory and environment. Exits at the
end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time

# a child still running after this long is killed, so its check fails
CHILD_TIMEOUT_S = 120


def main() -> None:
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, wall, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
