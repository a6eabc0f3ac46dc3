"""Run one command and report its wall time, exit code and peak RSS.

    python3 perfbench/launch.py TIMEOUT_S CMD [ARG ...]

prints ``{"wall_s": ..., "code": ..., "peak_rss_mb": ...}``. The command's
standard output is discarded, and it is killed after TIMEOUT_S seconds.

``run.py`` starts the scan CLI through this small process rather than
directly because Linux carries a process's peak RSS across ``exec`` into
the program it starts: a CLI started by ``run.py``, which holds a whole
scan output while it checks it, would report ``run.py``'s peak instead of
its own. This process imports nothing large, so the peak it passes on is
below any CLI's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list) -> int:
    timeout_s, cmd = float(argv[0]), argv[1:]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        # os.wait4, unlike Popen.wait, reports this child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "code": proc.returncode,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
