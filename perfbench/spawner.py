"""Start benchmarked commands and report wall time, exit code and peak RSS.

The peak RSS that ``wait4`` reports for a child includes the memory of
the process that spawned it, because the child starts inside its
parent's address space. Commands are therefore spawned from this small
process, not from the harness, whose memory would otherwise show up in
every reading.

Protocol: one JSON request per line on stdin (``argv``, ``env``,
``stdout``, ``stderr``, ``timeout_s``), one JSON reply per line on
stdout. A command still running after ``timeout_s`` is killed. The
process exits when stdin closes.

    python3 perfbench/spawner.py
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import sys
import time

_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(request: dict) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], _WRITE, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], _WRITE, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(request["argv"][0], request["argv"], request["env"],
                         file_actions=actions)

    def kill(signum, frame):
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, request["timeout_s"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    end = time.perf_counter()
    return {
        "start": start,
        "wall_s": end - start,
        "exit": os.waitstatus_to_exitcode(status),
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
