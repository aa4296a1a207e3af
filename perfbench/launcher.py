"""Starts the benchmark's child processes from a process that stays small.

On Linux a child's ``ru_maxrss`` includes the resident size of the process
that spawned it, so a benchmark process that has grown (it imports
``wreathhom`` and computes references) would inflate every child's peak
RSS.  ``run.py`` starts this launcher first, while it is still small, and
sends it one JSON request per line on stdin:

    {"argv": [...], "env": {...}, "stdout": PATH, "stderr": PATH, "timeout": SECONDS}

For each request it spawns the child with stdout and stderr sent to the
two files, waits for it, kills it if it outlives ``timeout``, and answers
with one JSON line ``{"exit_code": N, "wall_s": S, "maxrss_kb": K}``.  It
exits when stdin closes.
"""

import json
import os
import signal
import sys
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def serve() -> None:
    running = []

    def kill(_signum, _frame):
        for pid in running:
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], FLAGS, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], FLAGS, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
        running.append(pid)
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            running.clear()
        wall = time.perf_counter() - start
        answer = {"exit_code": os.waitstatus_to_exitcode(status), "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
