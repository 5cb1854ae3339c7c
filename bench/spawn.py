"""Child launcher: runs one command per request and reports its usage.

The benchmark starts every CLI child through this small process rather
than spawning it itself. At exec, Linux records the spawning process's
peak resident size into the new child's ``ru_maxrss``; from here that
floor is this launcher's size (about 10 MB, below any epimc child), so a
child's figure is its own and not the benchmark's.

Each request is one JSON line on stdin: ``{"argv": [...], "out": path,
"limit": seconds}``. The child gets stdin and stderr on /dev/null and
stdout in ``out``, and is killed after ``limit`` seconds. Each reply is
one JSON line: ``start``, ``end`` (perf_counter), ``exit``,
``timed_out`` and ``maxrss_kib``. The launcher exits at end of input.
"""

import json
import os
import select
import signal
import sys
import time


def run(argv: list, out_path: str, limit: float) -> dict:
    out = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out, 1),
            (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        os.close(out)
    pidfd = os.pidfd_open(pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], limit)
        if not exited:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    return {
        "start": start,
        "end": time.perf_counter(),
        "exit": os.waitstatus_to_exitcode(status),
        "timed_out": not exited,
        "maxrss_kib": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["out"], req["limit"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
