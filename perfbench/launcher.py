"""Starts CLI processes from a small helper process and reports their usage.

On Linux a child's ``ru_maxrss`` is at least the resident size of the process
it was forked from, because the high-water mark of the pre-exec image is
kept.  The benchmark holds sympy and grows past the CLI's own peak, so it
launches every timed call through this helper, which stays small.

Protocol: one JSON request per line on stdin, one JSON reply per line on
stdout.  The helper exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    """Run one command to completion or timeout; wall, CPU and peak RSS."""
    timed_out = threading.Event()
    with open(request["stdout"], "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"],
            stdout=out, stderr=subprocess.DEVNULL,
        )

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(request["timeout"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "returncode": proc.returncode,
        "timed_out": timed_out.is_set(),
    }


def serve() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


class Launcher:
    """Client side: a running helper process; close it with `close` or `with`."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], cwd, env: dict, timeout: float, stdout_path) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "env": env, "timeout": timeout, "stdout": str(stdout_path)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher helper exited")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
