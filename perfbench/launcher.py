"""Starts the benchmark's cold processes and reports their wall time and peak memory.

A process started by ``fork``/``vfork`` and ``exec`` inherits, as the
floor of its ``ru_maxrss``, the peak resident set of the process that
started it.  The benchmark client holds its inputs and parsed outputs, so
its children would report the client's peak instead of their own.  This
launcher imports only the standard library and stays small, so the peak
reported for each child is the child's.

Protocol: one JSON request per line on stdin, ``{"cmd": [...], "cwd": ...,
"env": {...}, "stdout": path, "stderr": path, "timeout": seconds}``; one
JSON reply per line on stdout, ``{"seconds": ..., "status": ...,
"maxrss_kb": ...}``.  The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def launch(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "status": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(launch(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
