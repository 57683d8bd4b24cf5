"""Run one mbch CLI job in a fresh interpreter, as the ``mbch`` script does.

Usage: python3 job.py FD MODE [mbch arguments ...]

MODE is ``run`` (plain job), ``trace`` (job with spans recorded) or
``import`` (import ``mbch.cli`` and exit; warms the bytecode cache).
The job writes JSON lines to the inherited file descriptor FD: the
CLOCK_MONOTONIC time at which ``mbch.cli`` finished importing and, in
trace mode, the recorded spans when the job ends.  The CLI itself sees
only its own argv and writes its stdout untouched.
"""

import json
import os
import sys
import time


def main() -> None:
    fd, mode, args = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import mbch.cli

    with os.fdopen(fd, "w") as report:
        report.write(json.dumps({"imported": time.monotonic()}) + "\n")
        report.flush()
        if mode == "import":
            return
        if mode == "trace":
            import tracer

            tracer.install()
        sys.argv = ["mbch", *args]
        try:
            mbch.cli.entry()
        finally:
            if mode == "trace":
                report.write(json.dumps({"spans": tracer.spans()}) + "\n")


if __name__ == "__main__":
    main()
