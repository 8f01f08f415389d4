"""One benchmark pass in a fresh interpreter.

Started by run.py with ``src`` on PYTHONPATH.  It imports the console-script
entry point first and notes the monotonic clock (which all processes on the
host share), so the parent can time set-up from its spawn.  With
``--setup-only`` it stops there.  Otherwise it reads a JSON spec from stdin,
``{"commands": [[arg, ...], ...], "trace": bool}``, runs each command
through ``zetafock.cli.main`` in order, and prints one JSON line: the
import-done time, wall time of the commands, each exit code, peak RSS and,
when traced, the per-layer counts and times.
"""

import sys
import time

import zetafock.cli

READY = time.monotonic()

import json  # noqa: E402  (imported after the set-up timestamp on purpose)
import resource  # noqa: E402


def main() -> int:
    if sys.argv[1:] == ["--setup-only"]:
        print(json.dumps({"ready": READY}))
        return 0
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer().install()
    entry = zetafock.cli.main  # the traced wrapper when cli.main is hooked
    codes = []
    t0 = time.monotonic()
    for argv in spec["commands"]:
        before = tracer.cache_snapshot() if tracer else None
        codes.append(entry(argv))
        if tracer:
            tracer.add_cache_delta(before)
    wall = time.monotonic() - t0
    result = {
        "ready": READY,
        "wall_s": wall,
        "codes": codes,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result.update(counts=tracer.counts(), times=tracer.times(), absent=tracer.absent)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
