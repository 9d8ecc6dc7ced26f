"""One viscoshear CLI request in a fresh interpreter, so every lru_cache starts cold.

    python3 perfbench/request.py SPEC.json SPAWNED

SPEC.json holds ``src`` (the directory that contains the viscoshear
package), ``argv`` (the CLI arguments), ``config``, ``result``
(where to write the measurements), ``setup_only`` and ``spans`` (where to
write the trace, or null for an untraced request).  SPAWNED is the
parent's time.monotonic() just before it started this process.

Set-up ends when the CLI module is imported and the config is parsed.  The
request is timed from ``viscoshear.cli.main`` entry to its return, and its
CPU time is the process's user + system time (all threads) over that span.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from viscoshear.cli import main as cli_main
    from viscoshear.config import load_config

    load_config(spec["config"])
    ready = time.monotonic()
    result = {"setup_s": ready - float(sys.argv[2])}
    if not spec["setup_only"]:
        request = cli_main
        tracer = None
        if spec["spans"] is not None:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            request = tracer.wrap("cli.main", cli_main)
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        rc = request(spec["argv"])
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            rc=rc,
            wall_s=wall,
            cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            peak_rss_mb=after.ru_maxrss / 1024.0,
        )
        if tracer is not None:
            with open(spec["spans"], "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
