"""Run one iforest-dpg CLI job in this fresh interpreter and record it.

    python3 bench/job.py SPEC.json

SPEC holds `argv` (the CLI arguments; an empty list only imports the
package), `trace` (record spans) and `result` (where to write the record).
The record holds the import time, the wall and CPU time of `cli.main(argv)`
after import, its exit code and captured output, the process's peak RSS and,
when traced, the spans. The checkout's `src` must be on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    t0 = time.perf_counter()
    import iforest_dpg.cli as cli

    record = {"import_s": time.perf_counter() - t0, "package": cli.__file__}
    if spec["argv"]:
        tracer = tracing.Tracer()
        run = cli.main
        if spec["trace"]:
            record["absent"] = tracing.install(tracer)
            run = tracer.wrap(cli.main)
        out, err = io.StringIO(), io.StringIO()
        cpu0 = _cpu_s()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t1 = time.perf_counter()
            try:
                code = run(spec["argv"])
            except Exception:  # an escaped traceback is a failed job, not a crash
                traceback.print_exc()
                code = -1
            job_s = time.perf_counter() - t1
        record.update(
            job_s=job_s,
            cpu_s=_cpu_s() - cpu0,
            exit_code=code,
            stdout=out.getvalue(),
            stderr=err.getvalue(),
            spans=tracer.spans,
            counts=tracer.counts,
        )
    import numpy

    record["numpy"] = numpy.__version__
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
