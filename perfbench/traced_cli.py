"""Run one qfisher CLI command under the tracer and write its trace as JSON.

    python perfbench/traced_cli.py TRACE_JSON SUBCOMMAND [ARGS...]

Behaves like ``python -m qfisher.cli SUBCOMMAND [ARGS...]`` (same output,
same exit code).  The trace adds the import time of ``qfisher.cli``, the
time spent in ``main`` and the normalization cache counters.
"""

import json
import sys
import time
from pathlib import Path

from tracer import Tracer


def main() -> int:
    trace_path, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    import qfisher.cli
    import_s = time.perf_counter() - t0
    from qfisher import qgaussian

    tracer = Tracer()
    with tracer.installed():
        t1 = time.perf_counter()
        code = qfisher.cli.main(argv)
        run_s = time.perf_counter() - t1
    cache = qgaussian.normalization.cache_info()
    record = tracer.to_dict()
    record.update(import_s=import_s, run_s=run_s,
                  cache_hits=cache.hits, cache_misses=cache.misses)
    trace_path.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
