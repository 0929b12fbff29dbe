"""Run one qfisher CLI command with the calibration sampler running, and
write the samples as JSON.

    python perfbench/sampled_cli.py SAMPLES_JSON SUBCOMMAND [ARGS...]

Behaves like ``python -m qfisher.cli SUBCOMMAND [ARGS...]`` (same output,
same exit code).  The record holds the sample times and ``spent``, the
wall time the process spent sampling, which the caller subtracts from the
command's wall time.
"""

import json
import sys
from pathlib import Path

from calibrate import sampler


def main() -> int:
    samples_path, argv = Path(sys.argv[1]), sys.argv[2:]
    s = sampler()
    with s.running():
        import qfisher.cli

        code = qfisher.cli.main(argv)
    samples_path.write_text(json.dumps({"samples": s.samples, "spent": s.spent}))
    return code


if __name__ == "__main__":
    sys.exit(main())
