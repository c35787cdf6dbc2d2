"""One traced CLI invocation in a fresh interpreter.

Usage: python bench/traced_cli.py SPANFILE ARG...

Imports ``amaflow.cli`` (timed), wraps the package's public functions in
spans, calls ``amaflow.cli.main(ARG...)`` and writes the spans and their
totals to SPANFILE. Exits with the CLI's exit code.
"""

import sys
import time

t0 = time.perf_counter()
import amaflow.cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracer as tracing  # noqa: E402


def main() -> int:
    spanfile, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        rc = amaflow.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spanfile, {"cli_import_s": import_s})
    return rc


if __name__ == "__main__":
    sys.exit(main())
