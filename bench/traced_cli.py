"""Run one cohdual CLI request under the tracer.

Usage: python traced_cli.py TRACE_FILE [cohdual arguments...]

Behaves like ``python -m cohdual ARGS`` (same stdout, stderr and exit
code) and writes the request's spans and counters to TRACE_FILE, also when
the request ends in an exception.
"""

import sys

import cohdual.cli

from tracer import Tracer


def main() -> None:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cohdual.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_file)
    sys.exit(code)


if __name__ == "__main__":
    main()
