"""Run the mtcat CLI under the span tracer and write its spans to a file.

Usage: ``PYTHONPATH=src python perfbench/cli_child.py SPANS_OUT verify FILE --json``.
Behaves like ``python -m mtcat.cli verify FILE --json`` (same stdout, same
exit code); the spans of the ``cli.main`` call go to SPANS_OUT as JSON.
"""

import json
import sys

import mtcat.cli

from spans import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = mtcat.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
