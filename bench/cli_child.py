"""Time a fresh-process import of ``schurcol.cli``.

Usage: python3 cli_child.py SPANS_FILE

The traced ``cli_pipeline`` run starts this once after each traced pass.  It
records the import as the span ``cli.import`` and writes the spans as JSON
to SPANS_FILE, in the form ``tracing.Tracer.merge`` reads.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    tracer = Tracer()
    span = tracer.open("cli.import")
    import schurcol.cli  # noqa: F401

    tracer.close(span)
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
