"""Traced stand-in for the ``bwrum`` command.

Usage: python3 perfbench/cli_shim.py SPANS_JSON ARG...

Installs the span wrappers, runs ``bwrum.cli.main(ARG...)``, writes the
recorded spans to SPANS_JSON and exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys

from checkout import import_bwrum
from spans import Tracer


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    import_bwrum()
    import bwrum.cli

    tracer = Tracer()
    tracer.install()
    try:
        bwrum.cli.main(args)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
