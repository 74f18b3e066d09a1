"""`e0struct` with the per-layer tracer installed:
`python3 perfbench/cli_traced.py DUMP.json SUBCOMMAND ARGS...` runs the
subcommand as `python -m e0struct.cli` would and writes the tracer's
numbers to DUMP.json when the command exits."""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main():
    dump, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from e0struct import cli
    try:
        cli.main(argv, prog_name="e0struct")
    finally:
        dump.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    main()
