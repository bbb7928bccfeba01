"""Run one nlosc CLI command in this fresh process with layer tracing on.

Usage: python3 perfbench/cli_child.py SPANS_FILE <nlosc arguments>

The command writes its output to stdout and its exit code is this process's
exit code, as with the ``nlosc`` console script; the spans, including one
``cli.run`` span tagged with the subcommand, go to SPANS_FILE as JSON.
``src`` must be on PYTHONPATH.
"""

import json
import sys

import nlosc.cli
from tracing import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = nlosc.cli.run(argv)
    finally:
        tracer.uninstall()
    for span in tracer.spans:
        if span["name"] == "cli.run":
            span["subcommand"] = argv[0]
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
