"""Run one `compstruct` command with layer spans, for the traced cli workload.

Usage: python3 perfbench/cli_child.py SUMMARY_JSON <compstruct arguments...>

Writes the per-layer self times of the command to SUMMARY_JSON and exits
with the command's exit code.  Import time falls outside every span.
"""

import json
import sys
from pathlib import Path

import tracing


def main():
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    import compstruct.cli

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        code = compstruct.cli.main(argv)
    finally:
        tracing.uninstall(undo)
        sys.stdout.flush()
        spans, counts = tracer.take()
        summary = tracing.summarize(spans)
        summary["counts"] = counts
        out.write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
