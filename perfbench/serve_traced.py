"""``repro serve`` with the perfbench wrappers installed.

Usage: ``python perfbench/serve_traced.py [repro serve flags]`` from the
repository root.  It serves exactly like ``python -m repro serve`` and,
after the server's ``bye`` line, writes one line to standard error:
``PERFBENCH-TRACE <json>`` with the tracer's totals for this process.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

TRACE_MARKER = "PERFBENCH-TRACE "


def main() -> int:
    from repro import cli

    import tracing

    tracer = tracing.Tracer()
    tracing.install_service(tracer)
    try:
        code = cli.main(["serve"] + sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stderr.write(TRACE_MARKER + json.dumps(tracer.snapshot()) + "\n")
    sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
