"""The traced form of a ``paper-cli`` op: ``fcdpm`` with the tracer in it.

``python -m benchmarks.e2e.cli_shim <fcdpm args>`` imports ``repro.cli``,
patches the layers, runs ``repro.cli.main`` with its standard output
captured, and prints one JSON line: the captured output, the spans (all
of op 0) and the slot-solver memo counters.  It exits with the CLI's
exit code.  The untraced op runs ``python -m repro.cli`` itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from .tracing import Tracer


def main(argv: list[str]) -> int:
    import repro.cli
    from repro.runtime.memo import solver_cache_stats

    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    tracer.op = 0
    with contextlib.redirect_stdout(captured):
        rc = repro.cli.main(argv)
    tracer.op = None
    stats = solver_cache_stats()
    print(
        json.dumps(
            {
                "stdout": captured.getvalue(),
                "spans": tracer.spans,
                "memo": [stats.hits, stats.misses],
            }
        )
    )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
