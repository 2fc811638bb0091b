"""Run one tomoflow CLI command in this fresh interpreter and report on it.

    python3 cli_child.py <src dir> <trace 0|1> <command> [arguments...]

The command runs through `tomoflow.cli.main(argv)`.  With trace 1 the
import of `tomoflow.cli` and the command are spans, and the layer
wrappers are installed between the two.  The last line of standard
output is `PERFBENCH_CHILD {json}` with the exit code, the peak resident
memory of this process and, when traced, its spans and counters.
"""

from __future__ import annotations

import json
import resource
import sys

MARKER = "PERFBENCH_CHILD "


def main() -> None:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    report = {}
    if trace:
        from tracing import Tracer, install

        tracer = Tracer("cli-pipeline")
        tracer.pass_index = 0
        with tracer.span("cli.import"):
            import tomoflow.cli
        install(tracer)
        with tracer.span("cli." + argv[0]):
            code = tomoflow.cli.main(argv)
        report = {"spans": tracer.spans, "counts": tracer.counts.get(0, {})}
    else:
        import tomoflow.cli

        code = tomoflow.cli.main(argv)
    report["code"] = code
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(MARKER + json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
