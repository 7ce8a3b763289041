"""One traced ``summa`` CLI call: times the import and ``cli.run``, records spans.

Usage: python child.py SPANS_OUT [summa arguments...]

Runs exactly what the ``summa`` entry point runs, with the layer wrappers of
``tracing.Tracer`` installed after the import, and writes the import time, the
``cli.run`` time and the spans to SPANS_OUT as JSON.  Exits with the CLI's
exit code.
"""

import json
import sys
import time

from tracing import CLI_RUN, Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import summa.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    t1 = time.perf_counter()
    idx = tracer.begin(CLI_RUN)
    try:
        code = cli.run(argv)
    finally:
        tracer.end(idx)
        run_s = time.perf_counter() - t1
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "run_s": run_s, "trace": tracer.snapshot()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
