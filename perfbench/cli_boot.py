"""Traced cold start of the heylab CLI.

usage: cli_boot.py SPANS RUN_ID [heylab arguments...]

Imports heylab.cli (timed as cli.import_s), installs the benchmark's tracer,
runs the CLI entry point with the given arguments, and appends the spans and
aggregates of this process to SPANS before exiting with the CLI's code.
"""

import sys
import time


def main() -> None:
    spans, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import heylab.cli

    import_s = time.perf_counter() - start
    from tracing import Tracer

    tracer = Tracer(run_id)
    tracer.install()
    code = 0
    try:
        heylab.cli.main.main(args=argv, prog_name="heylab")
    except SystemExit as e:
        code = e.code or 0
    finally:
        tracer.dump(spans, {"import_s": import_s})
    sys.exit(code)


if __name__ == "__main__":
    main()
