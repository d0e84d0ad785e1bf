"""Run one twistnorm command with the benchmark's span recorder installed.

    python perfbench/traced_cli.py SPANS_FILE <twistnorm arguments>

Times the import of ``twistnorm.cli``, wraps the package (see spans.py),
runs ``twistnorm.cli.main`` on the arguments, writes the spans and their
summary to SPANS_FILE and exits with the command's exit code.
"""

import importlib
import sys

import spans


def main() -> int:
    rec = spans.Recorder()
    cli = rec.call("cli.import", "cli.import_s", importlib.import_module,
                   None, ("twistnorm.cli",), {})
    spans.install(rec)
    try:
        return rec.call("cli.main", "cli.main_s", cli.main, None,
                        (sys.argv[2:],), {})
    finally:
        rec.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
