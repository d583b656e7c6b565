"""Run one ``cploss`` command and record when its import and its run began and ended.

Traced cli-cold runs start this script in place of ``python -m cploss``:

    python3 bench/clichild.py RECORD_FILE SUBCOMMAND [ARGS...]

It writes ``{"import": [start, end], "run": [start, end]}`` in
``time.perf_counter`` seconds (a clock shared by all processes on Linux) to
RECORD_FILE and exits with the command's own exit code.
"""

import json
import sys
import time


def main() -> None:
    record_path = sys.argv[1]
    t0 = time.perf_counter()
    from cploss.cli import main as cli_main
    t1 = time.perf_counter()
    code = 0
    try:
        cli_main.main(args=sys.argv[2:], prog_name="cploss")
    except SystemExit as exc:
        code = exc.code
    t2 = time.perf_counter()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"import": [t0, t1], "run": [t1, t2]}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
