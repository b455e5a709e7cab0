"""Run the thermoshift CLI under the benchmark's tracing wrappers.

    python3 perfbench/cli_shim.py --t0 T --stats PATH -- COMMAND ARGS...

``T`` is the parent's ``time.monotonic()`` just before it started this
process; the time from then to the entry of ``cli.main`` is recorded as
the startup time.  The spans and the startup time are written to PATH
as JSON when the command ends; the CLI's own output is left untouched.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    split = sys.argv.index("--")
    opts, cli_args = sys.argv[1:split], sys.argv[split + 1:]
    t0 = float(opts[opts.index("--t0") + 1])
    stats_path = Path(opts[opts.index("--stats") + 1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import thermoshift.cli
    from tracing import Tracer

    startup = time.monotonic() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return thermoshift.cli.main(cli_args)
    finally:
        stats_path.write_text(json.dumps({"startup_s": startup,
                                          "spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main())
