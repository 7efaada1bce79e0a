"""The campaign service process of the ``service-now`` workload.

Runs ``gemfi serve DATA_DIR --port 0`` itself, through ``repro.cli``,
so the benchmark measures the service as it ships.  The service prints
its URL on standard error (``# gemfi service on http://...``); SIGTERM
stops it.  With ``--trace 1`` the benchmark's span wrappers are
installed first, so forked NoW workers inherit them, and the spans are
written to ``--out`` on exit.

    python3 perfbench/service_host.py --data-dir DIR --out DIR --trace 0
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import use_program_sources  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--run-id", default="service")
    args = parser.parse_args(argv)
    use_program_sources()
    from repro.cli import main as gemfi

    recorder = installation = None
    if args.trace:
        import tracing
        recorder = tracing.SpanRecorder(args.run_id, args.out)
        installation = tracing.install(recorder)
    # `gemfi serve` stops its dispatcher and HTTP server on Ctrl-C.
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return gemfi(["serve", args.data_dir, "--port", "0"])
    except KeyboardInterrupt:
        return 0
    finally:
        if installation is not None:
            installation.remove()
            recorder.dump("service")


if __name__ == "__main__":
    sys.exit(main())
