"""``relaykit serve`` with span wrappers installed, for the traced benchmark run.

Usage: python3 perfbench/traced_serve.py serve --addr 127.0.0.1:0

Wraps the public wire, transport and server calls, then hands the arguments
to the relaykit CLI unchanged.  When the relay stops (SIGINT), prints one
``trace=<json>`` line with the per-layer summary.
"""

import json
import sys

from relaykit import cli
from tracing import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install_relay()
    status = cli.main(sys.argv[1:])
    print("trace=" + json.dumps(tracer.summarise_relay()), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
