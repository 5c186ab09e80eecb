"""Runs `vitalink serve` with the benchmark's span wrappers installed and
writes the spans to a file once the server has shut down on SIGTERM.

    PYTHONPATH=src python3 bench/traced_serve.py SPANS_FILE <serve arguments>
"""

import sys

import vitalink.cli
from tracing import Tracer, install


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = vitalink.cli.main(serve_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
