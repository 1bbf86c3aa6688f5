"""Run the ``repro`` CLI with every layer of :data:`spans.LAYER_MAP` traced.

    PYTHONPATH=src python benchmarks/e2e/serve_traced.py SPANS.json serve ...

Imports the program, wraps its public entry points in memory (plus the
event loop's ``select``, as I/O wait), runs ``repro.__main__.main`` with
the remaining arguments, and writes the recorded spans to ``SPANS.json``
when the CLI returns.  The import itself is recorded as ``setup.import``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import repro.__main__
    import repro.experiments
    import repro.rack  # noqa: F401
    import repro.serve  # noqa: F401

    tracer = spans.Tracer()
    tracer.spans.append((-1, spans.IMPORT, t0, time.perf_counter(), -1, 0))
    tracer.install(spans.LAYER_MAP + (spans.IO_WAIT,))
    tracer.active = True
    try:
        return repro.__main__.main(argv)
    finally:
        tracer.active = False
        tracer.uninstall()
        spans.dump(out, tracer.spans, tracer.windows)


if __name__ == "__main__":
    sys.exit(main())
