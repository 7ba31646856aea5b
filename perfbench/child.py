"""Fresh-interpreter entry points of the benchmark.

python3 perfbench/child.py setup
    Imports starsym, runs the benchmark's set-up and prints 'ready';
    the parent times the interval from spawning it to that line.
python3 perfbench/child.py cli TRACE_PATH ARGS...
    Runs `starsym ARGS...` with spans recorded around starsym's public
    functions and writes them to TRACE_PATH; exits with the CLI's code.

Both expect PYTHONPATH to point at the checkout's src directory.
"""

import sys
import time

# gen.DIMS, repeated so that a set-up child imports nothing but starsym
DIMS = (2, 3, 4, 5, 6)


def warmup_body(S, n):
    return S.body_shifted_ball(n, 1.0, [0.3] + [0.1] * (n - 1))


def setup(S):
    """Rules for every dimension and one untimed warm-up detect per
    dimension, which fills the calibrate cache on the key detect uses."""
    for n in DIMS:
        S.equator_rule(n)
    for n in DIMS:
        S.detect(warmup_body(S, n))


def main(argv):
    if argv[:1] == ["setup"]:
        import starsym
        setup(starsym)
        print("ready", flush=True)
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 3:
        from tracing import Tracer
        start = time.perf_counter()
        import starsym.cli as cli
        tracer = Tracer()
        tracer.counts["cli.import_s"] = time.perf_counter() - start
        tracer.counts["processes"] = 1
        tracer.op = 0
        tracer.install(cli=cli)
        try:
            code = cli.main(argv[2:])
        finally:
            tracer.uninstall()
            tracer.dump(argv[1])
        return code
    print("usage: child.py setup | child.py cli TRACE_PATH ARGS...", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
