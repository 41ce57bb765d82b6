"""Run one ``dpls-iv`` command the way ``python -m dpls_iv.cli`` does.

    python3 perfbench/cli_launch.py [--trace-out FILE --spawned T] -- <command> [args]

Untraced, it imports the package's CLI and calls its ``main``. Traced, it
also installs the span wrappers first, records a ``cli.startup`` span from
``T`` (the parent's ``time.perf_counter()`` just before it spawned this
process) to the entry of ``main``, a ``cli.<command>`` span around ``main``,
and writes the spans to FILE.
"""
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))


def _traced(out_path: str, spawned: float, argv: list[str]) -> int:
    import tracing
    from dpls_iv import cli

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    entered = tracing.now()
    tracer.add_closed("cli.startup", spawned, entered)
    idx = tracer.open(f"cli.{argv[0]}", entered)
    try:
        code = cli.main(argv)
    finally:
        tracer.close(idx)
        tracing.uninstall(patches)
    tracer.dump(out_path)
    return code


def main(args: list[str]) -> int:
    split = args.index("--")
    options, argv = args[:split], args[split + 1:]
    if options:
        opts = dict(zip(options[::2], options[1::2]))
        return _traced(opts["--trace-out"], float(opts["--spawned"]), argv)
    from dpls_iv.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
