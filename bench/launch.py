"""Run one `trapscope` CLI command the way the console script does, plus marks.

Usage: python3 bench/launch.py MARKS_JSON TRACE -- <trapscope arguments>

The process imports trapscope (from PYTHONPATH), runs `trapscope.cli.main`
with the given arguments and exits with its code, exactly like the installed
`trapscope` entry point.  It also writes MARKS_JSON with CLOCK_MONOTONIC
timestamps (comparable across processes on Linux):

  main_start  when `cli.main` was called;
  built       when `cli.build_problem` returned (end of set-up);
  main_end    when `cli.main` returned.

With TRACE=1 it additionally rebinds the names the program's own modules
look up, so every call through them records a span (name, start, end,
parent, thread) in memory; the spans go into MARKS_JSON after `main`
returns.  Parent stacks are per thread.  A span opened on a pool thread with
an empty stack takes as parent the innermost open span of the main thread,
which is the span that is waiting for the pool.  src/ is never modified.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time


class Tracer:
    """In-memory span recorder.  A span is [id, name, start, end, parent, thread, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def open(self, name: str) -> list:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main_stack = self._stacks.get(self._main)
            parent = main_stack[-1] if tid != self._main and main_stack else None
        span = [next(self._ids), name, time.perf_counter(), None, parent, tid, None]
        self.spans.append(span)
        stack.append(span[0])
        return span

    def close(self, span: list):
        span[3] = time.perf_counter()
        self._stacks[span[5]].pop()

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if note is not None:
                span[6] = note(args, result)
            return result

        return traced


def install_tracing(tracer: Tracer):
    from trapscope import cli, dynamics, landscape

    def segments(args, _result):
        return {"segments": args[1].segments}

    wrapped = {
        "dynamics.propagate": (segments, [landscape, cli]),
        "dynamics.objective": (None, [landscape, cli]),
        "dynamics.dyson_forms": (lambda a, r: {"substeps": r.substeps}, [landscape]),
        "landscape.taylor_fit": (lambda a, r: {"accepted": r.accepted}, [landscape]),
        "landscape.witness_search": (
            lambda a, r: {"evaluations": r.evaluations, "success": r.success},
            [landscape],
        ),
        "landscape.lie_rank": (
            lambda a, r: {"dimension": r.dimension, "depth_reached": r.depth_reached},
            [landscape],
        ),
        "landscape.differential": (None, [landscape]),
        "landscape.trap_certificate": (None, [cli]),
        "cli.parse_config": (None, [cli]),
        "numerics.unitarity_defect": (None, [dynamics]),
    }
    for name, (note, callers) in wrapped.items():
        attr = name.rsplit(".", 1)[1]
        for module in callers:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), note))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: launch.py MARKS_JSON TRACE -- <trapscope arguments>", file=sys.stderr)
        return 1
    marks_path, traced, cli_args = argv[0], argv[1] == "1", argv[3:]

    from trapscope import cli

    marks: dict = {"trapscope_file": sys.modules["trapscope"].__file__}
    build_problem = cli.build_problem

    def marked_build_problem(cfg):
        inst = build_problem(cfg)
        marks["built"] = time.monotonic()
        return inst

    cli.build_problem = marked_build_problem
    tracer = None
    if traced:
        tracer = Tracer()
        install_tracing(tracer)
        root = tracer.open("cli")
    marks["main_start"] = time.monotonic()
    try:
        code = cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.close(root)
        marks["main_end"] = time.monotonic()
    if tracer is not None:
        marks["spans"] = tracer.spans
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
