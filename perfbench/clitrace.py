"""Run one qps command in this process with layer spans, for the cli-cold replay.

Usage: python perfbench/clitrace.py OUT.json QPS-ARGS...

Stdout and the exit code are those of ``qps`` itself.  OUT.json receives the
import time of ``qps.cli``, per-span totals and counters; the spans
themselves go to OUT.json with the suffix ``.spans.jsonl``.
"""

import json
import sys
import time

t0 = time.perf_counter()
import qps.cli  # noqa: E402

import_s = time.perf_counter() - t0

import spans  # noqa: E402

out = sys.argv[1]
tracer = spans.Tracer()
tracer.op = out.rsplit("/", 1)[-1]
tracer.install()
rc = tracer.call("cli.run", qps.cli.run, sys.argv[2:])
sys.stdout.flush()
tracer.uninstall()
tracer.dump(out + ".spans.jsonl")
with open(out, "w", encoding="ascii") as fh:
    json.dump({"import_s": import_s, **tracer.summary()}, fh)
sys.exit(rc)
