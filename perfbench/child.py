"""
One measured sample in a fresh interpreter.

Reads a job (JSON on stdin), imports idsa_lab, resolves the configs with
``idsa_lab.config.parse_config``, runs each through ``idsa_lab.cli.run``
and prints one JSON line with its timings and resource use.  With
``"trace": true`` it first installs the layer wrappers from
``tracing.py`` and adds its spans and their summary to that line.

    python3 perfbench/child.py < job.json
"""

import json
import resource
import sys
import time


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])

    t0 = time.perf_counter()
    import idsa_lab  # noqa: F401  (the import is what is timed)
    from idsa_lab import cli, config

    t1 = time.perf_counter()
    cfgs = [config.parse_config(text) for text in job["configs"]]
    t2 = time.perf_counter()
    out = {"setup_s": t2 - t0, "parse_s": t2 - t1}

    if not job.get("setup_only"):
        tracer = None
        if job.get("trace"):
            from tracing import Tracer  # perfbench/ is sys.path[0]

            tracer = Tracer()
            tracer.install()

        codes, walls = [], []
        cpu0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        for cfg in cfgs:
            t = time.perf_counter()
            codes.append(cli.run(cfg))
            walls.append(time.perf_counter() - t)
        out["wall_s"] = time.perf_counter() - start
        cpu1 = resource.getrusage(resource.RUSAGE_SELF)
        out["cpu_s"] = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
        out["exit_codes"] = codes
        out["invocation_wall_s"] = walls
        if tracer is not None:
            out["trace"] = tracer.summary()
            out["spans"] = tracer.spans

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
