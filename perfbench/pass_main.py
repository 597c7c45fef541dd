"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/pass_main.py SPEC_JSON

SPEC_JSON holds the CLI argument lists of the pass, the pass directory
holding their generated configs, the spawn time on the monotonic clock,
and whether to trace.  The pass imports vkshell, runs every call in
process, and writes ``pass.json`` (timings, exit codes) and, when
traced, ``trace.json`` into the pass directory.
"""

import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path


def blas_record():
    """Versions, and the thread count each bundled OpenBLAS reports."""
    import numpy as np
    import scipy
    rec = {"numpy": np.__version__, "scipy": scipy.__version__,
           "openblas": np.__config__.CONFIG["Build Dependencies"]["blas"]
           .get("version", "unknown"), "blas_threads": {}}
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), "..",
                              pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    getattr(lib, sym).restype = ctypes.c_int
                    rec["blas_threads"][pkg.__name__] = getattr(lib, sym)()
                    break
    return rec


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import vkshell  # noqa: F401
    from vkshell import cli
    imported = time.monotonic()

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer(spec["pass_id"])
        tracer.install()

    codes = []
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for argv in spec["calls"]:
        if tracer is None:
            codes.append(cli.run(argv))
        else:
            with tracer.span("cli.run:" + argv[0]):
                codes.append(cli.run(argv))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    passdir = Path(spec["passdir"])
    if tracer is not None:
        tracer.dump(passdir / "trace.json")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {"setup_s": imported - spec["spawned"], "wall_s": wall,
              "cpu_s": cpu, "peak_rss_mb": rss_kb / 1024.0, "codes": codes,
              "env": blas_record()}
    (passdir / "pass.json").write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
