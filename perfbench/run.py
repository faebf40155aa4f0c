#!/usr/bin/env python3
"""Build the perfbench binary from source and run it with the given arguments.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 25 --trace 0

The Go build cache, module cache and binary live in .bench_build/ at the
repository root, so nothing is read from or written to the user's Go
directories. The exit code is the benchmark's; a failed build exits 1.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build")


def main():
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOFLAGS="", GOWORK="off", GOENV="off", GOTOOLCHAIN="local",
               GOPROXY="off", CGO_ENABLED="0")
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        sys.exit(1)
    sys.exit(subprocess.run([binary] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
