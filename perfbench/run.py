#!/usr/bin/env python3
"""Build and run phasetune's benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sweep|tune|fleet --seed N \
        --seconds S --trace 0|1

The Go module in perfbench/ builds against the repository one directory
up. Build cache, temporary files, the binary and every output stay under
.bench_build/ in the checkout; the toolchain is told never to download.
Arguments are passed to the benchmark unchanged; its exit code is
returned.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
    )
    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
