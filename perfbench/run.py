#!/usr/bin/env python3
"""Build the LAKE benchmark from this checkout and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Go module in this directory (it builds against the
repository's own sources through a replace directive). Everything the build
writes -- the binary, the Go build cache, the span files of traced runs --
goes under the build directory: $CARGO_TARGET_DIR when set, else
.bench_build at the repository root. All arguments are passed through to the
binary; its exit code is returned.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal")):
        sys.stderr.write("perfbench: the repository sources (go.mod, internal/) are not next to perfbench/\n")
        return 2
    go = shutil.which("go")
    if go is None:
        sys.stderr.write("perfbench: the go toolchain is not on PATH\n")
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        # Keep go's telemetry and env files inside the build directory too.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
