#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fabric-rpc --seed 1 --seconds 10 --trace 0

The Go program is built into the directory named by CARGO_TARGET_DIR
(default .bench_build at the repository root), with its build cache
there too, so a run reads and writes nothing outside the checkout. The
program's last line of output is the result; see perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def go_binary():
    go = shutil.which("go")
    if go:
        return go
    goroot = os.environ.get("GOROOT")
    if goroot and os.path.exists(os.path.join(goroot, "bin", "go")):
        return os.path.join(goroot, "bin", "go")
    return None


def build():
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out_dir, "gocache"),
        "GOPATH": os.path.join(out_dir, "gopath"),
        "GOMODCACHE": os.path.join(out_dir, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out_dir, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
    })
    go = go_binary()
    if go is None:
        sys.stderr.write("perfbench: no go toolchain on PATH\n")
        return None
    binary = os.path.join(out_dir, "perfbench")
    proc = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + proc.stdout)
        return None
    return binary


def main():
    binary = build()
    if binary is None:
        return 2
    # The program runs in this process's place, so its exit code and its
    # last line of output are the benchmark's.
    os.execv(binary, [binary] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
