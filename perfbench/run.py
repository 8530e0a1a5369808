#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The Go program in perfbench/ is compiled from source into .bench_build/ at
the repository root. The Go build cache, configuration and temporary files
live there too, so nothing is written outside the checkout. The program is
rebuilt only when a Go source or module file changes. The arguments are
passed to it unchanged; its last line of output is the JSON result. See
perfbench/RATIONALE.md for the workloads and metrics.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
STAMP = BINARY + ".stamp"
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def find_go():
    go = shutil.which("go")
    if go is None and os.access("/usr/local/go/bin/go", os.X_OK):
        go = "/usr/local/go/bin/go"  # the Go distribution's default install
    if go is None:
        fail("no Go toolchain on PATH")
    return go


def go_env():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
    })
    return env


def source_hash(go, env):
    """Hash the Go toolchain version and every Go source and module file."""
    h = hashlib.sha256()
    version = subprocess.run([go, "version"], env=env, capture_output=True,
                             text=True, timeout=60)
    h.update(version.stdout.encode())
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("the repository's go.mod is missing; run from a full checkout")
    go = find_go()
    env = go_env()
    digest = source_hash(go, env)
    if os.path.isfile(BINARY) and os.path.isfile(STAMP):
        with open(STAMP) as f:
            if f.read() == digest:
                return
    try:
        res = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=env,
                             timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0:
        fail("build failed")
    with open(STAMP, "w") as f:
        f.write(digest)


def main():
    build()
    try:
        res = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
