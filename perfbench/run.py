#!/usr/bin/env python3
"""Build and run the gridattack benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig4a_lp118 --seed 1 --seconds 20 --trace 0

The script compiles the benchmark module in perfbench/ against the
repository's sources, keeping every build artifact (Go build cache, module
cache, the binary) under the build directory: $CARGO_TARGET_DIR when set,
else .bench_build at the repository root. It then replaces itself with the
benchmark binary, so the binary's exit code and output are the script's.
Without the repository's sources beside perfbench/ the build fails and the
script exits non-zero without printing a result.
"""

import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_fingerprint():
    """Hash every Go source, module file and case-study input of the repo."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if not (name.endswith(".go") or name in ("go.mod", "go.sum") or name.endswith(".txt") or name.endswith(".json")):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            h.update(b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
            h.update(b"\0")
    return h.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal")):
        sys.stderr.write("perfbench: repository sources not found beside perfbench/\n")
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTELEMETRY": "off",
        "GOENV": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    with open(os.path.join(build, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        proc = subprocess.run(["go", "build", "-trimpath", "-o", binary, "."], cwd=HERE, env=env,
                              stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.stderr.write("perfbench: build failed\n")
            return 2
    env["PERFBENCH_SOURCE"] = source_fingerprint()
    env["PERFBENCH_BUILD"] = build
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
