#!/usr/bin/env python3
"""Build the benchmark harness from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/harness.exe with dune from the repository that holds this
file, then runs it from that repository's root with the same arguments plus
provenance (commit, when git knows it, and a digest of the library
sources). The harness prints the result as the last line of stdout; this
script exits with the harness's exit code, or non-zero without a result
when the build fails. See perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join(ROOT, "_build", "default", "perfbench", "harness.exe")


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest():
    """MD5 over the library sources, so runs from checkouts without git
    history can still be told apart."""
    h = hashlib.md5()
    lib = os.path.join(ROOT, "lib")
    for dirpath, dirnames, filenames in os.walk(lib):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def main():
    try:
        # no shared dune cache: the build writes only under the checkout
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/harness.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            env=dict(os.environ, DUNE_CACHE="disabled"),
        )
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.exists(HARNESS):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:] + ["--commit", commit(), "--src-digest", src_digest()]
    return subprocess.run([HARNESS] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
