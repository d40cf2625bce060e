#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload dia-iter --seed 1 --seconds 20 --trace 0

Builds perfbench/perfbench.exe with dune (the first run in a fresh
checkout compiles the libraries it links), then runs it with the given
arguments plus the checkout's root, a scratch directory (_perfbench/) and
the source revision.  The benchmark's standard output passes through
unchanged: its last line is the JSON result.  Exits non-zero without a
result when the checkout lacks the sources the benchmark builds from.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
NEEDED = ["dune-project", "lib", "examples/instances", "perfbench/dune"]
SOURCE_DIRS = ["lib", "bin", "perfbench"]


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.exists(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ["dune-project"] + SOURCE_DIRS:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
            if f == "dune" or f.endswith((".ml", ".mli", ".py")))
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def main():
    os.chdir(ROOT)
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        fail("not a source checkout, missing: " + ", ".join(missing), 2)
    env = dict(os.environ)
    env.pop("QBF_SESSION_DEBUG", None)  # validation mode slows sessions
    try:
        build = subprocess.run(
            # no shared dune cache: the build writes only inside the checkout
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=840,
        )
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e, 3)
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode, 3)
    cmd = [EXE] + sys.argv[1:] + [
        "--root", ".", "--work", "_perfbench", "--commit", revision()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
