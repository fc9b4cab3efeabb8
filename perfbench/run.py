#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ingest|query|paper_sim \
        --seed N --seconds S --trace 0|1

Builds `perfbench` (a Cargo package of its own, depending on the
repository's crates by path) offline into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root), then runs it from the root with
the same arguments. The binary's last stdout line is the JSON result;
build output goes to stderr. Exits non-zero, printing no result, when
the build or the run fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def source_revision():
    """Git revision when available, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("crates", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".rs", ".toml"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    os.chdir(ROOT)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(pathlib.Path("perfbench") / "Cargo.toml")]
    try:
        built = subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_REVISION"] = source_revision()
    env["PERFBENCH_RUSTC"] = rustc_version()
    exe = pathlib.Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"
    try:
        return subprocess.run([str(exe)] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run did not finish: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
