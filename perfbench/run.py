#!/usr/bin/env python3
"""Build and run the repository benchmark (described in BENCHMARK.json).

Usage, from the repository root:

    python3 perfbench/run.py --workload lbl_write --seed 1 --seconds 30 --trace 0

The first call configures and compiles the library sources under src/ and the
`pncperf` program into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls rebuild incrementally. Build output goes
to stderr, so the last line of stdout is pncperf's JSON result. Per-run
artefacts (samples, spans) are written under the same build directory.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(build_root, "perfbench"))
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build, "--target", "pncperf",
                    "-j", jobs], stdout=sys.stderr, env=env, check=True)

    out_dir = os.path.join(build, "runs")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "pncperf"), *sys.argv[1:],
                           "--out-dir", out_dir]).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build step failed ({e})", file=sys.stderr)
        sys.exit(2)
