#!/usr/bin/env python3
"""Build and run the ssnbench benchmark from the root of a source checkout.

    python3 ssnbench/run.py --workload serve_closed_form --seed 1 \
        --seconds 10 --trace 0

Configures and builds ssnbench/ (CMake, Release) into
$CARGO_TARGET_DIR/ssnbench, default .bench_build/ssnbench, then runs the
runner with the same arguments. Build output goes to stderr, so the last
line of stdout is the runner's JSON result. Exits non-zero, without a
result, when the build fails (for example when the library sources are
missing).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "ssnbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "ssnbench")


def main():
    root = os.getcwd()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "ssnbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"ssnbench: build failed: {e}", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    args = [binary] + sys.argv[1:] + ["--work-dir", work_dir]
    if "--trace" in sys.argv[1:] and \
            sys.argv[sys.argv.index("--trace") + 1:][:1] == ["1"]:
        args += ["--trace-out", os.path.join(work_dir, "spans.tsv")]
    return subprocess.run(args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
