#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test     # the benchmark's own unit tests

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
set, else .bench_build, under the root. The last line of stdout is the
benchmark's JSON result; build output goes to stderr. The exit code is
non-zero when the build fails, when a correctness check fails, or when the
result does not carry exactly the metrics BENCHMARK.json names.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir() -> pathlib.Path:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = pathlib.Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(target: str) -> pathlib.Path:
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j4", "--target", target])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return out / target


def source_id() -> str:
    """The git commit when run from a git checkout, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False).stdout.strip()
        if sha:
            return sha
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "none;src-sha256=" + digest.hexdigest()[:16]


def expected_metrics(trace: bool):
    """(name, unit) pairs the result must carry, from BENCHMARK.json."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return subprocess.run([str(build("perfbench_tests"))],
                              timeout=RUN_TIMEOUT_S, check=False).returncode
    if not args.workload:
        parser.error("--workload is required")

    binary = build("perfbench")
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--git-sha", source_id()]
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--spans-out",
                    str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        sys.exit(f"perfbench: no result line (exit {done.returncode})")

    expected = expected_metrics(bool(args.trace))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if expected is not None and got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit(f"perfbench: result metrics {sorted(got.items())} do not "
                 f"match BENCHMARK.json {sorted(expected.items())}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
