#!/usr/bin/env python3
"""End-to-end audit and serving benchmark of the DivExplorer library.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selfcheck [--seed N]

Builds perfbench/ (the library sources under src/ plus the benchmark
binary) into .bench_build/perfbench, generates the workload's inputs
from the seed (SETUP_REPEATS fresh set-ups, timed; they must agree byte
for byte), then runs the workload closed-loop for S seconds, checking
every output. The report goes to standard output; its last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}, with every
end-to-end metric (--trace 0) or every per-layer metric (--trace 1) of
layers.json, each with its unit. Per-layer metrics of a layer a workload
does not run read 0. The exit code is 1 when a check failed.

--selfcheck proves the checks bite: a wrong expected fingerprint
(audit-sharded) and a wrong reference answer (serve-mix) must each make
the measured run fail, while the untouched inputs pass.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
# Compiler and library temporaries stay inside the checkout too.
TMP = ROOT / ".bench_build" / "tmp"
SETUP_REPEATS = 3
# Set-up and the measured run are pinned to two CPUs. On a shared VM,
# cross-CPU wake-ups and migrations made run-to-run spread several
# times larger than within-run spread; two CPUs still hold audit-sharded's
# two concurrent workers and serve-mix's client/server pairs.
CPUS = 2
# Set-up and measurement must end within 170 s of the build; a rebuild
# of an unchanged tree takes a second or two, and the first run in a
# fresh checkout, which compiles everything, has 900 s.
DEADLINE_S = 170.0


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_child(cmd, cwd, timeout, stdout=subprocess.PIPE):
    """Runs cmd in its own process group; on timeout kills the whole
    group (shard workers included) and waits for it."""
    TMP.mkdir(parents=True, exist_ok=True)
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout,
                            env=dict(os.environ, TMPDIR=str(TMP)),
                            stderr=subprocess.STDOUT if stdout != subprocess.PIPE
                            else None,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("timed out: " + " ".join(cmd))
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("library sources not found under " + str(ROOT / "src"))
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "--target", "perfbench",
              "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(BUILD / "build.log", "w") as log:
        for cmd in steps:
            code, _ = run_child(cmd, ROOT, 840, stdout=log)
            if code != 0:
                log.flush()
                tail = (BUILD / "build.log").read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die("build failed (see " + str(BUILD / "build.log") + ")")
    return str(BUILD / "perfbench")


def last_json(text, what):
    lines = [l for l in (text or "").splitlines() if l.strip()]
    if not lines:
        die(what + " printed nothing")
    try:
        return lines[:-1], json.loads(lines[-1])
    except ValueError:
        die(what + " ended without a result line: " + lines[-1][:200])


def setup(exe, workload, seed, work, deadline):
    """Fresh set-ups of the workload; returns (times, consistent)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        code, out = run_child([exe, "setup", "--workload", workload,
                               "--seed", str(seed), "--dir", "."],
                              work, deadline - time.monotonic())
        if code != 0:
            die("set-up of " + workload + " failed")
        _, rec = last_json(out, "set-up")
        times.append(rec["setup_s"])
        digests.add(rec["digest"])
    return times, len(digests) == 1


def measure(exe, workload, seed, seconds, trace, work, deadline):
    code, out = run_child([exe, "measure", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace), "--dir", "."],
                          work, deadline - time.monotonic())
    report, rec = last_json(out, "measured run")
    return code, report, rec


def pin_cpus():
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, allowed[:CPUS])


def benchmark(args, layers):
    exe = build()
    deadline = time.monotonic() + DEADLINE_S
    pin_cpus()
    work = WORK / args.workload
    setup_times, consistent = setup(exe, args.workload, args.seed, work,
                                    deadline)
    code, report, rec = measure(exe, args.workload, args.seed, args.seconds,
                                args.trace, work, deadline)
    for line in report:
        print(line)
    print("set-up: %s s (median of %d)" %
          (", ".join("%.3f" % t for t in setup_times), len(setup_times)))

    values = dict(rec["values"])
    values["setup_s"] = statistics.median(setup_times)
    correct = bool(rec["correct"]) and code == 0
    failed = int(rec["failed"])
    if not consistent:
        print("check failed: repeated set-ups produced different inputs",
              file=sys.stderr)
        correct = False
        failed += 1
    section = layers["per_layer"] if args.trace else layers["end_to_end"]
    metrics = {}
    for name, spec in section.items():
        if name in values:
            value = values[name]
        elif args.trace and args.workload not in spec["workloads"]:
            value = 0.0  # the layer is not on this workload's path
        else:
            die("the measured run did not report " + name)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    print(json.dumps({"correct": correct, "attempted": int(rec["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def selfcheck(args):
    """Tampered expectations must fail the measured run."""
    exe = build()
    deadline = time.monotonic() + 4 * DEADLINE_S
    pin_cpus()

    def tamper_fingerprint(work):
        path = work / "expect.txt"
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("fingerprint="):
                digit = line[-1]
                lines[i] = line[:-1] + ("0" if digit != "0" else "1")
        path.write_text("\n".join(lines) + "\n")

    def tamper_reference(work):
        path = work / "reference.txt"
        lines = path.read_text().splitlines()
        # Changes one digit of the first referenced answer; a run sends
        # the stream from position 0, so it reaches that position early.
        index, response = lines[0].split("\t", 1)
        at = next(i for i, c in enumerate(response) if c.isdigit())
        digit = "1" if response[at] != "1" else "2"
        lines[0] = index + "\t" + response[:at] + digit + response[at + 1:]
        path.write_text("\n".join(lines) + "\n")

    ok = True
    for workload, tamper, what in (
            ("audit-sharded", tamper_fingerprint, "wrong expected fingerprint"),
            ("serve-mix", tamper_reference, "wrong reference answer")):
        work = WORK / ("selfcheck-" + workload)
        setup(exe, workload, args.seed, work, deadline)
        code, _, rec = measure(exe, workload, args.seed, 1, 0, work, deadline)
        clean = code == 0 and rec["correct"] and rec["failed"] == 0
        tamper(work)
        code, _, rec = measure(exe, workload, args.seed, 1, 0, work, deadline)
        caught = code != 0 and not rec["correct"] and rec["failed"] > 0
        print("selfcheck %s: untouched inputs %s; %s %s" %
              (workload, "pass" if clean else "FAIL", what,
               "is caught" if caught else "is NOT caught"))
        ok = ok and clean and caught
    print("selfcheck: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    layers = json.loads((HERE / "layers.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(layers["workloads"]))
    parser.add_argument("--seed", type=int, default=layers["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return benchmark(args, layers)


if __name__ == "__main__":
    sys.exit(main())
