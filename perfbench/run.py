#!/usr/bin/env python3
"""Pipeline benchmark: builds the program with the harness, runs one workload
in a fresh JVM and prints the result as the last line of standard output.

    python3 perfbench/run.py --workload social --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout. The build goes to perfbench/target and is
redone when any source of the program or the harness changes. With --trace 0
set-up is measured in the workload's own JVM and in SETUP_PROBES more JVMs
that only set up, and the median is reported as setup_s.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
TARGET = os.path.join(BENCH, "target")
SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(ROOT, "jobs"),
           os.path.join(BENCH, "src", "main"), os.path.join(BENCH, "build.sbt"),
           os.path.join(BENCH, "project", "build.properties")]
WORKLOADS = ("social", "sweep", "score-large")
SETUP_PROBES = 1
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# A fixed-size ParallelGC heap: its young generation is touched in full early,
# so the peak resident set follows the program's live data rather than when
# the collector chose to grow the heap.
JAVA_OPTS = ["-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-XX:-UsePerfData"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_stamp():
    h = hashlib.sha256()
    for src in SOURCES:
        paths = [src] if os.path.isfile(src) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(src) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"perfbench: {cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build():
    classpath = os.path.join(TARGET, "classpath.txt")
    stamp_file = os.path.join(TARGET, "source.stamp")
    stamp = source_stamp()
    if os.path.exists(classpath) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                return classpath
    log("building")
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    spark_submit = shutil.which("spark-submit")
    if "SPARK_HOME" not in env and spark_submit:
        env["SPARK_HOME"] = os.path.dirname(os.path.dirname(os.path.realpath(spark_submit)))
    # Without network the build resolves only from the local caches, through
    # the same repository settings the repository's own test command uses.
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = (f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} "
                           "-Dsbt.offline=true")
    env["SBT_OPTS"] = " ".join([env.get("SBT_OPTS", ""), f"-Djava.io.tmpdir={tmp}", f"-Djna.tmpdir={tmp}",
                                f"-Dsbt.global.base={os.path.join(TARGET, 'sbt-global')}"]).strip()
    # Also covers the launcher's own `java -version` probe.
    env["JAVA_TOOL_OPTIONS"] = " ".join([env.get("JAVA_TOOL_OPTIONS", ""), "-XX:-UsePerfData"]).strip()
    with open(os.path.join(TARGET, "build.log"), "w") as out:
        code, _ = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "writeClasspath"],
                            BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=out, stderr=subprocess.STDOUT,
                            stdin=subprocess.DEVNULL)
    if code != 0:
        with open(os.path.join(TARGET, "build.log")) as f:
            sys.stderr.write(f.read()[-4000:])
        raise SystemExit(f"perfbench: build failed (exit {code})")
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return classpath


def java(classpath, args, tag):
    with open(classpath) as f:
        cp = ":".join(line.strip() for line in f if line.strip())
    tmp = os.path.join(TARGET, "tmp")
    local = os.path.join(TARGET, "spark-local")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=local, TMPDIR=tmp)
    err_path = os.path.join(TARGET, f"{tag}.stderr.log")
    with open(err_path, "w") as err:
        code, out = run_group(["java", *JAVA_OPTS, f"-Djava.io.tmpdir={tmp}", "-cp", cp,
                               "perfbench.Main", *args], RUN_TIMEOUT_S, env=env,
                              stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL, text=True)
    if code != 0:
        with open(err_path) as f:
            sys.stderr.write(f.read()[-4000:])
        raise SystemExit(f"perfbench: {tag} exited with {code}")
    return out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    for required in SOURCES[:2]:
        if not os.path.isdir(required):
            raise SystemExit(f"perfbench: {os.path.relpath(required, ROOT)} not found; "
                             "run from the root of a checkout of the program")
    classpath = build()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    lines = java(classpath, args, f"{a.workload}-{a.seed}-trace{a.trace}")
    result = json.loads(lines[-1])
    if a.trace == 0:
        setups = [result["metrics"]["setup_s"]["value"]]
        for i in range(SETUP_PROBES):
            probe = java(classpath, ["--setup-only"], f"setup-{i}")
            setups.append(float(probe[-1].split()[1]))
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        log("setup samples " + " ".join(f"{s:.3f}" for s in setups))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
