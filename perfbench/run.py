#!/usr/bin/env python3
"""Run one workload of the Omega benchmark.

    python3 perfbench/run.py --workload flex-topk --seed 1 --seconds 30 --trace 0

Run from the repository root.  Builds the engine, the query server and the
bench program (omega_bench) from source with dune, generates the workload's
dataset once (cached in perfbench/_cache), then runs the bench program in a
clean environment.  Its last line of standard output is the result
object; the exit status is non-zero on any failure, including a wrong
answer.  See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import resource
import signal
import subprocess
import sys

# Variables that would change the program under measurement.
PINNED_ENV = ["OMEGA_DOMAINS", "OMEGA_AUDIT", "OMEGA_FLIGHT", "OMEGA_FAILPOINTS", "OCAMLRUNPARAM"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# A runaway query fails the run instead of exhausting the host's memory.
ADDRESS_SPACE_LIMIT = 8 << 30

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BENCH = os.path.join("_build", "default", "perfbench", "omega_bench.exe")
SERVER = os.path.join("_build", "default", "bin", "omega_serve.exe")
CACHE = os.path.join("perfbench", "_cache")


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        if not os.path.isdir(".git"):
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def ocaml_version(env):
    try:
        out = subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True, text=True, env=env, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_group(cmd, env, timeout, stdout=None):
    """Run cmd in its own process group; kill the whole group when it ends."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True, preexec_fn=limit_memory)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["flex-topk", "join-par", "serve-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        fail("the engine's sources (dune-project, lib/, bin/) are not here; run from a repository checkout")
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}

    build = ["dune", "build", "--root", ".", "--build-dir", "_build",
             "./perfbench/omega_bench.exe", "./bin/omega_serve.exe"]
    try:
        code = run_group(build, env, BUILD_TIMEOUT_S, stdout=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if code != 0:
        fail("build failed")

    common = ["--workload", args.workload, "--data-dir", CACHE, "--goldens", os.path.join("perfbench", "goldens"),
              "--serve", SERVER]
    # the dataset is generated in a process of its own, so its memory never
    # counts towards the measured run's peak
    if run_group([BENCH, "--prepare"] + common, env, RUN_TIMEOUT_S, stdout=sys.stderr) != 0:
        fail("dataset preparation failed")

    print("# env nproc=%d ocaml=%s source=%s" % (os.cpu_count(), ocaml_version(env), source_id()), flush=True)
    code = run_group([BENCH] + common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                         "--trace", str(args.trace)], env, RUN_TIMEOUT_S)
    if code is None:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
