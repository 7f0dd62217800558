#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fig16|xmark-5x|serve \
        --seed N --seconds S --trace 0|1

Builds the learner CLI and perfbench/xbench.exe with dune, runs one
measurement and prints its lines; the last line is the JSON result.  The
environment is scrubbed of XLEARNER_* variables and the dune cache is
off, so nothing outside the checkout is read or written by the build.
Exits non-zero, without a result, if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig16", "xmark-5x", "serve")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = {k: v for k, v in os.environ.items() if not k.startswith("XLEARNER_")}
    env.pop("OCAMLRUNPARAM", None)
    env["DUNE_CACHE"] = "disabled"
    targets = ["./perfbench/xbench.exe", "./bin/xlearner_cli.exe"]
    try:
        built = subprocess.run(
            ["dune", "build", "--root", ROOT] + targets,
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        return fail("cannot run dune: %s" % e)
    if built.returncode != 0:
        return fail("build failed")

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "xbench.exe")
    cli = os.path.join(ROOT, "_build", "default", "bin", "xlearner_cli.exe")
    # a fresh work directory: no spool or log left by an earlier run
    workdir = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected.txt"),
           "--workdir", workdir, "--cli", cli]
    # One CPU for the whole run, the server included: the host-speed
    # probes (see README.md) then measure the CPU the work runs on.
    cpu = min(os.sched_getaffinity(0))
    # its own process group, so a stuck run takes its server down with it
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return fail("run timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        return fail("run failed with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        return fail("no result line")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    start = time.time()
    code = main()
    print("perfbench: %.1f s" % (time.time() - start), file=sys.stderr)
    sys.exit(code)
