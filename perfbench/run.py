"""Benchmark entry point.

    python3 perfbench/run.py --workload {build,serve,ingest} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each call runs one workload in a fresh
child process (``perfbench/child.py``) under a hard deadline, then
stops every process the child left behind.  Standard output gets two
JSON lines: the run record (box, input, per-workload named metrics,
errors), then the result
``{"correct", "attempted", "failed", "metrics"}`` — end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  Ray's own
log lines go to ``.bench_out/<run>.log``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("build", "serve", "ingest")
# the child's deadline leaves room, within a run's 180 s, for stopping
# what it left running (up to 20 s) and reporting
CHILD_DEADLINE_S = 150.0
LOG_TAIL_LINES = 40
# Ray puts unix sockets at <temp dir>/session_<stamp>_<pid>/sockets/
# plasma_store; the whole path must stay within 107 bytes
MAX_RAY_TMP_LEN = 44


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    for f in sorted(glob.glob(os.path.join(root, "alix_ray", "**", "*.py"),
                              recursive=True)):
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _has_ray(python: str) -> bool:
    probe = ("import importlib.util as u, sys; "
             "sys.exit(not all(u.find_spec(m) for m in "
             "('ray', 'pyarrow', 'numpy')))")
    try:
        return subprocess.run([python, "-c", probe], timeout=60,
                              capture_output=True).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        return False


def find_python() -> str | None:
    """An interpreter that can import ray, pyarrow and numpy: this one,
    else the first other ``python3`` on PATH or under pyenv's
    versions that can."""
    cands = [sys.executable]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        cands.append(os.path.join(d, "python3"))
    pyenv = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    cands += sorted(glob.glob(os.path.join(pyenv, "versions", "*", "bin",
                                           "python3")), reverse=True)
    seen = set()
    for c in cands:
        real = os.path.realpath(c)
        if real in seen or not os.access(c, os.X_OK):
            continue
        seen.add(real)
        if _has_ray(c):
            return c
    return None


def log_tail(path: str, n: int = LOG_TAIL_LINES) -> str:
    try:
        with open(path, errors="replace") as f:
            return "".join(f.readlines()[-n:])
    except OSError:
        return ""


def _procs_of(pgid: int, marker: str) -> list[int]:
    """Live pids in process group ``pgid`` or whose command line names
    ``marker`` (Ray's processes carry their session directory)."""
    found = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == os.getpid():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
            with open(f"/proc/{d}/cmdline", "rb") as f:
                cmd = f.read().decode(errors="replace")
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if fields[0] == "Z":
            continue
        if int(fields[2]) == pgid or marker in cmd:
            found.append(int(d))
    return found


def stop_all(pgid: int, marker: str, grace_s: float = 20.0) -> list[int]:
    """Kill what the child left running and wait until it has ended.
    Returns pids still alive after the grace period."""
    end = time.monotonic() + grace_s
    left = _procs_of(pgid, marker)
    sig = signal.SIGTERM
    while left and time.monotonic() < end:
        for pid in left:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.5)
        sig = signal.SIGKILL
        left = _procs_of(pgid, marker)
    return left


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "alix_ray", "__init__.py")):
        print("perfbench: run from the repository root; alix_ray/ is "
              "missing here", file=sys.stderr)
        return 2

    python = find_python()
    if python is None:
        print("perfbench: no python3 here can import ray, pyarrow and "
              "numpy", file=sys.stderr)
        return 3

    tag = f"{a.workload}-s{a.seed}-t{a.trace}-{os.getpid()}"
    out_dir = os.path.join(root, ".bench_out")
    work = os.path.join(root, ".bench_work", str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    ray_tmp = os.path.join(work, "r")
    own_tmp = None
    if len(ray_tmp) > MAX_RAY_TMP_LEN:
        # checkout path too long for Ray's socket paths: use a short
        # private directory instead, removed below
        own_tmp = ray_tmp = tempfile.mkdtemp(prefix="pb-")
    result_path = os.path.join(out_dir, tag + ".json")
    log_path = os.path.join(out_dir, tag + ".log")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH", "")) if p)
    # no memory monitor: on a host whose memory other tenants share,
    # Ray would kill the run's workers for memory it does not use
    env.update(RAY_USAGE_STATS_ENABLED="0", RAY_DISABLE_IMPORT_WARNING="1",
               RAY_DATA_DISABLE_PROGRESS_BARS="1", PYTHONUNBUFFERED="1",
               RAY_memory_monitor_refresh_ms="0")
    # one thread per numpy / Arrow pool unless the caller says otherwise,
    # so hosts that differ only in visible cores run the same code paths
    env.setdefault("OMP_NUM_THREADS", "1")
    env.pop("RAY_ADDRESS", None)
    cmd = [python, "-m", "perfbench.child",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work", work, "--ray-tmp", ray_tmp, "--out", result_path]
    timed_out = False
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            proc.wait(timeout=CHILD_DEADLINE_S)
        except subprocess.TimeoutExpired:
            timed_out = True
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    stragglers = stop_all(proc.pid, ray_tmp)
    shutil.rmtree(work, ignore_errors=True)
    if own_tmp:
        shutil.rmtree(own_tmp, ignore_errors=True)

    try:
        with open(result_path) as f:
            payload = json.load(f)
        result, record = payload["result"], payload["record"]
    except (OSError, ValueError, KeyError):
        reason = "timed out" if timed_out else f"exit code {proc.returncode}"
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        record = {"workload": a.workload, "seed": a.seed,
                  "errors": [f"child process {reason}; see {log_path}"]}
    record["source"] = {"git_commit": git_commit(root),
                        "alix_ray_digest": source_digest(root),
                        "python": python}
    if stragglers:
        record.setdefault("errors", []).append(
            f"processes still alive after cleanup: {stragglers}")
    if not result["correct"] or record.get("errors"):
        # the failure's story goes to stderr, beside the result
        print("perfbench: run failed or incomplete:", file=sys.stderr)
        for e in record.get("errors", []):
            print("  " + e, file=sys.stderr)
        print(f"-- last lines of {log_path}:\n" + log_tail(log_path),
              file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
