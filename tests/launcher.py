"""Run a command as a grandchild and read its own CPU time and peak RSS.

``ru_maxrss`` of a child that ``subprocess`` starts counts the image it
was forked from, before ``exec``: a test runner whose peak an earlier
test raised would lend that peak to every later child.  So a small
launcher process starts the command instead, under RLIMIT_AS and a wall
limit, and reads its usage with os.wait4; the figure then counts only
the launcher's small image and the command itself.
"""
from __future__ import annotations

import json
import subprocess
import sys

# Starts argv[5:], waits with os.wait4 and prints exit code, CPU seconds
# and peak RSS in KiB as JSON; stdout and stderr go to the two files.
_LAUNCHER = r"""
import json, os, resource, signal, subprocess, sys, time
limit, wall, out, err = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3], sys.argv[4]

def cap():
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

with open(out, "w") as fo, open(err, "w") as fe:
    child = subprocess.Popen(sys.argv[5:], stdout=fo, stderr=fe, preexec_fn=cap)
deadline = time.monotonic() + wall
while True:
    pid, status, usage = os.wait4(child.pid, os.WNOHANG)
    if pid:
        break
    if time.monotonic() > deadline:
        os.kill(child.pid, signal.SIGKILL)
        pid, status, usage = os.wait4(child.pid, 0)
        break
    time.sleep(0.005)
print(json.dumps({
    "code": os.waitstatus_to_exitcode(status),
    "cpu_s": usage.ru_utime + usage.ru_stime,
    "rss_kib": usage.ru_maxrss,
}))
"""


def launch(argv, out, err, *, address_space: int, wall_s: float, env, cwd=None) -> dict:
    """Run argv in the directory cwd (default: this one) with its stdout
    and stderr in the files out and err, under an address-space limit in
    bytes and a wall limit in seconds past which it is killed.  Returns
    {"code", "cpu_s", "rss_kib"} of argv alone."""
    launcher = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, str(address_space), str(wall_s),
         str(out), str(err), *argv],
        capture_output=True, text=True, env=env, cwd=cwd, check=True,
    )
    return json.loads(launcher.stdout)
