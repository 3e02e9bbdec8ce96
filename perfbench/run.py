#!/usr/bin/env python3
"""perfbench: the repository benchmark of the Line-Up checker.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the CLI and the tracer from source into .bench_build/, then runs the
named workload (see perfbench/README.md for the workloads, every metric and
the layer table):

  --trace 0  times the user-facing CLI commands: set-up several times, then
             the workload repeatedly for S seconds; reports medians.
  --trace 1  alternates one untimed-path CLI run with one traced in-process
             run (perfbench/tracer) for S seconds; reports per-layer medians
             and the tracing overhead.

Every verdict is checked against a known answer (perfbench/expected.json
or a reference path). The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import ctypes
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
DUNE_BUILD = os.path.join(BUILD_DIR, "_build")
CLI = os.path.join(DUNE_BUILD, "default", "bin", "lineup_cli.exe")
TRACER = os.path.join(DUNE_BUILD, "default", "perfbench", "tracer", "tracer.exe")
CALIB = os.path.join(DUNE_BUILD, "default", "perfbench", "calib", "calib.exe")
WORK = os.path.join(BUILD_DIR, "perfbench")

SETUP_REPS = 15
# The calibration: its size, its time at reference host speed (about its
# time on a 2-vCPU Xeon VM at that host's fast speed), and how much timed
# work may pass between two of its runs. It is long enough that the host's
# sub-second jitter mostly averages out of each calibration.
CAL_ROUNDS = 200
CAL_REF_S = 0.4
CAL_BLOCK_S = 2.0
# A command that hangs is killed (each one takes < 5 s), and once
# RUN_DEADLINE_S have passed since the build the run stops repeating, so it
# ends well within 180 s.
PROC_TIMEOUT_S = 15
RUN_DEADLINE_S = 120
RUN_START = None  # set when the build is done
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# The fixed inputs of the workloads (why each was chosen: README.md).
QUEUE_3X3 = ["Enqueue(1),TryDequeue,Count", "Enqueue(2),TryPeek,TryDequeue",
             "TryDequeue,Enqueue(3),ToArray"]
QUEUE_CAP = 20000
SHARD_COLS = ["Enqueue(1),TryDequeue", "Enqueue(2),TryDequeue,TryPeek"]
SHARD_WORKERS = 2
RANDOM_ROWS, RANDOM_COLS, RANDOM_SAMPLES, RANDOM_CAP = 2, 3, 6, 150
QUEUE_STREAM_OPS = 40000
SET_STREAM_OPS = 8000
SET_KEYS = 64
# Checks that FAIL (exit 1) while a known defect is there.
KNOWN_DEFECT_PROBES = {
    "queue_monitor_false_alarm": ["MichaelScottQueue", "Enqueue(400),Enqueue(400)",
                                  "TryDequeue,TryDequeue"],
    "segment_queue_isempty_not_linearizable": ["SegmentQueue", "Enqueue(400),IsEmpty",
                                               "Enqueue(400),TryDequeue",
                                               "--membership", "generic"],
}


class BenchError(Exception):
    """The benchmark could not run: no result line is printed."""


def load_json(path):
    with open(path) as f:
        return json.load(f)


EXPECTED = load_json(os.path.join(BENCH_DIR, "expected.json"))


# ---------------------------------------------------------------- processes

class Proc:
    def __init__(self, code, wall, rss_mb, output, hung):
        self.code, self.wall, self.rss_mb, self.output = code, wall, rss_mb, output
        self.hung = hung


def run_proc(argv):
    """Run one command to completion in its own process group; returns its
    exit code, wall time, peak RSS (of it and every descendant it waited
    for) and combined output. A command that outlives its timeout is killed
    with its whole group."""
    out_path = os.path.join(WORK, "proc.out")
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        p = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                             stderr=subprocess.STDOUT, start_new_session=True)
        hung = threading.Event()

        def on_timeout():
            hung.set()
            kill_group(p.pid)

        timer = threading.Timer(PROC_TIMEOUT_S, on_timeout)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
            kill_group(p.pid)
            reap_group(p.pid)
        wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as f:
        output = f.read()
    return Proc(p.returncode, wall, usage.ru_maxrss / 1024.0, output, hung.is_set())


def run_sweep(server_argv, worker_argv, workers):
    """Run a shard server and, once it listens, `workers` shard-worker
    processes, all in one new process group. Returns the server's exit
    code, its wall time (spawn to exit), the peak RSS of the server and its
    workers, and the server's output. Workers still running when the
    server exits (a late one retrying its connect) are no longer needed and
    are killed; a group that outlives the timeout is killed whole."""
    start = time.perf_counter()
    p = subprocess.Popen(server_argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, process_group=0)
    hung = threading.Event()

    def on_timeout():
        hung.set()
        kill_group(p.pid)

    timer = threading.Timer(PROC_TIMEOUT_S, on_timeout)
    timer.start()
    ws, lines, rss = [], [], 0.0
    try:
        with open(os.path.join(WORK, "workers.out"), "wb") as wout:
            for line in p.stdout:
                lines.append(line)
                if not ws and line.startswith(b"shard-server: listening on"):
                    ws = [subprocess.Popen(worker_argv, stdin=subprocess.DEVNULL, stdout=wout,
                                           stderr=subprocess.STDOUT, process_group=p.pid)
                          for _ in range(workers)]
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        p.stdout.close()
        kill_group(p.pid)
        # Popen objects keep their returncode set, so subprocess never
        # tries to reap these processes a second time.
        for w in ws:
            _, wstatus, wusage = os.wait4(w.pid, 0)
            w.returncode = os.waitstatus_to_exitcode(wstatus)
            rss = max(rss, wusage.ru_maxrss / 1024.0)
        reap_group(p.pid)
    p.returncode = os.waitstatus_to_exitcode(status)
    output = b"".join(lines).decode(errors="replace")
    return Proc(p.returncode, wall, max(rss, usage.ru_maxrss / 1024.0), output, hung.is_set())


def run_elapsed():
    return time.monotonic() - RUN_START


def repeat_for(seconds):
    """Yield until `seconds` have passed (at least once), or the deadline."""
    start = time.perf_counter()
    yield
    while time.perf_counter() - start < seconds and run_elapsed() < RUN_DEADLINE_S:
        yield


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def reap_group(pgid):
    """Wait for the killed group's orphans, which become this process's
    children because it is a child subreaper."""
    while True:
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            return


def become_subreaper():
    """Orphans of a killed command (shard workers) are reparented here, so
    reap_group can wait for them (Linux prctl)."""
    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (AttributeError, OSError):
        pass


def build():
    for required in ("dune-project", os.path.join("bin", "dune"), "lib"):
        if not os.path.exists(required):
            raise BenchError(f"not the root of a repository checkout: {required} is missing")
    os.makedirs(WORK, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD_DIR, "cache")),
               XDG_CONFIG_HOME=os.path.abspath(os.path.join(BUILD_DIR, "config")))
    r = subprocess.run(["dune", "build", "--root", ".", "--profile", "release",
                        "--build-dir", os.path.abspath(DUNE_BUILD), "./bin/lineup_cli.exe",
                        "./perfbench/tracer/tracer.exe", "./perfbench/calib/calib.exe"],
                       env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout + r.stderr)


# ---------------------------------------------------------------- oracle

class Tally:
    """Operations attempted and failed against the known answers. One
    operation is one checked command or traced verdict; it fails when any
    of its expectations does not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = {}  # message -> times seen

    def op(self, what):
        return Op(self, what)


class Op:
    def __init__(self, tally, what):
        self.tally, self.what, self.errors = tally, what, []

    def expect(self, ok, message):
        if not ok:
            self.errors.append(message)
        return ok

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.tally.attempted += 1
        if self.errors:
            self.tally.failed += 1
            msg = f"{self.what}: {'; '.join(self.errors)}"
            self.tally.problems[msg] = self.tally.problems.get(msg, 0) + 1


def counters_of(path):
    return load_json(path)["counters"]


def passed(proc):
    return re.search(r"^PASS", proc.output, re.M) is not None


def exited(op, proc, code):
    """Any exit code other than the expected one (124/125 included) fails,
    and so does a hang."""
    if proc.hung:
        return op.expect(False, f"hung; killed after {proc.wall:.0f} s")
    return op.expect(proc.code == code, f"exit {proc.code}, expected {code}")


# ---------------------------------------------------------------- workloads

class Workload:
    name = ""

    def __init__(self, seed):
        self.seed = seed

    def prepare(self, tally):
        """Generate inputs and run untimed reference paths."""

    def setup_once(self, tally):
        """The workload's command(s) on a trivial input: (seconds, rss)."""
        raise NotImplementedError

    def iteration(self, tally):
        """One timed run of the workload: (seconds, rss_mb)."""
        raise NotImplementedError

    def tracer_args(self, out):
        raise NotImplementedError

    def check_trace(self, tally, trace):
        """Check the traced run's verdicts."""

    def detail(self):
        return {}


class CheckWorkload(Workload):
    """One `lineup check` of a fixed test, expected to pass."""

    cls = ""
    columns = []
    flags = []
    setup_columns = []
    tracer_config = []

    def __init__(self, seed):
        super().__init__(seed)
        self.seen = None
        self.exhaustive = []

    def setup_once(self, tally):
        p = run_proc([CLI, "check", self.cls, *self.setup_columns, *self.flags])
        with tally.op(f"setup check {self.cls}") as op:
            exited(op, p, 0)
        return p.wall, p.rss_mb

    def iteration(self, tally):
        mfile = os.path.join(WORK, "metrics.json")
        p = run_proc([CLI, "check", self.cls, *self.columns, *self.flags, "--metrics", mfile])
        with tally.op(f"check {self.cls}") as op:
            if exited(op, p, 0) and op.expect(passed(p), "no PASS verdict"):
                c = counters_of(mfile)
                self.exhaustive.append(c["explore.phase2.incomplete"] == 0)
                self.same_histories(op, c)
        return p.wall, p.rss_mb

    def same_histories(self, op, c):
        """Every run of the test reaches the same distinct histories as the
        reference path (where there is one) and as each other."""
        got = (c["check.phase2.histories_distinct"], c["check.phase2.histories_fingerprint"])
        if self.seen is None:
            self.seen = got
        op.expect(got == self.seen, f"histories (distinct, fingerprint) {got} != {self.seen}")

    def tracer_args(self, out):
        return ["check", out, self.cls, *self.tracer_config, *self.columns]

    def check_trace(self, tally, trace):
        with tally.op(f"traced check {self.cls}") as op:
            op.expect(trace["verdicts"] == [[self.cls, "pass"]], f"verdict {trace['verdicts']}")
            self.same_histories(op, trace["counters"])

    def detail(self):
        d = {}
        if self.seen is not None:
            d["histories_distinct"], d["histories_fingerprint"] = self.seen
        if self.exhaustive:
            d["exhaustive_share"] = sum(self.exhaustive) / len(self.exhaustive)
        return d


class QueueCapped(CheckWorkload):
    name = "queue-3x3-capped"
    cls = "ConcurrentQueue"
    columns = QUEUE_3X3
    flags = [f"--max-executions={QUEUE_CAP}"]
    setup_columns = ["Enqueue(1)"]
    tracer_config = ["2", str(QUEUE_CAP), "0", "sc"]


class DekkerTso(CheckWorkload):
    name = "dekker-tso"
    cls = "DekkerCounter"
    columns = ["Inc", "Inc"]
    flags = ["--memory", "tso", "--por", "-p", "0"]
    setup_columns = ["Inc"]
    tracer_config = ["0", "0", "1", "tso"]

    def prepare(self, tally):
        # The reference path: the same test without --por.
        mfile = os.path.join(WORK, "reference.json")
        p = run_proc([CLI, "check", self.cls, *self.columns, "--memory", "tso", "-p", "0",
                      "--metrics", mfile])
        with tally.op("reference check without --por") as op:
            if not (exited(op, p, 0) and op.expect(passed(p), "no PASS verdict")):
                raise BenchError("the dekker-tso reference path failed:\n" + p.output)
            self.same_histories(op, counters_of(mfile))


class ShardSweep(Workload):
    name = "shard-sweep"
    cls = "ConcurrentQueue"

    def prepare(self, tally):
        # The reference path: the in-process frontier split at -j 2.
        mfile = os.path.join(WORK, "reference.json")
        p = run_proc([CLI, "check", self.cls, *SHARD_COLS, "-j", "2", "--metrics", mfile])
        with tally.op("reference check -j 2") as op:
            if not exited(op, p, 0):
                raise BenchError("the shard-sweep reference path failed:\n" + p.output)
        c = counters_of(mfile)
        self.reference = (c["check.phase2.histories_distinct"],
                          c["check.phase2.histories_fingerprint"])
        self.ref_probes = c["check.phase2.witness_probes"]
        self.shard_probes = set()

    def run_server(self, columns, rundir, extra=()):
        """The sweep over SHARD_WORKERS shard-worker processes this runner
        starts itself, not over `--local` (a known hang: README.md)."""
        shutil.rmtree(rundir, ignore_errors=True)
        return run_sweep([CLI, "shard-server", self.cls, *columns, "--dir", rundir, *extra],
                         [CLI, "shard-worker", "--connect", os.path.join(rundir, "sock")],
                         SHARD_WORKERS)

    def setup_once(self, tally):
        p = self.run_server(["Enqueue(1)"], os.path.join(WORK, "shard-setup"))
        with tally.op("setup shard-server") as op:
            exited(op, p, 0)
        return p.wall, p.rss_mb

    def iteration(self, tally):
        mfile = os.path.join(WORK, "metrics.json")
        p = self.run_server(SHARD_COLS, os.path.join(WORK, "shard"), ["--metrics", mfile])
        with tally.op("shard-server") as op:
            if exited(op, p, 0) and op.expect(passed(p), "no PASS verdict"):
                self.compare(op, counters_of(mfile))
        return p.wall, p.rss_mb

    def compare(self, op, c):
        got = (c["check.phase2.histories_distinct"], c["check.phase2.histories_fingerprint"])
        op.expect(got == self.reference, f"histories {got} != reference {self.reference}")
        # A known mismatch, reported in the detail line and not counted.
        self.shard_probes.add(c["check.phase2.witness_probes"])

    def tracer_args(self, out):
        store = os.path.join(WORK, "trace-store")
        shutil.rmtree(store, ignore_errors=True)
        return ["shard", out, self.cls, "2", store, *SHARD_COLS]

    def check_trace(self, tally, trace):
        with tally.op("traced shard sweep") as op:
            op.expect(trace["verdicts"] == [[self.cls, "pass"]], f"verdict {trace['verdicts']}")
            self.compare(op, trace["counters"])

    def detail(self):
        return {
            "histories_distinct": self.reference[0],
            "histories_fingerprint": self.reference[1],
            "exhaustive_share": 1.0,
            "witness_probes_shard": sorted(self.shard_probes),
            "witness_probes_reference": self.ref_probes,
            "witness_probes_match": self.shard_probes == {self.ref_probes},
        }


class RandomSweep(Workload):
    name = "random-sweep"
    summary_re = re.compile(r"^(\d+) tests: (\d+) passed, (\d+) failed", re.M)

    def prepare(self, tally):
        self.classes = [c["name"] for c in EXPECTED["classes"]]
        self.expect = {c["name"]: c["expected"] for c in EXPECTED["classes"]}
        self.membership = {c["name"]: c.get("membership", "auto") for c in EXPECTED["classes"]}
        listed = run_proc([CLI, "list"])
        with tally.op("lineup list") as op:
            exited(op, listed, 0)
            names = {line[:50].rstrip() for line in listed.output.splitlines()[1:]}
            for cls in self.classes:
                op.expect(cls in names, f"class {cls!r} is not listed")
        self.verdicts = {}
        self.stats = {}
        # Untimed probes of the two defects that expected.json works around
        # (README.md, Known defects): true while the defect is there.
        self.known_defects = {
            name: run_proc([CLI, "check", *args]).code == 1
            for name, args in KNOWN_DEFECT_PROBES.items()}

    def random_cmd(self, cls, rows, cols, samples, mfile=None):
        cmd = [CLI, "random", cls, "--rows", str(rows), "--cols", str(cols), "-n", str(samples),
               "--max-executions", str(RANDOM_CAP), "--seed", str(self.seed), "-j", "1",
               "--membership", self.membership[cls]]
        return cmd + (["--metrics", mfile] if mfile else [])

    def setup_once(self, tally):
        wall, rss = 0.0, 0.0
        for cls in self.classes:
            p = run_proc(self.random_cmd(cls, 1, 1, 1))
            self.check_class(tally, f"setup random {cls}", cls, p, 1)
            wall += p.wall
            rss = max(rss, p.rss_mb)
        return wall, rss

    def check_class(self, tally, what, cls, p, samples, record=False, mfile=None):
        """Exit 0 = every sample passed, 1 = some failed. A FAIL on a class
        expected to pass is wrong: Line-Up raises no false alarms
        (Theorem 5)."""
        with tally.op(what) as op:
            m = self.summary_re.search(p.output)
            if not (op.expect(not p.hung, f"hung; killed after {p.wall:.0f} s")
                    and op.expect(p.code in (0, 1), f"exit {p.code}")
                    and op.expect(m is not None and int(m.group(1)) == samples,
                                  "no summary line")):
                return
            passed, failed = int(m.group(2)), int(m.group(3))
            op.expect((failed > 0) == (p.code == 1), f"exit {p.code} with {failed} failures")
            self.judge(op, cls, failed > 0, record)
            if record:
                c = counters_of(mfile)
                self.stats[cls] = (passed, failed, c.get("explore.phase2.incomplete", 0),
                                   c.get("check.phase2.histories_distinct", 0))

    def judge(self, op, cls, fails, record=True):
        op.expect(not fails or self.expect[cls] != "pass",
                  f"FAIL at --seed {self.seed} on a class expected to pass")
        if record:
            verdict = "fail" if fails else "pass"
            prev = self.verdicts.setdefault(cls, verdict)
            op.expect(prev == verdict, "verdict differs from another run of the same seed")

    def iteration(self, tally):
        wall, rss = 0.0, 0.0
        mfile = os.path.join(WORK, "metrics.json")
        for cls in self.classes:
            p = run_proc(self.random_cmd(cls, RANDOM_ROWS, RANDOM_COLS, RANDOM_SAMPLES, mfile))
            wall += p.wall
            rss = max(rss, p.rss_mb)
            self.check_class(tally, f"random {cls}", cls, p, RANDOM_SAMPLES, True, mfile)
        return wall, rss

    def tracer_args(self, out):
        return ["random", out, str(self.seed), str(RANDOM_ROWS), str(RANDOM_COLS),
                str(RANDOM_SAMPLES), str(RANDOM_CAP),
                *(f"{self.membership[cls]}/{cls}" for cls in self.classes)]

    def check_trace(self, tally, trace):
        for cls, verdict in trace["verdicts"]:
            with tally.op(f"traced random {cls}") as op:
                self.judge(op, cls, verdict == "fail")

    def detail(self):
        bugs = sorted(c for c, v in self.verdicts.items()
                      if v == "fail" and self.expect[c].startswith("bug"))
        wrong = sorted(c for c, v in self.verdicts.items()
                       if v == "fail" and self.expect[c] == "pass")
        clean = [s for s in self.stats.values() if s[1] == 0]
        passes = sum(s[0] for s in clean)
        return {
            "bugs_found": len(bugs),
            "bug_classes": bugs,
            "classes_failing": sum(v == "fail" for v in self.verdicts.values()),
            "wrong_fail_classes": wrong,
            "histories_distinct": sum(s[3] for s in self.stats.values()),
            "exhaustive_share": (passes - sum(s[2] for s in clean)) / passes if passes else None,
            "known_defects": self.known_defects,
        }


class Stream:
    """A multi-threaded history as NDJSON call/ret lines, built op by op."""

    def __init__(self):
        self.lines = []
        self.ops = {}

    def call(self, tid, name, arg=None):
        op = self.ops.get(tid, 0)
        self.ops[tid] = op + 1
        a = "" if arg is None else f',"arg":"{arg}"'
        self.lines.append(f'{{"t":0,"ev":"call","tid":{tid},"op":{op},"name":"{name}"{a}}}')
        return tid, op

    def ret(self, handle, val):
        tid, op = handle
        self.lines.append(f'{{"t":0,"ev":"ret","tid":{tid},"op":{op},"val":"{val}"}}')

    def serial(self, tid, name, arg, val):
        self.ret(self.call(tid, name, arg), val)

    def overlap(self, rng, first, second):
        """Two overlapping ops; each is (tid, name, arg, val). The returns
        come in random order, so either linearization order is allowed."""
        h1 = self.call(*first[:3])
        h2 = self.call(*second[:3])
        rets = [(h1, first[3]), (h2, second[3])]
        rng.shuffle(rets)
        for h, v in rets:
            self.ret(h, v)


def queue_stream(rng, n_ops):
    """A linearizable producer/consumer queue history (distinct values),
    ending in one dequeue of a never-enqueued value: the injected
    violation."""
    s, bag, nxt, done = Stream(), [], 0, 0
    head = 0
    while done < n_ops:
        r = rng.random()
        if r < 0.25:
            # dequeue linearized before the concurrent enqueue
            nxt += 1
            got = bag[head] if head < len(bag) else "Fail"
            head += head < len(bag)
            s.overlap(rng, (0, "Enqueue", nxt, "unit"), (1, "TryDequeue", None, got))
            bag.append(nxt)
            done += 2
        elif r < 0.65 or head == len(bag):
            nxt += 1
            s.serial(0, "Enqueue", nxt, "unit")
            bag.append(nxt)
            done += 1
        else:
            s.serial(1, "TryDequeue", None, bag[head])
            head += 1
            done += 1
    s.serial(1, "TryDequeue", None, nxt + 1000000)
    return s.lines


def set_stream(rng, n_ops, keys):
    """A linearizable keyed-set history over four threads, ending in one
    Contains with the wrong answer: the injected violation."""
    s, present, done = Stream(), [False] * keys, 0

    def op(tid, k):
        kind = rng.randrange(3)
        if kind == 0:
            val, present[k] = not present[k], True
            return tid, "Add", k, str(val).lower()
        if kind == 1:
            val, present[k] = present[k], False
            return tid, "Remove", k, str(val).lower()
        return tid, "Contains", k, str(present[k]).lower()

    while done < n_ops:
        tid = rng.randrange(4)
        k = rng.randrange(keys)
        if rng.random() < 0.3:
            k2 = (k + 1 + rng.randrange(keys - 1)) % keys
            s.overlap(rng, op(tid, k), op((tid + 1) % 4, k2))
            done += 2
        else:
            s.serial(*op(tid, k))
            done += 1
    k = rng.randrange(keys)
    s.serial(0, "Contains", k, str(not present[k]).lower())
    return s.lines


class MonitorStream(Workload):
    name = "monitor-stream"

    def prepare(self, tally):
        rng = random.Random(self.seed)
        self.files = []
        for spec, lines in (("queue", queue_stream(rng, QUEUE_STREAM_OPS)),
                            ("set", set_stream(rng, SET_STREAM_OPS, SET_KEYS))):
            path = os.path.join(WORK, f"{spec}.ndjson")
            with open(path, "w") as f:
                f.write("\n".join(lines) + "\n")
            self.files.append((spec, path))
            # The stream without its injected violation (the last op, one
            # call and one return line) is linearizable: a monitor that
            # rejects it raises a false alarm, and would also stop early
            # on the timed runs.
            prefix = os.path.join(WORK, f"{spec}-prefix.ndjson")
            with open(prefix, "w") as f:
                f.write("\n".join(lines[:-2]) + "\n")
            self.monitor(tally, spec, prefix, 0)
        self.empty = os.path.join(WORK, "empty.ndjson")
        open(self.empty, "w").close()

    def monitor(self, tally, spec, path, expect):
        p = run_proc([CLI, "monitor", spec, path])
        with tally.op(f"monitor {spec}") as op:
            if exited(op, p, expect):
                word = "VIOLATION" if expect == 1 else "OK"
                op.expect(p.output.rstrip().endswith(word), f"verdict is not {word}")
        return p

    def setup_once(self, tally):
        ps = [self.monitor(tally, spec, self.empty, 0) for spec, _ in self.files]
        return sum(p.wall for p in ps), max(p.rss_mb for p in ps)

    def iteration(self, tally):
        ps = [self.monitor(tally, spec, path, 1) for spec, path in self.files]
        return sum(p.wall for p in ps), max(p.rss_mb for p in ps)

    def tracer_args(self, out):
        return ["monitor", out] + [x for pair in self.files for x in pair]

    def check_trace(self, tally, trace):
        for spec, verdict in trace["verdicts"]:
            with tally.op(f"traced monitor {spec}") as op:
                if op.expect(verdict != "reject-early",
                             "rejected before the injected violation was fed"):
                    op.expect(verdict == "reject", f"verdict {verdict}, expected reject")

    def detail(self):
        return {"streams": [spec for spec, _ in self.files],
                "stream_ops": [QUEUE_STREAM_OPS + 1, SET_STREAM_OPS + 1]}


WORKLOADS = {w.name: w for w in (QueueCapped, DekkerTso, RandomSweep, ShardSweep, MonitorStream)}


# ---------------------------------------------------------------- statistics

median = statistics.median


def spread(xs):
    """Interquartile range over the median (0 with fewer than two values)."""
    if len(xs) < 2 or median(xs) == 0:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / median(xs)


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- e2e mode

class Calibration:
    """Host-speed calibration (perfbench/calib): a fixed OCaml program run
    between blocks of timed commands. Each command's wall time is divided by
    the mean of the calibration times just before and just after its block,
    and scaled by CAL_REF_S, the calibration's time at reference host speed:
    the result is the command's time at reference host speed. The host this
    runs on slows down by half or more for tens of seconds at a time, and a
    ratio to work measured next to it is steady where the raw time is not."""

    def __init__(self):
        self.times = []
        self.last = self.measure()

    def measure(self):
        p = run_proc([CALIB, str(CAL_ROUNDS)])
        if p.hung or p.code != 0 or not p.output.strip().isdigit():
            raise BenchError(f"the calibration failed (exit {p.code}):\n{p.output}")
        self.times.append(p.wall)
        return p.wall

    def scale(self, walls):
        """Times at reference speed of `walls`, measured since the last
        calibration."""
        before, after = self.last, self.measure()
        self.last = after
        return [t * CAL_REF_S / ((before + after) / 2) for t in walls]


def calibrated(cal, runs):
    """Consume `runs`, each a (wall, rss) of one timed run, calibrating
    after every CAL_BLOCK_S of them: (times at reference speed, walls, rss)."""
    times, walls, rss, block = [], [], [], []
    for t, r in runs:
        walls.append(t)
        rss.append(r)
        block.append(t)
        if sum(block) >= CAL_BLOCK_S:
            times += cal.scale(block)
            block = []
    if block:
        times += cal.scale(block)
    return times, walls, rss


def run_e2e(w, seconds, tally):
    cal = Calibration()
    setups, setup_walls, _ = calibrated(cal, (w.setup_once(tally) for _ in range(SETUP_REPS)))
    times, walls, rss = calibrated(cal, (w.iteration(tally) for _ in repeat_for(seconds)))
    print(f"{w.name}: {len(times)} runs, time_to_verdict_s median {median(times):.4f} "
          f"(IQR/median {spread(times):.3f}; wall {median(walls):.4f}), setup_s median "
          f"{median(setups):.4f} (wall {median(setup_walls):.4f}), calibration median "
          f"{median(cal.times):.4f} s, peak_rss_mb median {median(rss):.1f}")
    print("perfbench-runs " + json.dumps({"time_to_verdict_s": times, "wall_s": walls,
                                          "setup_s": setups, "setup_wall_s": setup_walls,
                                          "calibration_s": cal.times, "peak_rss_mb": rss}))
    return {
        "time_to_verdict_s": metric(median(times), "s"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(median(rss), "MiB"),
    }


# ---------------------------------------------------------------- trace mode

def self_times(spans):
    """Per span name: (self seconds, self minor words)."""
    child_dur, child_words = {}, {}
    for s in spans:
        if s["parent"] >= 0:
            child_dur[s["parent"]] = child_dur.get(s["parent"], 0.0) + s["dur"]
            child_words[s["parent"]] = child_words.get(s["parent"], 0.0) + s["words"]
    out = {}
    for s in spans:
        t, wds = out.get(s["name"], (0.0, 0.0))
        out[s["name"]] = (t + s["dur"] - child_dur.get(s["id"], 0.0),
                          wds + s["words"] - child_words.get(s["id"], 0.0))
    return out


def layer_metrics(trace, e2e_s, is_monitor):
    spans, c = trace["spans"], trace["counters"]
    selfs = self_times(spans)
    root = next(s for s in spans if s["parent"] < 0)
    wall = root["dur"]

    def t(name):
        return selfs.get(name, (0.0, 0.0))[0]

    def words(*names):
        return sum(selfs.get(n, (0.0, 0.0))[1] for n in names)

    def cnt(k):
        return c.get(k, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    ex = cnt("explore.phase2.executions")
    replayed = cnt("replay.executions")
    distinct = cnt("check.phase2.histories_distinct")
    dedup = cnt("check.phase2.dedup_hits")
    skips = cnt("explore.phase2.por.sleep_set_skips")
    spec = ("spec.monitor", "spec.pcomp", "spec.direct", "spec.unsupported")
    observation = ("observation.add", "observation.witness", "observation.stuck",
                   "observation.rebuild")
    membership_s = t("observation.witness") + t("observation.stuck") + sum(t(n) for n in spec)
    partitions = cnt("frontier.partitions")
    parse_s = t("mevent.parse")
    monitor_s = parse_s + t("ingest") + t("engine.feed") + t("engine.finalize")
    glue = t("workload") + t("membership") + sum(t(n) for n in selfs if n.startswith("bench."))
    # The unsplit Check calls are not layer time; the rest of the wall is
    # the layer-by-layer part, of which glue is the unaccounted share.
    layered = wall - t("check.run") - t("check.synthesize")
    m = {
        "explore.self_s": (t("explore.phase2"), "s"),
        "explore.phase1_s": (t("explore.phase1"), "s"),
        "explore.us_per_execution": (ratio(t("explore.phase2"), replayed) * 1e6, "us"),
        "explore.steps_per_execution": (ratio(cnt("explore.phase2.steps"), ex), "count"),
        "explore.flushes": (cnt("explore.phase2.flushes"), "count"),
        "explore.minor_words_per_execution": (ratio(words("explore.phase2"), replayed), "words"),
        "explore.sleep_set_skip_ratio": (ratio(skips, ex + skips), "ratio"),
        "explore.distinct_per_execution": (ratio(distinct, ex), "ratio"),
        "check.phase1_s": (cnt("check.phase1_s"), "s"),
        "check.phase2_s": (cnt("check.phase2_s"), "s"),
        "check.p1_residual_s": (cnt("check.phase1_s") - t("explore.phase1")
                                - t("observation.add"), "s"),
        "check.p2_residual_s": (cnt("check.phase2_s") - t("explore.phase2") - membership_s, "s"),
        "check.dedup_hit_ratio": (ratio(dedup, dedup + distinct), "ratio"),
        "check.minor_words": (words("check.run", "check.synthesize"), "words"),
        "observation.add_s": (t("observation.add"), "s"),
        "observation.witness_s": (t("observation.witness"), "s"),
        "observation.stuck_s": (t("observation.stuck"), "s"),
        "observation.rebuild_s": (t("observation.rebuild"), "s"),
        "observation.us_per_search": (ratio(t("observation.witness"),
                                            cnt("observation.searches")) * 1e6, "us"),
        "observation.probes_per_search": (ratio(cnt("observation.probes"),
                                                cnt("observation.searches")), "count"),
        "observation.minor_words": (words(*observation), "words"),
        "spec.monitor_s": (t("spec.monitor"), "s"),
        "spec.pcomp_s": (t("spec.pcomp"), "s"),
        "spec.direct_s": (t("spec.direct"), "s"),
        "spec.unsupported_s": (t("spec.unsupported"), "s"),
        "spec.unsupported": (cnt("spec.unsupported"), "count"),
        "spec.minor_words": (words(*spec), "words"),
        "frontier.split_s": (t("frontier.split"), "s"),
        "frontier.partitions": (partitions, "count"),
        "frontier.partition_s_max": (cnt("frontier.partition_s_max"), "s"),
        "frontier.imbalance": (ratio(cnt("frontier.partition_s_max") * partitions,
                                     t("frontier.partition")), "ratio"),
        "frontier.merge_s": (t("frontier.merge"), "s"),
        "frontier.minor_words": (words("frontier.split", "frontier.partition",
                                       "frontier.merge"), "words"),
        "wire.bytes": (cnt("wire.bytes"), "bytes"),
        "wire.roundtrip_s": (t("wire.roundtrip"), "s"),
        "wire.minor_words": (words("wire.roundtrip"), "words"),
        "store.bytes": (cnt("store.bytes"), "bytes"),
        "store.save_s": (t("store.save"), "s"),
        "store.load_s": (t("store.load"), "s"),
        "store.minor_words": (words("store.save", "store.load"), "words"),
        "mevent.parse_s": (parse_s, "s"),
        "mevent.lines_per_s": (ratio(cnt("mevent.lines"), parse_s), "1/s"),
        "mevent.minor_words": (words("mevent.parse"), "words"),
        "ingest.s": (t("ingest"), "s"),
        "ingest.minor_words": (words("ingest"), "words"),
        "engine.feed_s": (t("engine.feed"), "s"),
        "engine.finalize_s": (t("engine.finalize"), "s"),
        "engine.windows": (cnt("engine.windows"), "count"),
        "engine.resident_peak": (cnt("engine.resident_peak"), "count"),
        "engine.minor_words": (words("engine.feed", "engine.finalize"), "words"),
        "monitor.cli_residual_s": (e2e_s - monitor_s if is_monitor else 0.0, "s"),
        "gc.minor_words": (root["words"], "words"),
        "gc.major_collections": (cnt("gc.major_collections"), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.e2e_s": (e2e_s, "s"),
        "trace.overhead_ratio": (ratio(wall, e2e_s), "ratio"),
        "trace.unattributed_s": (glue, "s"),
        "trace.accounted_share": (ratio(layered - glue, layered), "ratio"),
        "trace.replay_mismatches": (cnt("replay.mismatches"), "count"),
    }
    return m


# How far the replayed layers of a Check phase may exceed the phase's own
# time (share of the phase, plus a constant) before the split is invalid.
RESIDUAL_SHARE, RESIDUAL_S = 0.25, 0.005


def check_residuals(tally, med):
    """The layers replayed from outside re-do a Check phase's work, so their
    times should not add up to much more than Check's own time for it. If
    they do, the per-layer split no longer describes Check (the replay is
    out of step with it), and the run says so as a failed operation."""
    with tally.op("per-layer replay within Check's phase times") as op:
        for n in (1, 2):
            res, total = med[f"check.p{n}_residual_s"], med[f"check.phase{n}_s"]
            op.expect(res >= -(RESIDUAL_SHARE * total + RESIDUAL_S),
                      f"check.p{n}_residual_s {res:.4f} with check.phase{n}_s {total:.4f}")


def run_trace(w, seconds, tally):
    out = os.path.join(WORK, "trace.json")
    samples = []
    for _ in repeat_for(seconds):
        e2e_s, _ = w.iteration(tally)
        p = run_proc([TRACER, *w.tracer_args(out)])
        if p.code != 0:
            raise BenchError("the traced run failed:\n" + p.output)
        trace = load_json(out)
        w.check_trace(tally, trace)
        samples.append(layer_metrics(trace, e2e_s, isinstance(w, MonitorStream)))
    units = {k: u for k, (_, u) in samples[0].items()}
    med = {k: median([s[k][0] for s in samples]) for k in units}
    check_residuals(tally, med)
    print(f"{w.name}: {len(samples)} traced runs, traced wall {med['trace.wall_s']:.4f} s, "
          f"untraced {med['trace.e2e_s']:.4f} s, overhead x{med['trace.overhead_ratio']:.3f}")
    return {k: metric(v, units[k]) for k, v in med.items()}


# ---------------------------------------------------------------- main

def declared_names(trace):
    spec = load_json("BENCHMARK.json")
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        names = declared_names(args.trace)
        become_subreaper()
        build()
        global RUN_START
        RUN_START = time.monotonic()
        tally = Tally()
        w = WORKLOADS[args.workload](args.seed)
        w.prepare(tally)
        metrics = (run_trace if args.trace else run_e2e)(w, args.seconds, tally)
        for k in metrics:
            if not NAME_RE.match(k):
                raise BenchError(f"metric name {k!r} is not [A-Za-z0-9_.-]+")
        if set(metrics) != names:
            raise BenchError(f"emitted metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ names)}")
        detail = dict(w.detail(), verdicts_checked=tally.attempted, verdicts_wrong=tally.failed,
                      problems=tally.problems)
        print("perfbench-detail " + json.dumps(detail, sort_keys=True))
        for p, n in tally.problems.items():
            print(f"WRONG ({n}x): {p}")
        print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": metrics}))
        return 0
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
