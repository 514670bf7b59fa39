#!/usr/bin/env python3
"""The FROTE benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds the library, frote_serve and the measurement driver from the
checkout's sources (once; the build lives in .bench_build/), runs the
workload, checks its outputs and prints one JSON line last on stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones. A
full record of every run (fingerprint, metrics, failures, per-workload
detail) is also written to .bench_build/results/ for perfbench/compare.py.
Workloads, metrics and the layer map are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS_DIR = os.path.join(HERE, "workloads")

EDIT_WORKLOADS = {
    # Distinct seeded edits per run, split over `processes` driver
    # processes. Edit costs differ by dataset, so many distinct edits per
    # run keep the run's median from hanging on a few datasets.
    "adult_ip_rf": {"edits": 12, "processes": 3},
    "wine_rules_gbdt": {"edits": 16, "processes": 2},
}
SERVE = {
    "clients": 2,
    "slots": 6,                 # sessions owned by each client
    "max_live": 4,
    "mix": {"step": 90, "result": 5, "snapshot": 5},
    "setups": 5,
}
PROBE_MAX_LIVE = 1


class Phases:
    """Wall time of each phase of a run, for the run record."""

    def __init__(self):
        self.last = time.perf_counter()
        self.spans = {}

    def mark(self, name):
        now = time.perf_counter()
        self.spans[name] = round(now - self.last, 3)
        self.last = now


PHASES = Phases()


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "frote", "CMakeLists.txt")):
        raise SystemExit("perfbench: no frote sources next to perfbench/ "
                         "(expected src/frote); nothing to build")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return out


def work_dir():
    path = os.path.join(os.path.dirname(build_dir()), "work")
    os.makedirs(path, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=path)


def driver(bdir, mode, env, **kwargs):
    cmd = [os.path.join(bdir, "frote_perfbench"), mode]
    for key, value in kwargs.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    subprocess.run(cmd, check=True, env=env, stdout=sys.stderr,
                   stderr=sys.stderr, timeout=170)


def bench_env():
    env = dict(os.environ)
    # Engine thread counts come from each workload's spec; the environment
    # default is pinned so learners and the daemon never inherit a host
    # setting.
    env["FROTE_NUM_THREADS"] = "1"
    return env


# ---------------------------------------------------------------------------
# HTTP / JSON-RPC client for frote_serve

def http_post(port, body):
    data = body.encode()
    head = ("POST /rpc HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\nContent-Length: %d\r\n"
            "Connection: close\r\n\r\n" % len(data)).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=60) as s:
        s.sendall(head + data)
        chunks = []
        while True:
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, payload.decode()


class Daemon:
    """A frote_serve --http process with its own spool directory."""

    def __init__(self, bdir, spool, max_live, env):
        self.spool = spool
        os.makedirs(spool, exist_ok=True)
        port_file = os.path.join(spool, "..", os.path.basename(spool) + ".port")
        port_file = os.path.normpath(port_file)
        if os.path.exists(port_file):
            os.remove(port_file)
        self.proc = subprocess.Popen(
            [os.path.join(bdir, "frote_serve"), "--http", "--port", "0",
             "--port-file", port_file, "--spool", spool,
             "--max-live-sessions", str(max_live)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        self.port = None
        while self.port is None:
            if self.proc.poll() is not None:
                raise RuntimeError("frote_serve exited at start-up")
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("frote_serve did not report its port")
            try:
                with open(port_file) as f:
                    text = f.read().strip()
                if text:
                    self.port = int(text)
            except (OSError, ValueError):
                time.sleep(0.002)
        self.next_id = 0
        self.lock = threading.Lock()

    def call(self, method, params):
        """One JSON-RPC call: (result, error, t0, t1), with t0/t1 taken
        around the HTTP exchange only (encoding and decoding excluded)."""
        with self.lock:
            self.next_id += 1
            rid = self.next_id
        body = json.dumps({"jsonrpc": "2.0", "id": rid, "method": method,
                           "params": params}, separators=(",", ":"))
        t0 = time.perf_counter()
        status, text = http_post(self.port, body)
        t1 = time.perf_counter()
        if status != 200:
            return None, "HTTP %d" % status, t0, t1
        reply = json.loads(text)
        if "error" in reply:
            return None, "%s: %s" % (reply["error"].get("code"),
                                     reply["error"].get("message")), t0, t1
        return reply["result"], None, t0, t1

    def peak_rss_mb(self):
        return benchlib.read_vmhwm_mb(self.proc.pid)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Traffic:
    """Closed-loop clients over session slots. Every request is timed and
    recorded (with the id the daemon gave) so the run can be replayed
    in-process. A slot whose session finished is closed and re-created
    before its next request."""

    def __init__(self, daemon, acct, spec_for):
        self.daemon = daemon
        self.acct = acct
        self.spec_for = spec_for        # (client, slot, generation) -> spec
        self.records = []               # dicts, appended under lock
        self.lock = threading.Lock()
        self.finished_edits = []        # (session, summed step s, j_bar)

    def request(self, client, op, session, params, timed=True):
        method = "session." + op
        t0 = time.perf_counter()
        try:
            result, error, t0, t1 = self.daemon.call(method, params)
        except (OSError, ValueError) as e:
            result, error, t1 = None, "transport: %s" % e, time.perf_counter()
        with self.lock:
            index = len(self.records)
            rec = {"client": client, "op": op, "session": session,
                   "t0": t0, "t1": t1, "timed": timed, "error": error,
                   "result": result, "index": index}
            if op == "create" and result is not None:
                rec["session"] = result["session"]
                rec["spec"] = params["spec"]
            self.records.append(rec)
        self.acct.attempt()
        if error is not None:
            self.acct.fail("request %d" % index, "%s %s" % (method, error))
        return rec

    def create(self, client, slot, generation, timed):
        rec = self.request(client, "create", None,
                           {"spec": self.spec_for(client, slot, generation)},
                           timed)
        return rec["session"] if rec["error"] is None else None

    def run_client(self, client, slots, intents, deadline):
        """Drive `slots` (list of [session, generation, step_seconds]) with
        `intents` until `deadline` or the intents run out."""
        for slot, op in intents:
            if time.perf_counter() >= deadline:
                break
            state = slots[slot]
            if state[0] is None:
                return
            if op == "step":
                rec = self.request(client, "step", state[0],
                                   {"session": state[0], "steps": 1})
                if rec["error"] is not None:
                    return
                state[2] += rec["t1"] - rec["t0"]
                if rec["result"]["finished"]:
                    with self.lock:
                        self.finished_edits.append(
                            (state[0], state[2], rec["result"]["j_bar"]))
                    self.request(client, "close", state[0],
                                 {"session": state[0]})
                    state[1] += 1
                    state[0] = self.create(client, slot, state[1], True)
                    state[2] = 0.0
            else:
                self.request(client, op, state[0], {"session": state[0]})

    def script(self):
        """Records in the daemon's processing order (the listener is serial,
        so completion order is processing order)."""
        ordered = sorted(self.records, key=lambda r: r["t1"])
        lines = []
        for rec in ordered:
            if rec["error"] is not None:
                continue
            line = {"op": rec["op"], "session": rec["session"]}
            if rec["op"] == "create":
                line["spec"] = rec["spec"]
            if rec["op"] == "step":
                line["steps"] = 1
            lines.append((rec, line))
        return lines


def compare_replay(lines, replay, acct):
    """Every step/result/close answer over HTTP must equal the in-process
    replay's answer to the same request."""
    for (rec, _), got in zip(lines, replay["lines"]):
        if rec["op"] in ("create", "snapshot"):
            continue
        want = dict(rec["result"])
        want.pop("session", None)
        have = got["response"]
        if isinstance(have, dict):
            have = dict(have)
            have.pop("session", None)
        if want != have:
            acct.fail("request %d" % rec["index"],
                      "%s differs from the in-process replay" % rec["op"])
    for error in replay["errors"]:
        acct.fail("replay", error)


def run_replay(bdir, env, lines, wdir, name, max_live):
    """max_live > 0: a serial replay through a spool that keeps that many
    sessions live, as the daemon did (timings are comparable). 0: every
    session live and sessions replayed concurrently (outputs only)."""
    script = os.path.join(wdir, name + ".script.jsonl")
    with open(script, "w") as f:
        for _, line in lines:
            f.write(json.dumps(line, separators=(",", ":")) + "\n")
    out = os.path.join(wdir, name + ".replay.json")
    if max_live:
        spool = os.path.join(wdir, name + ".replay-spool")
        os.makedirs(spool, exist_ok=True)
        driver(bdir, "replay", env, script=script, out=out, spool=spool,
               max_live=max_live, workers=1)
    else:
        driver(bdir, "replay", env, script=script, out=out, workers=3)
    with open(out) as f:
        return json.load(f)


def pool_layers(traffic, lines, replay, stats0, stats1):
    """pool.* and net.* per-layer metrics from a serial traced replay."""
    by_op = {}
    for (rec, _), got in zip(lines, replay["lines"]):
        key = rec["op"]
        if key == "step":
            key = "step_restore" if got["restored"] else "step_live"
        by_op.setdefault(key, []).append(got["ms"])
    # Transport overhead per method: the median over requests of (HTTP
    # latency - in-process latency of the same request in the replay).
    overheads = {}
    for (rec, _), got in zip(lines, replay["lines"]):
        if rec["timed"]:
            overheads.setdefault(rec["op"], []).append(
                (rec["t1"] - rec["t0"]) * 1e3 - got["ms"])

    def med(values):
        return benchlib.median(values) if values else 0.0

    metrics = {
        "pool.create_ms": (med(by_op.get("create", [])), "ms"),
        "pool.step_live_ms": (med(by_op.get("step_live", [])), "ms"),
        "pool.step_restore_ms": (med(by_op.get("step_restore", [])), "ms"),
        "pool.result_ms": (med(by_op.get("result", [])), "ms"),
        "pool.snapshot_ms": (med(by_op.get("snapshot", [])), "ms"),
    }
    session_requests = sum(1 for r in traffic.records
                           if r["timed"] and r["op"] != "create"
                           and r["error"] is None)
    restores = stats1["restores"] - stats0["restores"]
    metrics["pool.hit_ratio"] = (
        1.0 - restores / session_requests if session_requests else 0.0,
        "ratio")
    for op in ("step", "result", "snapshot"):
        metrics["net.overhead_ms." + op] = (med(overheads.get(op, [])), "ms")
    return metrics


def engine_spec(template, seed):
    """A session.create spec from a scenario document: its engine, reseeded,
    over its generator as a synthetic dataset reference with the same seed
    (what resolve_scenario does for the edit workloads)."""
    spec = dict(template["engine"])
    spec["seed"] = seed
    spec["dataset"] = {"kind": "synthetic",
                       "name": template["generator"]["name"],
                       "size": template["generator"]["size"],
                       "seed": seed}
    return spec


# ---------------------------------------------------------------------------
# Edit workloads

def edit_run(bdir, env, wdir, scenario, seed, seconds, edits, trace,
             processes=1):
    """Run the driver in `processes` fresh processes, one after another;
    process p times the edits with index p mod `processes` for
    seconds / processes. Their samples are pooled. Each process sets up
    anew, so a run holds several set-up samples, and it warms up on edit 0,
    whose digest is then compared across processes."""
    merged = None
    for p in range(processes):
        out = os.path.join(wdir, "edit-%d-%d.json" % (trace, p))
        driver(bdir, "edit", env, scenario=scenario, seed=seed,
               seconds=seconds / processes, edits=edits, part=p,
               parts=processes, trace=trace, out=out)
        with open(out) as f:
            raw = json.load(f)
        raw["setup_s"] = [raw["setup_s"]]
        raw["warm_up_digest"] = [raw["warm_up_digest"]]
        if merged is None:
            merged = raw
            continue
        for key in ("setup_s", "warm_up_digest", "edits", "step_ms", "steps"):
            if key in raw:
                merged[key] += raw[key]
        merged["measured_s"] += raw["measured_s"]
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], raw["peak_rss_mb"])
    return merged


def check_edits(raw, acct):
    """Expected-outcome bundles, and digest identity across repeats of an
    edit: warm-ups, timed runs in other processes, traced runs."""
    digests = {}
    for n, e in enumerate(raw["edits"]):
        acct.attempt()
        op = "edit %d (#%d%s)" % (e["edit"], n, ", traced" if e["traced"] else "")
        for miss in e["misses"]:
            acct.fail(op, "expected outcome: " + miss)
        first = digests.setdefault(e["edit"], e["digest"])
        if e["digest"] != first:
            acct.fail(op, "dataset digest %s != %s" % (e["digest"], first))
    for n, digest in enumerate(raw["warm_up_digest"]):
        first = digests.setdefault(0, digest)
        if digest != first:
            acct.fail("warm-up %d" % n,
                      "edit 0 dataset digest %s != %s" % (digest, first))


def edit_end_to_end(raw):
    untraced = [e for e in raw["edits"] if not e["traced"]]
    per_edit = {}
    for e in untraced:
        per_edit.setdefault(e["edit"], e["best_j_bar"])
    steps = raw["step_ms"]
    pct, tail_ms = benchlib.tail(steps)
    return {
        "setup_s": (benchlib.median(raw["setup_s"]), "s"),
        "edit_s.p50": (benchlib.median([e["seconds"] for e in untraced]), "s"),
        "final_j_bar": (benchlib.mean(list(per_edit.values())), "ratio"),
        "request_ms.p50": (benchlib.median(steps), "ms"),
        "request_ms.tail": (tail_ms, "ms"),
        "requests_per_s": (len(steps) / raw["measured_s"], "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
    }, {"edits_timed": len(untraced), "steps_timed": len(steps),
        "tail_percentile": pct}


def edit_per_layer(raw, acct, min_overhead, max_overhead):
    steps = raw["steps"]
    n = len(steps)
    total = sum(s["step"] for s in steps)

    def per_step(part):
        return sum(s.get(part, 0.0) for s in steps) / n

    unattributed = sum(s["unattributed"] for s in steps)
    cold = [s["select"] for s in steps if s["kind"] == "cold"]
    warm = [s["select"] for s in steps if s["kind"] != "cold"]
    traced = [e for e in raw["edits"] if e["traced"]]
    untraced = [e for e in raw["edits"] if not e["traced"]]
    trained = sum(e["iterations"] for e in raw["edits"])
    accepted = sum(e["accepted"] for e in raw["edits"])
    train_ms = [t for e in traced for t in e["train_ms"]]
    overhead = (benchlib.median([e["seconds"] for e in traced]) /
                benchlib.median([e["seconds"] for e in untraced]))
    if not min_overhead <= overhead <= max_overhead:
        acct.fail("trace", "traced edits take %.2fx the untraced time"
                  % overhead)
    metrics = {
        "core.step_ms": (total / n, "ms"),
        "core.step_unattributed_ratio": (unattributed / total, "ratio"),
        "core.select_ms": (per_step("select"), "ms"),
        "core.select_cold_ms": (benchlib.mean(cold), "ms"),
        "core.select_warm_ms": (benchlib.mean(warm), "ms"),
        "smote.generate_ms": (per_step("generate"), "ms"),
        "ml.update_ms": (per_step("update"), "ms"),
        "metrics.jhat_ms": (per_step("jhat"), "ms"),
        "core.commit_ms": (per_step("commit"), "ms"),
        "core.rollback_ms": (per_step("rollback"), "ms"),
        "core.accept_ratio": (accepted / trained if trained else 0.0, "ratio"),
        "core.open_ms": (benchlib.median([e["open_ms"] for e in untraced]),
                         "ms"),
        "ml.train_ms": (benchlib.median(train_ms), "ms"),
        "ml.update_calls": (sum(1 for s in steps if s["update"] > 0) /
                            len(traced), "count"),
        "knn.neighborhood_queries": (benchlib.mean(
            [e["neighborhood_queries"] for e in traced]), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    units = {"core.checkpoint_kb": "KiB", "knn.query_us": "us"}
    for key, value in raw["probes"].items():
        metrics[key] = (value, units.get(key, "ms"))
    return metrics


def probe_pool(bdir, env, wdir, template, seed, seconds, acct):
    """Per-layer pool and transport numbers for an edit workload: one client
    drives two sessions of the workload's spec through a daemon that keeps
    one live, so every switch of session pays an evict + restore; the same
    requests are then replayed in-process."""
    spool = os.path.join(wdir, "probe-spool")
    daemon = Daemon(bdir, spool, PROBE_MAX_LIVE, env)
    try:
        traffic = Traffic(daemon, acct, lambda c, slot, g: engine_spec(
            template, benchlib.derive_seed(seed, 100 + slot * 16 + g)))
        slots = [[traffic.create(0, s, 0, True), 0, 0.0] for s in range(2)]
        stats0 = daemon.call("server.stats", {})[0]
        pattern = [(0, "step"), (0, "step"), (0, "result"),
                   (1, "step"), (1, "step"), (1, "snapshot")]

        def intents():
            while True:
                yield from pattern
        deadline = time.perf_counter() + seconds
        traffic.run_client(0, slots, intents(), deadline)
        stats1 = daemon.call("server.stats", {})[0]
    finally:
        daemon.stop()
    lines = traffic.script()
    replay = run_replay(bdir, env, lines, wdir, "probe", PROBE_MAX_LIVE)
    compare_replay(lines, replay, acct)
    return pool_layers(traffic, lines, replay, stats0, stats1)


def run_edit_workload(name, args, bdir, env, wdir, acct):
    cfg = EDIT_WORKLOADS[name]
    scenario = os.path.join(WORKLOADS_DIR, name + ".json")
    with open(scenario) as f:
        template = json.load(f)
    detail = {"workload": name}
    if args.trace == 0:
        raw = edit_run(bdir, env, wdir, scenario, args.seed, args.seconds,
                       cfg["edits"], 0, cfg["processes"])
        check_edits(raw, acct)
        metrics, info = edit_end_to_end(raw)
        detail.update(info)
        return metrics, detail
    # Traced run: most of the time on alternating traced/untraced edits of
    # the first two seeded edits, the rest on the pool probe.
    raw = edit_run(bdir, env, wdir, scenario, args.seed, args.seconds * 0.6,
                   min(cfg["edits"], 2), 1)
    check_edits(raw, acct)
    metrics = edit_per_layer(raw, acct, 0.75, 1.33)
    metrics.update(probe_pool(bdir, env, wdir, template, args.seed,
                              args.seconds * 0.2, acct))
    return metrics, detail


# ---------------------------------------------------------------------------
# serve_churn

def run_serve(args, bdir, env, wdir, acct):
    scenario = os.path.join(WORKLOADS_DIR, "serve_churn.json")
    with open(scenario) as f:
        template = json.load(f)
    seed = args.seed

    def spec_for(client, slot, generation):
        s = benchlib.derive_seed(benchlib.derive_seed(seed, 1000 + client * 64
                                                      + slot), generation)
        return engine_spec(template, s)

    clients, slots_per = SERVE["clients"], SERVE["slots"]
    window = args.seconds if args.trace == 0 else args.seconds * 0.4

    # Set-up: start the daemon and open every client's sessions; repeated,
    # the last daemon serves the run.
    setup_s = []
    daemon = traffic = None
    for attempt in range(SERVE["setups"]):
        spool = os.path.join(wdir, "spool-%d" % attempt)
        t0 = time.perf_counter()
        daemon = Daemon(bdir, spool, SERVE["max_live"], env)
        try:
            traffic = Traffic(daemon, acct, spec_for)
            slots = [[[traffic.create(c, s, 0, False), 0, 0.0]
                      for s in range(slots_per)] for c in range(clients)]
        except BaseException:
            daemon.stop()
            raise
        setup_s.append(time.perf_counter() - t0)
        if attempt + 1 < SERVE["setups"]:
            daemon.stop()
    PHASES.mark("setup")
    try:
        stats0 = daemon.call("server.stats", {})[0]
        start = time.perf_counter()
        deadline = start + window
        threads = []
        for c in range(clients):
            intents = benchlib.request_mix_stream(
                benchlib.derive_seed(seed, 2000 + c), slots_per, SERVE["mix"])
            t = threading.Thread(target=traffic.run_client,
                                 args=(c, slots[c], intents, deadline))
            threads.append(t)
            t.start()
        for t in threads:
            t.join()
        elapsed = max(r["t1"] for r in traffic.records if r["timed"]) - start
        stats1 = daemon.call("server.stats", {})[0]
        # Every open session's final state, for the replay comparison.
        for c in range(clients):
            for state in slots[c]:
                if state[0] is not None:
                    traffic.request(c, "result", state[0],
                                    {"session": state[0]}, timed=False)
        peak_rss = daemon.peak_rss_mb()
        PHASES.mark("traffic")
    finally:
        daemon.stop()
    PHASES.mark("shutdown")

    lines = traffic.script()
    timed = [r for r in traffic.records if r["timed"]]
    latencies = [(r["t1"] - r["t0"]) * 1e3 for r in timed]
    detail = {"workload": "serve_churn", "requests_timed": len(timed),
              "sessions_finished": len(traffic.finished_edits),
              "restores": stats1["restores"] - stats0["restores"]}

    if args.trace == 0:
        replay = run_replay(bdir, env, lines, wdir, "serve", 0)
        compare_replay(lines, replay, acct)
        PHASES.mark("replay")
        pct, tail_ms = benchlib.tail(latencies)
        detail["tail_percentile"] = pct
        finished = traffic.finished_edits
        if not finished:
            acct.fail("serve", "no session finished in the window")
        metrics = {
            "setup_s": (benchlib.median(setup_s), "s"),
            "edit_s.p50": (benchlib.median([f[1] for f in finished])
                           if finished else 0.0, "s"),
            "final_j_bar": (benchlib.mean([f[2] for f in finished]), "ratio"),
            "request_ms.p50": (benchlib.median(latencies), "ms"),
            "request_ms.tail": (tail_ms, "ms"),
            "requests_per_s": (len(timed) / elapsed, "1/s"),
            "peak_rss_mb": (peak_rss, "MiB"),
        }
        return metrics, detail

    replay = run_replay(bdir, env, lines, wdir, "serve", SERVE["max_live"])
    compare_replay(lines, replay, acct)
    metrics = pool_layers(traffic, lines, replay, stats0, stats1)
    # Engine layers under the pool: traced edits of one served session spec.
    raw = edit_run(bdir, env, wdir, scenario, seed, args.seconds * 0.2, 2, 1)
    check_edits(raw, acct)
    metrics.update(edit_per_layer(raw, acct, 0.6, 1.67))
    return metrics, detail


# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(EDIT_WORKLOADS) + ["serve_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build()
    PHASES.mark("build")
    env = bench_env()
    wdir = work_dir()
    acct = benchlib.Accounting()
    try:
        if args.workload == "serve_churn":
            metrics, detail = run_serve(args, bdir, env, wdir, acct)
        else:
            metrics, detail = run_edit_workload(args.workload, args, bdir, env,
                                                wdir, acct)
    finally:
        shutil.rmtree(wdir, ignore_errors=True)
    PHASES.mark("rest")
    detail["phases_s"] = PHASES.spans

    if args.trace == 0:
        metrics["success_ratio"] = (acct.success_ratio, "ratio")
    with open(os.path.join(WORKLOADS_DIR, args.workload + ".json")) as f:
        engine_threads = json.load(f)["engine"].get("threads", 0)
    threads = {"FROTE_NUM_THREADS": env["FROTE_NUM_THREADS"],
               "engine_threads": engine_threads}
    fp = benchlib.fingerprint(ROOT, bdir, threads)
    result = {
        "correct": acct.failed == 0,
        "attempted": acct.attempted,
        "failed": acct.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, fingerprint=fp,
                  detail=detail, failures=acct.reasons())
    results = os.path.join(os.path.dirname(bdir), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-s%d-t%d-%d.json" % (
            args.workload, args.seed, args.trace, int(time.time() * 1e3))),
            "w") as f:
        json.dump(record, f, indent=1)
    for reason in acct.reasons():
        log("FAILED " + reason)
    log("fingerprint " + json.dumps(fp))
    log("detail " + json.dumps(detail))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
