"""Helpers shared by the benchmark runner, its compare step and its tests.

Everything here is pure Python with no third-party imports, so the
self-tests in perfbench/tests run without building anything.
"""

import math
import os
import platform
import re
import subprocess

MASK64 = (1 << 64) - 1


def splitmix64(state):
    """One splitmix64 step: returns (next_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def derive_seed(base, stream):
    """Independent sub-seed of `base` for `stream` (same mix as the library's
    derive_seed in util/rng.hpp)."""
    s = (base ^ ((0x9E3779B97F4A7C15 * (stream + 1)) & MASK64)) & MASK64
    return splitmix64(s)[1]


class SeededStream:
    """A reproducible uniform stream: the same seed gives the same draws on
    every Python version and platform (unlike `random`, whose algorithms are
    not a stability promise)."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def uniform(self):
        self.state, out = splitmix64(self.state)
        return (out >> 11) * (1.0 / (1 << 53))


def zipf_weights(n, exponent=1.0):
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


def pick(weights, u):
    """Index of the bucket `u` in [0, 1) falls into, for unnormalised
    weights."""
    total = sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w / total
        if u < acc:
            return i
    return len(weights) - 1


def request_mix_stream(seed, slots, mix):
    """Endless (slot, method) draws for one closed-loop client: the slot by
    Zipf(1) over `slots` session slots (slot 0 hottest), the method by the
    `mix` weights ({method: weight}, iterated in sorted order)."""
    stream = SeededStream(seed)
    slot_weights = zipf_weights(slots)
    methods = sorted(mix)
    method_weights = [mix[m] for m in methods]
    while True:
        slot = pick(slot_weights, stream.uniform())
        method = methods[pick(method_weights, stream.uniform())]
        yield slot, method


# ---------------------------------------------------------------------------
# Statistics

def percentile(values, pct):
    """Linear-interpolated percentile (the 'inclusive' definition: p0 is the
    minimum, p100 the maximum)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values, beyond=10):
    """The tail rule: the highest percentile with at least `beyond` samples
    above it. Returns (percentile, value): the value is the largest sample
    that still has `beyond` samples above it, and the percentile its rank,
    100 * (n - beyond) / n. Continuous in n, so runs of slightly different
    length report nearly the same percentile."""
    n = len(values)
    if n <= beyond:
        raise ValueError("need more than %d samples for a tail, got %d"
                         % (beyond, n))
    xs = sorted(values)
    return 100.0 * (n - beyond) / n, xs[n - beyond - 1]


def median(values):
    return percentile(values, 50.0)


def mean(values):
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# Failure accounting

class Accounting:
    """Counts operations attempted and failed; a failure keeps its reason.

    An operation is failed at most once, whatever number of checks it
    misses, so `failed <= attempted` always holds."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops = {}

    def attempt(self, count=1):
        self.attempted += count

    def fail(self, op_id, reason):
        self.failed_ops.setdefault(op_id, []).append(reason)

    @property
    def failed(self):
        return len(self.failed_ops)

    @property
    def success_ratio(self):
        if self.attempted == 0:
            return 0.0
        return (self.attempted - self.failed) / self.attempted

    def reasons(self, limit=10):
        out = []
        for op_id, why in sorted(self.failed_ops.items(), key=str):
            out.append("%s: %s" % (op_id, "; ".join(why)))
        return out[:limit]


# ---------------------------------------------------------------------------
# Host fingerprint

def _cpuinfo():
    model, mhz = "unknown", 0.0
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and model == "unknown":
                    model = line.split(":", 1)[1].strip()
                elif line.startswith("cpu MHz") and mhz == 0.0:
                    mhz = float(line.split(":", 1)[1])
    except OSError:
        pass
    return model, mhz


def _compiler(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    compiler, build_type = "unknown", "unknown"
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    version = "unknown"
    if compiler != "unknown":
        try:
            out = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout
            version = out.splitlines()[0].strip() if out else "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return version, build_type


def _source_rev(root):
    """The git commit when the checkout is a repository; otherwise a digest
    of the tracked source trees, so two checkouts of one commit agree."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import hashlib
    h = hashlib.sha1()
    for sub in ("src", "tools", "perfbench"):
        base = os.path.join(root, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def fingerprint(root, build_dir, threads):
    model, mhz = _cpuinfo()
    compiler, build_type = _compiler(build_dir)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cpu_mhz": mhz,
        "compiler": compiler,
        "build_type": build_type,
        "machine": platform.machine(),
        "source_rev": _source_rev(root),
        "threads": threads,
    }


# Fingerprint fields that must match for two runs to be comparable. The
# source revision is what a comparison varies, and the MHz reading moves
# with frequency scaling, so both are recorded but not compared.
HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type", "machine",
             "threads")


def host_key(fp):
    return {k: fp.get(k) for k in HOST_KEYS}


def fingerprint_mismatch(a, b):
    """Names of the host fields on which two fingerprints differ."""
    ka, kb = host_key(a), host_key(b)
    return [k for k in HOST_KEYS if ka[k] != kb[k]]


def read_vmhwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(re.findall(r"\d+", line)[0]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)
