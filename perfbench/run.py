"""thermoshift benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload scalar-classify --seed 1 \\
        --seconds 30 --trace 0

Workloads: scalar-classify, low-temperature, vector-faces, and
rotation-m3, which shows a known library defect and is not benchmarked
(see README.md next to this file).  A run is a closed loop with one client: the next
public call starts only after the previous one returned and its output
was checked.  Cold CLI ops run once; then the run repeats passes (fixed
op lists drawn from the seed) until ``--seconds`` would be exceeded by
one more pass.

With ``--trace 0`` the last line of output reports the end-to-end
metrics; with ``--trace 1`` every pass runs twice on the same inputs,
untraced and then traced, and the last line reports per-layer metrics.
Exits with status 2, printing no result, when the thermoshift sources are
not next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import threading
import time
from collections import deque
from fractions import Fraction
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
TMP = ROOT / ".perfbench_tmp"

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB", "error_rate": "fraction"}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# -- child processes -----------------------------------------------------------

def run_child(cmd, env, stdout: Path, timeout=CHILD_TIMEOUT_S) -> int:
    """Run a child to completion and return its peak RSS in KiB; raise
    if it fails.  The child is reaped with wait4 so that its own peak RSS
    is known; its output goes to files, so it never blocks on a pipe.
    The wait blocks, so the parent takes no CPU from the child."""
    stderr = stdout.with_suffix(".err")
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        message = stderr.read_text(errors="replace").strip()[-400:]
        raise RuntimeError(f"exit {proc.returncode}: {message}")
    return usage.ru_maxrss


def child_env(cache_dir=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env["THERMOSHIFT_CACHE"] = str(cache_dir) if cache_dir else "off"
    return env


# -- executing ops ---------------------------------------------------------------

def clear_library_caches():
    """Empty every functools cache of the library, so that each pass
    costs what it costs a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "thermoshift" or name.startswith("thermoshift."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)) and \
                        hasattr(obj, "cache_info"):
                    obj.cache_clear()


def describe(item) -> dict:
    return {k: v for k, v in item.items() if not k.startswith("_")}


class Runner:
    """Builds a pass's inputs and runs its ops one after another."""

    def __init__(self, ts, workdir: Path, clock=None):
        import checks
        import workloads
        self.ts, self.checks, self.wl = ts, checks, workloads
        self.workdir = workdir
        self.tracer = None
        self.oracles = None
        self.child_rss_kb = 0
        self.children = []          # traced CLI children of the current pass
        self.count = 0
        self.clock = clock or speed.Clock()

    # inputs
    def prepare(self, items) -> None:
        """Build the pass's potentials through public constructors."""
        ts = self.ts
        self.built, self.instances, self.hulls = {}, {}, {}
        self.written_census = None
        self.count += 1
        self.census_dir = self.workdir / f"census-{self.count}"
        for item in items:
            spec = item.get("input")
            if spec is None or id(spec) in self.built or "labels" in spec:
                continue
            if "builtin" in spec:
                phi = ts.get_potential(spec["builtin"])
            else:
                sft = ts.Sft.from_matrix(spec["rows"])
                blocks = self.wl.admissible_blocks(spec["rows"], spec["k"])
                phi = ts.PotentialLC.from_block_values(
                    sft, spec["k"], dict(zip(blocks, spec["values"])),
                    m=spec["m"])
            self.built[id(spec)] = phi

    def instance(self, spec):
        if id(spec) not in self.instances:
            if self.oracles is None:
                self.oracles = self.checks.load_oracles(ORACLES)
            phi = self.built[id(spec)]
            rows = [list(r) for r in phi.sft.transition]
            self.instances[id(spec)] = self.checks.Instance(
                rows, phi.k, phi.values, self.oracles)
        return self.instances[id(spec)]

    # one op: (call, check, follow-ups)
    def plan(self, item):
        ts, ck = self.ts, self.checks
        op, spec = item["op"], item.get("input")
        phi = self.built.get(id(spec))
        name = spec.get("builtin") if spec else None
        inst = lambda: self.instance(spec)      # noqa: E731 (built lazily)
        none = lambda r: []                     # noqa: E731
        if op == "classify":
            def follow(res):
                if res.case != ck.MC or spec.get("m", 1) != 1:
                    return []
                return [{"op": "symmetry_coefficients", "input": spec,
                         "_res": res}]
            return (lambda: ts.classify(phi),
                    lambda r: ck.check_classify(inst(), r, name), follow)
        if op == "symmetry_coefficients":
            res = item["_res"]
            return (lambda: ts.symmetry_coefficients(phi, res),
                    lambda r: ck.check_symmetry(res, r, name), none)
        if op == "cohomology_test":
            zero = ts.PotentialLC.constant(phi.sft, 0)
            return (lambda: ts.cohomology_test(phi, zero),
                    lambda r: ck.check_cohomology(inst(), r), none)
        if op == "equilibrium_markov":
            t = item["t"]
            return (lambda: ts.equilibrium_markov(phi, t),
                    lambda r: ck.check_equilibrium(inst(), r, t), none)
        if op == "pressure":
            t = item["t"]
            return (lambda: ts.pressure(phi, t),
                    lambda r: ck.check_pressure(inst(), r, t), none)
        if op == "zt_coefficients":
            return (lambda: ts.zt_coefficients(phi, method="sweep"),
                    lambda r: ck.check_zt(r, name), none)
        if op == "rotation_set":
            def check(poly):
                self.hull(spec).check_polytope(poly, self.check_rng(item))
            return (lambda: ts.rotation_set(phi), check,
                    lambda poly: self.face_ops(spec, phi, poly))
        if op == "genericity_check":
            def check(rep):
                # a 3-d hull is solved from reported vertices, which need
                # only span the hull; take them from a reference call when
                # the rotation_set op has not solved it already
                hull = self.hull(spec)
                if hull.vertices is None:
                    hull.solve(ts.rotation_set(phi).vertices,
                               self.check_rng(item))
                hull.check_genericity(rep)
            return lambda: ts.genericity_check(phi), check, none
        if op == "face_entropy_curve":
            alpha, poly, edge = item["_alpha"], item["_poly"], item["_edge"]
            d = phi.sft.d
            return (lambda: ts.face_entropy_curve(phi, alpha, poly=poly),
                    lambda c: ck.check_face_curve(c, edge, alpha, d),
                    lambda c: [{"op": "differentiability_scan",
                                "alpha": item["alpha"], "_curve": c}])
        if op == "differentiability_scan":
            curve = item["_curve"]
            return (lambda: ts.differentiability_scan(curve),
                    lambda s: ck.check_scan(s, curve), none)
        if op == "localized_entropy_interior":
            poly, w = item["_poly"], item["_w"]
            d = phi.sft.d
            return (lambda: ts.localized_entropy_interior(phi, w, poly=poly),
                    lambda r: ck.check_interior(inst(), r, w, d), none)
        if op == "cli_orbits":
            return self.plan_orbits(item)
        if op == "cli":
            argv = item["argv"]
            check = {"rotset": ck.check_cli_rotset_trivec,
                     "facecurve": ck.check_cli_facecurve_kinkvec}[argv[0]]
            return lambda: self.cli(argv), check, none
        raise ValueError(f"unknown op {op!r}")

    def hull(self, spec):
        if id(spec) not in self.hulls:
            phi = self.built[id(spec)]
            self.hulls[id(spec)] = self.checks.OrbitHull(self.instance(spec),
                                                         phi.m)
        return self.hulls[id(spec)]

    def check_rng(self, item):
        return random.Random(self.wl.digest(describe(item)))

    def face_ops(self, spec, phi, poly):
        """Edge curves, kink scans and an interior point of a planar
        rotation polygon; the facet normal of each edge exposes it."""
        if phi.m != 2 or poly.affine_dim != 2:
            return []
        verts = [tuple(v) for v in poly.vertices]
        ops = []
        for f in poly.facets:
            edge = tuple(verts[i] for i in f.vertex_ids)
            ops.append({"op": "face_entropy_curve", "input": spec,
                        "alpha": [str(a) for a in f.normal],
                        "_alpha": tuple(f.normal), "_poly": poly,
                        "_edge": edge})
        w = tuple(sum(v[c] for v in verts) / Fraction(len(verts))
                  for c in range(2))
        ops.append({"op": "localized_entropy_interior", "input": spec,
                    "w": [str(x) for x in w], "_w": w, "_poly": poly})
        return ops

    def plan_orbits(self, item):
        spec = item["input"]
        census_dir = self.census_dir          # fresh for every prepared pass
        shift = census_dir / "shift.json"
        if item["call"] == "write":
            census_dir.mkdir(parents=True, exist_ok=True)
            shift.write_text(json.dumps({"transition": spec["rows"],
                                         "labels": spec["labels"]}))
        argv = ["orbits", "--shift", str(shift), "--k", str(spec["k"])]
        d = len(spec["rows"])

        def check(payload):
            self.checks.check_cli_orbits(payload, d)
            entries = list((census_dir / "cache").glob("orbits-*.json"))
            self.checks.require(len(entries) == 1, "census not in the cache")
            if item["call"] == "write":
                self.written_census = payload
            else:
                self.checks.require(payload == self.written_census,
                                    "read-back census differs from the written one")
        return (lambda: self.cli(argv, census_dir / "cache"), check,
                lambda r: [])

    def cli(self, argv, cache_dir=None):
        """One cold CLI call in a fresh interpreter; returns the payload."""
        self.count += 1
        out = self.workdir / f"cli-{self.count}.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "thermoshift.cli", *argv]
        else:
            stats = self.workdir / f"cli-{self.count}.stats"
            cmd = [sys.executable, str(HERE / "cli_shim.py"), "--t0",
                   repr(time.monotonic()), "--stats", str(stats), "--", *argv]
        rss = run_child(cmd, child_env(cache_dir or self.workdir / "cache"), out)
        self.child_rss_kb = max(self.child_rss_kb, rss)
        if self.tracer is not None:
            self.children.append(json.loads(stats.read_text()))
        return json.loads(out.read_text())["payload"]

    def run_pass(self, items, corrupt=None):
        """Run ops in order; follow-up ops run right after their parent.

        Returns ((start, end) of each op, the ops run, failures).  A
        failed op is recorded with its input; its follow-ups are
        skipped."""
        from checks import CheckFailed
        queue = deque(items)
        intervals, done, failures = [], [], []
        self.children = []
        # objects from before the pass are frozen, so that the collection
        # before each op scans only what the pass has made
        gc.collect()
        gc.freeze()
        try:
            while queue:
                item = queue.popleft()
                call, check, follow = self.plan(item)
                if self.tracer is not None:
                    self.tracer.op = len(intervals)
                gc.collect()    # every op starts from the same collector state
                t0 = time.perf_counter()
                try:
                    result = call()
                    error = None
                except Exception as exc:    # a raising op is a failed op
                    error = f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                if self.tracer is not None:
                    self.tracer.op = None
                intervals.append((t0, t1))
                done.append(item)
                if error is None:
                    if corrupt is not None:
                        result = corrupt(item, result)
                    try:
                        check(result)
                    except (CheckFailed, ArithmeticError, AttributeError,
                            KeyError, TypeError, ValueError, IndexError) as exc:
                        error = f"{type(exc).__name__}: {exc}"
                if error is not None:
                    failures.append({"op": describe(item), "error": error})
                    continue
                queue.extendleft(reversed(follow(result)))
        finally:
            gc.unfreeze()
        return intervals, done, failures


# -- a run ---------------------------------------------------------------------

def quantile(xs, q: float) -> float:
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def hd_quantile(xs, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) distribution.  A
    single order statistic jumps when the quantile falls in a gap
    between two kinds of op; this estimate moves smoothly."""
    import numpy as np
    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)
    if n == 1:
        return float(xs[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    sub = 16                # midpoint rule on 16 points per order statistic
    x = (np.arange(n * sub) + 0.5) / (n * sub)
    logpdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    w = np.exp(logpdf - logpdf.max()).reshape(n, sub).sum(axis=1)
    return float(np.dot(w, xs) / w.sum())


def per_pass_quantile(passes, cold, q: float) -> float:
    """The median over passes of each pass's q-quantile, the cold ops
    counted in every pass.  Every pass has the same size, so the estimate
    does not shift with the number of passes that fit in the run, as a
    quantile of all ops pooled would where the ops' times have gaps."""
    return quantile([hd_quantile(times + cold, q) for times in passes], 0.5)


def measure_setup(args, workdir: Path, probes: int, clock):
    """Median scaled wall time of fresh interpreters that import
    thermoshift and build the first pass's inputs; also their peak RSS
    in KiB."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    intervals, rss = [], 0
    for i in range(probes):
        t0 = time.perf_counter()
        rss = max(rss, run_child(cmd, child_env(), workdir / f"probe-{i}.out"))
        intervals.append((t0, time.perf_counter()))
    times = [clock.scaled(a, b) for a, b in intervals]
    return quantile(times, 0.5), len(times), rss


def setup_probe(args) -> int:
    import thermoshift
    import workloads
    runner = Runner(thermoshift, TMP)
    runner.prepare(workloads.generate(args.workload, args.seed, 0, args.smoke))
    return 0


def source_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((SRC / "thermoshift").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(nproc: int) -> dict:
    import mpmath
    import networkx
    import numpy
    return {
        "commit": git_commit(), "source_digest": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "networkx": networkx.__version__, "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": nproc, "pinned_cpu": min(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "thermoshift_threads": os.environ.get("THERMOSHIFT_THREADS"),
    }


def run(args, workdir: Path, clock) -> tuple[dict, list[str]]:
    import thermoshift as ts
    import workloads
    from tracing import Tracer, layer_metrics

    runner = Runner(ts, workdir, clock)
    setup = None
    if not args.trace:
        setup = measure_setup(args, workdir, 1 if args.smoke else SETUP_PROBES,
                              runner.clock)
    failures, digests, layers, passes = [], [], [], []
    cold = workloads.cold_items(args.workload, args.seed, args.smoke)
    start = time.perf_counter()
    p = 0
    while True:
        t_pass = time.perf_counter()
        items = workloads.generate(args.workload, args.seed, p, args.smoke)
        if p == 0:
            items = cold + items
        digests.append(workloads.digest(items))
        clear_library_caches()
        runner.prepare(items)
        intervals, done, fails = runner.run_pass(items)
        traced = None
        if args.trace:
            tracer = Tracer()
            clear_library_caches()
            runner.prepare(items)
            recode = getattr(ts.recode_to_one_step, "cache_info", None)
            info0 = recode() if recode else None
            tracer.install()
            runner.tracer = tracer
            try:
                traced, done, fails = runner.run_pass(items)
            finally:
                tracer.uninstall()
                runner.tracer = None
            info1 = recode() if recode else None
            delta = (info1.hits - info0.hits, info1.misses - info0.misses) \
                if recode else (0, 0)
            layers.append(layer_metrics(tracer.take(), delta, runner.children))
        # keep the slowest ops' descriptions only, so that memory does not
        # grow with the number of passes
        spans = traced or intervals
        top = sorted(range(len(done)), key=lambda i: spans[i][0] - spans[i][1])
        passes.append((intervals, traced,
                       {i: json.dumps(describe(done[i]))[:300] for i in top[:3]}))
        failures += [dict(f, pass_index=p) for f in fails]
        p += 1
        elapsed = time.perf_counter() - start
        pass_s = time.perf_counter() - t_pass
        if p == 1:                      # the next pass has no cold ops
            pass_s -= sum(b - a for a, b in intervals[:len(cold)])
        if args.smoke or elapsed + pass_s > args.seconds:
            break

    # times are scaled after the last pass, when the speed readings that
    # cover it are in; the reported latencies are those of the traced
    # passes in a traced run
    lat, raw, overheads, timed = [], [], [], []
    for intervals, traced, top in passes:
        scaled = [clock.scaled(a, b) for a, b in intervals]
        if traced is not None:
            untraced, scaled = scaled, [clock.scaled(a, b) for a, b in traced]
            overheads.append(sum(scaled) - sum(untraced))
            intervals = traced
        lat.append(scaled)
        raw.append([b - a for a, b in intervals])
        timed += [(scaled[i], text) for i, text in top.items()]
    slowest = sorted(timed, key=lambda x: -x[0])[:3]
    # the cold ops run once per run, outside the pass medians
    cold_lat, cold_raw = lat[0][:len(cold)], raw[0][:len(cold)]
    lat[0], raw[0] = lat[0][len(cold):], raw[0][len(cold):]
    cold_s, cold_raw_s = sum(cold_lat), sum(cold_raw)
    walls = [sum(x) for x in lat]
    raw_walls = [sum(x) for x in raw]
    n = sum(map(len, lat)) + len(cold)
    size = round(quantile([len(x) for x in lat], 0.5)) + len(cold)
    lines = [f"ops digest: pass0={digests[0]} all={workloads.digest(digests)} "
             f"passes={p}"]
    values = {
        "wall_s": (cold_s + quantile(walls, 0.5),
                   cold_raw_s + quantile(raw_walls, 0.5),
                   (f"{cold_s:.3g} s of cold ops plus " if cold else "")
                   + f"the median of {p} passes"),
        "op_p50_ms": (per_pass_quantile(lat, cold_lat, 0.5) * 1e3,
                      per_pass_quantile(raw, cold_raw, 0.5) * 1e3,
                      f"{n} ops; median over {p} passes of about {size} ops"),
        "op_p90_ms": (per_pass_quantile(lat, cold_lat, 0.9) * 1e3,
                      per_pass_quantile(raw, cold_raw, 0.9) * 1e3,
                      f"{n} ops; median over {p} passes of about {size} ops, "
                      f"{n - int(0.9 * n)} of all ops beyond"),
        "peak_rss_mb": ((resource_peak_kb() + max(runner.child_rss_kb,
                                                  setup[2] if setup else 0))
                        / 1024, None, "this process plus its largest child"),
        "error_rate": (len(failures) / n, None, f"{len(failures)} of {n} ops"),
    }
    if setup:
        values["setup_s"] = (setup[0], None,
                             f"median of {setup[1]} fresh interpreters")
    for name, (value, unscaled, note) in values.items():
        if not args.trace or name in ("wall_s", "error_rate"):
            if unscaled is not None:
                note += f"; unscaled {unscaled:.6g}"
            lines.append(f"metric {name} = {value:.6g} {UNITS[name]} ({note})")
    for dt, text in slowest:
        lines.append(f"slow op: {dt:.3f} s {text}")
    for f in failures:
        lines.append("failed op: " + json.dumps(f, default=str))
    if args.trace:
        metrics = {}
        for key in layers[0]:
            metrics[key] = {"value": quantile([x[key] for x in layers], 0.5),
                            "unit": layer_unit(key)}
        metrics["trace.overhead_s"] = {"value": quantile(overheads, 0.5),
                                       "unit": "s"}
        for key, m in metrics.items():
            lines.append(f"layer {key} = {m['value']:.6g} {m['unit']} "
                         f"(median of {p} traced passes)")
    else:
        metrics = {k: {"value": values[k][0], "unit": UNITS[k]}
                   for k in ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms",
                             "peak_rss_mb")}
    result = {"correct": not failures, "attempted": n, "failed": len(failures),
              "metrics": metrics}
    return result, lines


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    if key.endswith("digits_mean"):
        return "digits"
    return "count"


def resource_peak_kb() -> int:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def parse_args(argv=None):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one tiny pass, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "thermoshift" / "__init__.py").is_file() or not ORACLES.is_file():
        print(f"perfbench: no thermoshift sources under {ROOT}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    # one CPU for the run and its children, so the speed probes see the
    # CPU that did the work; pinned before numpy is first imported, so
    # OpenBLAS sizes its thread pool for that one CPU
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ.pop("THERMOSHIFT_THREADS", None)
    os.environ["THERMOSHIFT_CACHE"] = "off"     # library ops never touch a cache
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    load0 = os.getloadavg()
    workdir = TMP / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with speed.Clock(workdir / "speed.txt") as clock:
            result, lines = run(args, workdir, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass
    env = dict(environment(nproc), loadavg_start=load0,
               loadavg_end=os.getloadavg())
    print("env: " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
