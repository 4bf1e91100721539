"""One fresh interpreter's share of a benchmark run.

    python3 bench/worker.py setup --workload W --seed N
    python3 bench/worker.py round --workload W --seed N [--trace]

`setup` times the import of orbicalc plus generating the inputs.  `round`
runs the workload's whole job list once from cold program caches, takes
calibration samples between jobs and on a timer inside long jobs, checks
every answer after the timed part, and prints one JSON line.  With --trace it also records spans
(name, start, end, parent, job id) around the calls into each layer,
calling a job's dependencies in dependency order first, so that each
span covers one layer's own work.  bench/run.py starts these processes
with the program's src/ directory on PYTHONPATH.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402

# `setup` brackets its timed part with two calibration samples.
SETUP_BEFORE = calib.kernel_seconds() if sys.argv[1:2] == ["setup"] else None
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402

# Take a calibration sample between jobs once this much timed work has
# run since the last one.
CAL_EVERY_S = 0.3
# Inside a job, take a sample on a timer this often, so that a long job is
# corrected by the speed during it and not only at its two ends.  Not in
# `cli`, whose jobs wait on a child process running on the other core.
IN_JOB_EVERY_S = 1.0
CLI_TIMEOUT_S = 60


class Recorder:
    """Job timings, calibration samples, spans and counters of one round.

    Times come from a clock that stops while a calibration sample runs
    inside a job, so sampling never counts as the program's time.
    """

    def __init__(self, traced, sample_in_jobs):
        self.traced = traced
        self.sample_in_jobs = sample_in_jobs
        self.jobs = []
        self.job_ids = []
        # (index of the sample just before the job, index of the one just after)
        self.job_samples = []
        self.kernel = []
        self.spans = []
        self.counts = Counter()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._stack = []
        self._job = None
        self._since_sample = 0.0
        self._paused = 0.0
        if sample_in_jobs:
            signal.signal(signal.SIGALRM, self._sample_in_job)

    def clock(self):
        return time.perf_counter() - self._paused

    def calibrate(self):
        self.kernel.append(calib.kernel_seconds())
        self._since_sample = 0.0

    def close(self):
        """Take the round's closing sample, unless one followed the last job."""
        if self._since_sample > 0:
            self.calibrate()

    def _sample_in_job(self, signum, frame):
        t0 = time.perf_counter()
        self.calibrate()
        self._paused += time.perf_counter() - t0

    @contextmanager
    def _span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = {"name": name, "start": self.clock(), "end": None,
                  "parent": parent, "job": self._job}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = self.clock()
            self._stack.pop()

    def job(self, job_id, fn):
        """Time fn() as one job; an exception counts it as failed."""
        self.attempted += 1
        self._job = len(self.jobs)
        self.job_ids.append(job_id)
        before = len(self.kernel) - 1
        if self.sample_in_jobs:
            signal.setitimer(signal.ITIMER_REAL, IN_JOB_EVERY_S, IN_JOB_EVERY_S)
        t0 = self.clock()
        try:
            if self.traced:
                with self._span("job"):
                    result = fn()
            else:
                result = fn()
        except Exception as exc:  # the program failed on a valid input
            result = None
            self.failed += 1
            self.errors.append(f"{job_id}: {type(exc).__name__}: {exc}")
        finally:
            if self.sample_in_jobs:
                signal.setitimer(signal.ITIMER_REAL, 0)
        dt = self.clock() - t0
        self.job_samples.append((before, len(self.kernel)))
        self.jobs.append(dt)
        self._since_sample += dt
        if self._since_sample >= CAL_EVERY_S:
            self.calibrate()
        return result

    def span(self, name, fn, *args, **kwargs):
        if not self.traced:
            return fn(*args, **kwargs)
        with self._span(name):
            return fn(*args, **kwargs)

    def count(self, name, n):
        if self.traced:
            self.counts[name] += n


# -- workloads ----------------------------------------------------------------------


def run_groups(rec, jobs):
    from orbicalc import (character_table, conjugacy_classes, frobenius_schur,
                          group_from_json, real_irreps, subgroup_classes)

    answers = {}

    def job(spec):
        G = rec.span("groups.build", group_from_json, spec["group"])
        classes = rec.span("groups.classes", conjugacy_classes, G)
        subs = None
        if G.order <= 48:
            subs = rec.span("groups.lattice", subgroup_classes, G)
        ct = rec.span("characters.table", character_table, G)
        R = rec.span("realreps.irreps", real_irreps, G)
        fs = rec.span("characters.table", lambda: [
            frobenius_schur(ct, t) for t in range(ct.num_classes)])
        rec.count("groups.elements", G.order)
        rec.count("groups.classes", len(classes))
        rec.count("groups.subgroup_classes", len(subs or ()))
        return {
            "order": G.order,
            "num_classes": len(classes),
            "degrees": list(ct.degrees),
            "fs": fs,
            "real": [(e.real_dim, e.end_type) for e in R.entries],
            "subgroup_classes": None if subs is None else len(subs),
        }

    for spec in jobs:
        answers[spec["name"]] = rec.job(spec["name"], lambda: job(spec))

    def check():
        import checks

        err = []
        for spec in jobs:
            ans = answers[spec["name"]]
            if ans is not None:
                g = spec["group"]
                facts = checks.group_facts(g["degree"], g["generators"])
                err += checks.check_group(spec["name"], facts, ans)
        return err

    return check


def run_maps(rec, inputs):
    from orbicalc import (character_table, conjugacy_classes, group_from_json,
                          hom_classes, map_group, real_irreps, rep_hom_classes,
                          subgroup_as_group, subgroup_classes)

    groups = {}
    seen_homs = set()

    def load(name):
        if name not in groups:
            groups[name] = rec.span("groups.build", group_from_json, inputs["groups"][name])
        return groups[name]

    def dependencies(G, H, variant):
        """The layers map_group calls, each run on its own first (traced only)."""
        for sc in rec.span("groups.lattice", subgroup_classes, G):
            K, _ = rec.span("groups.build", subgroup_as_group, G, sc.representative)
            rec.span("groups.classes", conjugacy_classes, K)
            rec.span("characters.table", character_table, K)
            rec.span("realreps.irreps", real_irreps, K)
            key = (id(K), id(H), variant)
            found = rec.span("homs.classes", hom_classes, K, H)
            if variant == "rep":
                rec.span("groups.lattice", subgroup_classes, K)
                found = rec.span("homs.classes", rep_hom_classes, K, H)
            if key not in seen_homs:
                seen_homs.add(key)
                rec.count("homs.classes", len(found))

    results = {}

    def job(a, b, variant):
        G, H = load(a), load(b)
        if rec.traced:
            dependencies(G, H, variant)
        pres = rec.span("stablemaps.map_group", map_group, G, H, variant)
        generators = {g for pair in pres.orbit_table for g in pair}
        rec.count("stablemaps.generators", len(generators))
        return pres.rank, len(generators)

    for a, b, v in inputs["jobs"]:
        out = rec.job(f"{a}->{b}:{v}", lambda: job(a, b, v))
        if out is not None:
            results[(a, b, v)] = out

    def check():
        import checks

        return checks.check_maps(results)

    return check


def run_nerve(rec, specs):
    from orbicalc import (build_quotient_category, homology, nerve_chain_complex,
                          rep_hom_classes, subgroup_classes)
    from orbicalc.corpus import groups_of_order_at_most

    answers = {}

    def dependencies(max_order):
        """Corpus groups, their lattices and injective hom classes (traced only)."""
        groups = rec.span("groups.build", groups_of_order_at_most, max_order)
        for A in groups:
            rec.span("groups.lattice", subgroup_classes, A)
        for A in groups:
            for B in groups:
                found = rec.span("homs.classes", rep_hom_classes, A, B)
                rec.count("homs.classes", len(found))

    def job(max_order, max_dim, isos):
        if rec.traced:
            dependencies(max_order)
        cat = rec.span("rstar.category", build_quotient_category, max_order)
        cc, census = rec.span("rstar.chains", nerve_chain_complex, cat, max_dim, isos)
        degrees = rec.span("snf.homology", homology, cc, unreliable_from=max_dim)
        counts = census.counts()
        rec.count("rstar.cells", sum(counts))
        rec.count("snf.matrix_entries", sum(
            counts[p - 1] * counts[p] for p in range(1, len(counts))))
        arrows = [[0] * len(cat.objects) for _ in cat.objects]
        for a in cat.nonidentity_arrows(isos):
            arrows[a.src][a.dst] += 1
        return counts, [(d.betti, list(d.torsion)) for d in degrees], arrows

    for spec in specs:
        answers[spec] = rec.job("N=%d,d=%d,isos=%s" % spec, lambda: job(*spec))

    def check():
        import checks

        err = []
        for (n, d, isos), ans in answers.items():
            if ans is not None:
                counts, hom, arrows = ans
                err += checks.check_nerve(f"N={n},d={d},isos={isos}", d, counts, hom, arrows)
        return err

    return check


def _cli(argv, env):
    return subprocess.run(
        [sys.executable, "-m", "orbicalc", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S,
    )


def run_cli(rec, inputs, seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 4096))
    calls = inputs["calls"]
    procs = []
    if rec.traced:
        for _ in range(3):
            rec.span("cli.start", _cli, ["--version"], env)

    def job(call):
        return rec.span("cli." + call["argv"][0], _cli, call["argv"], env)

    for call in calls:
        procs.append(rec.job(call["argv"][0], lambda: job(call)))
    # The determinism check repeats one request under another hash seed.
    repeat = next(i for i, c in enumerate(calls) if c.get("repeat"))
    env2 = dict(env, PYTHONHASHSEED=str(seed % 4096 + 4096))
    again = rec.job("repeat", lambda: rec.span(
        "cli." + calls[repeat]["argv"][0], _cli, calls[repeat]["argv"], env2))

    def check():
        import checks

        facts = checks.cli_facts(inputs)
        err = []
        payloads = []
        for call, proc in zip(calls, procs):
            payload = None
            if proc is None:
                pass
            elif call["kind"] == "error":
                if not checks.is_structured_error(proc.returncode, proc.stderr):
                    rec.failed += 1
                    rec.errors.append(f"{call.get('fault', 'malformed request')}: "
                                      f"exit {proc.returncode}")
            elif proc.returncode != 0:
                rec.failed += 1
                rec.errors.append(f"{call['argv'][0]}: exit {proc.returncode}")
            else:
                try:
                    payload = json.loads(proc.stdout)
                except ValueError:
                    err.append(f"{call['argv'][0]}: stdout is not JSON")
            if payload is not None:
                err += checks.check_cli_payload(call, payload, facts)
            payloads.append(payload)
        err += checks.check_cli_pairs(calls, payloads)
        if again is not None and procs[repeat] is not None:
            err += checks.check_repeat(procs[repeat].stdout, again.stdout)
        return err

    return check


# -- modes ----------------------------------------------------------------------------


def _workdir():
    return BENCH / "out" / f"work-{os.getpid()}"


def setup(workload, seed):
    import orbicalc  # noqa: F401
    import inputs

    inputs.make_inputs(workload, seed, _workdir())
    raw = time.perf_counter() - T0
    return {"raw": raw, "kernel": [SETUP_BEFORE, calib.kernel_seconds()]}


def round_(workload, seed, traced):
    import inputs

    data = inputs.make_inputs(workload, seed, _workdir())
    rec = Recorder(traced, sample_in_jobs=workload != "cli")
    rec.calibrate()
    t_start = rec.clock()
    if workload == "groups":
        check = run_groups(rec, data)
    elif workload == "maps":
        check = run_maps(rec, data)
    elif workload == "nerve":
        check = run_nerve(rec, data)
    else:
        check = run_cli(rec, data, seed)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    rec.close()
    errors = check()
    out = {
        "wall": sum(rec.jobs),
        "jobs": rec.jobs,
        "job_ids": rec.job_ids,
        "job_samples": rec.job_samples,
        "kernel": rec.kernel,
        "rss_mb": rss_mb,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.errors,
        "check_errors": errors,
    }
    if traced:
        out["spans"] = [dict(s, start=s["start"] - t_start, end=s["end"] - t_start)
                        for s in rec.spans]
        out["counts"] = dict(rec.counts)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "round"])
    parser.add_argument("--workload", required=True,
                        choices=["groups", "maps", "nerve", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    try:
        if args.mode == "setup":
            result = setup(args.workload, args.seed)
        else:
            result = round_(args.workload, args.seed, args.trace)
    finally:
        shutil.rmtree(_workdir(), ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
