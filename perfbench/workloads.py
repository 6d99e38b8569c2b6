"""The three workloads, one per stage of the paper's data-center loop.

Each workload is a closed loop with one client: ``round()`` issues its
operations one after another, each starting when the previous one
returns.  ``setup()`` does everything a round needs but should not pay
for (generate, build, collect profiles and shards, compute oracle
outputs); ``warmup()`` is the untimed round; ``check()`` runs after the
timed window and verifies what the rounds produced.

Every operation is recorded as an outcome; a failed one counts in
``fail_frac`` and never stops the run.
"""

import math
import shutil

from repro.belf import read_binary
from repro.profiling import ShardCache, write_fdata
from repro.profiling.merge import shard_content_hash

from programs import (
    PERIODS,
    bolt_job,
    build_program,
    host_run,
    merge,
    plain_run,
    profile_program,
)


class Workload:
    name = None
    presets = ()

    def __init__(self, seed, tracer, workdir, presets=None):
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        if presets is not None:
            self.presets = tuple(presets)
        self.outcomes = []          # [(operation, error or None)]
        self.ratios = {}            # program -> bolted / input cycles
        self.hot_text = {}          # program -> hot text bytes emitted
        self._attempts = 0

    # -- outcome bookkeeping ------------------------------------------------

    def attempt(self, operation, fn, *args):
        """Run one operation, its spans tagged with one operation id; an
        exception is a failed outcome."""
        self._attempts += 1
        self.tracer.op = f"{operation}-{self._attempts}"
        try:
            return fn(*args)
        except Exception as exc:   # the loop must outlive a failed op
            self.record(operation, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.tracer.op = None

    def record(self, operation, error=None):
        self.outcomes.append((operation, error))

    def prepare(self):
        """Untimed work the next round needs, done before its clock
        starts (none by default)."""

    def expect_output(self, operation, program, cpu):
        if cpu.output != program.oracle:
            self.record(operation, f"{program.name}: output differs from "
                        f"the interpreter oracle")
            return False
        return True

    # -- results ------------------------------------------------------------

    def cycles_ratio(self):
        """Geometric mean over programs of bolted / input cycles (1.0,
        no gain, when no bolted run produced the oracle's output — the
        run then also reports failures)."""
        values = list(self.ratios.values())
        if not values:
            return 1.0
        return math.exp(sum(math.log(v) for v in values) / len(values))

    def hot_text_bytes(self):
        return sum(self.hot_text.values())


class Rewrite(Workload):
    """One BOLT job per binary per round (paper section 6.6)."""

    name = "rewrite"
    presets = ("compiler", "hhvm")

    def setup(self):
        self.programs = [build_program(p, self.seed, self.tracer)
                         for p in self.presets]
        for program in self.programs:
            cpu = profile_program(self.tracer, program)
            if self.expect_output("input-run", program, cpu):
                self.record("input-run")
        self.reference = {}         # program -> bytes of its first job
        self.warm = build_program("mini", self.seed, self.tracer)
        profile_program(self.tracer, self.warm)

    def warmup(self):
        bolt_job(self.tracer, self.warm.data, self.warm.profile)

    def round(self):
        for program in self.programs:
            self.attempt("bolt-job", self._job, program)

    def _job(self, program):
        result, out = bolt_job(self.tracer, program.data, program.profile)
        first = self.reference.setdefault(program.name, out)
        if result.degraded == "passthrough":
            self.record("bolt-job", f"{program.name}: degraded to passthrough")
        elif out != first:
            self.record("bolt-job", f"{program.name}: output bytes differ "
                        f"from the first job on the same input")
        else:
            self.record("bolt-job")
        self.hot_text[program.name] = result.hot_text_size

    def check(self):
        for program in self.programs:
            if program.name in self.reference:
                self.attempt("bolted-run", self._bolted_run, program)

    def _bolted_run(self, program):
        with self.tracer.span("belf.read_binary"):
            binary = read_binary(self.reference[program.name])
        cpu = plain_run(self.tracer, binary, program.inputs)
        if self.expect_output("bolted-run", program, cpu):
            self.record("bolted-run")
            self.ratios[program.name] = (cpu.counters.cycles
                                         / program.base_cycles)


class Collect(Workload):
    """Per round, one sampled host run per binary plus one plain run of
    each binary's BOLTed version; every run deserializes its binary
    afresh, so the engine's per-binary trace cache starts cold."""

    name = "collect"
    presets = ("compiler", "proxygen")

    def setup(self):
        self.programs = [build_program(p, self.seed, self.tracer)
                         for p in self.presets]
        self.bolted = {}
        for program in self.programs:
            cpu = profile_program(self.tracer, program)
            if self.expect_output("input-run", program, cpu):
                self.record("input-run")
            result, out = bolt_job(self.tracer, program.data, program.profile)
            self.bolted[program.name] = out
            self.hot_text[program.name] = result.hot_text_size
        self.warm = build_program("mini", self.seed, self.tracer)
        self.last_host = None

    def warmup(self):
        with self.tracer.span("belf.read_binary"):
            binary = read_binary(self.warm.data)
        host_run(self.tracer, binary, self.warm.inputs, self.warm.period)
        plain_run(self.tracer, binary, self.warm.inputs)

    def round(self):
        for program in self.programs:
            self.attempt("host-run", self._host_run, program)
        for program in self.programs:
            self.attempt("bolted-run", self._bolted_run, program)

    def _host_run(self, program):
        with self.tracer.span("belf.read_binary"):
            binary = read_binary(program.data)
        cpu, sampler, _, text = host_run(self.tracer, binary, program.inputs,
                                         program.period)
        program.base_cycles = cpu.counters.cycles
        self.last_host = (program, cpu.counters, sampler.state(), text)
        if self.expect_output("host-run", program, cpu):
            self.record("host-run")

    def _bolted_run(self, program):
        with self.tracer.span("belf.read_binary"):
            binary = read_binary(self.bolted[program.name])
        cpu = plain_run(self.tracer, binary, program.inputs)
        if self.expect_output("bolted-run", program, cpu):
            self.record("bolted-run")
            self.ratios[program.name] = (cpu.counters.cycles
                                         / program.base_cycles)

    def check(self):
        """Engine cross-check: repeat the last timed host run on the
        per-instruction reference engine; counters, sample stream and
        shard must be identical."""
        if self.last_host is not None:
            self.attempt("engine-cross-check", self._cross_check,
                         *self.last_host)

    def _cross_check(self, program, counters, samples, text):
        binary = read_binary(program.data)
        cpu, sampler, _, ref_text = host_run(
            self.tracer, binary, program.inputs, program.period, engine="ref")
        if cpu.counters != counters:
            self.record("engine-cross-check", f"{program.name}: counters "
                        f"differ: {sorted(cpu.counters.diff(counters))}")
        elif sampler.state() != samples or ref_text != text:
            self.record("engine-cross-check",
                        f"{program.name}: sample streams differ")
        else:
            self.record("engine-cross-check")


class Fleet(Workload):
    """Per round, one merge-fdata ingestion of a batch of ``proxygen``
    shards from the current release and a drifted previous release.

    Batches slide through the shard pool by half a batch, and the shard
    cache holds only the previous batch's entries, so half of each
    batch misses (parse, reconcile, store) and half hits (load).
    Carrying those entries over is the untimed ``prepare()``, so a round
    times the ingestion alone.
    """

    name = "fleet"
    presets = ("proxygen",)
    current_hosts = 4
    previous_hosts = 4
    batch = 4
    drift = {"worker_body_scale": 1.25}

    def setup(self):
        preset = self.presets[0]
        self.program = build_program(preset, self.seed, self.tracer)
        previous = build_program(preset, self.seed, self.tracer,
                                 **self.drift)
        with self.tracer.span("belf.read_binary"):
            self.binary = read_binary(self.program.data)
        self.build_id = self.binary.content_hash()
        self.current = self._collect("cur", self.program, self.current_hosts)
        self.stale = self._collect("prev", previous, self.previous_hosts)
        # Interleave releases so every batch mixes fresh and stale shards.
        pool = []
        for i in range(max(len(self.current), len(self.stale))):
            pool += self.current[i:i + 1] + self.stale[i:i + 1]
        self.pool = pool
        self.step = 0
        self.cache_dir = None
        self.merged = {}            # frozenset of shard names -> fdata
        self.cycles = {}            # "fresh" | "stale" -> bolted cycles
        self.stale_ratio = None

    def _collect(self, release, program, hosts):
        """One release's shards, made as ``collect_fleet_shards`` makes
        them (host i samples with the i-th coprime period and runs the
        i-th input mix, default first), but from this benchmark's own
        host runs: they count in ``sim_mips``, and every host on the
        default mix is checked against the oracle."""
        with self.tracer.span("belf.read_binary"):
            binary = read_binary(program.data)
        mixes = [program.inputs] + [
            mix for _, mix in sorted(program.workload.alt_inputs.items())]
        shards = []
        for host in range(hosts):
            inputs = mixes[host % len(mixes)]
            cpu, _, _, text = host_run(self.tracer, binary, inputs,
                                       PERIODS[host % len(PERIODS)])
            if inputs is program.inputs and self.expect_output(
                    "host-run", program, cpu):
                self.record("host-run")
            shards.append((f"{release}-host{host:02d}", text))
        return shards

    def _next_batch(self):
        start = self.step * (self.batch // 2)
        self.step += 1
        return [self.pool[(start + i) % len(self.pool)]
                for i in range(self.batch)]

    def _carry_cache(self, batch):
        """A fresh cache directory holding only the entries of this
        batch's shards that the previous batch stored."""
        old, new = self.cache_dir, self.workdir / f"cache{self.step}"
        if old is not None:
            source, target = ShardCache(old), ShardCache(new)
            for _, text in batch:
                sha = shard_content_hash(text)
                payload = source.load(sha, self.build_id)
                if payload is not None:
                    target.store(sha, self.build_id, payload)
            shutil.rmtree(old, ignore_errors=True)
        self.cache_dir = new

    def prepare(self):
        self.next_batch = self._next_batch()
        self._carry_cache(self.next_batch)

    def warmup(self):
        self.prepare()
        self.round()

    def round(self):
        self.attempt("ingest", self._ingest, self.next_batch, self.cache_dir)

    def _ingest(self, batch, cache_dir):
        result = merge(self.tracer, batch, self.binary, cache_dir=cache_dir)
        with self.tracer.span("profiling.write_fdata"):
            text = write_fdata(result.profile)
        key = frozenset(name for name, _ in batch)
        first = self.merged.setdefault(key, text)
        if result.diagnostics.errors:
            self.record("ingest", f"{len(result.diagnostics.errors)} "
                        f"merge-fdata error(s)")
        elif text != first:
            self.record("ingest", "merged profile differs between cache "
                        "misses and hits of the same shard set")
        else:
            self.record("ingest")
        return text

    def check(self):
        # Cache determinism: the first timed batch, all misses then all
        # hits, must merge to the bytes the mixed timed round produced.
        self.step = 1
        batch = self._next_batch()
        cold = self.workdir / "cache-check"
        shutil.rmtree(cold, ignore_errors=True)
        for _ in range(2):
            self.attempt("ingest", self._ingest, batch, cold)
        # Profile quality: BOLT with every shard, and with the previous
        # release's shards only.
        self.attempt("bolted-run", self._quality, "fresh", self.pool)
        self.attempt("bolted-run", self._quality, "stale", self.stale)
        # The input binary's baseline is one more sampled host of the
        # current release.
        with self.tracer.span("belf.read_binary"):
            binary = read_binary(self.program.data)
        cpu = host_run(self.tracer, binary, self.program.inputs,
                       self.program.period)[0]
        if self.expect_output("input-run", self.program, cpu):
            self.record("input-run")
        ratios = {label: cycles / cpu.counters.cycles
                  for label, cycles in self.cycles.items()}
        self.stale_ratio = ratios.pop("stale", None)
        self.ratios = ratios

    def _quality(self, label, shards):
        profile = merge(self.tracer, shards, self.binary).profile
        result, out = bolt_job(self.tracer, self.program.data, profile)
        if result.degraded == "passthrough":
            self.record("bolted-run", f"{label}: degraded to passthrough")
            return
        if label == "fresh":
            self.hot_text[self.program.name] = result.hot_text_size
        with self.tracer.span("belf.read_binary"):
            binary = read_binary(out)
        cpu = plain_run(self.tracer, binary, self.program.inputs)
        if self.expect_output("bolted-run", self.program, cpu):
            self.record("bolted-run")
            self.cycles[label] = cpu.counters.cycles


WORKLOADS = {cls.name: cls for cls in (Rewrite, Collect, Fleet)}
