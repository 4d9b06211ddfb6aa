"""Concurrent fuzzing (§5): a fault-tolerant parallel fuzzing service.

The original PMRace runs 13 worker processes for hours, each fuzzing with
its own seeds, and merges their findings.  This module is the scaling
surface of the reproduction and its only multi-seed loop: one engine
session per seed, run by a persistent worker pool or in-process with
``processes=1`` (how ``repro fuzz``, ``validate``, ``tables`` and the bug
matrix run), with the guarantees a long campaign needs:

* **Streaming merge** — per-worker :class:`~repro.core.engine.RunResult`s
  are folded into a *fresh* merged result in worker (seed) order, each
  as soon as it and every earlier worker have finished (workers' own
  result objects are never mutated), so partial findings reach the
  ``progress`` callback before the slowest worker finishes, and bug
  report numbers and the worker list do not depend on which worker
  happened to finish first.
* **Fault tolerance** — a worker that raises, exceeds ``worker_timeout``
  (measured from the worker's own execution start so queueing behind a
  busy pool never counts against the budget), or *dies outright*
  (SIGKILLed, OOM-killed — detected by supervising the pid it reported
  at pickup, since ``multiprocessing.Pool`` never completes the result
  handle of a killed worker) does not abort the run: the failure is
  recorded once, under the seed the worker was given, and the other
  workers carry on.  No seed is ever swapped for one nobody named.
* **Supervision** — each worker reports its pid and execution-start
  stamp when it picks a job up; the parent times jobs out from that
  stamp and uses the pid for liveness checks and targeted kills.
* **Durability** — pass a :class:`~repro.core.session.Session` and every
  finished work unit, failed or not, is checkpointed, SIGINT/SIGTERM
  stop dispatch and write a final checkpoint, and a resumed session
  skips every worker the committed checkpoint lists.
* **Isolation** — each worker fuzzes a deep copy of the base config, so a
  caller-supplied mutable member (the :class:`~repro.detect.whitelist.
  Whitelist` in particular) is never shared between sessions, even on the
  ``processes=1`` in-process path.
* **Accounting** — every worker (successful, failed, timed out, died)
  leaves one :class:`WorkerStats` entry on ``merged.worker_stats``.

Targets are passed by registry name (or any picklable zero-argument
factory) so workers can reconstruct them.
"""

import copy
import os
import signal
import time
import traceback

from ..obs.tracer import NULL_TRACER
from ..targets.registry import make_target
from .engine import PMRace, PMRaceConfig, RunResult
from .session import SessionInterrupted, SignalGuard

#: Seconds between completion polls of in-flight pool jobs.
_POLL_INTERVAL = 0.02

#: Worker-side report queue, installed by the pool initializer.  Workers
#: send a ``(worker_id, pid, monotonic_stamp)`` start report the
#: moment they pick a job up, so the parent can (a) start the timeout
#: clock at *execution* start rather than submission and (b) SIGKILL the
#: exact process running a hung job.
_start_queue = None


def _pool_worker_init(queue):
    global _start_queue
    _start_queue = queue


class WorkerStats:
    """Statistics for one worker (one engine session).

    Attributes:
        worker_id: Stable index of the logical worker (one per seed).
        seed: The base seed this worker fuzzed with.
        status: ``"ok"``, ``"failed"``, ``"timeout"`` or ``"died"``
            (the worker process vanished without delivering a result).
        campaigns / duration / execs_per_sec: Session statistics
            (zero when the worker did not produce a result).
        error: Formatted traceback (or timeout/death note) for failures.
    """

    def __init__(self, worker_id, seed):
        self.worker_id = worker_id
        self.seed = seed
        self.status = "ok"
        self.campaigns = 0
        self.duration = 0.0
        self.execs_per_sec = 0.0
        self.error = None

    def record(self, result):
        self.status = "ok"
        self.campaigns = result.campaigns
        self.duration = result.duration
        self.execs_per_sec = result.executions_per_second
        return self

    def fail(self, error, status="failed"):
        self.status = status
        self.error = error
        return self

    def to_dict(self):
        return {
            "worker_id": self.worker_id,
            "seed": self.seed,
            "status": self.status,
            "campaigns": self.campaigns,
            "duration_s": round(self.duration, 3),
            "execs_per_sec": round(self.execs_per_sec, 2),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, doc):
        """Rebuild from :meth:`to_dict` output (session checkpoints)."""
        stats = cls(doc["worker_id"], doc["seed"])
        stats.status = doc.get("status", "ok")
        stats.campaigns = doc.get("campaigns", 0)
        stats.duration = doc.get("duration_s", 0.0)
        stats.execs_per_sec = doc.get("execs_per_sec", 0.0)
        stats.error = doc.get("error")
        return stats

    def __repr__(self):
        return "<WorkerStats #%d seed=%d %s>" % (
            self.worker_id, self.seed, self.status)


class _Job:
    """One scheduled worker: which worker, which seed.

    ``started``/``pid`` arrive from the worker's start report; a job
    that never reported is still queued behind busy pool slots and must
    not be timed out.
    """

    def __init__(self, worker_id, seed):
        self.worker_id = worker_id
        self.seed = seed
        self.started = None
        self.pid = None


def _session_config(config, seed):
    """A per-worker deep copy of ``config`` with its own base seed.

    Deep copy (not ``copy.copy``) so mutable members — the whitelist's
    entry list above all — cannot cross-contaminate sessions on the
    in-process path; subprocess workers get isolation from pickling
    anyway, but both paths behave identically this way.
    """
    cfg = copy.deepcopy(config) if config is not None else PMRaceConfig()
    cfg.base_seed = seed
    return cfg


def _run_worker(payload, tracer=None, metrics=None):
    """Pool entry point: run one engine session, never raise.

    Exceptions are captured and shipped back as a tagged tuple so one
    crashing worker cannot tear down the whole ``map``/pool iteration.
    ``tracer``/``metrics`` are only passed on the in-process path, where
    the engine session shares the service's sinks.

    When the config has ``capture_repro`` on, the records inside the
    returned RunResult carry their repro bundles (plain-data JSON
    documents) across the pickle boundary; the merge in ``_fold``
    adopts a duplicate's bundle for any bundle-less kept record, same
    as crash images.
    """
    worker_id, factory, config, seed = payload
    if _start_queue is not None:
        # CLOCK_MONOTONIC is system-wide on Linux, so the parent can
        # compare this stamp against its own clock directly.
        _start_queue.put((worker_id, os.getpid(), time.monotonic()))
    try:
        if isinstance(factory, str):
            # A dynamically registered target only exists by name after
            # its plugin module is imported in THIS interpreter.
            if config is not None and \
                    getattr(config, "target_modules", ()):
                from ..targets.registry import load_target_modules
                load_target_modules(config.target_modules)
            target = make_target(factory)
        else:
            target = factory()
        cfg = _session_config(config, seed)
        result = PMRace(target, cfg, tracer=tracer, metrics=metrics).run()
        return (worker_id, seed, "ok", result)
    except (SessionInterrupted, KeyboardInterrupt):
        # On the in-process path the SignalGuard handler raises inside
        # the engine session; it must reach the service's interrupt
        # handling, not be recorded as a worker failure.
        raise
    except Exception:
        return (worker_id, seed, "error", traceback.format_exc())


def _target_name(target):
    """Best-effort merged-result name before any worker has reported."""
    if isinstance(target, str):
        return target
    return getattr(target, "NAME", None) or getattr(
        target, "__name__", None) or repr(target)


def _pid_alive(pid):
    """Is ``pid`` still running (or a not-yet-reaped zombie)?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass
    return True


class ParallelFuzzService:
    """Drives N worker sessions and streams their results into one merge.

    Normally used through :func:`fuzz_parallel`; instantiating the
    service directly gives access to the merged-so-far result while the
    run is still in flight (via the ``progress`` callback arguments).

    With a ``session`` (:class:`~repro.core.session.Session`), every
    finished worker is durably checkpointed, signals produce a final
    checkpoint instead of lost work, and a resumed session restores the
    merged result and skips finished workers.
    """

    def __init__(self, target, config=None, seeds=(7, 13, 42, 99),
                 processes=None, worker_timeout=None, progress=None,
                 tracer=None, metrics=None, session=None):
        if not seeds:
            raise ValueError("fuzz_parallel needs at least one seed")
        self.target = target
        self.config = config
        self.seeds = tuple(seeds)
        self.processes = processes
        self.worker_timeout = worker_timeout
        self.progress = progress
        self.session = session
        # Pool workers run in subprocesses, so their events surface here
        # as typed "worker" records and merged profile/metric aggregates;
        # in-process sessions (processes=1) write into these sinks too.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        # The merged result is a *fresh* RunResult: worker results are
        # folded in and never mutated, and no worker's base_seed leaks
        # into the merged config (all seeds live in worker_stats).
        self.merged = RunResult(_target_name(target),
                                copy.deepcopy(config)
                                if config is not None else PMRaceConfig())
        self._units = set()
        #: Worker ids not folded in yet, dispatch order, and the finished
        #: outcomes waiting for an earlier worker (see :meth:`_absorb`).
        self._unfolded = []
        self._finished = {}

    # ------------------------------------------------------------------

    def _initial_jobs(self):
        """The dispatch list: all workers on a fresh run; on resume,
        only the workers the committed checkpoint does not list."""
        done = set()
        if self.session is not None and self.session.resumed:
            restored = self.session.load_checkpoint(
                copy.deepcopy(self.config)
                if self.config is not None else PMRaceConfig())
            if restored is not None:
                self.merged = restored
            done = self.session.done_units()
            if self.tracer.enabled:
                self.tracer.emit(
                    "session_resume", dir=self.session.directory,
                    skipped_units=len(done & set(
                        range(len(self.seeds)))))
            if self.metrics is not None:
                self.metrics.counter("session.resume.skipped").inc(
                    len(done))
        self._units = set(done)
        jobs = [_Job(index, seed) for index, seed in enumerate(self.seeds)
                if index not in done]
        self._unfolded = [job.worker_id for job in jobs]
        return jobs

    def run(self):
        jobs = self._initial_jobs()
        inprocess = self.processes == 1
        # In-process engine sessions emit their own run_start/run_end
        # into the shared tracer; only the pool run needs a pair here.
        if not inprocess:
            self.tracer.emit("run_start",
                             target=_target_name(self.target), parallel=True,
                             seeds=list(self.seeds),
                             processes=self.processes,
                             resumed=bool(self.session is not None
                                          and self.session.resumed))
        start = time.monotonic()
        interrupted = None
        dispatch = self._run_inprocess if inprocess else self._run_pool
        try:
            if self.session is not None:
                with SignalGuard():
                    dispatch(jobs)
            else:
                dispatch(jobs)
        except SessionInterrupted as exc:
            interrupted = exc.signum
        except KeyboardInterrupt:
            if self.session is None:
                raise
            interrupted = signal.SIGINT
        # An interrupted run may leave finished workers waiting behind an
        # unfinished one; fold them so the final checkpoint keeps them.
        for worker_id in sorted(self._finished):
            self._fold(self._finished.pop(worker_id))
        self.merged._regroup()
        if self.session is not None:
            if interrupted is None:
                whitelist = getattr(self.config, "whitelist", None)
                self.session.revalidate_pending(self.merged,
                                                whitelist=whitelist)
                self.merged._regroup()
            self.session.write_checkpoint(
                self.merged, self._units, final=interrupted is None,
                interrupted=interrupted)
        self.merged.interrupted = interrupted
        if not inprocess:
            self.tracer.emit("run_end", target=self.merged.target_name,
                             duration_s=round(time.monotonic() - start, 6),
                             interrupted=interrupted,
                             summary=self.merged.summary())
        return self.merged

    # ------------------------------------------------------------------

    def _payload(self, job):
        return (job.worker_id, self.target, self.config, job.seed)

    def _checkpoint_unit(self, stats):
        """Durably commit one finished worker, failed or not: the
        checkpoint embeds the unit list and the worker's stats, so the
        unit is done exactly when that checkpoint commits."""
        if self.session is None:
            return
        self._units.add(stats.worker_id)
        self.session.write_checkpoint(self.merged, self._units)

    def _absorb(self, outcome):
        """Take one finished worker, then fold every finished worker
        whose predecessors are all folded, in worker order."""
        self._finished[outcome[0]] = outcome
        unfolded = self._unfolded
        while unfolded and unfolded[0] in self._finished:
            self._fold(self._finished.pop(unfolded.pop(0)))

    def _fold(self, outcome):
        """Fold one finished worker into the merged result."""
        worker_id, seed, status, value = outcome
        stats = WorkerStats(worker_id, seed)
        merge_seconds = 0.0
        if status == "ok":
            stats.record(value)
            merge_start = time.monotonic()
            upgrades_before = self.merged.verdict_upgrades
            self.merged.merge(value)
            merge_seconds = time.monotonic() - merge_start
            upgraded = self.merged.verdict_upgrades - upgrades_before
            if upgraded and self.metrics is not None:
                self.metrics.counter("parallel.verdict_upgrades").inc(
                    upgraded)
        else:
            stats.fail(value, status if status in ("timeout", "died")
                       else "failed")
        self.merged.worker_stats.append(stats)
        self._checkpoint_unit(stats)
        if self.metrics is not None:
            self.metrics.counter("parallel.attempts").inc()
            self.metrics.counter("parallel.attempts.%s" % stats.status).inc()
            self.metrics.counter("parallel.merged_campaigns").inc(
                stats.campaigns)
            self.metrics.histogram("parallel.merge_seconds").observe(
                merge_seconds)
            self.metrics.histogram("parallel.worker_seconds").observe(
                stats.duration)
        if self.tracer.enabled:
            self.tracer.emit("worker", worker_id=worker_id, seed=seed,
                             status=stats.status,
                             campaigns=stats.campaigns,
                             duration_s=round(stats.duration, 6),
                             merge_s=round(merge_seconds, 6),
                             merged_campaigns=self.merged.campaigns)
        if self.progress is not None:
            self.progress(stats, self.merged)

    def _run_inprocess(self, jobs):
        """Sequential fallback (``processes=1``) — debugger friendly.

        ``worker_timeout`` is not enforced here: there is no second
        process to observe a hang from.
        """
        for job in jobs:
            self._absorb(_run_worker(self._payload(job), self.tracer,
                                     self.metrics))

    def _drain_start_reports(self, start_queue, by_worker):
        """Stamp execution start and pid onto in-flight jobs."""
        from queue import Empty
        while True:
            try:
                worker_id, pid, stamp = start_queue.get_nowait()
            except Empty:
                return
            job = by_worker.get(worker_id)
            if job is not None:
                job.started = stamp
                job.pid = pid

    def _kill_job(self, job):
        if job.pid is not None:
            try:
                os.kill(job.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass

    def _run_pool(self, jobs):
        if not jobs:
            # A resumed session with every unit finished: a default-sized
            # pool would have zero processes.
            return
        # Imported here: the in-process path never needs it.
        import multiprocessing
        processes = self.processes or min(len(jobs),
                                          multiprocessing.cpu_count())
        start_queue = multiprocessing.Queue()
        pool = multiprocessing.Pool(processes,
                                    initializer=_pool_worker_init,
                                    initargs=(start_queue,))
        abort = False
        inflight = {}
        by_worker = {job.worker_id: job for job in jobs}
        try:
            for job in jobs:
                inflight[pool.apply_async(_run_worker,
                                          (self._payload(job),))] = job
            while inflight:
                time.sleep(_POLL_INTERVAL)
                self._drain_start_reports(start_queue, by_worker)
                for handle in list(inflight):
                    job = inflight[handle]
                    if handle.ready():
                        del inflight[handle]
                        self._absorb(handle.get())
                    elif self.worker_timeout is not None and \
                            job.started is not None and \
                            time.monotonic() - job.started > \
                            self.worker_timeout:
                        # The clock starts at the worker's own start
                        # report, so a job queued behind a busy slot is
                        # never charged for its waiting time.  The stuck
                        # process is killed outright: the pool reaps it
                        # and respawns a fresh worker, so the slot is
                        # available to queued seeds instead of being
                        # held hostage until the final terminate().
                        del inflight[handle]
                        abort = True
                        self._kill_job(job)
                        self._absorb((job.worker_id, job.seed, "timeout",
                                      "worker exceeded %gs"
                                      % self.worker_timeout))
                    elif job.pid is not None and not _pid_alive(job.pid):
                        # The worker vanished (SIGKILL, OOM): its result
                        # handle will never become ready, so without this
                        # check the run would hang forever.  Re-check
                        # ready() once — the result may have been
                        # delivered in the instant before death.
                        if handle.ready():
                            continue
                        del inflight[handle]
                        # The lost task's result handle stays incomplete
                        # in the pool's cache forever, so a graceful
                        # close()+join() would hang waiting on it: this
                        # pool can only be terminate()d at the end.
                        abort = True
                        if self.metrics is not None:
                            self.metrics.counter(
                                "parallel.workers_died").inc()
                        self._absorb((job.worker_id, job.seed, "died",
                                      "worker process %d died without "
                                      "reporting a result" % job.pid))
        except BaseException:
            # Interrupt or internal error: take the in-flight workers
            # down with us so terminate() isn't blocked by busy children.
            abort = True
            for job in list(inflight.values()):
                self._kill_job(job)
            raise
        finally:
            if abort:
                pool.terminate()
            else:
                pool.close()
            pool.join()
            start_queue.close()


def fuzz_parallel(target, config=None, seeds=(7, 13, 42, 99),
                  processes=None, worker_timeout=None, progress=None,
                  tracer=None, metrics=None, session=None):
    """Fuzz ``target`` with one worker session per seed; merged result.

    Args:
        target: A Table 1 target name (str) or a picklable zero-argument
            factory returning a Target.
        config: Base :class:`PMRaceConfig`; each worker fuzzes a deep
            copy with ``base_seed`` set to its assigned seed.  The
            caller's object is never mutated.
        seeds: One engine session per seed.
        processes: Worker pool size (default: ``min(len(seeds), cpus)``).
            ``1`` runs everything in-process (useful under debuggers).
        worker_timeout: Seconds a worker may *execute* before it is
            killed and written off as hung (pool path only; the clock
            starts at the worker's start report, not at submission, so
            seeds queued behind a stuck process are not falsely timed
            out while they wait for a slot).
        progress: Optional callable ``progress(stats, merged)`` invoked
            after every finished worker with its :class:`WorkerStats`
            and the merged-so-far result.
        tracer: Optional :class:`~repro.obs.tracer.Tracer` (parent-side:
            worker lifecycle becomes typed ``worker`` events).
        metrics: Optional :class:`~repro.obs.metrics.Metrics` counting
            attempts, merged campaigns, deaths, and merge/worker
            durations.
        session: Optional :class:`~repro.core.session.Session` making the
            run durable (per-unit checkpoints, graceful signals,
            ``--resume`` support).

    Returns:
        A fresh merged :class:`~repro.core.engine.RunResult` whose
        ``worker_stats`` holds one entry per worker and whose ``interrupted``
        attribute carries the signal number when a session run was
        stopped by SIGINT/SIGTERM (None otherwise); the per-worker
        results the workers produced are left unmodified.
    """
    return ParallelFuzzService(target, config, seeds=seeds,
                               processes=processes,
                               worker_timeout=worker_timeout,
                               progress=progress, tracer=tracer,
                               metrics=metrics, session=session).run()
