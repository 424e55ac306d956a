"""In-memory span tracing and a sampling profiler for the traced run.

Spans are recorded from the benchmark's own code: :class:`Tracer`
replaces each public function listed in :data:`SPANS` with a wrapper
that opens a span, calls the original and closes the span.  Callers
often import a name directly (``from repro.qoe.ssim import
ssim_sequence`` in ``core/video_study.py``), so a wrapper is installed
on *every* ``repro.*`` module attribute that is the original function,
i.e. where each caller looks the name up.  Nothing under ``src/`` is
edited, and :meth:`Tracer.uninstall` restores every patched name.

Work that runs as event callbacks inside ``Simulator.run`` (TCP, UDP,
the applications, links and queues) has no call boundary worth a span,
so :class:`Sampler` attributes it instead: a ``SIGPROF`` interval timer
samples the interrupted Python stack and charges each sample to the
``repro`` package of its innermost ``repro`` frame.
"""

import importlib
import os
import pkgutil
import signal
import sys
import time
from contextlib import contextmanager

import repro

#: ``(span name, module, attribute path)`` for every wrapped function.
#: The layer of a span is its name up to the first dot.
SPANS = (
    ("runner.execute", "repro.runner.execute", "execute_task"),
    ("cache.get", "repro.runner.cache", "ResultCache.get"),
    ("cache.put", "repro.runner.cache", "ResultCache.put"),
    ("core.cell", "repro.core.experiment", "run_qos_cell"),
    ("core.cell", "repro.core.voip_study", "run_voip_cell"),
    ("core.cell", "repro.core.video_study", "run_video_cell"),
    ("core.cell", "repro.core.web_study", "run_web_cell"),
    ("core.lowering", "repro.core.registry", "SweepSpec.tasks"),
    ("core.lowering", "repro.core.registry", "SweepSpec.cells"),
    ("core.build_network", "repro.core.experiment", "build_network"),
    ("core.apply_workload", "repro.core.workloads", "apply_workload"),
    ("sim.run", "repro.sim.engine", "Simulator.run"),
    ("media.clip_frames", "repro.apps.video", "clip_frames"),
    ("media.decode", "repro.media.codec", "decode"),
    ("qoe.ssim", "repro.qoe.ssim", "ssim_sequence"),
    ("qoe.psnr", "repro.qoe.psnr", "psnr_sequence"),
    ("qoe.voip_score", "repro.qoe.voip", "score_call"),
    ("qoe.web_score", "repro.qoe.web", "g1030_mos"),
    ("results.jsonify", "repro.results.convert", "jsonify"),
    ("results.record", "repro.results.record", "record_from_payload"),
    ("report.generate", "repro.report.build", "generate_report"),
    ("report.fidelity", "repro.report.fidelity", "evaluate"),
    ("report.svg", "repro.report.svg", "heatmap_panels"),
    ("report.svg", "repro.report.svg", "line_chart"),
    ("report.svg", "repro.report.svg", "table"),
)

#: Layers whose self time counts towards span coverage.  Time outside
#: every span (the benchmark's own loop) does not.
LAYERS = ("runner", "cache", "core", "sim", "media", "qoe", "results",
          "report")

NAME, START, END, PARENT, CELL = range(5)

#: Requested ``SIGPROF`` period, CPU seconds.  The kernel may deliver
#: fewer (about one per 4 ms was seen), which only lowers the overhead.
SAMPLE_INTERVAL = 0.001


class Tracer:
    """Records ``[name, start, end, parent index, cell id]`` spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.sim_depth = 0  # > 0 while inside Simulator.run
        self.sim_events = 0
        self.sim_cpu_s = 0.0

    # -- spans --------------------------------------------------------
    def open(self, name, cell=None):
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = self.spans[parent][CELL]
        self.spans.append([name, time.perf_counter(), None, parent, cell])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][END] = time.perf_counter()

    @contextmanager
    def span(self, name, cell=None):
        self.open(name, cell)
        try:
            yield
        finally:
            self.close()

    def current(self):
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    # -- patching -----------------------------------------------------
    def install(self):
        # Import every module first: one imported later would bind a
        # wrapper by name and keep it after uninstall().
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)
        for name, module_name, path in SPANS:
            owner = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original)
            if owners:  # a method: the class is the only lookup site
                self._patch(owner, attribute, wrapper)
                continue
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro.")
                        and getattr(module, attribute, None) is original):
                    self._patch(module, attribute, wrapper)

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    def _patch(self, owner, attribute, wrapper):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def _wrap(self, name, original):
        tracer = self
        if name == "sim.run":
            return self._wrap_sim_run(original)
        if name == "runner.execute":
            def wrapper(task, *args, **kwargs):
                tracer.open(name, cell=task.content_hash()[:12])
                try:
                    return original(task, *args, **kwargs)
                finally:
                    tracer.close()
            return wrapper

        def wrapper(*args, **kwargs):
            if tracer.current() == name:  # recursion (jsonify): one span
                return original(*args, **kwargs)
            tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close()
        return wrapper

    def _wrap_sim_run(self, original):
        from repro.sim import engine

        tracer = self

        def run(sim, until=None, max_events=None):
            tracer.open("sim.run")
            tracer.sim_depth += 1
            events = engine.total_events()
            cpu = time.process_time()
            try:
                return original(sim, until=until, max_events=max_events)
            finally:
                tracer.sim_cpu_s += time.process_time() - cpu
                tracer.sim_events += engine.total_events() - events
                tracer.sim_depth -= 1
                tracer.close()
        return run

    def span_cost(self, repeat=20000):
        """Seconds one traced call adds to a bare call, measured."""
        def noop():
            pass

        wrapper = self._wrap("calibrate", noop)
        mark = len(self.spans)
        started = time.perf_counter()
        for __ in range(repeat):
            wrapper()
        wrapped = time.perf_counter() - started
        started = time.perf_counter()
        for __ in range(repeat):
            noop()
        bare = time.perf_counter() - started
        del self.spans[mark:]
        return max(0.0, (wrapped - bare) / repeat)

    # -- analysis -----------------------------------------------------
    def self_times(self):
        """``[(span, self seconds)]``: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        return [(span, span[END] - span[START] - child[index])
                for index, span in enumerate(self.spans)]


class Sampler:
    """SIGPROF stack sampler charging CPU time to ``repro`` packages.

    ``counts`` covers every sample; ``sim_counts`` only those taken
    while ``tracer.sim_depth > 0``.  ``handler_s`` is the wall time
    spent inside the handler itself, i.e. the profiler's overhead.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.counts = {}
        self.sim_counts = {}
        self.handler_s = 0.0
        self.sim_handler_s = 0.0
        self._root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        self._packages = {}
        self._previous = None

    def start(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def _package(self, filename):
        package = self._packages.get(filename)
        if package is None:
            package = ""
            if filename.startswith(self._root):
                package = filename[len(self._root):].split(os.sep)[0]
                package = package[:-3] if package.endswith(".py") else package
            self._packages[filename] = package
        return package

    def _sample(self, signum, frame):
        started = time.perf_counter()
        package = "other"
        while frame is not None:
            found = self._package(frame.f_code.co_filename)
            if found:
                package = found
                break
            frame = frame.f_back
        self.counts[package] = self.counts.get(package, 0) + 1
        elapsed = time.perf_counter() - started
        self.handler_s += elapsed
        if self.tracer.sim_depth:
            self.sim_counts[package] = self.sim_counts.get(package, 0) + 1
            self.sim_handler_s += elapsed
