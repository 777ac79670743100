"""Per-layer tracing of the qmatch package from outside its source.

``Tracer.install`` wraps the public functions of each layer module (plus
the ``Dist`` methods) and rebinds every name that any qmatch module bound
at import to the original function, e.g. ``qmatch.inference.
joint_os_loglik`` and ``qmatch.distributions.gamma_p``; ``uninstall``
puts the originals back.  Nothing under ``src/`` changes.

Every wrapped call is counted and timed.  Spans (name, start, end,
parent, run id) are kept in memory for the first ``SPANS_PER_NAME`` calls
of each function, so the hot kernels (millions of calls) cannot exhaust
memory; later calls are counted and timed in aggregate only.  A kept
span's parent is its nearest kept ancestor.  ``write`` dumps the spans and
the aggregates to one JSON file at the end of the run.

Times are calibrated for the cost of the wrapper itself: ``calibrate``
measures an empty wrapped call, ``c_in`` seconds of which fall inside the
callee's measured interval and ``c_full - c_in`` inside the caller's.
"""

from __future__ import annotations

import inspect
import json
import time
from pathlib import Path

LAYERS = ("special", "distributions", "orderstats", "inference", "optimize",
          "predictive", "simulation", "dataio", "cli")
DIST_METHODS = ("__post_init__", "log_pdf", "cdf", "quantile", "sample")
SPANS_PER_NAME = 1000

_clock = time.perf_counter


class _Stat:
    __slots__ = ("name", "layer", "calls", "active", "incl", "self_", "kids",
                 "spans", "pre", "post")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.calls = 0
        self.active = 0      # open activations, to time recursion once
        self.incl = 0.0      # outermost activations, calibrated
        self.self_ = 0.0     # raw self time
        self.kids = 0        # direct wrapped children
        self.spans = 0
        self.pre = None
        self.post = None


class Tracer:
    """Counts, times and records spans of wrapped qmatch calls."""

    def __init__(self, c_full: float = 0.0, c_in: float = 0.0):
        self.c_full = c_full
        self.c_in = c_in
        self.stats: dict[str, _Stat] = {}
        self.stack: list = []        # frames [stat, child_time, kids, span_id]
        self.total_calls = 0
        self.spans: list = []        # (id, name, start, end, parent, run_id)
        self.run_id = ""
        self.extra: dict[str, float] = {}
        self._patches: list = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        stat = self.stats.setdefault(name, _Stat(name, layer))
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(stat, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _call(self, stat: _Stat, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        state = stat.pre(self, parent, args, kwargs) if stat.pre else None
        if state is not None and "args" in state:
            args = state["args"]
        kept = stat.spans < SPANS_PER_NAME
        span_id = -1
        if kept:
            stat.spans += 1
            span_id = len(self.spans)
            self.spans.append(None)
        calls_at_entry = self.total_calls
        self.total_calls += 1
        frame = [stat, 0.0, 0, span_id if kept else
                 (parent[3] if parent is not None else -1)]
        stack.append(frame)
        stat.active += 1
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
            stat.active -= 1
            dur = t1 - t0
            stat.calls += 1
            stat.self_ += dur - frame[1]
            stat.kids += frame[2]
            if parent is not None:
                parent[1] += dur
                parent[2] += 1
            if stat.active == 0:
                desc = self.total_calls - calls_at_entry - 1
                stat.incl += dur - desc * self.c_full - self.c_in
            if kept:
                self.spans[span_id] = (
                    span_id, stat.name, t0, t1,
                    parent[3] if parent is not None else -1, self.run_id)
        if stat.post:
            stat.post(self, args, kwargs, result, state)
        return result

    def hook(self, name: str, pre=None, post=None) -> None:
        stat = self.stats[name]
        stat.pre = pre
        stat.post = post

    def install(self, package) -> None:
        """Wrap every layer's public functions and the Dist methods, then
        rebind each qmatch module global that referred to an original."""
        import importlib
        import pkgutil

        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}",
                                                         layer))
        mods = [package] + [importlib.import_module(f"{package.__name__}.{m.name}")
                            for m in pkgutil.iter_modules(package.__path__)]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        dist_cls = importlib.import_module(f"{package.__name__}.distributions").Dist
        for attr in DIST_METHODS:
            obj = dist_cls.__dict__[attr]
            self._patches.append((dist_cls, attr, obj))
            setattr(dist_cls, attr,
                    self.wrap(obj, f"distributions.Dist.{attr}", "distributions"))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def seconds(self, name: str) -> float:
        """Calibrated inclusive time of the function's outermost calls."""
        stat = self.stats.get(name)
        return max(stat.incl, 0.0) if stat else 0.0

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Calls and calibrated self time per layer."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for stat in self.stats.values():
            if stat.layer not in out:
                continue
            self_cal = (stat.self_ - stat.calls * self.c_in
                        - stat.kids * (self.c_full - self.c_in))
            out[stat.layer][0] += stat.calls
            out[stat.layer][1] += self_cal
        return {k: (v[0], max(v[1], 0.0)) for k, v in out.items()}

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **meta,
            "calibration": {"c_full_s": self.c_full, "c_in_s": self.c_in},
            "functions": {
                s.name: {"layer": s.layer, "calls": s.calls,
                         "seconds": self.seconds(s.name)}
                for s in self.stats.values() if s.calls},
            "span_fields": ["id", "name", "start", "end", "parent", "run_id"],
            "spans": [s for s in self.spans if s is not None],
        }
        path.write_text(json.dumps(payload) + "\n")


def _empty():
    return None


def calibrate(calls: int = 200_000) -> tuple[float, float]:
    """(c_full, c_in): seconds an empty wrapped call costs its caller beyond
    a plain call, and the part of that inside the callee's interval."""
    probe = Tracer()
    wrapped = probe.wrap(_empty, "calibrate.empty", "calibrate")
    stat = probe.stats["calibrate.empty"]
    plain, full, inner = [], [], []
    for _ in range(3):
        t0 = _clock()
        for _ in range(calls):
            _empty()
        t1 = _clock()
        before = stat.incl
        for _ in range(calls):
            wrapped()
        t2 = _clock()
        plain.append((t1 - t0) / calls)
        full.append((t2 - t1) / calls)
        inner.append((stat.incl - before) / calls)
    c_full = max(min(full) - min(plain), 0.0)
    c_in = min(max(min(inner) - min(plain), 0.0), c_full)
    return c_full, c_in


# -- the qmatch-specific counters ------------------------------------------

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def install_hooks(tr: Tracer) -> None:
    """Counters that need an argument or a result, not just a call."""
    ex = tr.extra
    for key in ("steps", "fits", "acceptance_sum", "chains", "min_ess_total",
                "flagged_fits", "diagnosed", "loglik_recompute_calls",
                "objective_evals", "predictive_cdf_evals", "oracle_draws",
                "bytes_written"):
        ex[key] = 0
    ex["worst_min_ess"] = float("inf")

    def sample_post(tr, args, kwargs, result, state):
        cfg = _arg(args, kwargs, 1, "cfg")
        ex["steps"] += cfg.chains * (cfg.warmup + cfg.samples_per_chain)
        ex["fits"] += 1
        ex["acceptance_sum"] += sum(result.acceptance_rate)
        ex["chains"] += len(result.acceptance_rate)

    def diagnostics_post(tr, args, kwargs, result, state):
        low = min(result.ess)
        ex["diagnosed"] += 1
        ex["min_ess_total"] += low
        ex["worst_min_ess"] = min(ex["worst_min_ess"], low)
        if result.r_hat is None or any(not r < 1.05 for r in result.r_hat):
            ex["flagged_fits"] += 1

    def loglik_pre(tr, parent, args, kwargs):
        # the sampler's per-draw recomputation, outside log_posterior
        if parent is not None and parent[0].name == "inference.sample_posterior":
            ex["loglik_recompute_calls"] += 1

    def nelder_mead_pre(tr, parent, args, kwargs):
        f = args[0]

        def counted(x):
            ex["objective_evals"] += 1
            return f(x)

        return {"args": (counted,) + tuple(args[1:])}

    def pcdf_pre(tr, parent, args, kwargs):
        return {"cdf0": tr.calls("distributions.Dist.cdf")}

    def pcdf_post(tr, args, kwargs, result, state):
        ex["predictive_cdf_evals"] += (tr.calls("distributions.Dist.cdf")
                                       - state["cdf0"])

    def oracle_post(tr, args, kwargs, result, state):
        ex["oracle_draws"] += len(result)

    def write_post(tr, args, kwargs, result, state):
        ex["bytes_written"] += len(_arg(args, kwargs, 1, "text").encode())

    tr.hook("inference.sample_posterior", post=sample_post)
    tr.hook("inference.diagnostics", post=diagnostics_post)
    tr.hook("orderstats.joint_os_loglik", pre=loglik_pre)
    tr.hook("optimize.nelder_mead", pre=nelder_mead_pre)
    tr.hook("predictive.predictive_cdf", pre=pcdf_pre, post=pcdf_post)
    tr.hook("simulation.os_marginal_oracle", post=oracle_post)
    tr.hook("dataio.write_text", post=write_post)


def _per(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tr: Tracer, src_dir: Path, overhead_s: float) -> dict:
    """Every per-layer metric, name -> (value, unit), for the traced run."""
    ex = tr.extra
    c, s = tr.calls, tr.seconds
    m = {
        "special.log_gamma_calls": (c("special.log_gamma"), "count"),
        "special.gamma_pq_calls": (c("special.gamma_p") + c("special.gamma_q"),
                                   "count"),
        "special.erfc_calls": (c("special.erfc"), "count"),
        "distributions.dist_objects": (c("distributions.Dist.__post_init__"),
                                       "count"),
        "distributions.cdf_calls": (c("distributions.Dist.cdf"), "count"),
        "distributions.log_pdf_calls": (c("distributions.Dist.log_pdf"),
                                        "count"),
        "distributions.quantile_calls": (c("distributions.Dist.quantile"),
                                         "count"),
        "distributions.cdf_us": (1e6 * _per(s("distributions.Dist.cdf"),
                                            c("distributions.Dist.cdf")), "us"),
        "distributions.quantile_us": (
            1e6 * _per(s("distributions.Dist.quantile"),
                       c("distributions.Dist.quantile")), "us"),
        "orderstats.joint_os_loglik_calls": (c("orderstats.joint_os_loglik"),
                                             "count"),
        "orderstats.joint_os_loglik_us": (
            1e6 * _per(s("orderstats.joint_os_loglik"),
                       c("orderstats.joint_os_loglik")), "us"),
        "orderstats.gaussian_noise_loglik_calls": (
            c("orderstats.gaussian_noise_loglik"), "count"),
        "orderstats.tie_events": (ex["tie_events"], "count"),
        "orderstats.loglik_recompute_calls": (ex["loglik_recompute_calls"],
                                              "count"),
        "inference.fits": (ex["fits"], "count"),
        "inference.sample_posterior_s": (s("inference.sample_posterior"), "s"),
        "inference.step_us": (1e6 * _per(s("inference.sample_posterior"),
                                         ex["steps"]), "us"),
        "inference.log_posterior_calls": (c("inference.log_posterior"),
                                          "count"),
        "inference.acceptance_mean": (_per(ex["acceptance_sum"], ex["chains"]),
                                      "ratio"),
        "inference.min_ess_total": (ex["min_ess_total"], "draws"),
        "inference.worst_min_ess": (
            ex["worst_min_ess"] if ex["diagnosed"] else 0.0, "draws"),
        "inference.flagged_fits": (ex["flagged_fits"], "count"),
        "inference.diagnostics_s": (s("inference.diagnostics"), "s"),
        "optimize.objective_evals": (ex["objective_evals"], "count"),
        "optimize.map_estimate_s": (s("inference.map_estimate"), "s"),
        "predictive.make_fit_report_s": (s("predictive.make_fit_report"), "s"),
        "predictive.predictive_quantile_s": (
            s("predictive.predictive_quantile"), "s"),
        "predictive.predictive_cdf_s": (s("predictive.predictive_cdf"), "s"),
        "predictive.cdf_evals_per_s": (
            _per(ex["predictive_cdf_evals"], s("predictive.predictive_cdf")),
            "1/s"),
        "simulation.simulate_quantile_data_s": (
            s("simulation.simulate_quantile_data"), "s"),
        "simulation.os_marginal_oracle_s": (s("simulation.os_marginal_oracle"),
                                            "s"),
        "simulation.oracle_draws_per_s": (
            _per(ex["oracle_draws"], s("simulation.os_marginal_oracle")),
            "1/s"),
        "dataio.report_from_json_s": (s("dataio.report_from_json"), "s"),
        "dataio.ranking_from_json_s": (s("dataio.ranking_from_json"), "s"),
        "dataio.ranking_to_json_s": (s("dataio.ranking_to_json"), "s"),
        "dataio.bytes_written": (ex["bytes_written"], "B"),
        "cli.compare_s": (s("cli.cmd_compare"), "s"),
        "cli.query_s": (s("cli.cmd_predict") + s("cli.cmd_curves"), "s"),
    }
    for layer, (calls, self_s) in tr.layer_totals().items():
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.lines"] = (
            len((src_dir / f"{layer}.py").read_text().splitlines()), "lines")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.wrapper_ns"] = (1e9 * tr.c_full, "ns")
    return m
