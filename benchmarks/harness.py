"""Train-then-UQ benchmark of gdcn on a generated Cora-shaped graph.

One workload drives gdcn's public API the way ``gdcn train`` followed by
``gdcn uq`` does:

1. Set-up: load the content/cites files, ``row_normalize``,
   ``make_split(20, 500, 1000)`` and ``PreparedGraph.from_edges``, repeated
   ``SETUPS`` times; ``setup_s`` is the median.
2. Training: ``training.train`` on dims 1433-128-128-7 with lr 0.005,
   l2 5e-3, seed 0 and patience equal to the epoch budget, so every call runs
   ``EPOCHS`` epochs.
3. MC phase: ``model.predict_mc`` with S=20 and a fresh ``default_rng(0)``,
   then ``metrics.uncertainty_report`` on the test split.

One untimed call of each warms up and fixes the reference outputs and the
accuracies. Then rounds of one ``train`` and ``MC_PER_ROUND`` ``predict_mc``
calls run while the next round fits in the run's seconds;
``train_epoch_ms`` is the median over ``train`` calls of wall time over
epochs, and ``mc_predict_ms`` the median ``predict_mc`` call.

Every ``train`` call must reproduce the first one's loss trace and final
parameters bit for bit, and every ``predict_mc`` call the first one's
output; the digests are printed so that a later change can show whether
its arithmetic moved.

With ``trace=True`` the run instead alternates untraced and traced
``train`` calls, then makes traced MC calls and one traced report, and
reports the per-layer metrics (see ``tracer``). Training-phase values are
per epoch and MC values per ``predict_mc`` call.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy

import coragen
from gdcn import data as gdata
from gdcn import metrics as gmetrics
from gdcn import model as gmodel
from gdcn import training as gtraining
from gdcn.masks import MaskKind, MaskSpec
from gdcn.model import GCNConfig, PreparedGraph
from gdcn.tape import constant
from tracer import OPS, Tracer

DIMS = [1433, 128, 128, 7]
EPOCHS = 10
SETUPS = 3
MC_SAMPLES = 20
MIN_ROUNDS = 3
MC_PER_ROUND = 2
TRACED_TRAIN_CALLS = 2
TRACED_MC_CALLS = 3
PAVPU_FRACS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
TRAIN_SEED = 0

END_TO_END = {  # name -> (unit, better)
    "setup_s": ("s", "lower"),
    "train_epoch_ms": ("ms", "lower"),
    "mc_predict_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "test_acc": ("fraction", "higher"),
    "mc_test_acc": ("fraction", "higher"),
    "ok_frac": ("fraction", "higher"),
}

# (op, layer) pairs the 3-layer model records in its forward pass.
OP_LAYERS = [(op, k) for op in dict.fromkeys(OPS.values()) for k in range(3)
             if not (op == "relu" and k == 2)
             and not (op == "log_softmax" and k < 2)]


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {"data.load_s": "s", "graph.prepare_ms": "ms",
             "graph.spmm_ms": "ms", "graph.spmm_t_ms": "ms",
             "graph.spmm_calls": "count",
             "masks.sample_train_ms": "ms", "masks.sample_det_ms": "ms",
             "masks.sample_mc_ms": "ms", "masks.values_drawn": "count",
             "masks.values_drawn.mc": "count"}
    for direction in ("fwd", "bwd"):
        for op, k in OP_LAYERS:
            units[f"tape.{direction}.{op}.l{k}_ms"] = "ms"
        units[f"tape.{direction}.other_ms"] = "ms"
    for op, k in OP_LAYERS:
        units[f"tape.fwd.{op}.l{k}.mc_ms"] = "ms"
    units.update({
        "tape.records": "count", "tape.backward_ms": "ms",
        "tape.matmul.l0_gflop": "GFLOP",
        "model.forward_train_ms": "ms", "model.forward_det_ms": "ms",
        "model.forward_arm_ms": "ms", "model.forward_mc_ms": "ms",
        "model.forwards_per_epoch": "count", "model.loss_ms": "ms",
        "model.predict_mc_ms": "ms", "graph.spmm.mc_ms": "ms",
        "variational.kl_ms": "ms", "estimators.arm_ms": "ms",
        "estimators.arm_evals": "count", "estimators.arm_failures": "count",
        "training.adam_ms": "ms", "training.adam_rejected": "count",
        "training.det_eval_ms": "ms", "training.epoch_self_ms": "ms",
        "training.epoch_ms": "ms", "metrics.uq_report_ms": "ms",
        "trace.overhead_frac": "fraction", "trace.coverage_frac": "fraction",
    })
    return units


def gcn_config(workload: str) -> GCNConfig:
    if workload == "dropout":
        masks = [MaskSpec(kind=MaskKind.DROPOUT, keep_prob=0.5)
                 for _ in DIMS[1:]]
        return GCNConfig(layer_dims=list(DIMS), masks=masks)
    estimators = {"gdc4-concrete": "concrete", "gdc4-arm": "arm"}
    if workload not in estimators:
        raise ValueError(f"unknown workload {workload!r}")
    estimator = estimators[workload]
    masks = [MaskSpec(kind=MaskKind.GDC, learned=True, n_blocks=4,
                      relaxed=estimator == "concrete") for _ in DIMS[1:]]
    # kuma_init_b=1 starts the learned keep probability at mean 0.5, the
    # rate of the dropout workload; the default (mean 0.25) leaves a
    # 10-epoch budget near chance accuracy.
    return GCNConfig(layer_dims=list(DIMS), masks=masks, estimator=estimator,
                     kuma_init_b=1.0)


# ---------------------------------------------------------------------------
# bookkeeping


@dataclass
class Checks:
    """Operations attempted, and the failures among them with reasons."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def attempt(self, what: str, fn, *args, **kwargs):
        """Run one operation; an exception counts as a failure."""
        try:
            out = fn(*args, **kwargs)
        except Exception:  # any raise is a failed operation; keep going
            self.check(False, f"{what} raised\n{traceback.format_exc()}")
            return None
        self.check(True, what)
        return out


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def loss_digest(result) -> str:
    return digest([np.array([log.train_loss for log in result.logs])])


def params_digest(result) -> str:
    return digest([t.data for p in result.params for t in p.tensors()])


def blas_info() -> dict:
    cfg = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": cfg.get("name"), "version": cfg.get("version"),
            "threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def git_commit(root: str) -> str:
    """HEAD commit read from .git without running git; "unknown" if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(root: str, workload: str, seed: int, seconds: float,
             trace: bool) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "git_commit": git_commit(root),
    }


# ---------------------------------------------------------------------------
# phases


def setup(content: str, cites: str, tracer: Tracer | None = None):
    """One set-up as ``gdcn train``/``uq`` do it; returns (dataset, graph)."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("data.load"):
        ds = gdata.load_content_cites(content, cites)
    with span("data.split"):
        ds.features = gdata.row_normalize(ds.features)
        ds = gdata.make_split(ds, 20, 500, 1000)
    with span("graph.prepare"):
        graph = PreparedGraph.from_edges(ds.edges, ds.n_nodes)
    return ds, graph


def check_training(checks: Checks, result, epochs: int) -> None:
    checks.check(len(result.logs) == epochs,
                 f"ran {len(result.logs)} epochs, budget {epochs}")
    losses = np.array([log.train_loss for log in result.logs])
    checks.check(bool(np.all(np.isfinite(losses))), "non-finite train_loss")
    keeps = np.array([log.keep_probs for log in result.logs], dtype=float)
    checks.check(bool(np.all((keeps >= 0.0) & (keeps <= 1.0))),
                 "keep probability outside [0, 1]")


def check_mc(checks: Checks, mean_probs) -> None:
    rows = mean_probs.sum(axis=1)
    checks.check(bool(np.all(np.abs(rows - 1.0) <= 1e-9)),
                 "MC mean rows do not sum to 1 within 1e-9")


@contextmanager
def adam_states():
    """Collect every ``AdamState`` that ``train`` creates while active.

    ``train`` counts rejected (non-finite) Adam steps in its state and then
    drops the state; this keeps a reference so the count can be checked.
    A factory rather than a subclass: a class made per call would sit in a
    reference cycle with its states and keep them alive until the cyclic
    collector runs, which inflates ``peak_rss_mb``.
    """
    created = []
    original = gtraining.AdamState

    def make(*args, **kwargs):
        state = original(*args, **kwargs)
        created.append(state)
        return state

    gtraining.AdamState = make
    try:
        yield created
    finally:
        gtraining.AdamState = original


def median(values) -> float:
    return float(statistics.median(values))


class Run:
    """One workload run: inputs, set-up, training, MC phase, results."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 epochs: int = EPOCHS, setups: int = SETUPS):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.epochs, self.setups = epochs, setups
        self.checks = Checks()
        self.metrics = {}       # name -> (value, unit, sample count)
        self.info = {}
        self.result = None      # first train() result: reference arithmetic
        self.train_config = gtraining.TrainConfig(
            epochs=epochs, patience=epochs, lr=0.005, l2_factor=5e-3,
            seeds=(TRAIN_SEED,))
        self.config = gcn_config(workload)

    # -- shared steps ----------------------------------------------------
    def make_inputs(self, directory: str):
        graph = coragen.generate(self.seed)
        problems = coragen.stats_problems(coragen.graph_stats(
            graph.features, graph.labels, graph.edges))
        self.checks.check(not problems, "generator: " + "; ".join(problems))
        return coragen.write_files(graph, directory, self.seed)

    def check_loaded(self, ds) -> None:
        problems = coragen.stats_problems(coragen.graph_stats(
            (ds.features > 0).astype(float), ds.labels, ds.edges))
        self.checks.check(not problems, "loaded graph: " + "; ".join(problems))

    def train(self, ds, graph):
        """One ``train`` call; returns its result or None if it raised."""
        with adam_states() as states:
            result = self.checks.attempt("train", gtraining.train, ds,
                                         self.config, self.train_config,
                                         TRAIN_SEED, graph=graph)
        rejected = sum(state.rejected for state in states)
        self.checks.check(rejected == 0, f"Adam rejected {rejected} steps")
        return result

    def predict(self, graph, x):
        """One ``predict_mc`` call; returns the mean probabilities or None."""
        out = self.checks.attempt("predict_mc", gmodel.predict_mc,
                                  self.result.params, x, graph, self.config,
                                  MC_SAMPLES, np.random.default_rng(0))
        return None if out is None else out[0]

    def report(self, ds, mean_probs):
        rep = self.checks.attempt(
            "uncertainty_report", gmetrics.uncertainty_report, mean_probs,
            ds.labels, ds.split.test, PAVPU_FRACS)
        if rep is not None:
            self.checks.check(bool(np.all((rep.pavpu >= 0) & (rep.pavpu <= 1))),
                              "PAvPU outside [0, 1]")
            self.info["pavpu"] = [round(float(v), 6) for v in rep.pavpu]
        return rep

    def record_result(self, result) -> None:
        """Checks a finished ``train`` call and keeps the first as reference."""
        check_training(self.checks, result, self.epochs)
        if self.result is None:
            self.result = result
            self.info["loss_digest"] = loss_digest(result)
            self.info["params_digest"] = params_digest(result)
        else:
            self.checks.check(loss_digest(result) == self.info["loss_digest"]
                              and params_digest(result)
                              == self.info["params_digest"],
                              "repeated train() gave different arithmetic")

    def put(self, name: str, value: float, unit: str, n: int) -> None:
        self.metrics[name] = (float(value), unit, n)

    # -- untraced run ----------------------------------------------------
    def run_untraced(self, content: str, cites: str) -> None:
        times = []
        for _ in range(self.setups):
            t0 = time.perf_counter()
            ds, graph = setup(content, cites)
            times.append(time.perf_counter() - t0)
        self.check_loaded(ds)
        self.put("setup_s", median(times), "s", len(times))

        # Warm-up: one untimed train() and predict_mc() call, whose outputs
        # are the reference every timed call must reproduce.
        x = constant(ds.features)
        result = self.train(ds, graph)
        if result is None:
            return
        self.record_result(result)
        reference = self.predict(graph, x)
        if reference is None:
            return
        check_mc(self.checks, reference)
        test = ds.split.test
        self.put("test_acc", result.best_test_acc, "fraction", 1)
        self.put("mc_test_acc", float(np.mean(
            reference[test].argmax(axis=1) == ds.labels[test])), "fraction", 1)
        self.info["best_epoch"] = result.best_epoch
        self.report(ds, reference)

        # Rounds of one train() and MC_PER_ROUND predict_mc() calls, so that
        # both medians sample the whole run rather than one stretch of it.
        per_epoch, per_call, last_round = [], [], 0.0
        end = time.perf_counter() + self.seconds
        while (len(per_epoch) < MIN_ROUNDS
               or time.perf_counter() + last_round <= end):
            started = t0 = time.perf_counter()
            result = self.train(ds, graph)
            per_epoch.append(1000.0 * (time.perf_counter() - t0) / self.epochs)
            if result is None:
                return
            self.record_result(result)
            for _ in range(MC_PER_ROUND):
                t0 = time.perf_counter()
                mean_probs = self.predict(graph, x)
                per_call.append(1000.0 * (time.perf_counter() - t0))
                if mean_probs is None:
                    return
                self.checks.check(np.array_equal(reference, mean_probs),
                                  "predict_mc with one seed gave other output")
            last_round = time.perf_counter() - started
        self.put("train_epoch_ms", median(per_epoch), "ms", len(per_epoch))
        self.put("mc_predict_ms", median(per_call), "ms", len(per_call))
        self.info["train_epoch_ms_each"] = [round(v, 3) for v in per_epoch]
        self.info["mc_predict_ms_each"] = [round(v, 3) for v in per_call]

    # -- traced run ------------------------------------------------------
    def run_traced(self, content: str, cites: str) -> Tracer:
        tracer = Tracer()
        for _ in range(self.setups):
            ds, graph = setup(content, cites, tracer)
        self.check_loaded(ds)

        # Untraced and traced train() calls alternate. The first untraced
        # call fixes the reference arithmetic; the untraced calls are the
        # baseline for the tracing overhead.
        plain_s, traced_s = [], []
        for _ in range(TRACED_TRAIN_CALLS):
            t0 = time.perf_counter()
            plain = self.train(ds, graph)
            plain_s.append(time.perf_counter() - t0)
            if plain is None:
                return tracer
            self.record_result(plain)
            tracer.phase = "train"
            with tracer.installed():
                t0 = time.perf_counter()
                with tracer.span("training.train"):
                    traced = self.train(ds, graph)
                traced_s.append(time.perf_counter() - t0)
            if traced is None:
                return tracer
            self.record_result(traced)
            self.info["traced_loss_digest"] = loss_digest(traced)

        tracer.phase = "mc"
        x = constant(ds.features)
        with tracer.installed():
            for _ in range(TRACED_MC_CALLS):
                mean_probs = self.predict(graph, x)
                if mean_probs is not None:
                    check_mc(self.checks, mean_probs)
            tracer.phase = "uq"
            if mean_probs is not None:
                with tracer.span("metrics.uq_report"):
                    self.report(ds, mean_probs)
        self.per_layer(tracer, median(traced_s) / median(plain_s) - 1.0)
        return tracer

    def per_layer(self, tracer: Tracer, overhead: float) -> None:
        inclusive, own, calls = tracer.totals()
        epochs = self.epochs * TRACED_TRAIN_CALLS
        units = per_layer_units()

        def ms(phase, name, per):
            return 1000.0 * inclusive.get((phase, name), 0.0) / per

        def count(phase, name, per):
            return tracer.counts.get((phase, name), 0) / per

        setups = max(calls.get(("setup", "data.load"), 0), 1)
        values = {
            "data.load_s": inclusive.get(("setup", "data.load"), 0.0) / setups,
            "graph.prepare_ms": ms("setup", "graph.prepare", setups),
            "graph.spmm_ms": ms("train", "graph.spmm", epochs),
            "graph.spmm_t_ms": ms("train", "graph.spmm_t", epochs),
            "graph.spmm_calls": count("train", "graph.spmm_calls", epochs),
            "masks.sample_train_ms": ms("train", "masks.sample_train", epochs),
            "masks.sample_det_ms": ms("train", "masks.sample_det", epochs),
            "masks.sample_mc_ms": ms("mc", "masks.sample_mc", TRACED_MC_CALLS),
            "masks.values_drawn": count("train", "masks.values_drawn", epochs),
            "masks.values_drawn.mc": count("mc", "masks.values_drawn",
                                           TRACED_MC_CALLS),
            "tape.records": count("train", "tape.records", epochs),
            "tape.backward_ms": ms("train", "tape.backward", epochs),
            "tape.matmul.l0_gflop": count("train", "tape.matmul.l0_flop",
                                          epochs) / 1e9,
            "model.forwards_per_epoch": count("train", "model.forwards", epochs),
            "model.loss_ms": ms("train", "model.loss", epochs),
            "model.predict_mc_ms": ms("mc", "model.predict_mc", TRACED_MC_CALLS),
            "model.forward_mc_ms": ms("mc", "model.forward_mc", TRACED_MC_CALLS),
            "graph.spmm.mc_ms": ms("mc", "graph.spmm", TRACED_MC_CALLS),
            "variational.kl_ms": ms("train", "variational.kl", epochs),
            "estimators.arm_ms": ms("train", "estimators.arm", epochs),
            "estimators.arm_evals": count("train", "estimators.arm_evals", epochs),
            "estimators.arm_failures": count("train", "estimators.arm_failures", 1),
            "training.adam_ms": ms("train", "training.adam", epochs),
            "training.adam_rejected": count("train", "training.adam_rejected", 1),
            "training.det_eval_ms": ms("train", "training.det_eval", epochs),
            "training.epoch_self_ms": 1000.0 * own.get(
                ("train", "training.train"), 0.0) / epochs,
            "training.epoch_ms": ms("train", "training.train", epochs),
            "metrics.uq_report_ms": ms("uq", "metrics.uq_report", 1),
            "trace.overhead_frac": overhead,
        }
        for mode in ("train", "det", "arm"):
            values[f"model.forward_{mode}_ms"] = ms(
                "train", f"model.forward_{mode}", epochs)
        for direction in ("fwd", "bwd"):
            for op, k in OP_LAYERS:
                values[f"tape.{direction}.{op}.l{k}_ms"] = ms(
                    "train", f"tape.{direction}.{op}.l{k}", epochs)
            values[f"tape.{direction}.other_ms"] = ms(
                "train", f"tape.{direction}.other", epochs)
        for op, k in OP_LAYERS:
            values[f"tape.fwd.{op}.l{k}.mc_ms"] = ms(
                "mc", f"tape.fwd.{op}.l{k}", TRACED_MC_CALLS)
        # Coverage: self time of every span under the train() call, over
        # that call's wall time; the remainder is train()'s own code.
        root = inclusive.get(("train", "training.train"), 0.0)
        covered = sum(v for (phase, name), v in own.items()
                      if phase == "train" and name != "training.train")
        values["trace.coverage_frac"] = covered / root if root else 0.0
        for name, unit in units.items():
            self.put(name, values[name], unit, 1)

    # -- entry -----------------------------------------------------------
    def execute(self, trace: bool, out_dir: str) -> dict:
        os.makedirs(out_dir, exist_ok=True)
        data_dir = tempfile.mkdtemp(prefix="data-", dir=out_dir)
        tracer = None
        try:
            content, cites = self.make_inputs(data_dir)
            if trace:
                tracer = self.run_traced(content, cites)
            else:
                self.run_untraced(content, cites)
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
        failed = len(self.checks.failures)
        attempted = max(self.checks.attempted, 1)
        if not trace:
            self.put("peak_rss_mb", resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
            self.put("ok_frac", 1.0 - failed / attempted, "fraction", attempted)
        wanted = per_layer_units() if trace else END_TO_END
        correct = failed == 0 and set(self.metrics) == set(wanted)
        stem = os.path.join(out_dir, f"{self.workload}-seed{self.seed}"
                                     f"-trace{int(trace)}")
        if tracer is not None:
            tracer.write(stem + "-spans.jsonl.gz")
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed if correct else max(failed, 1),
            "metrics": {name: {"value": self.metrics[name][0],
                               "unit": self.metrics[name][1]}
                        for name in wanted if name in self.metrics},
            "_samples": {name: m[2] for name, m in self.metrics.items()},
            "_failures": list(self.checks.failures),
            "_info": dict(self.info),
            "_stem": stem,
        }


def print_report(result: dict, manifest_: dict) -> None:
    """Human-readable lines; the caller prints the JSON line last."""
    out = sys.stdout
    out.write(f"# workload {manifest_['workload']} seed {manifest_['seed']} "
              f"trace {int(manifest_['trace'])}\n")
    for key in ("nproc", "blas", "python", "numpy", "scipy", "git_commit"):
        out.write(f"# {key}: {manifest_[key]}\n")
    for name, m in result["metrics"].items():
        out.write(f"{name} = {m['value']:.6g} {m['unit']} "
                  f"(n={result['_samples'].get(name, 0)})\n")
    failed, attempted = result["failed"], result["attempted"]
    out.write(f"failed_frac = {failed / attempted:.6g} "
              f"({failed} of {attempted} operations)\n")
    for key, value in result["_info"].items():
        out.write(f"# {key}: {value}\n")
    for failure in result["_failures"]:
        for line in failure.rstrip().splitlines():
            out.write(f"# FAILED: {line}\n")
