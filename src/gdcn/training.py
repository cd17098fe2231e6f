"""Full-batch training loop: Adam, early stopping, seed management.

Each epoch rebuilds a fresh tape, samples masks (recording the keep
probability draw of every learned layer), and takes one Adam step. Model
selection uses a deterministic expected-keep evaluation pass so that early
stopping does not chase mask noise, with one product per layer
(``model.forward_deterministic``).

Training is mixed precision (Micikevicius et al., arXiv 1710.03740): every
pass runs in float32 on float64 master weights. ``train`` reads the
dataset's float32 CSR input as it is, casts ``a_norm`` and the loss-row
plan's matrices to float32 once per call, and casts the weights and
biases once at the start and after each Adam step
(``model.float32_params``); the deterministic evaluation of epoch e and
the passes of step e + 1 share that one cast. The log-softmax, the NLL,
the KL and the weight penalty are float64, and the penalty is taken on the
master weights. Concrete's dL/dpi sums its inner products in float64. The
float32 gradients are cast to float64 and added to the masters' own before
``adam_step``, so Adam's weights and moments stay float64. ARM's L(Z1) and
L(Z2) both come from float32 passes, so they round alike.

Both estimators reach (log a, log b) through the recorded Kumaraswamy draw
and one backward pass. Concrete's masks carry the draw and their tangents
dZ/dpi, which the fused aggregation turns into dL/dpi. With ARM,
``sample_step_masks`` draws the step's shared uniforms and hands back the
keep masks of the second ARM setting, Z2, so the recorded pass's NLL is
L(Z2). One more unrecorded pass, on the masks of Z1 (``arm_masks``),
completes the estimate g_alpha, and ``backward`` takes g_alpha's
dL/dpi = -g_alpha / (pi (1 - pi)) as a seed on the recorded draw
(``estimators.arm_pi_grad``); the loss tensor holds the loss alone.

Every pass builds its own layer-0 block products ``H_b W_0[blk_b]``. Adam
updates ``W_0`` in place once per epoch, so only the passes between two
steps could share them, and the benchmark measured no gain from that;
``model.predict_mc``, whose passes share fixed weights, does share them.

Each step (masks, recorded pass, loss, backward with ARM's Z1 pass, Adam)
runs in ``_train_step``, so its tape, masks, activations, products and
gradients are freed when it returns. During the deterministic evaluation
that follows only the parameters and their float32 copies, Adam's moments,
the input, the best snapshot and the evaluation's own arrays are alive, so
the step and the evaluation never hold memory at the same time.

A run diverges (``DivergenceError``) when its loss is non-finite for
``_DIVERGENCE_LIMIT`` consecutive epochs, or in every epoch of a shorter
run. A float32 pass or a loss that overflows gives such a loss, so the
passes do not warn on overflow. A step that takes a weight or bias outside
float32's range, or a learned layer's Kumaraswamy a or b to 0 or infinity,
diverges at once: every later pass would be non-finite, and a non-finite
loss takes no step, so nothing could bring the run back.

The loss reads only the training nodes, so ``train`` builds their loss-row
plan once per call (``model.loss_rows``), and the recorded pass and ARM's
Z1 pass compute only the rows the loss can reach (``forward(...,
rows=plan)``). The loss reads their log-probabilities through the plan's
``observed`` positions and the labels of the plan's rows
(``LossRows.loss_inputs``). The masks are still drawn over the whole
graph, so the random stream is that of full passes; the loss rows are
computed as full passes compute them, and the gradients agree with theirs
to rounding (``model.forward``). The deterministic evaluation keeps all
rows.
``train`` calls ``forward``, and through it ``spmm`` and ``spmm_t``, by
module name, so that a tracer replacing those names still counts every
pass and product.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ContractViolation, DivergenceError
from .estimators import arm_gradient, arm_pi_grad
from .metrics import accuracy
from .model import (GCNConfig, PreparedGraph, arm_masks, check_graph,
                    expected_keep, float32_operands, float32_params, forward,
                    forward_deterministic, init_params, loss_rows,
                    record_kl_terms, sample_step_masks, training_loss)
from .tape import Tape, backward, constant, record_masked_nll, record_scale
from .variational import WarmupSchedule, finite_scales, warmup_factor

_DIVERGENCE_LIMIT = 5


@dataclass
class TrainConfig:
    epochs: int = 2000
    lr: float = 0.005
    l2_factor: float = 5e-3
    warmup: WarmupSchedule | None = None
    patience: int = 200
    seeds: tuple = (0, 1, 2, 3, 4)

    def __post_init__(self):
        # lr == 0 is tolerated (a frozen run) so no-op training is testable
        if self.epochs < 0:
            raise ContractViolation("epochs must be non-negative")
        # not >= rather than <, so that NaN fails too
        if not self.lr >= 0:
            raise ContractViolation(f"lr must be non-negative, got {self.lr}")
        if not self.l2_factor >= 0:
            raise ContractViolation(
                f"l2_factor must be non-negative, got {self.l2_factor}")
        if self.patience < 1:
            raise ContractViolation("patience must be >= 1")


@dataclass
class EpochLog:
    """One epoch's scores and health counters: the step's clamped keep
    draws (``Tape.clamp_events``) and rejected Adam steps."""

    epoch: int
    train_loss: float
    nll: float
    kl: float
    val_acc: float
    test_acc: float
    keep_probs: list
    wall_time: float
    clamp_events: int
    adam_rejected: int


EPOCH_CSV_HEADER = ("epoch,train_loss,nll,kl,val_acc,test_acc,keep_probs,"
                    "wall_time,clamp_events,adam_rejected")


def epoch_log_rows(logs: list) -> list:
    rows = [EPOCH_CSV_HEADER]
    for e in logs:
        keeps = ";".join(repr(k) for k in e.keep_probs)
        rows.append(f"{e.epoch},{e.train_loss!r},{e.nll!r},{e.kl!r},"
                    f"{e.val_acc!r},{e.test_acc!r},{keeps},{e.wall_time!r},"
                    f"{e.clamp_events},{e.adam_rejected}")
    return rows


class AdamState:
    """First/second moments per parameter tensor plus the step counter, and
    two scratch arrays per tensor for the update's intermediates."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: dict = {}
        self.v: dict = {}
        self.scratch: dict = {}
        self.t = 0
        self.rejected = 0


def adam_step(tensors: list, grads: dict, state: AdamState, lr: float) -> bool:
    """One Adam update over ``tensors``; returns False on non-finite grads.

    A step with any non-finite gradient changes nothing but
    ``state.rejected``. Otherwise every tensor takes
    ``lr * (m / bc1) / (sqrt(v / bc2) + eps)`` off its data, computed in
    place in the state's scratch arrays with the operations and order of
    that formula, so the result is bit for bit the formula's and a step
    allocates no full-size temporary.
    """
    for t in tensors:
        if not np.all(np.isfinite(grads[t])):
            state.rejected += 1
            return False
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for t in tensors:
        g = grads[t]
        m = state.m.get(t)
        if m is None:
            m = np.zeros_like(t.data)
            state.m[t] = m
            state.v[t] = np.zeros_like(t.data)
            state.scratch[t] = (np.empty_like(t.data), np.empty_like(t.data))
        v = state.v[t]
        a, b = state.scratch[t]
        m *= b1
        np.multiply(g, 1.0 - b1, out=a)
        m += a
        v *= b2
        np.multiply(g, 1.0 - b2, out=a)
        a *= g
        v += a
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += state.eps
        np.divide(m, bc1, out=b)
        b *= lr
        b /= a
        t.data -= b
    return True


@dataclass
class TrainResult:
    """The best validation epoch's parameters and scores, the epoch logs,
    and why training stopped: ``"patience"`` when validation accuracy had
    not improved for ``TrainConfig.patience`` epochs, ``"max_epochs"`` when
    the epoch budget ran out."""

    params: list
    logs: list
    best_epoch: int
    best_val_acc: float
    best_test_acc: float
    stop_reason: str


def _det_eval(params, x, graph, config, labels, split, capture_hidden=False):
    """(val accuracy, test accuracy, hidden outputs or None) of the
    expected-keep pass on the current weights."""
    res = forward_deterministic(params, x, graph, config,
                                capture_hidden=capture_hidden)
    logprobs, hidden = res if capture_hidden else (res, None)
    pred = logprobs.data.argmax(axis=1)
    return (accuracy(pred, labels, split.val),
            accuracy(pred, labels, split.test), hidden)


def _overflow_allowed():
    """Silence overflow and invalid-value warnings: a float32 pass or a
    loss that overflows gives a non-finite loss or gradient, which the
    divergence check and ``adam_step``'s rejection handle."""
    return np.errstate(over="ignore", invalid="ignore")


def step_gradients(gcn_config, train_config, epoch, params, params32, rng,
                   x, graph, plan, plan_labels, observed):
    """One step's loss and gradients: sample the masks, run the recorded
    pass on ``params32``, ``x``, ``graph`` and ``plan``, take the loss and,
    where it is finite, backward (with ARM's Z1 pass).

    ``params32`` are ``params`` with their own weight and bias tensors
    (``model.float32_params``), on which the passes run; the weight
    penalty and the KL are taken on ``params``. Returns the (loss, NLL,
    KL) floats, the float64 gradient of every tensor of ``params`` (None
    where the loss is not finite) and the tape's ``clamp_events``.
    """
    tape = Tape()
    draws = sample_step_masks(gcn_config, params32, graph, rng, tape=tape,
                              mode="train", input_nnz=x.data.nnz)
    with _overflow_allowed():
        logprobs = forward(params32, x, graph, draws.layer_masks, tape=tape,
                           rows=plan)
        kl_terms = record_kl_terms(tape, gcn_config, params)
        wf = warmup_factor(epoch, train_config.warmup)
        weight_coefs = None
        if gcn_config.kl_weight_scaling:
            weight_coefs = [record_scale(tape, pi,
                                         graph.edges.n_entries / 2.0)
                            for pi in draws.pi_tensors]
        loss = training_loss(tape, logprobs, plan_labels, observed, params,
                             kl_terms, train_config.l2_factor, wf,
                             weight_coefs=weight_coefs)
        loss_val = loss.item()
        nll_val = -float(np.mean(logprobs.data[observed,
                                               plan_labels[observed]]))
        kl_val = float(sum(k.item() for k in kl_terms))
        if not np.isfinite(loss_val):
            return loss_val, nll_val, kl_val, None, tape.clamp_events

        seeds = None
        if draws.arm is not None:
            def loss_eval(z_drop):
                lp = forward(params32, x, graph,
                             arm_masks(draws, graph, z_drop), tape=None,
                             rows=plan)
                return record_masked_nll(None, lp, plan_labels,
                                         observed).item()

            # The recorded pass ran on Z2, so its NLL is L(Z2).
            est = arm_gradient(loss_eval, draws.arm, nll_val)
            pis = [draws.pi_tensors[l] for l, *_ in draws.arm_layers]
            seeds = {pi: arm_pi_grad(pi.item(), g_alpha)
                     for pi, g_alpha in zip(pis, est.grad_alpha)}
        grads = backward(tape, loss, seeds)
    out = {}
    for p, q in zip(params, params32):
        for t, t32 in ((p.m, q.m), (p.bias, q.bias)):
            if t is not None:
                out[t] = grads.get(t) + grads.get(t32)
        if p.kuma is not None:
            out.update((t, grads.get(t)) for t in p.kuma.tensors())
    return loss_val, nll_val, kl_val, out, tape.clamp_events


def _train_step(gcn_config, train_config, epoch, params, params32, state,
                rng, x, graph, plan, plan_labels, observed):
    """One training step: ``step_gradients`` and, where the loss is finite,
    one Adam step on ``params``. Returns the (loss, NLL, KL) floats,
    whether Adam changed ``params`` and the step's clamp events.

    The tape, the masks, the block products and the gradients are this
    function's locals, so they are freed when it returns, before the
    det-eval allocates its own arrays.
    """
    loss_val, nll_val, kl_val, grads, clamps = step_gradients(
        gcn_config, train_config, epoch, params, params32, rng, x, graph,
        plan, plan_labels, observed)
    stepped = grads is not None and adam_step(
        [t for p in params for t in p.tensors()], grads, state,
        train_config.lr)
    return loss_val, nll_val, kl_val, stepped, clamps


def _cast_weights(params, epoch):
    """``float32_params(params)`` after the step of ``epoch``; raises
    ``DivergenceError`` when a weight or bias left float32's range or a
    learned layer's Kumaraswamy a or b is 0 or infinite."""
    with np.errstate(over="ignore"):
        params32 = float32_params(params)
    for l, (p, q) in enumerate(zip(params, params32)):
        if not all(np.isfinite(t.data).all()
                   for t in (q.m, q.bias) if t is not None):
            raise DivergenceError(
                f"layer {l}: a weight left float32's range (epoch {epoch})")
        if p.kuma is not None and not finite_scales(p.kuma.log_a.item(),
                                                    p.kuma.log_b.item()):
            raise DivergenceError(
                f"layer {l}: Kumaraswamy (log a, log b) = "
                f"({p.kuma.log_a.item()}, {p.kuma.log_b.item()}) gives no "
                f"positive finite (a, b) (epoch {epoch})")
    return params32


def train(dataset: Dataset, gcn_config: GCNConfig, train_config: TrainConfig,
          seed: int, graph: PreparedGraph | None = None,
          hidden_hook=None) -> TrainResult:
    """Train one model; returns the parameters of the best validation epoch.

    The layer-0 input is ``dataset.features_csr()``, a float32 CSR array
    converted once per features array, so training again on the same
    dataset (another seed, another config) skips the conversion, and every
    pass reads it without a cast. The returned parameters are the float64
    master weights.

    ``hidden_hook(epoch, hidden)`` receives the deterministic pass's hidden
    activations each epoch (used by the over-smoothing diagnostics).
    """
    if dataset.split is None:
        raise ContractViolation("dataset has no split")
    if graph is None:
        graph = PreparedGraph.from_edges(
            dataset.edges, dataset.n_nodes, renorm_trick=gcn_config.renorm_trick,
            renorm_after_mask=gcn_config.renorm_after_mask)
    check_graph(graph, gcn_config)
    rng = np.random.default_rng(seed)
    params = init_params(gcn_config, rng)
    tensors = [t for p in params for t in p.tensors()]
    state = AdamState()
    params32, x, graph32 = float32_operands(
        params, constant(dataset.features_csr()), graph)
    labels = dataset.labels
    split = dataset.split
    plan = loss_rows(graph32, split.train, gcn_config.n_layers)
    plan_labels, observed = plan.loss_inputs(labels)

    logs = []
    best = {"val": -1.0, "test": 0.0, "epoch": -1,
            "snapshot": [t.data.copy() for t in tensors]}
    nonfinite_run = 0
    divergence_limit = min(_DIVERGENCE_LIMIT, train_config.epochs)
    stop_reason = "max_epochs"
    capture = hidden_hook is not None

    for epoch in range(train_config.epochs):
        t0 = time.perf_counter()
        rejected = state.rejected
        loss_val, nll_val, kl_val, stepped, clamps = _train_step(
            gcn_config, train_config, epoch, params, params32, state, rng, x,
            graph32, plan, plan_labels, observed)
        if not np.isfinite(loss_val):
            nonfinite_run += 1
            if nonfinite_run >= divergence_limit:
                raise DivergenceError(
                    f"non-finite loss for {nonfinite_run} consecutive epochs "
                    f"(epoch {epoch})"
                )
        else:
            nonfinite_run = 0
        if stepped:
            params32 = _cast_weights(params, epoch)

        with _overflow_allowed():
            val_acc, test_acc, hidden = _det_eval(
                params32, x, graph32, gcn_config, labels, split,
                capture_hidden=capture)
        if capture:
            hidden_hook(epoch, hidden)
        logs.append(EpochLog(
            epoch=epoch, train_loss=loss_val, nll=nll_val, kl=kl_val,
            val_acc=val_acc, test_acc=test_acc,
            keep_probs=[expected_keep(spec, p) for spec, p
                        in zip(gcn_config.masks, params)],
            wall_time=time.perf_counter() - t0, clamp_events=clamps,
            adam_rejected=state.rejected - rejected))
        if val_acc > best["val"]:
            best.update(val=val_acc, test=test_acc, epoch=epoch,
                        snapshot=[t.data.copy() for t in tensors])
        elif epoch - best["epoch"] >= train_config.patience:
            stop_reason = "patience"
            break

    for t, snap in zip(tensors, best["snapshot"]):
        t.data = snap
    return TrainResult(params=params, logs=logs,
                       best_epoch=max(best["epoch"], 0),
                       best_val_acc=max(best["val"], 0.0),
                       best_test_acc=best["test"], stop_reason=stop_reason)


@dataclass
class SeedResult:
    seed: int
    best_val_acc: float
    test_acc: float
    epochs_run: int
    result: TrainResult = field(repr=False)


@dataclass
class RunSummary:
    results: list
    mean_acc: float
    std_acc: float


def run_seeds(dataset: Dataset, gcn_config: GCNConfig,
              train_config: TrainConfig,
              graph: PreparedGraph | None = None) -> RunSummary:
    """Train once per seed; summary is mean +/- sample std of test accuracy."""
    seeds = list(train_config.seeds)
    if not seeds:
        raise ContractViolation("at least one seed is required")
    if graph is None:
        graph = PreparedGraph.from_edges(
            dataset.edges, dataset.n_nodes, renorm_trick=gcn_config.renorm_trick,
            renorm_after_mask=gcn_config.renorm_after_mask)
    check_graph(graph, gcn_config)
    results = []
    for seed in seeds:
        res = train(dataset, gcn_config, train_config, seed, graph=graph)
        results.append(SeedResult(seed=seed, best_val_acc=res.best_val_acc,
                                  test_acc=res.best_test_acc,
                                  epochs_run=len(res.logs), result=res))
    accs = np.array([r.test_acc for r in results])
    std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
    return RunSummary(results=results, mean_acc=float(accs.mean()), std_acc=std)
