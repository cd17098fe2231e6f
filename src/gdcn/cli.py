"""Command-line entry point: train / eval / uq / diagnose / sweep-blocks.

Every run writes its artifacts (CSV files, checkpoints, and a
``config_resolved.ini`` capturing all defaults) into the output directory.
``gdcn --help`` ends with the exit codes below.

Exit codes:
  0  success
  2  bad input: a config error, a malformed data file or checkpoint, a
     checkpoint that does not fit the config, or sizes whose arrays
     cannot be allocated (MemoryError)
  3  training diverged
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import data as data_io
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, load_config
from .errors import DivergenceError, MalformedInputError
from .graph import lambda_max
from .metrics import accuracy, total_variation, uncertainty_report
from .model import PreparedGraph, forward_deterministic, predict_mc
from .tape import constant
from .training import epoch_log_rows, run_seeds, train

PAVPU_FRACS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def _load_dataset(cfg: RunConfig):
    ds = data_io.load_content_cites(cfg["data.content"], cfg["data.cites"])
    if cfg["data.row_normalize"]:
        ds.features = data_io.row_normalize(ds.features)
    ds = data_io.make_split(ds, cfg["data.per_class_train"],
                            cfg["data.n_val"], cfg["data.n_test"])
    graph = PreparedGraph.from_edges(ds.edges, ds.n_nodes,
                                     renorm_trick=cfg["model.renorm_trick"])
    return ds, graph


def _outdir(cfg: RunConfig, args) -> str:
    out = args.out if args.out else cfg["output.dir"]
    os.makedirs(out, exist_ok=True)
    return out


def _write_rows(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    ds, graph = _load_dataset(cfg)
    gcn_config = cfg.gcn_config(ds.n_features, ds.class_count)
    train_config = cfg.train_config(seed_override=args.seed_override)
    out = _outdir(cfg, args)
    summary = run_seeds(ds, gcn_config, train_config, graph=graph)
    rows = ["seed,best_val_acc,test_acc,stop_reason"]
    for r in summary.results:
        rows.append(f"{r.seed},{r.result.best_val_acc!r},"
                    f"{r.result.best_test_acc!r},{r.result.stop_reason}")
    _write_rows(os.path.join(out, "summary.csv"), rows)
    for r in summary.results:
        _write_rows(os.path.join(out, f"epochs_seed{r.seed}.csv"),
                    epoch_log_rows(r.result.logs))
        save_checkpoint(os.path.join(out, f"ckpt_seed{r.seed}.bin"),
                        r.result.params, gcn_config)
    cfg.write_resolved(os.path.join(out, "config_resolved.ini"))
    print(f"test accuracy: {summary.mean_acc:.4f} +/- {summary.std_acc:.4f} "
          f"over {len(summary.results)} seeds")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    ds, graph = _load_dataset(cfg)
    gcn_config = cfg.gcn_config(ds.n_features, ds.class_count)
    params = load_checkpoint(args.checkpoint, gcn_config)
    x = constant(ds.features_csr())
    logprobs = forward_deterministic(params, x, graph, gcn_config)
    det_acc = accuracy(logprobs.data.argmax(axis=1), ds.labels, ds.split.test)
    rows = ["mode,accuracy", f"deterministic,{det_acc!r}"]
    if args.samples > 0:
        rng = np.random.default_rng(args.seed_override or 0)
        mean_probs, _ = predict_mc(params, x, graph, gcn_config,
                                   args.samples, rng)
        mc_acc = accuracy(mean_probs.argmax(axis=1), ds.labels, ds.split.test)
        rows.append(f"mc{args.samples},{mc_acc!r}")
        print(f"test accuracy: deterministic {det_acc:.4f}, "
              f"MC({args.samples}) {mc_acc:.4f}")
    else:
        print(f"test accuracy: deterministic {det_acc:.4f}")
    out = _outdir(cfg, args)
    _write_rows(os.path.join(out, "eval.csv"), rows)
    cfg.write_resolved(os.path.join(out, "config_resolved.ini"))
    return 0


def cmd_uq(args) -> int:
    cfg = load_config(args.config)
    ds, graph = _load_dataset(cfg)
    gcn_config = cfg.gcn_config(ds.n_features, ds.class_count)
    params = load_checkpoint(args.checkpoint, gcn_config)
    x = constant(ds.features_csr())
    rng = np.random.default_rng(args.seed_override or 0)
    mean_probs, _ = predict_mc(params, x, graph, gcn_config, args.samples, rng)
    report = uncertainty_report(mean_probs, ds.labels, ds.split.test,
                                PAVPU_FRACS)
    out = _outdir(cfg, args)
    rows = ["threshold_frac,pavpu,p_acc_given_cert,p_cert_given_inacc"]
    for f, pv, pa, pc in zip(report.threshold_fracs, report.pavpu,
                             report.p_acc_given_cert,
                             report.p_cert_given_inacc):
        rows.append(",".join(repr(float(v)) for v in (f, pv, pa, pc)))
    _write_rows(os.path.join(out, "pavpu.csv"), rows)
    ent_rows = ["node,entropy,correct"]
    for node, e, c in zip(ds.split.test, report.entropy, report.correct):
        ent_rows.append(f"{int(node)},{float(e)!r},{int(c)}")
    _write_rows(os.path.join(out, "entropy.csv"), ent_rows)
    cfg.write_resolved(os.path.join(out, "config_resolved.ini"))
    print(f"PAvPU at fracs {PAVPU_FRACS}: "
          + ", ".join(f"{v:.4f}" for v in report.pavpu))
    return 0


def cmd_diagnose(args) -> int:
    cfg = load_config(args.config)
    ds, graph = _load_dataset(cfg)
    lam, _ = lambda_max(graph.a_raw)
    if lam <= 0.0:
        raise MalformedInputError(
            f"{cfg['data.cites']}: the graph has no edge; total variation "
            f"needs at least one")
    depths = cfg.sweep_depths
    if any(depth < 2 for depth in depths):
        raise ConfigError("sweep.depths entries must be >= 2 layers")
    sweep = [(depth, cfg.gcn_config(ds.n_features, ds.class_count,
                                    hidden_dims=[cfg.hidden_dims[0]]
                                    * (depth - 1)))
             for depth in depths]
    sweep_train = (cfg.train_config(seed_override=args.seed_override)
                   if sweep else None)
    gcn_config = cfg.gcn_config(ds.n_features, ds.class_count)
    if args.checkpoint:
        params = load_checkpoint(args.checkpoint, gcn_config)
    else:
        seed = args.seed_override if args.seed_override is not None else cfg.seeds[0]
        train_config = cfg.train_config(seed_override=seed)
    out = _outdir(cfg, args)
    rows = ["epoch,layer,tv_normalized"]

    def hook(epoch, hidden):
        for l, h in enumerate(hidden):
            tv = total_variation(h, graph.a_raw, lam, normalized=True)
            rows.append(f"{epoch},{l},{tv!r}")

    if args.checkpoint:
        hook(0, forward_deterministic(params, constant(ds.features_csr()),
                                      graph, gcn_config, capture_hidden=True)[1])
    else:
        train(ds, gcn_config, train_config, seed, graph=graph,
              hidden_hook=hook)
    _write_rows(os.path.join(out, "tv.csv"), rows)

    if sweep:
        drows = ["depth,mean_acc,std_acc"]
        for depth, depth_config in sweep:
            summary = run_seeds(ds, depth_config, sweep_train, graph=graph)
            drows.append(f"{depth},{summary.mean_acc!r},{summary.std_acc!r}")
        _write_rows(os.path.join(out, "depth_sweep.csv"), drows)
    cfg.write_resolved(os.path.join(out, "config_resolved.ini"))
    print(f"wrote tv.csv ({len(rows) - 1} rows)"
          + (f" and depth_sweep.csv ({len(depths)} depths)" if depths else ""))
    return 0


def cmd_sweep_blocks(args) -> int:
    cfg = load_config(args.config)
    blocks = cfg.sweep_blocks
    if not blocks:
        raise ConfigError("sweep-blocks requires sweep.blocks in the config")
    ds, graph = _load_dataset(cfg)
    n_layers = len(cfg.hidden_dims) + 1
    base_blocks = cfg.n_blocks_per_layer(n_layers)
    gcn_configs = [cfg.gcn_config(
        ds.n_features, ds.class_count,
        n_blocks_override=[base_blocks[0]] + [nb] * (n_layers - 1))
        for nb in blocks]
    train_config = cfg.train_config(seed_override=args.seed_override)
    out = _outdir(cfg, args)
    rows = ["n_blocks,mean_acc,std_acc"]
    for nb, gcn_config in zip(blocks, gcn_configs):
        summary = run_seeds(ds, gcn_config, train_config, graph=graph)
        rows.append(f"{nb},{summary.mean_acc!r},{summary.std_acc!r}")
        print(f"n_blocks={nb}: {summary.mean_acc:.4f} +/- {summary.std_acc:.4f}")
    _write_rows(os.path.join(out, "block_sweep.csv"), rows)
    cfg.write_resolved(os.path.join(out, "config_resolved.ini"))
    return 0


def _at_least(minimum: int):
    """argparse type: an integer of at least ``minimum``."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {raw!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    # The epilog is the docstring's exit-code section (none under -OO).
    _, head, codes = (__doc__ or "").partition("Exit codes:")
    parser = argparse.ArgumentParser(
        prog="gdcn",
        description="GCN training with adaptive connection sampling",
        epilog=head + codes or None,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, min_samples=None):
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed-override", type=_at_least(0), default=None)
        if min_samples is not None:
            p.add_argument("--samples", type=_at_least(min_samples),
                           default=20,
                           help=f"Monte Carlo samples, at least {min_samples}")
        if checkpoint:
            p.add_argument("--checkpoint", required=True)

    common(sub.add_parser("train", help="train over the configured seeds"))
    common(sub.add_parser("eval", help="evaluate a checkpoint"),
           checkpoint=True, min_samples=0)
    common(sub.add_parser("uq", help="uncertainty report for a checkpoint"),
           checkpoint=True, min_samples=1)
    diag = sub.add_parser("diagnose", help="total-variation diagnostics")
    common(diag)
    diag.add_argument("--checkpoint", default=None,
                      help="single-shot TV of a checkpoint instead of tracking")
    common(sub.add_parser("sweep-blocks", help="train per block-count setting"))
    return parser


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "uq": cmd_uq,
    "diagnose": cmd_diagnose,
    "sweep-blocks": cmd_sweep_blocks,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, MalformedInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
