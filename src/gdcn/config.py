"""INI experiment configuration: strict parsing, defaults, resolved copies.

Unknown sections or keys are errors so that typos in sweep configs fail
fast. Every run writes back a ``config_resolved.ini`` with all defaults
materialized; re-running from that file reproduces the run bit for bit.
``model.renorm_trick`` selects the graph's normalization, which the CLI
passes to ``PreparedGraph.from_edges``; every other ``[model]`` key becomes
a field of ``GCNConfig`` or of each layer's ``MaskSpec``.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

from .errors import MalformedInputError
from .masks import MaskKind, MaskSpec
from .model import GCNConfig
from .training import TrainConfig
from .variational import WarmupSchedule


class ConfigError(MalformedInputError):
    pass


_SCHEMA = {
    "data": {
        "content": (str, None),
        "cites": (str, None),
        "per_class_train": (int, 20),
        "n_val": (int, 500),
        "n_test": (int, 1000),
        "row_normalize": (bool, True),
    },
    "model": {
        "hidden_dims": (str, "128,128"),
        "regularizer": (str, "none"),
        "learned": (bool, False),
        "estimator": (str, "none"),
        "keep_prob": (float, 1.0),
        "dropout_keep": (str, ""),
        "n_blocks": (str, "1"),
        "temperature": (float, 0.67),
        "beta_prior_c": (float, 2.0),
        "kuma_init_b": (float, 3.0),
        "symmetric": (bool, False),
        "protect_self_loops": (bool, False),
        "renorm_trick": (bool, False),
        "renorm_after_mask": (bool, False),
        "concrete_standard": (bool, False),
        "kl_weight_scaling": (bool, False),
        "kl_full_series": (bool, False),
        "use_bias": (bool, False),
    },
    "train": {
        "epochs": (int, 2000),
        "lr": (float, 0.005),
        "l2_factor": (float, 5e-3),
        "warmup_ramp": (int, 0),
        "patience": (int, 200),
        "seeds": (str, "0,1,2,3,4"),
    },
    "output": {
        "dir": (str, "runs/out"),
    },
    "sweep": {
        "blocks": (str, ""),
        "depths": (str, ""),
    },
}


def _parse_bool(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {raw!r}")


def _int_list(raw: str, where: str):
    """Comma-separated integers; an empty value is the empty list."""
    if raw.strip() == "":
        return []
    try:
        return [int(v) for v in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{where}: expected comma-separated integers, "
                          f"got {raw!r}") from exc


@dataclass
class RunConfig:
    """Fully resolved run description."""

    values: dict = field(default_factory=dict)
    path: str = ""

    def __getitem__(self, key):
        return self.values[key]

    # ------------------------------------------------------------------
    @property
    def hidden_dims(self):
        dims = _int_list(self.values["model.hidden_dims"], "model.hidden_dims")
        if not dims or any(d < 1 for d in dims):
            raise ConfigError("model.hidden_dims must be positive integers")
        return dims

    @property
    def seeds(self):
        seeds = _int_list(self.values["train.seeds"], "train.seeds")
        if not seeds:
            raise ConfigError("train.seeds must list at least one seed")
        if min(seeds) < 0:
            raise ConfigError(f"train.seeds must be non-negative, got {seeds}")
        return seeds

    @property
    def sweep_blocks(self):
        return _int_list(self.values["sweep.blocks"], "sweep.blocks")

    @property
    def sweep_depths(self):
        return _int_list(self.values["sweep.depths"], "sweep.depths")

    def n_blocks_per_layer(self, n_layers: int):
        blocks = _int_list(self.values["model.n_blocks"], "model.n_blocks")
        if len(blocks) == 1:
            blocks = blocks * n_layers
        elif len(blocks) == 2 and n_layers != 2:
            # two-element shorthand: (first layer, every deeper layer)
            blocks = [blocks[0]] + [blocks[1]] * (n_layers - 1)
        if len(blocks) != n_layers:
            raise ConfigError(
                f"model.n_blocks lists {len(blocks)} values for {n_layers} layers"
            )
        return blocks

    # ------------------------------------------------------------------
    def gcn_config(self, f_in: int, n_classes: int,
                   hidden_dims=None, n_blocks_override=None) -> GCNConfig:
        hidden = list(hidden_dims if hidden_dims is not None else self.hidden_dims)
        layer_dims = [f_in] + hidden + [n_classes]
        n_layers = len(layer_dims) - 1
        kind_name = self.values["model.regularizer"]
        try:
            kind = MaskKind(kind_name)
        except ValueError as exc:
            raise ConfigError(
                f"model.regularizer: unknown kind {kind_name!r}") from exc
        learned = self.values["model.learned"]
        estimator = self.values["model.estimator"]
        blocks = (list(n_blocks_override) if n_blocks_override is not None
                  else self.n_blocks_per_layer(n_layers))
        dropout_keep_raw = self.values["model.dropout_keep"].strip()
        try:
            dropout_keep = float(dropout_keep_raw) if dropout_keep_raw else None
        except ValueError as exc:
            raise ConfigError("model.dropout_keep: expected a number") from exc
        # MaskSpec and GCNConfig check the values and their combinations
        # (estimator, learned, n_blocks, keep probabilities, temperature).
        try:
            masks = [MaskSpec(
                kind=kind,
                learned=learned,
                keep_prob=self.values["model.keep_prob"],
                n_blocks=blocks[l] if kind == MaskKind.GDC else 1,
                symmetric=self.values["model.symmetric"],
                relaxed=(learned and estimator == "concrete"),
                temperature=self.values["model.temperature"],
                protect_self_loops=self.values["model.protect_self_loops"],
                dropout_keep=dropout_keep,
            ) for l in range(n_layers)]
            gcn_config = GCNConfig(
                layer_dims=layer_dims,
                masks=masks,
                estimator=estimator,
                beta_prior_c=self.values["model.beta_prior_c"],
                kuma_init_b=self.values["model.kuma_init_b"],
                use_bias=self.values["model.use_bias"],
                renorm_after_mask=self.values["model.renorm_after_mask"],
                concrete_standard=self.values["model.concrete_standard"],
                kl_weight_scaling=self.values["model.kl_weight_scaling"],
                kl_full_series=self.values["model.kl_full_series"],
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # Only GDC draws a mask per feature block; any other kind would
        # train one block whatever the count says.
        if kind != MaskKind.GDC and any(nb != 1 for nb in blocks):
            raise ConfigError(f"block counts {blocks} need model.regularizer "
                              f"= gdc, got {kind.value}")
        return gcn_config

    def train_config(self, seed_override=None) -> TrainConfig:
        epochs = self.values["train.epochs"]  # 0 would evaluate nothing
        ramp = self.values["train.warmup_ramp"]
        if epochs < 1:
            raise ConfigError(f"train.epochs must be at least 1, got {epochs}")
        if ramp < 0:
            raise ConfigError(f"train.warmup_ramp must be >= 0, got {ramp}")
        seeds = [seed_override] if seed_override is not None else self.seeds
        try:
            return TrainConfig(
                epochs=epochs,
                lr=self.values["train.lr"],
                l2_factor=self.values["train.l2_factor"],
                warmup=WarmupSchedule(ramp) if ramp > 0 else None,
                patience=self.values["train.patience"],
                seeds=tuple(seeds),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    # ------------------------------------------------------------------
    def write_resolved(self, path) -> None:
        parser = configparser.ConfigParser()
        for section, keys in _SCHEMA.items():
            parser[section] = {}
            for key, (typ, _) in keys.items():
                val = self.values[f"{section}.{key}"]
                if typ is float:
                    parser[section][key] = repr(val)
                elif typ is bool:
                    parser[section][key] = "true" if val else "false"
                else:
                    parser[section][key] = str(val)
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)


def load_config(path) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
    for section, keys in _SCHEMA.items():
        for key, (typ, default) in keys.items():
            where = f"{section}.{key}"
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                if typ is bool:
                    values[where] = _parse_bool(raw, where)
                elif typ is int:
                    try:
                        values[where] = int(raw)
                    except ValueError as exc:
                        raise ConfigError(f"{where}: expected an integer") from exc
                elif typ is float:
                    try:
                        values[where] = float(raw)
                    except ValueError as exc:
                        raise ConfigError(f"{where}: expected a number") from exc
                    if not math.isfinite(values[where]):
                        raise ConfigError(
                            f"{where}: expected a finite number, got {raw!r}")
                else:
                    values[where] = raw
            else:
                if default is None:
                    raise ConfigError(f"{path}: missing required key {where}")
                values[where] = default

    cfg = RunConfig(values=values, path=str(path))
    for key in ("data.content", "data.cites"):
        if not os.path.exists(cfg.values[key]):
            raise ConfigError(f"{key}: path does not exist: {cfg.values[key]}")
    if not cfg.values["output.dir"]:
        raise ConfigError("output.dir: expected a directory path, got ''")
    return cfg
