"""Run configuration: JSON document + environment + CLI flag merging.

Precedence (highest wins): CLI flags > GSCASCADE_* environment variables >
config file > built-in defaults. Documents are schema-checked before any work
starts; unknown keys anywhere are an error (exit code 2 in the CLI).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

from .losses import LossWeights
from .optimize import TrainConfig
from .scenegen import SceneSpec


class ConfigError(Exception):
    pass


def _field_names(cls):
    return {f.name for f in fields(cls)}


_SCENE_KEYS = _field_names(SceneSpec)
# weights, seed, scene_scale and threads come from elsewhere in the run config
_TRAIN_KEYS = _field_names(TrainConfig) - {"weights", "seed", "scene_scale", "threads"}
# option -> (type, least allowed value); the upper bounds are checked apart:
# adam_beta* < 1 here, camera_index below the scene's camera count by the
# track command
_TRAIN_OPTIONS = {"iters_per_frame": (int, 1), "k_neighbors": (int, 1),
                  **dict.fromkeys(("lr_rot", "lr_trans", "lr_scaledir", "lr_sbias", "adam_beta1",
                                   "adam_beta2", "adam_eps", "max_scale", "lambda_weight"),
                                  (float, 0.0))}
_NULLABLE_TRAIN = {"lr_trans", "lambda_weight"}  # null: scaled to the scene
_WEIGHT_OPTIONS = dict.fromkeys(_field_names(LossWeights), (float, 0.0))
_SEG_OPTIONS = {"k_parts": (int, 1), "lambda_p": (float, None), "lambda_r": (float, None),
                "lambda_p0": (float, None)}
_TRACK_OPTIONS = {"camera_index": (int, 0), "n_tracks": (int, 1)}
_TOP_KEYS = {"scene", "train", "weights", "segmentation", "tracking", "out", "seed", "threads"}
_RUN_OPTIONS = {"seed": 0, "threads": 1}  # top-level integer option -> least allowed value

ENV_PREFIX = "GSCASCADE_"


def _check_keys(section, mapping, allowed):
    if not isinstance(mapping, dict):
        raise ConfigError(f"'{section}' must be a JSON object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {sorted(unknown)}")


def _is_option(value, kind, least):
    """Is a JSON value a finite number, integral if `kind` is int, and >= `least`?"""
    return not (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value) or (kind is int and value != int(value))
                or (least is not None and value < least))


def _check_options(section, mapping, options):
    """Schema-check a section of numeric options; returns it with typed values."""
    _check_keys(section, mapping, set(options))
    checked = {}
    for key, value in mapping.items():
        kind, least = options[key]
        if not _is_option(value, kind, least):
            what = "an integer" if kind is int else "a finite number"
            bound = "" if least is None else f" >= {least}"
            raise ConfigError(f"{section}.{key} must be {what}{bound}, got {value!r}")
        checked[key] = kind(value)
    return checked


def _check_train(train):
    """Schema-check the merged train section; returns it with typed numbers."""
    numeric = {key: value for key, value in train.items()
               if key in _TRAIN_OPTIONS and not (value is None and key in _NULLABLE_TRAIN)}
    checked = dict(train, **_check_options("train", numeric, _TRAIN_OPTIONS))
    for key in ("adam_beta1", "adam_beta2"):
        if checked.get(key, 0.0) >= 1.0:
            raise ConfigError(f"train.{key} must be < 1, got {checked[key]!r}")
    if not isinstance(checked.get("propagate_covariance", True), bool):
        raise ConfigError("train.propagate_covariance must be true or false, got"
                          f" {checked['propagate_covariance']!r}")
    return checked


@dataclass
class RunConfig:
    scene: dict = None  # raw SceneSpec kwargs (seed filled at build time)
    train: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    segmentation: dict = field(default_factory=dict)
    tracking: dict = field(default_factory=dict)
    out: str = None
    seed: int = 0
    threads: int = 1

    def scene_spec(self):
        if self.scene is None:
            raise ConfigError("config has no 'scene' section")
        kwargs = dict(self.scene)
        kwargs.setdefault("seed", self.seed)
        try:
            return SceneSpec(**kwargs)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid scene spec: {e}") from e

    def train_config(self, scene_scale=1.0):
        kwargs = dict(self.train)
        try:
            weights = LossWeights(**self.weights)
            return TrainConfig(
                weights=weights,
                seed=self.seed,
                scene_scale=scene_scale,
                threads=self.threads,
                **kwargs,
            )
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid train config: {e}") from e

    def seg_options(self):
        opts = {"k_parts": 2, "lambda_p": 1.0, "lambda_r": 1.0, "lambda_p0": 1.0}
        opts.update(self.segmentation)
        return opts

    def track_options(self):
        opts = {"camera_index": 0, "n_tracks": 12}
        opts.update(self.tracking)
        return opts


def _parse_layers(text):
    try:
        sizes = tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as e:
        raise ConfigError(f"invalid layer list '{text}': {e}") from e
    if not sizes or any(s < 1 for s in sizes):
        raise ConfigError(f"invalid layer list '{text}'")
    return sizes


def _check_layer_list(sizes):
    """A document's non-string train.layer_sizes: a non-empty list of integers >= 1."""
    if not (isinstance(sizes, (list, tuple)) and sizes
            and all(_is_option(s, int, 1) for s in sizes)):
        raise ConfigError("train.layer_sizes must be a non-empty list of integers >= 1 or a"
                          f" comma-separated string, got {sizes!r}")
    return tuple(int(s) for s in sizes)


def _run_option(key, value, source):
    """`seed` or `threads` as one layer (`source`) sets it: an integer >= its least value."""
    least = _RUN_OPTIONS[key]
    if not _is_option(value, int, None):
        raise ConfigError(f"{key} must be an integer, got {value!r} from {source}")
    if value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value!r} from {source}")
    return int(value)


def _coerce(name, value, kind):
    try:
        return kind(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid value for {name}: {value!r}") from e


# what the flag --<name> and the variable GSCASCADE_<NAME> set: name -> (its
# train key, or None for the RunConfig field <name>; parser(value, source))
_OVERRIDES = {
    "seed": (None, lambda v, source: _run_option("seed", _coerce(source, v, int), source)),
    "threads": (None, lambda v, source: _run_option("threads", _coerce(source, v, int), source)),
    "out": (None, lambda v, source: v),
    "iters": ("iters_per_frame", lambda v, source: _coerce(source, v, int)),
    "layers": ("layer_sizes", lambda v, source: _parse_layers(v)),
    "max_scale": ("max_scale", lambda v, source: _coerce(source, v, float)),
}


def load_run_config(document=None, env=None, cli=None):
    """Merge a parsed JSON document, environment dict, and CLI namespace."""
    cfg = RunConfig()

    if document is not None:
        _check_keys("config", document, _TOP_KEYS)
        if "scene" in document:
            _check_keys("scene", document["scene"], _SCENE_KEYS)
            cfg.scene = dict(document["scene"])
        if "train" in document:
            _check_keys("train", document["train"], _TRAIN_KEYS)
            cfg.train = dict(document["train"])
            if "layer_sizes" in cfg.train:
                sizes = cfg.train["layer_sizes"]
                cfg.train["layer_sizes"] = (_parse_layers(sizes) if isinstance(sizes, str)
                                            else _check_layer_list(sizes))
        if "weights" in document:
            cfg.weights = _check_options("weights", document["weights"], _WEIGHT_OPTIONS)
        if "segmentation" in document:
            cfg.segmentation = _check_options(
                "segmentation", document["segmentation"], _SEG_OPTIONS)
        if "tracking" in document:
            cfg.tracking = _check_options("tracking", document["tracking"], _TRACK_OPTIONS)
        if "out" in document:
            cfg.out = str(document["out"])
        for key in _RUN_OPTIONS:
            if key in document:
                setattr(cfg, key, _run_option(key, document[key], "the config"))

    env = os.environ if env is None else env
    given = [(name, env.get(ENV_PREFIX + name.upper()), ENV_PREFIX + name.upper())
             for name in _OVERRIDES]
    given += [(name, getattr(cli, name, None), "--" + name.replace("_", "-"))
              for name in _OVERRIDES]  # after the environment, so the flags win
    for name, value, source in given:
        if value is not None:
            train_key, parse = _OVERRIDES[name]
            if train_key is None:
                setattr(cfg, name, parse(value, source))
            else:
                cfg.train[train_key] = parse(value, source)

    cfg.train = _check_train(cfg.train)
    return cfg
