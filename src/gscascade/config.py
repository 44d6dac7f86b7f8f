"""Run configuration: JSON document + environment + CLI flag merging.

Precedence (highest wins): CLI flags > GSCASCADE_* environment variables >
config file > built-in defaults. `OPTIONS` states every option a run can set
and its rule once; the merged values are checked against it before any work
starts, `cli` applies its `scene` rows to a scene directory's `scene.json`
too, and the scripts in scripts/ check their flags with it through
`argument`. Unknown keys anywhere are an error (exit code 2 in the CLI).
"""

from __future__ import annotations

import argparse
import math
import operator
import os
from dataclasses import dataclass

from .losses import LossWeights
from .optimize import TrainConfig
from .scenegen import KINDS, SceneSpec


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Rule:
    """An option's kind (a key of `_KINDS`, or a tuple of the allowed values),
    its bounds (`least` inclusive, `above` and `below` strict), whether it may
    be null, and its default in the sections that keep theirs here."""

    kind: object
    least: float = None
    above: float = None
    below: float = None
    null: bool = False
    default: object = None


def _layer_sizes(value):
    """A layer list (a non-empty list of integers >= 1, or the same as a
    comma-separated string) as a tuple; None if it is not one."""
    if isinstance(value, str):
        try:
            value = [int(tok) for tok in value.split(",") if tok.strip()]
        except ValueError:
            return None
    if (isinstance(value, (list, tuple)) and value
            and all(type(s) is int and s >= 1 for s in value)):
        return tuple(value)
    return None


# kind -> (its text, the typed value of a JSON value of that kind or None)
_KINDS = {
    "integer": ("an integer", lambda v: v if type(v) is int else None),
    "number": ("a finite number",
               lambda v: float(v) if type(v) in (int, float) and math.isfinite(v) else None),
    "boolean": ("true or false", lambda v: v if type(v) is bool else None),
    "string": ("a non-empty string", lambda v: v if isinstance(v, str) and v else None),
    "layers": ("a non-empty list of integers >= 1 or a comma-separated string", _layer_sizes),
}

_RATE = Rule("number", above=0.0)
_BETA = Rule("number", least=0.0, below=1.0)

# section -> key -> rule; "" is the document's top level. The scene, train and
# weights defaults are those of SceneSpec, TrainConfig and LossWeights.
OPTIONS = {
    "": {"seed": Rule("integer", least=0, default=0),
         "threads": Rule("integer", least=1, default=1),
         "out": Rule("string")},
    "scene": {"kind": Rule(KINDS), "n_gaussians": Rule("integer", least=10),
              "n_frames": Rule("integer", least=2),
              "motion_magnitude": Rule("number", null=True),
              "noise_sigma": Rule("number", least=0.0), "seed": Rule("integer", least=0)},
    "train": {"iters_per_frame": Rule("integer", least=1), "layer_sizes": Rule("layers"),
              "k_neighbors": Rule("integer", least=1),
              "lambda_weight": Rule("number", least=0.0, null=True),
              "max_scale": Rule("number", least=0.0), "propagate_covariance": Rule("boolean"),
              "lr_rot": _RATE, "lr_trans": Rule("number", least=0.0, null=True),
              "lr_scaledir": _RATE, "lr_sbias": _RATE, "adam_beta1": _BETA, "adam_beta2": _BETA,
              "adam_eps": _RATE},
    "weights": dict.fromkeys(("w_rigid", "w_iso", "w_rot", "w_scale", "w_data"),
                             Rule("number", least=0.0)),
    "segmentation": {"k_parts": Rule("integer", least=1, default=2),
                     **dict.fromkeys(("lambda_p", "lambda_r", "lambda_p0"),
                                     Rule("number", default=1.0))},
    "tracking": {"camera_index": Rule("integer", least=0, default=0),
                 "n_tracks": Rule("integer", least=1, default=12)},
}

ENV_PREFIX = "GSCASCADE_"

# what the flag --<name> and the variable GSCASCADE_<NAME> set: name -> (section, key)
_OVERRIDES = {"seed": ("", "seed"), "threads": ("", "threads"), "out": ("", "out"),
              "iters": ("train", "iters_per_frame"), "layers": ("train", "layer_sizes"),
              "max_scale": ("train", "max_scale")}


def _check_keys(section, mapping, allowed, where=""):
    if not isinstance(mapping, dict):
        raise ConfigError(f"'{section}'{where} must be a JSON object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}'{where}: {sorted(unknown)}")


def _check_value(name, rule, value, source):
    """`value` of the option `name` as `source` sets it, typed by `rule`;
    raises ConfigError naming the option and the source."""
    got = f", got {value!r} from {source}"
    if value is None and rule.null:
        return None
    if isinstance(rule.kind, tuple):  # the scene kinds, the one such rule
        if value not in rule.kind:
            raise ConfigError(f"{name}: unknown scene kind {value!r} from {source} (choose"
                              f" from {', '.join(rule.kind)})")
        return value
    typed = _KINDS[rule.kind][1](value)
    if typed is None:
        what = _KINDS[rule.kind][0] + (" or null" if rule.null else "")
        raise ConfigError(f"{name} must be {what}{got}")
    for holds, op, bound in ((operator.ge, ">=", rule.least), (operator.gt, ">", rule.above),
                             (operator.lt, "<", rule.below)):
        if bound is not None and not holds(typed, bound):
            raise ConfigError(f"{name} must be {op} {bound!r}{got}")
    return typed


def check_section(section, mapping, source, name=None):
    """A document section, checked against OPTIONS[section] and typed; the
    messages call it `name` (default: the section)."""
    name = name or section
    _check_keys(name, mapping, set(OPTIONS[section]), f" of {source}")
    return {key: _check_value(f"{name}.{key}", OPTIONS[section][key], value, source)
            for key, value in mapping.items()}


def _from_text(name, rule, text, var):
    """The text of the environment variable `var`, which sets the option
    `name`, as the integer or number the option takes (else as it is)."""
    try:
        return {"integer": int, "number": float}.get(rule.kind, str)(text)
    except ValueError:
        raise ConfigError(f"invalid value for {var}: {name} must be {_KINDS[rule.kind][0]},"
                          f" got {text!r}") from None


def _option(section, key):
    return f"{section}.{key}" if section else key


def argument(section, key):
    """An argparse `type` for a script's flag that sets the option
    `section.key`: the flag's text as the option's value, checked against
    OPTIONS (a bad value makes argparse exit 2 naming the flag and the option)."""
    name, rule = _option(section, key), OPTIONS[section][key]

    def typed(text):
        try:
            value = _from_text(name, rule, text, "this flag")
            return _check_value(name, rule, value, "this flag")
        except ConfigError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return typed


def _defaults(section):
    return {key: rule.default for key, rule in OPTIONS[section].items()}


@dataclass
class RunConfig:
    scene: dict  # checked SceneSpec kwargs (seed filled at build time); None without a section
    train: dict
    weights: dict
    segmentation: dict
    tracking: dict
    out: str
    seed: int
    threads: int

    def scene_spec(self):
        if self.scene is None:
            raise ConfigError("config has no 'scene' section")
        try:
            return SceneSpec(**{"seed": self.seed, **self.scene})
        except TypeError as e:  # no kind
            raise ConfigError(f"invalid scene spec: {e}") from e

    def train_config(self, scene_scale=1.0):
        return TrainConfig(weights=LossWeights(**self.weights), seed=self.seed,
                           scene_scale=scene_scale, threads=self.threads, **self.train)

    def seg_options(self):
        return _defaults("segmentation") | self.segmentation

    def track_options(self):
        return _defaults("tracking") | self.tracking


def load_run_config(document=None, env=None, cli=None):
    """Merge a parsed JSON document, environment dict, and CLI namespace, and
    check every merged value against OPTIONS."""
    given = {section: {} for section in OPTIONS}  # section -> key -> (value, source)
    if document is not None:
        _check_keys("config", document, (set(OPTIONS) | set(OPTIONS[""])) - {""})
        for section, rules in OPTIONS.items():
            mapping = ({k: document[k] for k in rules if k in document} if section == ""
                       else document.get(section, {}))
            _check_keys(section, mapping, set(rules))
            given[section] = {key: (value, "the config") for key, value in mapping.items()}

    env = os.environ if env is None else env
    for name, (section, key) in _OVERRIDES.items():
        var, flag = ENV_PREFIX + name.upper(), "--" + name.replace("_", "-")
        if env.get(var) is not None:
            given[section][key] = (_from_text(_option(section, key), OPTIONS[section][key],
                                              env[var], var), var)
        if getattr(cli, name, None) is not None:  # the flag outranks the variable
            given[section][key] = (getattr(cli, name), flag)

    checked = {section: {key: _check_value(_option(section, key), OPTIONS[section][key], value,
                                          source)
                         for key, (value, source) in entries.items()}
               for section, entries in given.items()}
    top, scene = checked.pop(""), checked.pop("scene")
    return RunConfig(scene=scene if document and "scene" in document else None,
                     **checked, **_defaults("") | top)
