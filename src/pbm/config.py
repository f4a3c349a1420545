"""Sectioned key=value config files for the command-line tools.

Backed by configparser, so files look like

    [experiment]
    n = 1000
    m_list = 2 4 6 16

Unknown keys are rejected (they are usually typos) and every parse or
validation problem is raised as ConfigError, which the CLI maps to its
config-error exit code.
"""

from __future__ import annotations

import configparser
import re
from typing import Callable

from .benchmark import ExperimentConfig
from .sgd import LossSpec, SgdConfig


class ConfigError(Exception):
    """A config file could not be parsed or validated."""


_MISSING = object()


def _read(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        # configparser errors carry line numbers in their message
        raise ConfigError(f"bad config {path}: {exc}") from exc
    return parser


def _check_keys(parser, section: str, allowed: set[str], path) -> None:
    if not parser.has_section(section):
        return
    unknown = set(parser[section]) - allowed
    if unknown:
        raise ConfigError(
            f"{path}: unknown keys in [{section}]: {', '.join(sorted(unknown))}"
        )


def _get(parser, section: str, key: str, cast: Callable, default=_MISSING):
    if not parser.has_option(section, key):
        if default is _MISSING:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return default
    raw = parser.get(section, key)
    try:
        if cast is bool:
            return parser.getboolean(section, key)
        return cast(raw)
    except (ValueError, AttributeError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _num_list(cast):
    def parse(raw: str):
        items = [tok for tok in re.split(r"[,\s]+", raw.strip()) if tok]
        if not items:
            raise ValueError("empty list")
        return tuple(cast(tok) for tok in items)

    return parse


_DME_KEYS = {
    "n", "d", "c", "cinf", "m_list", "theta_list", "eps_list", "alpha",
    "trials", "seed", "use_kashin", "redundancy",
}
_CLIP_KEYS = {"enabled", "safety_c"}


def load_dme_config(path) -> ExperimentConfig:
    parser = _read(path)
    if not parser.has_section("experiment"):
        raise ConfigError(f"{path}: missing [experiment] section")
    _check_keys(parser, "experiment", _DME_KEYS, path)
    _check_keys(parser, "clipping", _CLIP_KEYS, path)
    sec = "experiment"
    kwargs = dict(
        n=_get(parser, sec, "n", int),
        d=_get(parser, sec, "d", int),
        c=_get(parser, sec, "c", float, 1.0),
        cinf=_get(parser, sec, "cinf", float, None),
        m_list=_get(parser, sec, "m_list", _num_list(int)),
        theta_list=_get(parser, sec, "theta_list", _num_list(float), None),
        eps_list=_get(parser, sec, "eps_list", _num_list(float), None),
        alpha=_get(parser, sec, "alpha", float, 2.0),
        trials=_get(parser, sec, "trials", int, 50),
        seed=_get(parser, sec, "seed", int, 1234),
        use_kashin=_get(parser, sec, "use_kashin", bool, False),
        redundancy=_get(parser, sec, "redundancy", float, 2.0),
    )
    if parser.has_section("clipping"):
        kwargs["clipping"] = _get(parser, "clipping", "enabled", bool, False)
        safety = _get(parser, "clipping", "safety_c", float, None)
        if safety is not None:
            kwargs["safety_c"] = safety
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_SGD_KEYS = {
    "total_clients", "sampled", "rounds", "clip", "learning_rate", "theta",
    "m", "seed", "use_kashin", "redundancy",
}
_LOSS_KEYS = {"kind", "dimension", "smoothness", "radius", "shift", "data_seed"}


def _learning_rate(raw: str):
    if raw.strip() == "auto":
        return "auto"
    return float(raw)


def load_sgd_config(path) -> SgdConfig:
    parser = _read(path)
    if not parser.has_section("sgd"):
        raise ConfigError(f"{path}: missing [sgd] section")
    _check_keys(parser, "sgd", _SGD_KEYS, path)
    _check_keys(parser, "loss", _LOSS_KEYS, path)
    loss_kwargs = {}
    if parser.has_section("loss"):
        loss_kwargs = dict(
            kind=_get(parser, "loss", "kind", str, "quadratic"),
            dimension=_get(parser, "loss", "dimension", int, 8),
            smoothness=_get(parser, "loss", "smoothness", float, 1.0),
            radius=_get(parser, "loss", "radius", float, 1.0),
            shift=_get(parser, "loss", "shift", float, 1.0),
            data_seed=_get(parser, "loss", "data_seed", int, 0),
        )
    sec = "sgd"
    try:
        loss = LossSpec(**loss_kwargs)
        return SgdConfig(
            total_clients=_get(parser, sec, "total_clients", int),
            sampled=_get(parser, sec, "sampled", int),
            rounds=_get(parser, sec, "rounds", int),
            clip=_get(parser, sec, "clip", float, 1.0),
            learning_rate=_get(parser, sec, "learning_rate", _learning_rate, "auto"),
            theta=_get(parser, sec, "theta", float, 0.25),
            m=_get(parser, sec, "m", int, 16),
            seed=_get(parser, sec, "seed", int, 7),
            use_kashin=_get(parser, sec, "use_kashin", bool, True),
            redundancy=_get(parser, sec, "redundancy", float, 2.0),
            loss=loss,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
