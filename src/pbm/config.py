"""Sectioned key=value config files for the command-line tools.

Backed by configparser, so files look like

    [experiment]
    n = 1000
    m_list = 2 4 6 16

Unknown sections and keys are rejected (they are usually typos) and every
parse or validation problem is raised as a ValueError naming the file,
which the CLI maps to its config-error exit code.
"""

from __future__ import annotations

import configparser
import re

from .benchmark import ExperimentConfig
from .sgd import LossSpec, SgdConfig


def _read(path, sections: tuple[str, ...]) -> configparser.ConfigParser:
    """Parse path; a section other than the given ones raises."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        # configparser errors carry line numbers in their message
        raise ValueError(f"bad config {path}: {exc}") from exc
    unknown = ", ".join(f"[{s}]" for s in parser.sections() if s not in sections)
    if unknown:
        raise ValueError(f"{path}: unknown sections {unknown}")
    return parser


def _section(parser, section: str, casts: dict, path, required=()) -> dict:
    """The keys that [section] sets, each parsed by its entry in casts.

    Keys a file leaves out are not returned, so they take their defaults
    from the config dataclass. Unknown keys and missing required keys raise.
    """
    if not parser.has_section(section):
        return {}
    unknown = set(parser[section]) - set(casts)
    if unknown:
        raise ValueError(
            f"{path}: unknown keys in [{section}]: {', '.join(sorted(unknown))}"
        )
    for key in required:
        if not parser.has_option(section, key):
            raise ValueError(f"{path}: missing required key {key!r} in [{section}]")
    values = {}
    for key, cast in casts.items():
        if not parser.has_option(section, key):
            continue
        raw = parser.get(section, key)
        try:
            values[key] = parser.getboolean(section, key) if cast is bool else cast(raw)
        except (ValueError, AttributeError) as exc:
            raise ValueError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from exc
    return values


def _num_list(cast):
    def parse(raw: str):
        items = [tok for tok in re.split(r"[,\s]+", raw.strip()) if tok]
        if not items:
            raise ValueError("empty list")
        return tuple(cast(tok) for tok in items)

    return parse


_DME_KEYS = {
    "n": int, "d": int, "c": float, "m_list": _num_list(int),
    "theta_list": _num_list(float), "alpha": float,
    "trials": int, "seed": int, "use_kashin": bool,
}
_CLIP_KEYS = {"enabled": bool}


def load_dme_config(path) -> ExperimentConfig:
    parser = _read(path, ("experiment", "clipping"))
    if not parser.has_section("experiment"):
        raise ValueError(f"{path}: missing [experiment] section")
    # a file names its sweep; the dataclass's default theta grid is not used
    required = ("n", "d", "m_list", "theta_list")
    kwargs = _section(parser, "experiment", _DME_KEYS, path, required)
    clipping = _section(parser, "clipping", _CLIP_KEYS, path)
    if "enabled" in clipping:
        kwargs["clipping"] = clipping["enabled"]
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _learning_rate(raw: str):
    if raw.strip() == "auto":
        return "auto"
    rate = float(raw)
    # a run from a file must take steps; SgdConfig also rejects inf
    if not rate > 0:
        raise ValueError("must be positive or 'auto'")
    return rate


_SGD_KEYS = {
    "total_clients": int, "sampled": int, "rounds": int, "clip": float,
    "learning_rate": _learning_rate, "theta": float, "m": int, "seed": int,
    "use_kashin": bool,
}
_LOSS_KEYS = {
    "kind": str, "dimension": int, "smoothness": float, "radius": float,
    "shift": float, "data_seed": int,
}


def load_sgd_config(path) -> SgdConfig:
    parser = _read(path, ("sgd", "loss"))
    if not parser.has_section("sgd"):
        raise ValueError(f"{path}: missing [sgd] section")
    required = ("total_clients", "sampled", "rounds")
    kwargs = _section(parser, "sgd", _SGD_KEYS, path, required)
    loss_kwargs = _section(parser, "loss", _LOSS_KEYS, path)
    try:
        return SgdConfig(**kwargs, loss=LossSpec(**loss_kwargs))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
