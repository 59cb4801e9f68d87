"""Scenario definition: receiver layout, ground-truth states, experiment knobs.

A scenario bundles everything a campaign needs: receiver positions, the
true user state, the true scatterer state (position plus signed speed along
the user velocity direction), sampling boxes for randomized states, the
noise configuration, and run parameters.  Scenarios load from YAML files;
omitting a field selects its built-in value, and ``rrhs: default`` selects
the built-in receiver layout.

Receiver indices are 0-based everywhere, including scenario files.
"""

from __future__ import annotations

import dataclasses
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ScenarioError
from .noise import NoiseConfig

# libyaml's safe loader builds the same objects as the pure-Python one,
# about nine times faster.
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# Default 18-receiver deployment: two columns at x = 235.5042 / 287.5042 m,
# rows advancing north in 100 m steps, mast heights varying on the first six.
DEFAULT_RRHS = np.array(
    [
        [235.5042, 389.5038, 26.0],
        [287.5042, 389.5038, 32.0],
        [235.5042, 489.5038, 10.0],
        [287.5042, 489.5038, 40.0],
        [235.5042, 589.5038, 14.0],
        [287.5042, 589.5038, 50.0],
        [235.5042, 851.5038, 26.0],
        [287.5042, 851.5038, 26.0],
        [235.5042, 651.5038, 26.0],
        [287.5042, 651.5038, 26.0],
        [235.5042, 751.5038, 26.0],
        [287.5042, 751.5038, 26.0],
        [235.5042, 851.5038, 26.0],
        [287.5042, 851.5038, 26.0],
        [235.5042, 951.5038, 26.0],
        [287.5042, 951.5038, 26.0],
        [235.5042, 1051.5038, 26.0],
        [287.5042, 1051.5038, 26.0],
    ]
)

DEFAULT_UE_STATE = np.array([250.0, 450.0, 0.0, -10.0, 2.0, 5.0])
DEFAULT_SCATTERER_STATE = np.array([240.0, 600.0, -19.0, 5.0])

# Axis-aligned boxes as (3, 2) [low, high] arrays plus scalar ranges.
DEFAULT_SCATTERER_BOX = np.array([[240.0, 280.0], [450.0, 850.0], [0.0, 20.0]])
DEFAULT_SCATTERER_SPEED_RANGE = (0.0, 10.0)
DEFAULT_UE_BOX = np.array([[240.0, 280.0], [450.0, 850.0], [0.0, 20.0]])
DEFAULT_UE_VELOCITY_BOX = np.array([[-10.0, 10.0], [-10.0, 10.0], [-10.0, 10.0]])


@dataclass
class Scenario:
    """One experiment configuration; immutable by convention (use replace)."""

    rrhs: np.ndarray = field(default_factory=lambda: DEFAULT_RRHS.copy())
    ue_true: np.ndarray = field(default_factory=lambda: DEFAULT_UE_STATE.copy())
    scatterer_true: np.ndarray = field(
        default_factory=lambda: DEFAULT_SCATTERER_STATE.copy()
    )
    scatterer_rrh: int = 0
    scatterer_box: np.ndarray = field(default_factory=lambda: DEFAULT_SCATTERER_BOX.copy())
    scatterer_speed_range: tuple = DEFAULT_SCATTERER_SPEED_RANGE
    ue_box: np.ndarray = field(default_factory=lambda: DEFAULT_UE_BOX.copy())
    ue_velocity_box: np.ndarray = field(default_factory=lambda: DEFAULT_UE_VELOCITY_BOX.copy())
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    n_a: int = 6
    p_d: float = 0.5
    clock_bias_m: float = 0.0
    trials: int = 1000
    seed: int = 12345
    wls_iters: int = 2

    def __post_init__(self):
        self.rrhs = np.asarray(self.rrhs, dtype=float)
        self.ue_true = np.asarray(self.ue_true, dtype=float)
        self.scatterer_true = np.asarray(self.scatterer_true, dtype=float)
        self.scatterer_box = np.asarray(self.scatterer_box, dtype=float)
        self.ue_box = np.asarray(self.ue_box, dtype=float)
        self.ue_velocity_box = np.asarray(self.ue_velocity_box, dtype=float)
        if self.rrhs.ndim != 2 or self.rrhs.shape[1] != 3 or self.rrhs.shape[0] < 2:
            raise ScenarioError("rrhs must be an (N, 3) array with N >= 2")
        if self.ue_true.shape != (6,):
            raise ScenarioError("ue_true must have 6 entries (position, velocity)")
        if self.scatterer_true.shape != (4,):
            raise ScenarioError("scatterer_true must have 4 entries (position, speed)")
        for name in ("rrhs", "ue_true", "scatterer_true", "clock_bias_m"):
            if not np.isfinite(getattr(self, name)).all():
                raise ScenarioError(f"{name} must be finite")
        if not 0 <= self.scatterer_rrh < self.rrhs.shape[0]:
            raise ScenarioError("scatterer_rrh out of range")
        if isinstance(self.n_a, bool) or not isinstance(self.n_a, numbers.Integral):
            raise ScenarioError(f"n_a must be an integer, not {self.n_a!r}")
        if not 2 <= self.n_a <= self.rrhs.shape[0]:
            raise ScenarioError("n_a must satisfy 2 <= n_a <= number of receivers")
        if not 0.0 < self.p_d <= 1.0:
            raise ScenarioError("p_d must lie in (0, 1]")
        if self.trials < 1:
            raise ScenarioError("trials must be >= 1")
        if self.seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {self.seed}")
        if self.wls_iters < 1:
            raise ScenarioError("wls_iters must be >= 1")
        for box in (self.scatterer_box, self.ue_box, self.ue_velocity_box):
            if box.shape != (3, 2) or np.any(box[:, 1] < box[:, 0]):
                raise ScenarioError("boxes must be (3, 2) arrays with high >= low")

    def replace(self, **changes) -> "Scenario":
        return dataclasses.replace(self, **changes)

    def selected_rrhs(self) -> np.ndarray:
        """The first n_a receivers (reference first), used by fixed-set runs."""
        return self.rrhs[: self.n_a]


def _box_map(boxes, u) -> np.ndarray:
    """``(hi - lo) * u + lo`` over the stacked ``[low, high]`` rows of
    ``boxes``, as ``Generator.uniform`` maps its uniform draws ``u``."""
    box = np.vstack(boxes)
    lo = box[:, 0]
    return (box[:, 1] - lo) * u + lo


def sample_ue_state(sc: Scenario, rng) -> np.ndarray:
    """Uniform draw of a 6-D user state from the scenario boxes: the state
    at the next six doubles of ``rng``."""
    return _box_map([sc.ue_box, sc.ue_velocity_box], rng.random(6))


def scatterer_states(sc: Scenario, u) -> np.ndarray:
    """Scatterer [position, speed] states at uniform draws ``u`` (..., 4),
    over the scatterer box and speed range."""
    return _box_map([sc.scatterer_box, sc.scatterer_speed_range], u)


def sample_scatterer_state(sc: Scenario, rng) -> np.ndarray:
    """Uniform draw of a scatterer [position, speed] from the scenario boxes:
    the state at the next four doubles of ``rng``."""
    return scatterer_states(sc, rng.random(4))


def _box_to_dict(box: np.ndarray) -> dict:
    return {
        "x": [float(box[0, 0]), float(box[0, 1])],
        "y": [float(box[1, 0]), float(box[1, 1])],
        "z": [float(box[2, 0]), float(box[2, 1])],
    }


def _box_from_dict(d, name: str) -> np.ndarray:
    try:
        return np.array([d["x"], d["y"], d["z"]], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{name} must map x/y/z to [low, high] pairs") from exc


def scenario_to_dict(sc: Scenario) -> dict:
    """Plain-type representation (stable key order) for YAML/JSON round trips."""
    return {
        "rrhs": [[float(v) for v in row] for row in sc.rrhs],
        "ue_true": [float(v) for v in sc.ue_true],
        "scatterer_true": [float(v) for v in sc.scatterer_true],
        "scatterer_rrh": int(sc.scatterer_rrh),
        "scatterer_box": {
            **_box_to_dict(sc.scatterer_box),
            "speed": [float(sc.scatterer_speed_range[0]), float(sc.scatterer_speed_range[1])],
        },
        "ue_box": _box_to_dict(sc.ue_box),
        "ue_velocity_box": _box_to_dict(sc.ue_velocity_box),
        "noise": {
            "delta_d": float(sc.noise.delta_d),
            "delta_a": float(sc.noise.delta_a),
            "fdoa_factor": float(sc.noise.fdoa_factor),
            "mode": sc.noise.mode,
            "ratio": None if sc.noise.ratio is None else float(sc.noise.ratio),
        },
        "n_a": int(sc.n_a),
        "p_d": float(sc.p_d),
        "clock_bias_m": float(sc.clock_bias_m),
        "trials": int(sc.trials),
        "seed": int(sc.seed),
        "wls_iters": int(sc.wls_iters),
    }


# Top-level keys of a scenario file: the fields of Scenario, except the
# speed range, which is read from ``scatterer_box.speed``.
_KNOWN_KEYS = {f.name for f in dataclasses.fields(Scenario)} - {"scatterer_speed_range"}


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from a parsed mapping, applying defaults for gaps."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must contain a mapping at top level")
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")

    kwargs = {}
    rrhs = data.get("rrhs", "default")
    kwargs["rrhs"] = DEFAULT_RRHS.copy() if isinstance(rrhs, str) and rrhs == "default" else rrhs
    for key in ("ue_true", "scatterer_true"):
        if key in data:
            kwargs[key] = data[key]
    if "scatterer_box" in data:
        box = data["scatterer_box"]
        kwargs["scatterer_box"] = _box_from_dict(box, "scatterer_box")
        if "speed" in box:
            pair = {"speed": lambda v: (float(v[0]), float(v[1]))}
            kwargs["scatterer_speed_range"] = numeric_fields(box, pair, "scatterer_box")["speed"]
    if "ue_box" in data:
        kwargs["ue_box"] = _box_from_dict(data["ue_box"], "ue_box")
    if "ue_velocity_box" in data:
        kwargs["ue_velocity_box"] = _box_from_dict(data["ue_velocity_box"], "ue_velocity_box")
    if "noise" in data:
        noise = data["noise"]
        if not isinstance(noise, dict):
            raise ScenarioError("noise must be a mapping")
        try:
            kwargs["noise"] = NoiseConfig(**noise)
        except TypeError as exc:
            raise ScenarioError(f"bad noise configuration: {exc}") from exc
    casts = dict.fromkeys(("scatterer_rrh", "n_a", "trials", "seed", "wls_iters"), operator.index)
    kwargs.update(numeric_fields(data, {**casts, "p_d": float, "clock_bias_m": float}, "scenario"))
    try:
        return Scenario(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def numeric_fields(data: dict, casts: dict, kind: str) -> dict:
    """The fields of ``data`` named in ``casts``, each converted by its cast;
    a value that its cast rejects raises ``ScenarioError`` naming the field of
    the ``kind`` file.  ``operator.index`` takes integers only (not 4.7), and
    ``float`` reads the strings YAML 1.1 makes of unsigned exponents ("1e160")."""
    out = {}
    for key in (k for k in casts if k in data):
        try:
            out[key] = casts[key](data[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"{kind} field {key!r} = {data[key]!r}: {exc}") from exc
    return out


def read_yaml(path, kind: str):
    """The YAML document in the ``kind`` file ``path`` (None when empty).

    It is parsed safely, by libyaml when PyYAML was built with it.  A file
    that cannot be read or parsed raises ``ScenarioError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.load(fh, Loader=_SAFE_LOADER)
    except OSError as exc:
        raise ScenarioError(f"cannot read {kind} file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse {kind} file {path}: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Load a scenario from a YAML file; empty file means all defaults."""
    data = read_yaml(path, "scenario")
    return scenario_from_dict(data if data is not None else {})
