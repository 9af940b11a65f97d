"""Seeded Monte Carlo experiments and strategy comparisons.

Reproducibility contract: the uniforms that drive trial ``s`` of arm ``a``
form an independent Philox stream keyed by ``(master_seed, arm_offset | s)``;
at each time step the stream supplies one uniform per node, in node order.
Each stream hands out k steps of uniforms per call, which leaves the streams
and results unchanged: a counter-based stream gives the same doubles however
many it hands out at once.  Streams depend only on the key, never on
scheduling: trials are stepped together in blocks (one row of a batched
:class:`UrnState` per trial), the blocks of one call run concurrently on
threads, one per available CPU (capped by a cgroup v2 CPU quota) shared
among the ``n_jobs`` worker processes that trials may be split across
(except where the curing runs the optimizer, whose Python-bound descents
run slower on threads), and every split aggregates to byte-identical
results.  Under common random
numbers every arm uses arm offset 0 and trials are pathwise paired across
arms.
"""

from __future__ import annotations

import configparser
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .engine import UrnState, iter_draws
from .graph import Network
from .optimize import DescentConfig
from .policies import FAMILIES, StrategySpec, cure_allocator, init_allocation

_MASK64 = (1 << 64) - 1
_ARM_SHIFT = 40  # trial index occupies the low 40 bits of the stream key
# Cells (trials x nodes) stepped together: bounds a block's working set to a
# few MB whatever the network size.
_BLOCK_CELLS = 1 << 16
_CHUNK_STEPS = 4  # steps drawn per stream call; buffers 4 * _BLOCK_CELLS doubles
_CPU_MAX = Path("/sys/fs/cgroup/cpu.max")  # cgroup v2 CPU quota of this process's cgroup


def trial_generator(master_seed: int, trial: int, arm: int = 0) -> np.random.Generator:
    """Independent uniform stream for one trial (see module docstring)."""
    key = np.array([master_seed & _MASK64, (arm << _ARM_SHIFT) | trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class ExperimentConfig:
    """One experiment arm: how to initialize the urns and how to reinforce
    them at every step.

    Initialization: red mass is ``red_values`` if given, else uniform
    ``red_budget / N`` per node.  Black mass is ``black_values`` if given,
    else the Table-1 strategy ``init_strategy`` spending ``init_budget``
    (no black mass at all if neither is set).

    Per-step reinforcement: ``delta`` fixes both colours to a constant per
    node.  Otherwise the red side is ``delta_r`` per node or a uniform split
    of ``red_step_budget``, and the black side is ``delta_b`` per node or
    the Table-2 strategy ``cure_strategy`` spending ``cure_budget``.  A
    runnable arm sets exactly one source per side.
    """

    steps: int
    trials: int
    seed: int = 0
    label: str = ""

    red_budget: float | None = None
    red_values: tuple | None = None
    init_strategy: str | None = None
    init_budget: float | None = None
    black_values: tuple | None = None

    delta: float | None = None
    delta_r: float | None = None
    delta_b: float | None = None
    red_step_budget: float | None = None
    cure_strategy: str | None = None
    cure_budget: float | None = None
    # Iteration cap for optimizer-backed strategies run inside the trial
    # loop; None keeps the standalone default.
    descent_iterations: int | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.descent_iterations is not None and self.descent_iterations < 1:
            raise ValueError("descent_iterations must be >= 1")
        for name in ("red_budget", "init_budget", "cure_budget", "red_step_budget",
                     "delta", "delta_r", "delta_b", "red_values", "black_values"):
            v = getattr(self, name)
            if v is not None and not all(0 <= x < np.inf for x in np.atleast_1d(v)):
                raise ValueError(f"{name} must be finite and nonnegative")
        for name in ("init_strategy", "cure_strategy"):
            v = getattr(self, name)
            if v is not None and v not in FAMILIES:
                raise ValueError(f"{name}: unknown strategy family {v!r}; "
                                 f"expected one of {FAMILIES}")

    def validate(self) -> "ExperimentConfig":
        """Check the arm is runnable; templates for comparisons may leave the
        varied strategy slot open until the arms are built."""
        if self.red_values is None and self.red_budget is None:
            raise ValueError("need red_values or red_budget for the infection initialization")
        if self.init_strategy is not None and self.init_budget is None:
            raise ValueError("init_strategy needs init_budget")
        if self.cure_strategy is not None and self.cure_budget is None:
            raise ValueError("cure_strategy needs cure_budget")
        for side, keys in (("red", ("delta", "delta_r", "red_step_budget")),
                           ("black", ("delta", "delta_b", "cure_strategy"))):
            given = [key for key in keys if getattr(self, key) is not None]
            if not given:
                raise ValueError(f"need one of {', '.join(keys)} for the {side} side")
            if len(given) > 1:
                raise ValueError(f"{' and '.join(given)} both set the {side} side, and "
                                 f"{given[0]} would override the rest; set only one")
        return self


def resolve_initialization(net: Network, cfg: ExperimentConfig):
    """Materialize the (red, black) initial masses for an arm."""
    n = net.node_count
    for key, values in (("red_values", cfg.red_values), ("black_values", cfg.black_values)):
        if values is not None and len(values) != n:
            raise ConfigError(f"{key} has {len(values)} values; the network has {n} nodes")
    if cfg.red_values is not None:
        red = np.asarray(cfg.red_values, dtype=float)
    else:
        red = np.full(n, cfg.red_budget / n)
    if cfg.black_values is not None:
        black = np.asarray(cfg.black_values, dtype=float)
    elif cfg.init_strategy is not None:
        spec = StrategySpec("init", cfg.init_strategy, descent=_descent_config(cfg))
        black = init_allocation(spec, net, red, cfg.init_budget)
    else:
        black = np.zeros(n)
    return red, black


def _descent_config(cfg: ExperimentConfig):
    if cfg.descent_iterations is None:
        return None
    return DescentConfig(max_iterations=cfg.descent_iterations)


def _simulate(net: Network, cfg: ExperimentConfig, red, black, trials: range,
              arm: int, threads: int = 1) -> np.ndarray:
    """Per-trial node-mean draws of the given trials, shape (len(trials), steps).

    Trials are stepped together in blocks of at most ``_BLOCK_CELLS // N``
    rows; row ``k`` of a block draws from trial ``trials[k]``'s own stream.
    Blocks run on up to ``threads`` threads, each writing only its own rows
    of the result; a single block, or an arm whose curing runs the
    optimizer (Python-bound, so slower on threads), runs on the calling
    thread.  An error in one block, or an interrupt, stops the others at
    their next step.
    """
    n = net.node_count
    if cfg.delta is not None:
        both = np.full(n, float(cfg.delta))
        schedule = (both, both)
    else:
        if cfg.delta_r is not None:
            red_step = np.full(n, float(cfg.delta_r))
        else:
            red_step = np.full(n, cfg.red_step_budget / n)
        if cfg.delta_b is not None:
            schedule = (red_step, np.full(n, float(cfg.delta_b)))
        else:
            spec = StrategySpec("cure", cfg.cure_strategy, descent=_descent_config(cfg))
            allocator = cure_allocator(spec, net, cfg.cure_budget)
            schedule = lambda t, state: (red_step, allocator(t, state, red_step))
            if spec.uses_optimizer:
                threads = 1
    means = np.empty((len(trials), cfg.steps))
    rows = max(1, _BLOCK_CELLS // n)
    stop = threading.Event()

    def run_block(lo: int) -> None:
        block = trials[lo:lo + rows]
        streams = [trial_generator(cfg.seed, s, arm) for s in block]
        state = UrnState(net, np.broadcast_to(red, (len(block), n)), black)
        try:
            for t, z in enumerate(iter_draws(state, schedule, _uniforms(streams, n, cfg.steps))):
                if stop.is_set():
                    return
                means[lo:lo + len(block), t] = z.mean(axis=1)
        except BaseException:
            stop.set()
            raise

    starts = range(0, len(trials), rows)
    threads = min(len(starts), threads)
    if threads == 1:
        for lo in starts:
            run_block(lo)
    else:
        net.closed_adjacency  # built once here, not raced for by the threads
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # Reading every result raises a block's exception here; map
            # cancels the blocks not yet started, and the stop event ends
            # the running ones, before the pool joins them.
            try:
                for _ in pool.map(run_block, starts):
                    pass
            except BaseException:  # a block's error or an interrupt
                stop.set()
                raise
    return means


def _threads_per_process(processes: int) -> int:
    """Threads for each of ``processes`` worker processes: the CPUs this
    process may run on, capped by its cgroup's CPU quota, shared out with
    at least one each."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    quota = _cpu_quota(_CPU_MAX)
    if quota is not None:
        cpus = min(cpus, quota)
    return max(1, cpus // processes)


def _cpu_quota(path) -> int | None:
    """Whole CPUs a cgroup v2 ``cpu.max`` file grants, ceil(quota / period),
    or None when the file is missing, unreadable or sets no quota (``max``)."""
    try:
        quota, period = Path(path).read_text().split()
        if quota == "max":
            return None
        return max(1, -(-int(quota) // int(period)))
    except (OSError, ValueError, ZeroDivisionError):
        return None


def _uniforms(streams, n: int, steps: int):
    """Per-step ``(len(streams), n)`` views of a buffer that each stream
    refills ``_CHUNK_STEPS`` steps at a time."""
    buf = np.empty((len(streams), _CHUNK_STEPS, n))
    for t0 in range(0, steps, _CHUNK_STEPS):
        for g, row in zip(streams, buf):
            g.random(out=row[:steps - t0])
        yield from buf.swapaxes(0, 1)[:steps - t0]


@dataclass
class SummarySeries:
    """Per-time empirical average infection rate for one arm."""

    label: str
    times: np.ndarray
    mean_infection: np.ndarray
    stderr: np.ndarray
    trials: int
    per_trial_means: np.ndarray | None = None


def run_experiment(net: Network, cfg: ExperimentConfig, *, n_jobs: int = 1,
                   arm: int = 0) -> SummarySeries:
    """Monte Carlo estimate of the average infection rate over time.

    Deterministic given the config and master seed; trials may be executed
    by a process pool (``n_jobs`` >= 1) and their blocks by threads, one per
    available CPU shared among the processes, without changing the result.
    The standard error is that of the mean of the per-trial network means.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    cfg.validate()
    red, black = resolve_initialization(net, cfg)
    trials = cfg.trials
    threads = _threads_per_process(n_jobs)
    if n_jobs == 1 or trials < 2 * n_jobs:
        means = _simulate(net, cfg, red, black, range(trials), arm, threads)
    else:
        # Imported here: with multiprocessing it costs 15-25 ms, which every
        # import of polyanet paid.
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, trials, n_jobs + 1).astype(int)
        net.closed_adjacency  # imports scipy before the workers fork, so they inherit it
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = [pool.submit(_simulate, net, cfg, red, black, range(lo, hi), arm, threads)
                       for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
            means = np.concatenate([f.result() for f in futures], axis=0)
    stderr = means.std(axis=0, ddof=1) / np.sqrt(trials) if trials > 1 else np.zeros(cfg.steps)
    return SummarySeries(
        label=cfg.label or "arm",
        times=np.arange(1, cfg.steps + 1),
        mean_infection=means.mean(axis=0),
        stderr=stderr,
        trials=trials,
        per_trial_means=means,
    )


@dataclass
class ArmDifference:
    """Pairwise comparison of two arms at every time step."""

    labels: tuple
    times: np.ndarray
    mean_difference: np.ndarray
    stderr_pooled: np.ndarray
    stderr_paired: np.ndarray | None
    z_pooled: np.ndarray


@dataclass
class ComparisonResult:
    arms: list

    def difference(self, a: int, b: int) -> ArmDifference:
        """Arm ``a`` minus arm ``b``; pooled (and, when trials are shared,
        paired) standard errors with the pooled z statistic."""
        sa, sb = self.arms[a], self.arms[b]
        diff = sa.mean_infection - sb.mean_infection
        pooled = np.sqrt(sa.stderr**2 + sb.stderr**2)
        paired = None
        if (sa.per_trial_means is not None and sb.per_trial_means is not None
                and sa.trials == sb.trials and sa.trials > 1):
            delta = sa.per_trial_means - sb.per_trial_means
            paired = delta.std(axis=0, ddof=1) / np.sqrt(sa.trials)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(pooled > 0, diff / pooled, 0.0)
        return ArmDifference((sa.label, sb.label), sa.times, diff, pooled, paired, z)


def run_arms(net: Network, configs, *, independent: bool = False,
             n_jobs: int = 1) -> ComparisonResult:
    """Run one arm per config.  Arms share the per-trial streams (common
    random numbers), so differences are strategy-driven, unless
    ``independent`` gives arm ``k`` the stream offset ``k``."""
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    return ComparisonResult([run_experiment(net, cfg, n_jobs=n_jobs, arm=k if independent else 0)
                             for k, cfg in enumerate(configs)])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _series_list(series) -> list:
    if isinstance(series, SummarySeries):
        return [series]
    if isinstance(series, ComparisonResult):
        return list(series.arms)
    return list(series)


def emit(series, fmt: str = "csv", path=None):
    """Write summary series as CSV or JSON (schema: one record per time per
    arm with mean, standard error, and trial count).  Returns the path, or
    the text when no path is given."""
    items = _series_list(series)
    if fmt == "csv":
        rows = [["time", "strategy", "mean_infection", "stderr", "trials"]]
        for s in items:
            for t, m, se in zip(s.times, s.mean_infection, s.stderr):
                rows.append([int(t), s.label, repr(float(m)), repr(float(se)), s.trials])
        text = "\r\n".join(",".join(str(v) for v in row) for row in rows) + "\r\n"
    elif fmt == "json":
        payload = {
            "series": [
                {
                    "strategy": s.label,
                    "trials": s.trials,
                    "points": [
                        {"time": int(t), "mean_infection": float(m), "stderr": float(se)}
                        for t, m, se in zip(s.times, s.mean_infection, s.stderr)
                    ],
                }
                for s in items
            ]
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    if path is None:
        return text
    path = Path(path)
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

_PARSERS = {**dict.fromkeys(("red_budget", "init_budget", "cure_budget", "red_step_budget",
                             "delta", "delta_r", "delta_b"), float),
            **dict.fromkeys(("steps", "trials", "seed", "descent_iterations"), int),
            **dict.fromkeys(("red_values", "black_values"),
                            lambda text: tuple(float(x) for x in text.split(",")))}


def load_config_file(path):
    """Read an experiment description: a ``[network]`` section (``file`` or
    ``ba_nodes``/``ba_m``/``ba_seed``), a ``[run]`` section with shared
    settings, and one ``[arm:NAME]`` section per strategy arm whose keys
    override the shared ones.

    Returns ``(network_spec, run_settings, arms)`` where arms is a list of
    ``(name, overrides)`` pairs.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:  # one line in place of configparser's own
        raise ConfigError(_config_error(path, exc)) from None
    if not read:
        raise FileNotFoundError(path)
    if not parser.has_section("network"):
        raise ConfigError(f"{path} has no [network] section; add one with 'file' or 'ba_nodes'")
    network_spec = dict(parser.items("network"))
    run = _coerce(dict(parser.items("run")) if parser.has_section("run") else {})
    arms = []
    for section in parser.sections():
        if section.startswith("arm:"):
            arms.append((section[4:], _coerce(dict(parser.items(section)))))
    return network_spec, run, arms


def _config_error(path, exc: configparser.Error) -> str:
    """Name the file, the line where configparser gives one, and the fault."""
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"{path}, line {exc.lineno}: key {exc.option!r} given twice in [{exc.section}]"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"{path}, line {exc.lineno}: section [{exc.section}] given twice"
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"{path}, line {exc.lineno}: no [section] header above this line"
    if isinstance(exc, configparser.ParsingError):
        return f"{path}, line {exc.errors[0][0]}: neither a [section] header nor key = value"
    return f"{path}: {str(exc).splitlines()[0]}"


def _coerce(raw: dict) -> dict:
    out = {}
    for k, v in raw.items():
        try:
            out[k] = _PARSERS.get(k, str)(v)
        except ValueError:
            raise ConfigError(f"cannot parse {k} = {v!r}") from None
    return out


class ConfigError(ValueError):
    """An experiment config is missing a section or key, names a setting
    that does not exist, or gives a value that does not fit."""


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)} | {"init", "cure"}
_REQUIRED_KEYS = [f.name for f in fields(ExperimentConfig) if f.default is MISSING]


def build_configs(run: dict, arms, **overrides) -> list[ExperimentConfig]:
    """Merge shared run settings, per-arm settings, and keyword overrides
    (highest precedence) into one :class:`ExperimentConfig` per arm.

    Raises :class:`ConfigError` for a key that is neither an
    :class:`ExperimentConfig` field nor the ``init``/``cure`` alias, for a
    missing ``steps`` or ``trials``, and for an arm that does not pass
    :meth:`ExperimentConfig.validate`."""
    configs = []
    for name, arm in arms:
        merged = dict(run)
        merged.update(arm)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        for key in merged:
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown key {key!r} in arm {name!r}")
        for key in _REQUIRED_KEYS:
            if key not in merged:
                raise ConfigError(f"missing key {key!r} in arm {name!r}")
        merged.setdefault("label", name)
        for alias in ("init", "cure"):
            if (strategy := merged.pop(alias, None)) is not None:
                merged[f"{alias}_strategy"] = strategy
        try:
            configs.append(ExperimentConfig(**merged).validate())
        except ValueError as exc:
            raise ConfigError(f"{exc} in arm {name!r}") from None
    return configs
