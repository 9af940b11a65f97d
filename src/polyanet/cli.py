"""Command-line interface.

Subcommands: ``gen`` (write a preferential-attachment network), ``inspect``
(structural analysis as JSON), ``exact`` (small-instance oracles), ``init-run``
/ ``cure-run`` (Monte Carlo experiments from a config file), ``game`` (the
curing/infection equilibrium), and ``compare`` (multi-arm experiments).

Exit status: 0 on success, 1 on usage errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import graph, harness, optimize
from .engine import UrnState
from .oracle import DEFAULT_ENUMERATION_CAP, average_infection_rate, expected_exposure


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


def _alloc(flag: str, text: str, n: int) -> np.ndarray:
    """Parse a per-node mass vector: ``uniform:V`` (V per node), ``budget:V``
    (V split evenly), or an explicit comma list of N values.  Every value
    must be finite and nonnegative."""
    try:
        if text.startswith("uniform:"):
            values = np.full(n, float(text.split(":", 1)[1]))
        elif text.startswith("budget:"):
            values = np.full(n, float(text.split(":", 1)[1]) / n)
        else:
            values = np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise UsageError(f"{flag} cannot parse {text!r}; expected 'uniform:V', "
                         "'budget:V' or a comma list") from None
    if values.shape[0] != n:
        raise UsageError(f"{flag} needs {n} values, got {values.shape[0]}")
    if not (np.isfinite(values) & (values >= 0)).all():
        raise UsageError(f"{flag} values must be finite and nonnegative, got {text!r}")
    return values


def _emit_json(payload, out):
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_run_flags(p):
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> _Parser:
    parser = _Parser(prog="polyanet", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a preferential-attachment network")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="edges per arriving node")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("matrix", "edges"), default="matrix")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("inspect", help="inner/outer nodes, centralities, target sets")
    p.add_argument("--net", required=True)
    p.add_argument("--largest-component", action="store_true",
                   help="keep the largest component of a disconnected input")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("exact", help="exact infection rate / expected exposure oracles")
    p.add_argument("--net", required=True)
    p.add_argument("--red", required=True, help="red init, e.g. 'uniform:1' or '1,0,1'")
    p.add_argument("--black", required=True, help="black init, same forms")
    p.add_argument("--n", type=int, default=1, help="time index for the infection rate")
    p.add_argument("--delta", type=float, default=0.0,
                   help="constant reinforcement per node, both colours")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP, help="enumeration cap in bits")
    p.add_argument("--exposure", action="store_true",
                   help="also report one-step expected exposure for --x/--y")
    p.add_argument("--x", help="curing step for --exposure")
    p.add_argument("--y", help="infection step for --exposure")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exact)

    for name, vary in (("init-run", "init"), ("cure-run", "cure")):
        p = sub.add_parser(name, help=f"run {vary}-strategy experiment arms from a config file")
        p.add_argument("--config", required=True)
        p.add_argument("--arm", help="run only the named arm")
        _add_run_flags(p)
        p.set_defaults(func=_cmd_run, independent=False)

    p = sub.add_parser("game", help="solve the curing/infection game on expected exposure")
    p.add_argument("--net", required=True)
    p.add_argument("--red", required=True)
    p.add_argument("--black", required=True)
    p.add_argument("--budget-b", type=float, required=True, help="curing budget")
    p.add_argument("--budget-r", type=float, required=True, help="infection budget")
    p.add_argument("--rounds", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("compare", help="run all arms of a config with shared randomness")
    p.add_argument("--config", required=True)
    p.add_argument("--independent", action="store_true",
                   help="independent streams per arm instead of common random numbers")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_run, arm=None)
    return parser


_NETWORK_KEYS = ("file", "ba_nodes", "ba_m", "ba_seed")


def _load_config_network(spec: dict) -> graph.Network:
    for key in spec:
        if key not in _NETWORK_KEYS:
            raise UsageError(f"unknown key {key!r} in [network]; expected one of {_NETWORK_KEYS}")
    if "file" in spec:
        return graph.load_network(spec["file"])
    if "ba_nodes" in spec:
        nodes = _network_int(spec, "ba_nodes", None)
        m = _network_int(spec, "ba_m", 1)
        seed = _network_int(spec, "ba_seed", 0)
        if m < 1:
            raise UsageError(f"ba_m must be at least 1, got {m} in [network]")
        if m >= nodes:
            raise UsageError(f"ba_m must be below ba_nodes = {nodes}, got {m} in [network]")
        return graph.generate_barabasi_albert(nodes, m, seed)
    raise UsageError("[network] section needs 'file' or 'ba_nodes'")


def _network_int(spec: dict, key: str, default):
    try:
        value = int(spec.get(key, default))
    except ValueError:
        raise UsageError(f"cannot parse {key} = {spec[key]!r} in [network]") from None
    if value < 0:
        raise UsageError(f"{key} must be nonnegative, got {value} in [network]")
    return value


def _cmd_gen(args):
    if args.m < 1:
        raise UsageError(f"--m must be at least 1, got {args.m}")
    if args.nodes <= args.m:
        raise UsageError(f"--nodes must exceed --m = {args.m}, got {args.nodes}")
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    net = graph.generate_barabasi_albert(args.nodes, args.m, args.seed)
    graph.save_network(net, args.out, args.format)
    print(f"wrote {net.node_count} nodes, {net.edge_count} edges to {args.out}")


def _cmd_inspect(args):
    net = graph.load_network(args.net, largest_component=args.largest_component)
    layered = graph.target_set_layered(net)
    dense = graph.target_set_dense(net, prune=False)
    pruned = graph.target_set_dense(net, prune=True)
    payload = {
        "nodes": net.node_count,
        "edges": net.edge_count,
        "outer": (graph.outer_nodes(net) + 1).tolist(),
        "inner": (graph.inner_nodes(net) + 1).tolist(),
        "closeness": [float(c) for c in graph.closeness_centrality(net)],
        "layered_targets": [i + 1 for i in layered.nodes],
        "dense_targets": [i + 1 for i in dense.nodes],
        "dense_targets_pruned": [i + 1 for i in pruned.nodes],
    }
    _emit_json(payload, args.out)


def _cmd_exact(args):
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    if not 0 <= args.delta < np.inf:
        raise UsageError(f"--delta must be finite and nonnegative, got {args.delta:g}")
    if args.cap < 0:
        raise UsageError(f"--cap must be nonnegative, got {args.cap}")
    net = graph.load_network(args.net)
    red = _alloc("--red", args.red, net.node_count)
    black = _alloc("--black", args.black, net.node_count)
    schedule = (args.delta, args.delta)
    payload = {
        "n": args.n,
        "infection_rate": average_infection_rate(net, red, black, schedule, args.n, args.cap),
    }
    if args.exposure:
        if args.x is None or args.y is None:
            raise UsageError("--exposure needs --x and --y")
        state = UrnState(net, red, black)
        x = _alloc("--x", args.x, net.node_count)
        y = _alloc("--y", args.y, net.node_count)
        value, gx, gy = expected_exposure(state, x, y)
        payload["expected_exposure"] = value
        payload["exposure_grad_curing"] = [float(v) for v in gx]
        payload["exposure_grad_infection"] = [float(v) for v in gy]
    _emit_json(payload, args.out)


def _cmd_run(args):
    """``init-run``, ``cure-run`` and ``compare``: arms share streams unless
    ``--independent`` gives arm ``k`` the stream offset ``k``."""
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    net_spec, run, arms = harness.load_config_file(args.config)
    if not arms:
        raise UsageError(f"{args.config} has no [arm:NAME] section; add one per strategy arm")
    if args.arm is not None:
        arms = [a for a in arms if a[0] == args.arm]
        if not arms:
            raise UsageError(f"no arm named {args.arm!r} in {args.config}")
    net = _load_config_network(net_spec)
    configs = harness.build_configs(run, arms, seed=args.seed,
                                    trials=args.trials, steps=args.steps)
    arms_run = harness.run_arms(net, configs, independent=args.independent, n_jobs=args.jobs)
    result = harness.emit(arms_run, args.format, args.out)
    if args.out:
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(result)


def _cmd_game(args):
    for flag, budget in (("--budget-b", args.budget_b), ("--budget-r", args.budget_r)):
        if not 0 <= budget < np.inf:
            raise UsageError(f"{flag} must be finite and nonnegative, got {budget:g}")
    if args.rounds < 1:
        raise UsageError(f"--rounds must be at least 1, got {args.rounds}")
    if not args.tol > 0:
        raise UsageError(f"--tol must be positive, got {args.tol:g}")
    net = graph.load_network(args.net)
    red = _alloc("--red", args.red, net.node_count)
    black = _alloc("--black", args.black, net.node_count)
    state = UrnState(net, red, black)
    solution = optimize.nash_solve(net, state, args.budget_b, args.budget_r,
                                   rounds=args.rounds, tol=args.tol)
    _emit_json({**vars(solution), "curing": solution.curing.tolist(),
                "infection": solution.infection.tolist()}, args.out)
    if not solution.converged:
        sys.stderr.write(f"warning: not converged (exploitability {solution.exploitability:.3g} "
                         f">= tol {args.tol:g} after {solution.rounds} rounds)\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 1
    try:
        args.func(args)
    except (UsageError, harness.ConfigError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        sys.stderr.write(f"error: {args.command} ran out of memory\n")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
