"""Batch experiment runner.

Every subcommand is fully determined by (config, seed): a flat JSON config
file's values are parsed as flags given before the command line's, which win;
all randomized subcommands require an explicit --seed, and a one-line JSON
summary echoing the resolved config is printed to stdout.

Exit codes: 0 success, 1 usage error or a file that cannot be read or
written, 2 budget/resource error, 3 compliance failure (coupling/bk runs with
violations).  The budgets are the sampler's vertex budgets: when
PERCOLATE_BUDGET_VERTICES is set, the sampler reads its integer value in place
of both defaults at every check.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import BudgetError, DomainError, reals
from .kernels import (
    BoundConstants,
    KernelVariant,
    ModelParams,
    delta_exponent,
    tail_bound_lrp,
    tail_bound_sfp,
)
from .sampler import (
    BoxSpec,
    Model,
    _write_csv,
    load_graph,
    sample_cffp_costs,
    sample_fpp_costs,
    sample_graph,
    save_graph,
)
from .metrics import cost_distance, graph_distance
from .couplings import (
    BlowupSpec,
    CouplingKind,
    CouplingReport,
    blowup_lrp,
    combine_blowup_reports,
    couple_alpha,
    fpp_cffp_edge_check,
    min_exp_inequality,
    weight_dominance_test,
)
from .estimators import (
    ModelConfig,
    bk_brute_force_k,
    bound_compliance,
    fit_distance_exponent,
    fit_shape_constant,
    fkt_h_functional,
    fit_selfbound_constant,
    mc_ball_growth,
    mc_tail_grid,
    shape_containment,
    write_tail_csv,
)
from .rng import trial_seed


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


def _number(flag: str, token: str, kind=float):
    """`kind(token)`, or a UsageError naming the flag and the token."""
    try:
        return kind(token)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise UsageError(f"{flag}: {token.strip()!r} is not {noun}") from None


def _numbers(flag: str, text: str, kind=float) -> list:
    """The comma-separated numbers of a flag's value; empty items are skipped."""
    return [_number(flag, x, kind) for x in text.split(",") if x.strip()]


def _pair(flag: str, text: str, sep: str) -> tuple[float, float]:
    """Two numbers joined by `sep`."""
    a, found, b = text.partition(sep)
    if not found:
        raise UsageError(f"{flag}: {text.strip()!r} is not two numbers joined by {sep!r}")
    return _number(flag, a), _number(flag, b)


def _add_model_args(sp):
    sp.add_argument("--model", choices=["lrp", "sfp", "girg"], default="lrp")
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--tau", type=float, default=math.inf)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--kernel", choices=["min", "exp"], default="min")


def _config_from(args, metric="hop") -> ModelConfig:
    """The run's model on its box, from the flags `_add_model_args` adds."""
    params = ModelParams(d=args.d, alpha=args.alpha, tau=args.tau, lam=args.lam,
                         kernel_variant=KernelVariant(args.kernel))
    return ModelConfig(box=BoxSpec(d=args.d, side=args.L), params=params,
                       model=Model(args.model), metric=metric)


def _resolved_config(args) -> dict:
    skip = {"func", "config"}
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in skip:
            continue
        if isinstance(v, float) and math.isinf(v):
            v = "inf"
        out[k] = v
    return out


def _emit(command: str, args, result: dict) -> None:
    summary = {
        "command": command,
        "version": __version__,
        "config": _resolved_config(args),
        "result": result,
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")


# --------------------------------------------------------------------- generate

def _cmd_generate(args) -> int:
    config = _config_from(args)
    graph = sample_graph(config.box, config.params, config.model, args.seed)
    costs = None
    if args.costs == "fpp":
        costs = sample_fpp_costs(graph, args.seed)
    elif args.costs == "cffp":
        costs = sample_cffp_costs(config.box, graph.weights, config.params, args.seed)
    save_graph(graph, args.out, costs=costs)
    _emit("generate", args, {
        "vertices": graph.n,
        "edges": len(graph.edge_array),
        "costs": 0 if costs is None else len(costs),
        "out": args.out,
    })
    return 0


# --------------------------------------------------------------------- distance

def _cmd_distance(args) -> int:
    graph, costs = load_graph(args.infile)
    if args.cost:
        if costs is None:
            raise UsageError("graph file carries no cost records")
        d = cost_distance(graph, costs, args.source, args.target)
    else:
        d = graph_distance(graph, args.source, args.target)
    _emit("distance", args, {"distance": d})
    return 0


# --------------------------------------------------------------------- tail

def _cmd_tail(args) -> int:
    config = _config_from(args, args.metric)
    thresholds = _numbers("--thresholds", args.thresholds)
    if args.metric == "hop":  # whole hop counts as ints; 1.5 stays 1.5, not 1
        thresholds = [int(t) if t.is_integer() else t for t in thresholds]
    targets = _numbers("--targets", args.targets, int)
    if args.bound == "lrp":  # every grid is built before the first trial
        try:
            lo, hi, count = args.eps_grid.split(":")
            if not (grid := np.linspace(float(lo), float(hi), int(count)).tolist()):
                raise ValueError  # a count below 1
        except (ValueError, OverflowError):
            raise UsageError(f"--eps-grid: {args.eps_grid!r} is not lo:hi:count") from None
        bound, echo = tail_bound_lrp, lambda eps: {"best_eps": eps}
    elif args.bound == "sfp":
        grid = [BoundConstants(c1=c1, c2=c2, beta_exp=b)
                for c1 in _numbers("--c1-grid", args.c1_grid)
                for c2 in _numbers("--c2-grid", args.c2_grid)
                for b in _numbers("--beta-grid", args.beta_grid)]
        bound = tail_bound_sfp
        echo = lambda bc: {"best_constants": {"c1": bc.c1, "c2": bc.c2, "beta": bc.beta_exp}}
    estimates = mc_tail_grid(config, args.source, targets, thresholds, args.trials, args.seed)
    result = {"points": len(estimates), "out": args.out}
    if args.bound:
        report = bound_compliance(
            estimates, lambda k, dist, constants: bound(k, dist, constants, config.params), grid)
        result.update(echo(report.best_constants), compliant=report.compliant,
                      margin=report.margin, margin_upper=report.margin_upper)
    if args.out:  # only once the bound has accepted every threshold
        write_tail_csv(estimates, args.out)
    _emit("tail", args, result)
    return 0


# --------------------------------------------------------------------- growth

def _cmd_growth(args) -> int:
    config = _config_from(args, args.metric)
    params = config.params
    root = args.root if args.root is not None else config.box.n_vertices // 2
    series = mc_ball_growth(config, root, _numbers("--thresholds", args.thresholds),
                            args.trials, args.seed)
    loglinear = dataclasses.asdict(series.loglinear)
    del loglinear["residuals"]
    result = {
        "mean_sizes": list(series.mean_sizes),
        "loglinear": loglinear,
        "stretched": dataclasses.asdict(series.stretched),
        "out": args.out,
    }
    if args.h_t is not None:
        result["h_functional"] = fkt_h_functional(
            series, args.h_t, params.alpha, params.d, args.h_delta
        )
    if args.selfbound:
        result["selfbound_c"] = fit_selfbound_constant(series, params.alpha, params.d)
    if args.out:  # only once every input has been accepted
        series.to_csv(args.out)
    _emit("growth", args, result)
    return 0


# --------------------------------------------------------------------- coupling

def _cmd_coupling(args) -> int:
    kind = args.kind
    needs = {"alpha": "alpha_prime", "weights": "tau_prime"}.get(kind)
    if needs and getattr(args, needs) is None:
        raise UsageError(f"--kind {kind} needs --{needs.replace('_', '-')}")
    if kind == "alpha":
        params = ModelParams(d=args.d, alpha=args.alpha, tau=args.tau, lam=args.lam)
        box = BoxSpec(d=args.d, side=args.L)
        reports = [couple_alpha(box, params, args.alpha_prime, trial_seed(args.seed, i))[2]
                   for i in range(args.seeds)]
        report = CouplingReport(
            kind=CouplingKind.ALPHA_REDUCE,
            trials=sum(rep.trials for rep in reports),
            violations=sum(rep.violations for rep in reports),
            parameters={"alpha": args.alpha, "alpha_prime": args.alpha_prime,
                        "lambda": args.lam, "seeds": args.seeds},
        )
    elif kind == "fpp-cffp":
        params = ModelParams(d=args.d, alpha=args.alpha, tau=args.tau, lam=args.lam)
        report = fpp_cffp_edge_check(args.wu, args.wv, args.dist, args.t,
                                     args.trials, args.seed, params)
    elif kind == "blowup-lrp":
        params = ModelParams(d=args.d, alpha=args.alpha, tau=math.inf,
                             lam=args.lambda_small)
        spec = BlowupSpec(r=args.r, params_small=params)
        box = BoxSpec(d=args.d, side=args.L)
        report = combine_blowup_reports([
            blowup_lrp(box, spec, args.lambda_goal, trial_seed(args.seed, i))[2]
            for i in range(args.seeds)
        ])
    elif kind == "weights":
        report = weight_dominance_test(args.tau, args.tau_prime, args.alpha,
                                       args.r, args.d, args.c_agg,
                                       args.trials, args.seed)
    else:  # min-exp grid
        # finite, or the grid below is empty or endless
        step = reals("--step", args.step, 0, math.inf, "()")
        reals("--grid-max", args.grid_max, 0, math.inf, "[)")
        grid = np.arange(0.0, args.grid_max + step / 2, step)
        violations = 0
        worst = 0.0
        for a in grid:
            for b in grid:
                lhs, rhs = min_exp_inequality(float(a), float(b))
                gap = lhs - rhs
                worst = max(worst, gap)
                if gap > 1e-12:
                    violations += 1
        report = CouplingReport(
            kind=CouplingKind.MIN_EXP,
            trials=len(grid) ** 2,
            violations=violations,
            parameters={"grid_max": args.grid_max, "step": step, "worst_gap": worst},
        )

    if args.out:
        report.save_json(args.out)
    _emit("coupling", args, {
        "kind": kind,
        "trials": report.trials,
        "violations": report.violations,
        "out": args.out,
    })
    return 3 if report.violations > 0 else 0


# --------------------------------------------------------------------- bk

def _parse_event(flag: str, spec: str, n: int):
    """`full`, `count>=m`, or `open:` (all of) or `any:` edge numbers 1 .. n."""
    spec = spec.strip()
    if spec == "full":
        return lambda s: True
    if spec.startswith("count>="):
        m = _number(flag, spec[7:], int)
        return lambda s: sum(s) >= m
    kind, colon, items = spec.partition(":")
    join = {"open": all, "any": any}.get(kind) if colon else None
    if join is None:
        raise UsageError(f"unrecognized event spec {spec!r}")
    idx = [_number(flag, x, int) - 1 for x in items.split(",")]
    if any(i < 0 or i >= n for i in idx):
        raise UsageError(f"event index out of range in {spec!r}")
    return lambda s: join(s[i] for i in idx)


def _cmd_bk(args) -> int:
    probs = _numbers("--p", args.p)
    if len(probs) == 1:
        probs = probs * args.n
    events = [_parse_event("--eventA", args.eventA, args.n),
              _parse_event("--eventB", args.eventB, args.n)]
    if args.eventC:  # an empty --eventC is no event
        events.append(_parse_event("--eventC", args.eventC, args.n))
    p_disjoint, p_product = bk_brute_force_k(args.n, probs, events)
    violated = p_disjoint > p_product + 1e-12
    _emit("bk", args, {
        "p_disjoint": p_disjoint,
        "p_product": p_product,
        "violations": int(violated),
    })
    return 3 if violated else 0


# --------------------------------------------------------------------- fit

def _cmd_fit(args) -> int:
    if args.infile:
        with open(args.infile) as fh:
            fh.readline()  # the header
            samples = [_pair(f"--in {args.infile}, line {i}", line, ",")
                       for i, line in enumerate(fh, 2) if line.strip()]
    elif args.samples:
        samples = [_pair("--samples", chunk, ":") for chunk in args.samples.split(",")]
    else:
        raise UsageError("fit needs --in or --samples")
    params = None
    if args.alpha is not None and args.tau is not None:
        params = ModelParams(d=max(args.d, 1), alpha=args.alpha, tau=args.tau, lam=1.0)
    delta_hat, diag = fit_distance_exponent(samples, params)
    _emit("fit", args, {
        "delta_hat": delta_hat,
        "intercept": diag.intercept,
        "r2": diag.r2,
        "reference_delta": diag.reference_delta,
    })
    return 0


# --------------------------------------------------------------------- shape

def _cmd_shape(args) -> int:
    config = _config_from(args)
    root = args.root if args.root is not None else config.box.n_vertices // 2
    delta = args.delta
    if delta is None:
        delta = delta_exponent(min(config.params.alpha, config.params.tau - 2))
    reals("delta", delta, 0, ends="(]")  # r(k) = exp(c k^(1/delta))
    ks = _numbers("--ks", args.ks, int)
    if args.c is not None:
        c = reals("--c", args.c, -math.inf, math.inf, "()")
    else:
        c = fit_shape_constant(config, root, args.fit_k, delta,
                               args.fit_trials, trial_seed(args.seed, 10**6),
                               quantile=args.fit_quantile)
    rows = shape_containment(config, root, ks, lambda k: math.exp(c * k ** (1.0 / delta)),
                             args.trials, args.seed)
    if args.out:
        columns = ("k", "radius", "trials", "contained", "frequency")
        _write_csv(args.out, columns, ([r[c] for c in columns] for r in rows))
    _emit("shape", args, {
        "c": c,
        "delta": delta,
        "frequencies": {str(r["k"]): r["frequency"] for r in rows},
        "out": args.out,
    })
    return 0


# --------------------------------------------------------------------- wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="percolate", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subparsers_by_name = {}

    def new(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("--config", default=None,
                        help="flat JSON file with flag defaults")
        sp.set_defaults(func=fn)
        parser.subparsers_by_name[name] = sp
        return sp

    sp = new("generate", _cmd_generate, help="sample a graph to a text file")
    _add_model_args(sp)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--costs", choices=["none", "fpp", "cffp"], default="none")

    sp = new("distance", _cmd_distance, help="distances on a stored graph")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--source", type=int, required=True)
    sp.add_argument("--target", type=int, required=True)
    sp.add_argument("--cost", action="store_true")

    sp = new("tail", _cmd_tail, help="Monte Carlo tail estimates on a grid")
    _add_model_args(sp)
    sp.add_argument("--metric", choices=["hop", "fpp", "cffp"], default="hop")
    sp.add_argument("--source", type=int, required=True)
    sp.add_argument("--targets", required=True, help="comma-separated vertex ids")
    sp.add_argument("--thresholds", required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--bound", choices=["lrp", "sfp"], default=None)
    sp.add_argument("--eps-grid", dest="eps_grid", default="0.05:0.5:10")
    sp.add_argument("--c1-grid", dest="c1_grid", default="1.0")
    sp.add_argument("--c2-grid", dest="c2_grid", default="1.0")
    sp.add_argument("--beta-grid", dest="beta_grid", default="1.0")

    sp = new("growth", _cmd_growth, help="mean ball growth with fits")
    _add_model_args(sp)
    sp.add_argument("--metric", choices=["hop", "fpp", "cffp"], default="hop")
    sp.add_argument("--root", type=int, default=None)
    sp.add_argument("--thresholds", required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--h-t", dest="h_t", type=float, default=None)
    sp.add_argument("--h-delta", dest="h_delta", type=float, default=1.0)
    sp.add_argument("--selfbound", action="store_true")

    sp = new("coupling", _cmd_coupling, help="dominance and coupling checks")
    sp.add_argument("--kind", required=True,
                    choices=["alpha", "fpp-cffp", "blowup-lrp", "weights", "min-exp"])
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--L", type=int, default=64)
    sp.add_argument("--alpha", type=float, default=1.5)
    sp.add_argument("--alpha-prime", dest="alpha_prime", type=float, default=None)
    sp.add_argument("--tau", type=float, default=math.inf)
    sp.add_argument("--tau-prime", dest="tau_prime", type=float, default=None)
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sp.add_argument("--lambda-small", dest="lambda_small", type=float, default=0.01)
    sp.add_argument("--lambda-goal", dest="lambda_goal", type=float, default=0.1)
    sp.add_argument("--r", type=int, default=3)
    sp.add_argument("--c-agg", dest="c_agg", type=float, default=1.0)
    sp.add_argument("--wu", type=float, default=1.0)
    sp.add_argument("--wv", type=float, default=1.0)
    sp.add_argument("--dist", type=float, default=1.0)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--seeds", type=int, default=1)
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--grid-max", dest="grid_max", type=float, default=5.0)
    sp.add_argument("--step", type=float, default=0.1)
    sp.add_argument("--out", default=None)

    sp = new("bk", _cmd_bk, help="exact disjoint-occurrence enumeration")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", required=True, help="edge probabilities, broadcast if one")
    sp.add_argument("--eventA", required=True)
    sp.add_argument("--eventB", required=True)
    sp.add_argument("--eventC", default=None)

    sp = new("fit", _cmd_fit, help="distance-exponent regression")
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--samples", default=None, help="dist:median pairs")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--d", type=int, default=1)

    sp = new("shape", _cmd_shape, help="shape-theorem containment frequencies")
    _add_model_args(sp)
    sp.add_argument("--root", type=int, default=None)
    sp.add_argument("--ks", required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--fit-k", dest="fit_k", type=int, default=2)
    sp.add_argument("--fit-quantile", dest="fit_quantile", type=float, default=0.95)
    sp.add_argument("--fit-trials", dest="fit_trials", type=int, default=200)
    sp.add_argument("--out", default=None)

    return parser


_CONFIG_KEYMAP = {"lambda": "lam", "in": "infile"}


def _config_path_from_argv(sp: _Parser, argv: list[str]) -> str | None:
    """The file of the subcommand's one `--config`, if it has one.  A proper
    prefix of --config that no other flag of the subcommand begins with is
    refused, as argparse would take it for --config."""
    others = [o for o in sp._option_string_actions if o != "--config"]
    paths = []
    for tok, following in zip(argv, argv[1:] + [""]):
        flag, eq, value = tok.partition("=")
        if (len(flag) > 2 and "--config".startswith(flag)
                and not any(o.startswith(flag) for o in others)):
            path = value if eq else following
            if flag != "--config":
                raise UsageError(f"spell --config in full, not {flag}: {path} was not applied")
            paths.append(path)
    if len(paths) > 1:
        raise UsageError(f"--config given more than once: {' and '.join(paths)}")
    return paths[0] if paths else None


def _config_tokens(sp: _Parser, command: str, path: str) -> list[str]:
    """The flags a config file stands for, as `--flag=value` tokens."""
    try:
        with open(path) as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(values, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    flags = {a.dest: a for a in sp._actions if a.dest not in ("help", "config")}
    unknown = sorted(k for k in values if _CONFIG_KEYMAP.get(k, k) not in flags)
    if unknown:
        raise UsageError(f"{command} has no flags for config keys: {', '.join(unknown)}")
    tokens = []
    for key, value in values.items():
        flag = flags[_CONFIG_KEYMAP.get(key, key)]
        switch = flag.nargs == 0  # a store_true flag, set by true
        if isinstance(value, bool) != switch or not isinstance(value, (int, float, str)):
            raise UsageError(f"config key {key} must be "
                             f"{'true or false' if switch else 'a number or a string'}")
        if not switch:
            tokens.append(f"{flag.option_strings[0]}={value}")
        elif value:
            tokens.append(flag.option_strings[0])
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        sp = parser.subparsers_by_name.get(argv[0]) if argv else None
        path = _config_path_from_argv(sp, argv[1:]) if sp else None
        if path:
            # before the command line's own flags, so that those win
            argv[1:1] = _config_tokens(sp, argv[0], path)
        args = parser.parse_args(argv)
        if args.config != path:
            # a spelling that argparse takes for --config but the check above missed
            raise UsageError(f"spell --config in full: {args.config} was not applied")
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except DomainError as exc:
        sys.stderr.write(f"invalid arguments: {exc}\n")
        return 1
    except BudgetError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"file error: {exc}\n")
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
