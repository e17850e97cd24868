"""Command line front end.

Subcommands: `dme` runs one mean-estimation experiment, `sweep` runs a
grid of them, `bounds-check` compares a measured error against the
guaranteed ceiling, and `kmeans`, `power`, `sgd`, `fedavg` run the
distributed tasks. Options resolve as built-in defaults, then values
from a `--config` JSON object (keyed by option dest names such as
`sigma_md`, and checked like the flags they stand for), then explicit
flags.

Exit codes: 0 success, 1 a checked bound failed, 2 bad input or a
dataset problem, 3 optimization divergence. Run it as `corrq`,
`python -m corrq` or `python -m corrq.cli`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .harness import (
    AXES,
    KINDS,
    SCHEME_TABLE,
    SCHEMES,
    SyntheticSpec,
    generate,
    k_level_envelope,
    one_bit_envelope,
    reports_to_csv,
    run_dme,
    sweep,
    vector_envelope,
)
from .randomness import derive_key
from .scalar_quant import ScalarBatch, concentration_stats
from .tasks import (
    TASK_SCHEMES,
    DatasetError,
    DegenerateInputError,
    DivergenceError,
    OptimizerConfig,
    distributed_kmeans,
    distributed_power_iteration,
    distributed_sgd,
    federated_averaging,
    load_client_files,
    load_single_file,
    logistic_problem_fixture,
    mnist_like_fixture,
    quadratic_problem_fixture,
    two_blob_fixture,
)
from .vector_quant import vector_concentration


def _experiment_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kind", choices=KINDS, default="uniform-mean",
                     help="synthetic batch family")
    sub.add_argument("--n", type=int, default=100, help="number of clients")
    sub.add_argument("--d", type=int, default=1024, help="vector dimension")
    sub.add_argument("--k", type=int, default=2, help="quantization levels")
    sub.add_argument("--sigma-md", type=float, default=0.01,
                     help="target mean deviation of the batch")
    sub.add_argument("--sparsity", type=float, default=0.01,
                     help="nonzero fraction for sparse-mean batches")
    sub.add_argument("--magnitude", type=float, default=1.0,
                     help="nonzero magnitude for sparse-mean batches")
    sub.add_argument("--grid-k", type=int, default=2,
                     help="grid resolution of the lower-bound families")
    sub.add_argument("--upper", type=float, default=1.0,
                     help="scalar range is [0, upper]")
    sub.add_argument("--trials", type=int, default=10,
                     help="independent estimation trials")
    sub.add_argument("--bit-trials", type=int, default=2,
                     help="trials whose messages are fully serialized")


def _data_args(sub: argparse.ArgumentParser, features: int) -> None:
    sub.add_argument("--data", nargs="+", metavar="CSV",
                     help="client CSV files (default: a synthetic fixture)")
    sub.add_argument("--single-file", action="store_true",
                     help="--data is one CSV with a leading client_id column")
    sub.add_argument("--features", type=int, default=features,
                     help="feature columns per CSV row")


def build_parser() -> tuple[
    argparse.ArgumentParser, dict[str, argparse.ArgumentParser]
]:
    parser = argparse.ArgumentParser(
        prog="corrq",
        description="Distributed mean estimation with correlated quantizers.",
    )
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar="command")
    table: dict[str, argparse.ArgumentParser] = {}

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", metavar="JSON",
                         help="JSON object of option defaults")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--out", metavar="PATH",
                         help="write the result here instead of stdout")
        table[name] = sub
        return sub

    dme = command("dme", "run one mean-estimation experiment")
    _experiment_args(dme)
    dme.add_argument("--scheme", choices=SCHEMES, default="correlated-1bit")

    swp = command("sweep", "run experiments over a parameter grid")
    _experiment_args(swp)
    swp.add_argument("--axis", choices=AXES, default="sigma_md")
    swp.add_argument("--grid", required=True,
                     help="comma-separated axis values")
    swp.add_argument("--schemes", default="correlated-1bit,independent",
                     help="comma-separated scheme names")

    chk = command("bounds-check", "verify the error ceiling on one run")
    _experiment_args(chk)
    chk.add_argument("--scheme", default="correlated-1bit",
                     choices=[s.name for s in SCHEME_TABLE.values() if s.bounded])
    chk.add_argument("--stderr-slack", type=float, default=4.0,
                     help="allowed overshoot in standard errors")

    km = command("kmeans", "distributed Lloyd's iterations")
    _data_args(km, features=2)
    km.add_argument("--scheme", choices=TASK_SCHEMES, default="none")
    km.add_argument("--k", type=int, default=2)
    km.add_argument("--centers", type=int, default=2)
    km.add_argument("--rounds", type=int, default=20)

    pw = command("power", "distributed power iteration")
    _data_args(pw, features=2)
    pw.add_argument("--scheme", choices=TASK_SCHEMES, default="none")
    pw.add_argument("--k", type=int, default=2)
    pw.add_argument("--rounds", type=int, default=20)

    sg = command("sgd", "projected distributed SGD on a built-in objective")
    sg.add_argument("--objective", choices=("quadratic", "logistic"),
                    default="quadratic")
    sg.add_argument("--scheme", choices=TASK_SCHEMES, default="none")
    sg.add_argument("--k", type=int, default=2)
    sg.add_argument("--rounds", type=int, default=100)
    sg.add_argument("--eta", type=float, default=1.0)
    sg.add_argument("--lr", type=float, default=None,
                    help="override the 1/(H + 1/eta) step size")
    sg.add_argument("--radius-domain", type=float, default=10.0)
    sg.add_argument("--radius-grad", type=float, default=1.0)

    fa = command("fedavg", "federated averaging of a logistic model")
    _data_args(fa, features=784)
    fa.add_argument("--scheme", choices=TASK_SCHEMES, default="none")
    fa.add_argument("--k", type=int, default=2)
    fa.add_argument("--rounds", type=int, default=10)
    fa.add_argument("--clients-per-round", type=int, default=None,
                    help="default: every client")
    fa.add_argument("--local-epochs", type=int, default=1)
    fa.add_argument("--local-lr", type=float, default=0.1)
    fa.add_argument("--radius-grad", type=float, default=1.0)

    return parser, table


def _apply_config(
    parser: argparse.ArgumentParser,
    table: dict[str, argparse.ArgumentParser],
    argv: list[str],
) -> list[str]:
    """argv with the --config values inserted as flags right after the
    command, so argparse checks their types and choices exactly as it
    checks flags, and explicit flags (later on the line) win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    found, _ = probe.parse_known_args(argv)
    if not found.config or not argv or argv[0] not in table:
        return argv
    try:
        config = json.loads(Path(found.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"--config {found.config}: {exc}")
    if not isinstance(config, dict):
        parser.error(f"--config {found.config}: expected a JSON object")
    actions = {a.dest: a for a in table[argv[0]]._actions if a.option_strings}
    flags = []
    for key, value in config.items():
        if key not in actions:
            parser.error(
                f"--config {found.config}: {key!r} is not an option of "
                f"{argv[0]!r}"
            )
        action = actions[key]
        flag = action.option_strings[-1]
        if action.nargs == 0:  # on/off switches
            if not isinstance(value, bool):
                parser.error(f"--config {found.config}: {key!r} takes true or false")
            if value:
                flags.append(flag)
        elif isinstance(value, list) and action.nargs in ("+", "*"):
            flags += [flag, *map(str, value)]
        elif value is not None:
            flags.append(f"{flag}={value}")
    return argv[:1] + flags + argv[1:]


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written, before the run."""
    target = Path(path)
    if not target.parent.is_dir():
        raise ValueError(f"--out {path}: no directory {target.parent}")
    where = target if target.exists() else target.parent
    if target.is_dir() or not os.access(where, os.W_OK):
        raise ValueError(f"--out {path}: not a writable file")


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ValueError(f"--out {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _spec_from(args: argparse.Namespace) -> SyntheticSpec:
    return SyntheticSpec(
        kind=args.kind,
        n=args.n,
        d=args.d,
        sigma_md=args.sigma_md,
        sparsity=args.sparsity,
        magnitude=args.magnitude,
        grid_k=args.grid_k,
        upper=args.upper,
    )


def _parse_grid(axis: str, text: str) -> list:
    values = [v.strip() for v in text.split(",") if v.strip()]
    if not values:
        raise ValueError("--grid is empty")
    if axis == "sigma_md":
        return [float(v) for v in values]
    return [int(v) for v in values]


def _run_dme(args: argparse.Namespace) -> int:
    report = run_dme(
        _spec_from(args), args.scheme, args.trials, args.seed,
        k=args.k, bit_trials=args.bit_trials,
    )
    _emit(args, reports_to_csv([report]))
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    reports = sweep(
        args.axis, _parse_grid(args.axis, args.grid), _spec_from(args),
        schemes, args.trials, args.seed, k=args.k, bit_trials=args.bit_trials,
    )
    _emit(args, reports_to_csv(reports))
    return 0


def _run_bounds_check(args: argparse.Namespace) -> int:
    if not 0 <= args.stderr_slack < float("inf"):
        raise ValueError(
            f"--stderr-slack must be finite and >= 0, got {args.stderr_slack}"
        )
    batch = generate(_spec_from(args), derive_key(args.seed, "data"))
    report = run_dme(
        batch, args.scheme, args.trials, args.seed,
        k=args.k, bit_trials=args.bit_trials,
    )
    if isinstance(batch, ScalarBatch):
        stats = concentration_stats(batch)
        if args.scheme == "correlated-1bit" or args.k == 2:
            ceiling = one_bit_envelope(stats.sigma_md, batch.width, batch.n)
        else:
            ceiling = k_level_envelope(
                stats.sigma_md, batch.width, batch.n, args.k
            )
    else:
        if args.scheme != "correlated-klevel" or args.k < 3:
            raise ValueError(
                "vector batches have a guaranteed ceiling only for "
                "correlated-klevel with k >= 3"
            )
        ceiling = vector_envelope(
            vector_concentration(batch), batch.radius, batch.n, batch.d,
            args.k,
        )
    ok = report.mse <= ceiling + args.stderr_slack * report.stderr
    _emit(
        args,
        f"{'PASS' if ok else 'FAIL'} mse={report.mse!r} ceiling={ceiling!r} "
        f"stderr={report.stderr!r} trials={args.trials}\n",
    )
    return 0 if ok else 1


def _task_dataset(args: argparse.Namespace, fixture):
    if args.data:
        if args.single_file:
            if len(args.data) != 1:
                raise DatasetError("--single-file takes exactly one CSV")
            return load_single_file(args.data[0], features=args.features)
        return load_client_files(args.data, features=args.features)
    return fixture()


def _run_kmeans(args: argparse.Namespace) -> int:
    data = _task_dataset(
        args, lambda: two_blob_fixture(seed=derive_key(args.seed, "fixture"))
    )
    result = distributed_kmeans(
        data, args.centers, args.rounds, args.scheme, args.seed, k=args.k
    )
    _emit(args, result.to_csv())
    return 0


def _run_power(args: argparse.Namespace) -> int:
    data = _task_dataset(
        args, lambda: two_blob_fixture(seed=derive_key(args.seed, "fixture"))
    )
    result = distributed_power_iteration(
        data, args.rounds, args.scheme, args.seed, k=args.k
    )
    _emit(args, result.to_csv())
    return 0


def _run_sgd(args: argparse.Namespace) -> int:
    fixture_seed = derive_key(args.seed, "fixture")
    if args.objective == "quadratic":
        problem = quadratic_problem_fixture(seed=fixture_seed)
    else:
        problem = logistic_problem_fixture(seed=fixture_seed)
    cfg = OptimizerConfig(
        rounds=args.rounds,
        scheme=args.scheme,
        k=args.k,
        eta=args.eta,
        lr=args.lr,
        radius_domain=args.radius_domain,
        radius_grad=args.radius_grad,
    )
    result = distributed_sgd(problem, cfg, args.seed)
    _emit(args, result.to_csv())
    return 0


def _run_fedavg(args: argparse.Namespace) -> int:
    test_data = None
    if args.data:
        data = _task_dataset(args, None)
    else:
        data, test_data = mnist_like_fixture(
            seed=derive_key(args.seed, "fixture")
        )
    cfg = OptimizerConfig(
        rounds=args.rounds,
        scheme=args.scheme,
        k=args.k,
        radius_grad=args.radius_grad,
        local_epochs=args.local_epochs,
        local_lr=args.local_lr,
    )
    clients = args.clients_per_round
    if clients is None:
        clients = data.n_clients
    result = federated_averaging(
        data, cfg, clients, args.seed, test_data=test_data
    )
    _emit(args, result.to_csv())
    return 0


_RUNNERS = {
    "dme": _run_dme,
    "sweep": _run_sweep,
    "bounds-check": _run_bounds_check,
    "kmeans": _run_kmeans,
    "power": _run_power,
    "sgd": _run_sgd,
    "fedavg": _run_fedavg,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, table = build_parser()
    args = parser.parse_args(_apply_config(parser, table, argv))
    try:
        if args.out:
            _check_out(args.out)
        return _RUNNERS[args.command](args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DatasetError, DegenerateInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
