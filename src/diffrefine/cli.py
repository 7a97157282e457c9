"""Command-line front end for every experiment track.

One executable with subcommands for data generation, training,
refinement, the power-flow solver, attacks, and the toy landscape
comparison.  Every run that writes a directory leaves a manifest
describing the exact configuration, the seeds, the package version,
and content hashes of its inputs, so artifacts can be traced and
reproduced byte for byte.  Timing lives in one harness,
``perfbench/run.py``.

Randomness flows from one ``--seed`` value: each consumer derives its
own stream as sha256("<seed>:<purpose>"), so tracks stay independent
and any one of them can be re-run in isolation.  Config files are
JSON; ``--print-config`` on a subcommand prints the defaults it would
use and exits.

Exit codes: 0 success, 2 configuration problem, 3 data problem,
4 numeric failure, 5 solver non-convergence.  Errors print a single
tab-separated line ``error<TAB>CLASS<TAB>message`` to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DataError,
    DiffRefineError,
    NoConvergenceError,
    NumericError,
)
from .model_store import load_model, read_manifest, save_model, write_manifest

# ---------------------------------------------------------------------------
# Defaults, printable via --print-config.
# ---------------------------------------------------------------------------

GEN_PF_DEFAULTS = {
    "n_train": 2000,
    "n_val": 500,
    "n_test": 1000,
    "train_spread": 0.10,
    "test_spread": 0.20,
    "tol": 1e-8,
    "seed": None,  # null: derived from --seed
}

GEN_TABULAR_DEFAULTS = {
    "n_train": 10000,
    "n_val": 2000,
    "n_test": 5000,
    "label_noise": 0.05,
    "seed": None,
}

TRAIN_DEFAULTS = {
    "base": {
        "epochs": 60, "batch_size": 64, "lr": 1e-3, "seed": None,
        "hidden": [64, 64],
    },
    "pinn": {
        "epochs": 60, "batch_size": 64, "lr": 1e-3, "seed": None,
        "hidden": [64, 64], "pinn_weight": 1.0,
    },
    "eps": {
        "powerflow-dataset": {
            "epochs": 200, "batch_size": 64, "lr": 1e-3, "seed": None,
            "hidden": [128, 128], "time_dim": 16,
            "schedule": {"T": 100, "beta_min": 1e-4, "beta_max": 0.02},
        },
        "tabular-dataset": {
            "epochs": 40, "batch_size": 256, "lr": 1e-3, "seed": None,
            "hidden": [64, 64], "time_dim": 16,
            "schedule": {"T": 60, "beta_min": 1e-4, "beta_max": 0.03},
        },
    },
    "classifier": {
        "epochs": 150, "batch_size": 128, "lr": 1e-3, "seed": None,
        "hidden": [32, 32],
    },
}


def attack_defaults() -> dict:
    from .adversarial import AttackConfig

    return AttackConfig().to_config() | {"seed": None, "mu": 10.0, "max_samples": 500}


def refine_defaults() -> dict:
    from .baselines import POWER_REFINE

    return POWER_REFINE.to_config()


# ---------------------------------------------------------------------------
# Small shared helpers.
# ---------------------------------------------------------------------------

def derive_seed(master: int, purpose: str) -> int:
    """Per-purpose stream seed from the top-level seed."""
    digest = hashlib.sha256(f"{master}:{purpose}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _input_hashes(paths: dict) -> dict:
    out = {}
    for name, p in paths.items():
        if p is None:
            continue
        p = Path(p)
        if p.is_dir():
            p = p / "manifest.json"
        out[name] = _sha256(p) if p.exists() else None
    return out


def _load_config(path, defaults: dict) -> dict:
    cfg = json.loads(json.dumps(defaults))  # deep copy
    if path is None:
        return cfg
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in user.items():
        _check_config_type(key, value, defaults[key])
    cfg.update(user)
    return cfg


def _check_config_type(key: str, value, default) -> None:
    """Raise ConfigError unless ``value`` has the JSON type of ``default``.

    Integers stand for floats, a null default takes null or a number,
    list entries follow the default's first entry, and an object must
    carry exactly the default's keys.
    """
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, bool):
        ok = isinstance(value, bool)
    elif isinstance(default, int):
        ok = is_number and isinstance(value, int)
    elif isinstance(default, float):
        ok = is_number
    elif default is None:
        ok = value is None or is_number
    elif isinstance(default, list):
        ok = isinstance(value, list)
        if ok and default:
            for i, item in enumerate(value):
                _check_config_type(f"{key}[{i}]", item, default[0])
    elif isinstance(default, dict):
        ok = isinstance(value, dict) and set(value) == set(default)
        if ok:
            for sub, item in value.items():
                _check_config_type(f"{key}.{sub}", item, default[sub])
    else:
        ok = isinstance(value, type(default))
    if not ok:
        want = "null or a number" if default is None else type(default).__name__
        raise ConfigError(f"config key {key!r} must be {want}, got {json.dumps(value)}")


def _pick_seed(cfg_seed, master: int, purpose: str) -> int:
    return int(cfg_seed) if cfg_seed is not None else derive_seed(master, purpose)


def _prepare_out(args) -> Path:
    if args.out is None:
        raise ConfigError("--out is required")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    args._out_dir = out
    marker = out / "INCOMPLETE"
    if marker.exists():
        marker.unlink()
    return out


def _provenance(command: str, config: dict, seeds: dict, inputs: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": config,
        "seeds": seeds,
        "inputs": _input_hashes(inputs),
    }


def _write_run_manifest(out: Path, command: str, config: dict, seeds: dict, inputs: dict) -> None:
    doc = {"kind": "run-manifest", **_provenance(command, config, seeds, inputs)}
    write_manifest(out / "manifest.json", doc)


def _merge_cli_manifest(out: Path, command: str, config: dict, seeds: dict, inputs: dict) -> None:
    """Fold run provenance into a manifest a dataset writer produced."""
    doc = read_manifest(out)
    doc["cli"] = _provenance(command, config, seeds, inputs)
    write_manifest(out / "manifest.json", doc)


def _dataset_kind(data_dir) -> str:
    return read_manifest(data_dir, keys={"kind": str})["kind"]


def _model_path(out: str) -> Path:
    # np.savez appends .npz itself; normalize so the name is predictable
    return Path(out if out.endswith(".npz") else out + ".npz")


def _print_config(doc: dict) -> int:
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _float_row(values) -> str:
    return "\t".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def _pf_one_split(case_name: str, which: str, cfg: dict, seed: int):
    from .powerflow import generate_dataset, load_case

    counts = {"n_train": 0, "n_val": 0, "n_test": 0}
    counts[f"n_{which}"] = cfg[f"n_{which}"]
    ds = generate_dataset(
        load_case(case_name),
        train_spread=cfg["train_spread"],
        test_spread=cfg["test_spread"],
        seed=seed,
        tol=cfg["tol"],
        **counts,
    )
    return getattr(ds, which)


def _tabular_one_split(schema_path, which: str, cfg: dict, seed: int):
    from .adversarial import generate_tabular_dataset, load_schema

    counts = {"n_train": 0, "n_val": 0, "n_test": 0}
    counts[f"n_{which}"] = cfg[f"n_{which}"]
    ds = generate_tabular_dataset(
        load_schema(schema_path),
        seed=seed,
        label_noise=cfg["label_noise"],
        **counts,
    )
    return getattr(ds, which)


def _parallel_splits(worker, workers: int):
    """Run the three split draws concurrently; each split's stream is
    derived independently, so the artifacts match the sequential run."""
    from .numerics import run_in_processes

    names = ("train", "val", "test")
    return dict(zip(names, run_in_processes([partial(worker, n) for n in names], workers)))


def cmd_gen_data(args) -> int:
    if args.track == "pf":
        if args.print_config:
            return _print_config(GEN_PF_DEFAULTS)

        from .powerflow import PowerFlowDataset, load_case, save_dataset
        from .powerflow.data import feature_names, target_names

        cfg = _load_config(args.config, GEN_PF_DEFAULTS)
        seed = _pick_seed(cfg["seed"], args.seed, "gen-data-pf")
        case = load_case(args.case)
        out = _prepare_out(args)
        splits = _parallel_splits(
            partial(_pf_one_split, args.case, cfg=cfg, seed=seed), args.workers
        )
        ds = PowerFlowDataset(
            case_name=case.name,
            base_mva=case.base_mva,
            seed=seed,
            train_spread=cfg["train_spread"],
            test_spread=cfg["test_spread"],
            feature_names=feature_names(case),
            target_names=target_names(case),
            train=splits["train"],
            val=splits["val"],
            test=splits["test"],
        )
        save_dataset(ds, out)
        case_path = args.case if Path(args.case).exists() else None
        _merge_cli_manifest(
            out, "gen-data pf", cfg,
            {"master": args.seed, "derived": {"dataset": seed}},
            {"config": args.config, "case": case_path},
        )
        print(f"wrote {out} ({cfg['n_train']}/{cfg['n_val']}/{cfg['n_test']} scenarios)")
        return 0

    if args.print_config:
        return _print_config(GEN_TABULAR_DEFAULTS)

    from .adversarial import (
        GROUND_TRUTH_SEED,
        TabularDataset,
        load_schema,
        save_tabular_dataset,
    )

    cfg = _load_config(args.config, GEN_TABULAR_DEFAULTS)
    seed = _pick_seed(cfg["seed"], args.seed, "gen-data-tabular")
    schema = load_schema(args.schema)
    out = _prepare_out(args)
    splits = _parallel_splits(
        partial(_tabular_one_split, args.schema, cfg=cfg, seed=seed), args.workers
    )
    ds = TabularDataset(
        schema=schema,
        train=splits["train"],
        val=splits["val"],
        test=splits["test"],
        seed=seed,
        label_noise=cfg["label_noise"],
        ground_truth_seed=GROUND_TRUTH_SEED,
    )
    save_tabular_dataset(ds, out)
    _merge_cli_manifest(
        out, "gen-data tabular", cfg,
        {"master": args.seed, "derived": {"dataset": seed}},
        {"config": args.config, "schema": args.schema},
    )
    print(f"wrote {out} ({cfg['n_train']}/{cfg['n_val']}/{cfg['n_test']} rows)")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_TRAIN_LOSS = {"base": "mse", "pinn": "pinn", "classifier": "bce", "eps": "eps"}


def cmd_train(args) -> int:
    if args.print_config:
        return _print_config(TRAIN_DEFAULTS[args.kind])
    if args.data is None:
        raise ConfigError("--data is required")
    if args.out is None:
        raise ConfigError("--out is required")
    from .training import TrainConfig

    data_kind = _dataset_kind(args.data)
    if args.kind in ("base", "pinn") and data_kind != "powerflow-dataset":
        raise DataError(f"train {args.kind} needs a grid scenario dataset, got {data_kind!r}")
    if args.kind == "classifier" and data_kind != "tabular-dataset":
        raise DataError(f"train classifier needs a tabular dataset, got {data_kind!r}")
    if args.kind == "eps" and data_kind not in TRAIN_DEFAULTS["eps"]:
        raise DataError(f"train eps cannot use dataset kind {data_kind!r}")

    defaults = TRAIN_DEFAULTS[args.kind]
    if args.kind == "eps":
        defaults = defaults[data_kind]
    cfg = _load_config(args.config, defaults)
    seed = _pick_seed(cfg["seed"], args.seed, f"train-{args.kind}")
    hidden = tuple(int(h) for h in cfg["hidden"])
    tc = TrainConfig(
        epochs=cfg["epochs"], batch_size=cfg["batch_size"], lr=cfg["lr"],
        seed=seed, loss=_TRAIN_LOSS[args.kind], pinn_weight=cfg.get("pinn_weight", 0.0),
    )

    if args.kind in ("base", "pinn"):
        from .baselines import train_power_estimator, train_power_pinn
        from .powerflow import load_case, load_dataset

        ds = load_dataset(args.data)
        case = load_case(ds.case_name)
        trainer = train_power_estimator if args.kind == "base" else train_power_pinn
        model = trainer(case, ds, cfg=tc, hidden=hidden)
    elif args.kind == "classifier":
        from .adversarial import load_tabular_dataset, train_tabular_classifier

        ds = load_tabular_dataset(args.data)
        model = train_tabular_classifier(ds, cfg=tc, hidden=hidden)
    else:
        from .diffusion import make_schedule

        sched = make_schedule(
            cfg["schedule"]["T"], cfg["schedule"]["beta_min"], cfg["schedule"]["beta_max"]
        )
        if data_kind == "powerflow-dataset":
            from .baselines import train_power_prior
            from .powerflow import load_case, load_dataset

            ds = load_dataset(args.data)
            model = train_power_prior(
                load_case(ds.case_name), ds, schedule=sched, cfg=tc, hidden=hidden,
                time_dim=cfg["time_dim"],
            )
        else:
            from .adversarial import load_tabular_dataset, train_feasible_prior

            ds = load_tabular_dataset(args.data)
            model = train_feasible_prior(
                ds, sched, cfg=tc, hidden=hidden, time_dim=cfg["time_dim"]
            )

    path = _model_path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_model(path, model)
    provenance = _provenance(
        f"train {args.kind}", cfg, {"master": args.seed, "derived": {"train": seed}},
        {"config": args.config, "data": args.data},
    )
    write_manifest(
        path.with_suffix(".manifest.json"),
        {"kind": "model-manifest", **provenance, "model": path.name},
    )
    final = float(model.loss_history[-1]) if len(model.loss_history) else float("nan")
    print(f"wrote {path} (final loss {final:.6g})")
    return 0


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

def cmd_refine(args) -> int:
    if args.print_config:
        return _print_config(refine_defaults())
    from .baselines import kirchhoff_potentials, refine_power_batch
    from .guidance import RefineConfig, refine_batch
    from .powerflow import build_ybus, evaluate, load_case, load_dataset

    ds = load_dataset(args.data)
    case = load_case(args.case if args.case else ds.case_name)
    base = load_model(args.model)
    prior = load_model(args.eps)
    cfg = RefineConfig.from_config(_load_config(args.config, refine_defaults()))
    if args.split not in ("train", "val", "test"):
        raise ConfigError(f"unknown split {args.split!r}")
    split = getattr(ds, args.split)
    out = _prepare_out(args)

    ybus = build_ybus(case)
    # A row whose load overflows ends in one NonFiniteGradientError line,
    # not in numpy warnings from its predictions and residuals first.
    with np.errstate(over="ignore", invalid="ignore"):
        pred = base.predict(split.features)
        rep_base = evaluate(case, pred, split.targets, split.features, ybus=ybus, norm=base.y_norm)
        refined = refine_power_batch(
            case, prior, pred, split.features, cfg=cfg, ybus=ybus, workers=args.workers
        )
        rep_ref = evaluate(case, refined, split.targets, split.features, ybus=ybus, norm=base.y_norm)

    lines = ["method\tmse\tmapm_mw\tmrpm_mvar"]
    lines.append("base\t" + _float_row([rep_base.mean_mse, rep_base.mean_mapm, rep_base.mean_mrpm]))
    lines.append("refined\t" + _float_row([rep_ref.mean_mse, rep_ref.mean_mapm, rep_ref.mean_mrpm]))
    (out / "report.tsv").write_text("\n".join(lines) + "\n")

    per = ["idx\tbase_mse\tbase_mapm\tbase_mrpm\tref_mse\tref_mapm\tref_mrpm"]
    for i in range(pred.shape[0]):
        per.append(
            f"{i}\t"
            + _float_row(
                [rep_base.mse[i], rep_base.mapm[i], rep_base.mrpm[i],
                 rep_ref.mse[i], rep_ref.mapm[i], rep_ref.mrpm[i]]
            )
        )
    (out / "per_sample.tsv").write_text("\n".join(per) + "\n")

    rows = ["\t".join(ds.target_names)]
    rows.extend(_float_row(r) for r in refined)
    (out / "refined.tsv").write_text("\n".join(rows) + "\n")

    if args.dump > 0 and cfg.steps > 0:
        traj_dir = out / "trajectories"
        traj_dir.mkdir(exist_ok=True)
        first = slice(0, min(args.dump, pred.shape[0]))
        pots = kirchhoff_potentials(case, ybus, split.features[first])
        _, trajectories = refine_batch(pred[first], pots, prior, cfg, condition=split.features[first])
        for i, trajectory in enumerate(trajectories):
            (traj_dir / f"sample_{i:03d}.tsv").write_text("\n".join(trajectory.to_lines()) + "\n")

    _write_run_manifest(
        out, "refine", cfg.to_config() | {"split": args.split, "dump": args.dump},
        {"master": args.seed, "derived": {}},
        {"config": args.config, "data": args.data, "model": args.model, "eps": args.eps},
    )
    improved = float(np.mean(rep_ref.mapm < rep_base.mapm))
    print(
        f"wrote {out} (mean peak dP {rep_base.mean_mapm:.3f} -> {rep_ref.mean_mapm:.3f} MW, "
        f"improved on {improved:.1%} of samples)"
    )
    return 0


# ---------------------------------------------------------------------------
# solve-pf
# ---------------------------------------------------------------------------

def _injections_from_file(case, path):
    from .powerflow import load_injections

    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read injections file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"injections file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"injections file {path} must hold a JSON object")
    ids = [bus.id for bus in case.buses]
    arrays = {"pd_mw": case.pd * case.base_mva, "qd_mvar": case.qd * case.base_mva,
              "pg_mw": case.pg * case.base_mva}
    for key in doc:
        if key not in arrays:
            raise DataError(f"unknown injections key {key!r}")
        val = doc[key]
        if isinstance(val, dict):
            arr = arrays[key].copy()
            for bus_id, mw in val.items():
                try:
                    pos = ids.index(int(bus_id))
                except ValueError as exc:
                    raise DataError(f"unknown bus id {bus_id!r} in {key}") from exc
                arr[pos] = _injection_value(key, mw)
            arrays[key] = arr
        else:
            if not isinstance(val, list) or len(val) != case.n:
                raise DataError(f"{key} must list one value per bus ({case.n})")
            arrays[key] = np.array([_injection_value(key, v) for v in val])
    return load_injections(
        case,
        arrays["pd_mw"] / case.base_mva,
        arrays["qd_mvar"] / case.base_mva,
        arrays["pg_mw"] / case.base_mva,
    )


def _injection_value(key: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{key} values must be numbers, got {json.dumps(value)}") from exc


def cmd_solve_pf(args) -> int:
    from .powerflow import (
        build_ybus,
        load_case,
        mismatch,
        newton_raphson,
        nominal_injections,
    )

    case = load_case(args.case)
    ybus = build_ybus(case)
    inj = (
        _injections_from_file(case, args.injections)
        if args.injections
        else nominal_injections(case)
    )
    t0 = time.perf_counter()
    result = newton_raphson(case, ybus, inj, tol=args.tol)
    wall_ms = (time.perf_counter() - t0) * 1e3
    dp, dq = mismatch(case, ybus, result.state, inj)
    worst = float(np.abs(np.concatenate([dp, dq])).max())
    print("key\tvalue")
    print(f"case\t{case.name}")
    print(f"converged\ttrue")
    print(f"iterations\t{result.iterations}")
    print(f"max_mismatch_pu\t{worst!r}")
    print(f"wall_ms\t{wall_ms:.3f}")
    print("bus\tvm_pu\tva_deg")
    for i, bus in enumerate(case.buses):
        vm = float(result.state.vm[i])
        va = float(np.degrees(result.state.va[i]))
        print(f"{bus.id}\t{vm!r}\t{va!r}")
    return 0


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

def _attack_rows(kind, model, pot, prior, cfg, mu, x, y):
    from .adversarial import cyclic_attack, penalty_pgd_attack, pgd_attack

    if kind == "pgd":
        return pgd_attack(model, x, y, cfg, pot)
    if kind == "penalty":
        return penalty_pgd_attack(model, x, y, cfg, pot, mu=mu)
    adv, _ = cyclic_attack(model, x, y, cfg, pot, prior)
    return adv


def _make_attack(kind, model, pot, prior, cfg, mu, workers):
    from .numerics import map_row_chunks

    rows = partial(_attack_rows, kind, model, pot, prior, cfg, mu)
    return lambda x, y: map_row_chunks(rows, (x, y), workers)


def cmd_attack(args) -> int:
    if args.print_config:
        return _print_config(attack_defaults())
    from .adversarial import (
        AttackConfig,
        evaluate_attacks,
        load_tabular_dataset,
        write_attack_artifacts,
    )

    if args.data is None:
        raise ConfigError("--data is required")
    if args.model is None:
        raise ConfigError("--model is required")
    cfg_all = _load_config(args.config, attack_defaults())
    mu = float(cfg_all.pop("mu"))
    max_samples = cfg_all.pop("max_samples")
    cfg_all["seed"] = _pick_seed(cfg_all["seed"], args.seed, "attack")
    cfg = AttackConfig.from_config(cfg_all)

    ds = load_tabular_dataset(args.data)
    model = load_model(args.model)
    prior = None
    if args.kind == "cyclic":
        if args.eps_model is None:
            raise ConfigError("attack --kind cyclic needs --eps-model")
        prior = load_model(args.eps_model)
    out = _prepare_out(args)
    attack = _make_attack(args.kind, model, ds.schema, prior, cfg, mu, args.workers)
    reports = evaluate_attacks(
        model, ds.test.features, ds.test.labels, {args.kind: attack},
        pot=ds.schema, max_samples=max_samples,
    )
    write_attack_artifacts(out, reports)
    _write_run_manifest(
        out, f"attack {args.kind}",
        cfg.to_config() | {"mu": mu, "max_samples": max_samples},
        {"master": args.seed, "derived": {"attack": cfg.seed}},
        {"config": args.config, "data": args.data, "model": args.model,
         "eps_model": args.eps_model},
    )
    r = reports[0]
    print(
        f"wrote {out} ({args.kind}: {r.n_attacked} attacked, "
        f"success {r.success_rate:.1f}%, mean violation {r.mean_phi:.4g})"
    )
    return 0


# ---------------------------------------------------------------------------
# toy
# ---------------------------------------------------------------------------

def _start_groups(path, doc) -> dict:
    """The start groups of a --starts document, itself or its "starts"
    entry: each name maps to a list of [x, y] points."""
    groups = doc.get("starts", doc) if isinstance(doc, dict) else doc
    if not isinstance(groups, dict):
        raise DataError(f"starts file {path} must map group names to lists of [x, y] points")
    for name, points in groups.items():
        if not isinstance(points, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(type(v) in (int, float) for v in p)
            for p in points
        ):
            raise DataError(f"start group {name!r} in {path} must be a list of [x, y] points")
    return groups


def cmd_toy(args) -> int:
    from .baselines import build_toy_setup, load_toy_demo, trajectory_comparison

    demo = load_toy_demo()
    if args.starts:
        try:
            doc = json.loads(Path(args.starts).read_text())
        except OSError as exc:
            raise DataError(f"cannot read starts file {args.starts}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"starts file {args.starts} is not valid JSON: {exc}") from exc
        demo["starts"] = _start_groups(args.starts, doc)
    out = _prepare_out(args)
    pot, model, refine_cfg, starts = build_toy_setup(demo)
    groups, flat = [], []
    for name in sorted(starts):
        for row in starts[name]:
            groups.append(name)
            flat.append(row)
    table = trajectory_comparison(pot, np.asarray(flat), model=model, refine_cfg=refine_cfg)
    (out / "outcome.tsv").write_text("\n".join(table.to_lines()) + "\n")
    per_start = len(table.rows) // max(len(flat), 1)
    group_lines = ["row\tgroup"]
    for i in range(len(table.rows)):
        group_lines.append(f"{i}\t{groups[i // max(per_start, 1)]}")
    (out / "groups.tsv").write_text("\n".join(group_lines) + "\n")
    traj_dir = out / "trajectories"
    traj_dir.mkdir(exist_ok=True)
    for i, row in enumerate(table.rows):
        (traj_dir / f"row_{i:03d}_{row.method}.tsv").write_text(
            "\n".join(row.trajectory.to_lines()) + "\n"
        )
    _write_run_manifest(
        out, "toy", demo, {"master": args.seed, "derived": {}},
        {"starts": args.starts},
    )
    labels = {m: [] for m in ("gd", "nr", "refine")}
    for row in table.rows:
        labels[row.method].append(row.label)
    print(f"wrote {out} ({len(flat)} starts)")
    for method, got in labels.items():
        print(f"  {method}: " + ", ".join(got))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line machine-parsable errors
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diffrefine", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, workers=False):
        p.add_argument("--seed", type=int, default=0, help="top-level seed")
        p.add_argument("--print-config", action="store_true", help="print defaults and exit")
        p.add_argument("--config", default=None, help="JSON config file")
        if workers:
            p.add_argument("--workers", type=int, default=1, help="per-sample worker processes")

    p = sub.add_parser("gen-data", help="generate a track dataset")
    p.add_argument("track", choices=["pf", "tabular"])
    p.add_argument("--case", default="ieee14", help="bundled case name or case file (pf)")
    p.add_argument("--schema", default=None, help="constraint schema JSON (tabular)")
    p.add_argument("--out", default=None)
    common(p, workers=True)

    p = sub.add_parser("train", help="train a model on a generated dataset")
    p.add_argument("kind", choices=["base", "pinn", "eps", "classifier"])
    p.add_argument("--data", default=None, help="dataset directory")
    p.add_argument("--out", default=None, help="model file (.npz)")
    common(p)

    p = sub.add_parser("refine", help="refine base predictions over a dataset split")
    p.add_argument("--model", required=True, help="base estimator file")
    p.add_argument("--eps", dest="eps", required=True, help="noise model file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--case", default=None, help="case override (defaults to the dataset's)")
    p.add_argument("--split", default="test")
    p.add_argument("--dump", type=int, default=4, help="trajectory dumps to write")
    common(p, workers=True)

    p = sub.add_parser("solve-pf", help="Newton-Raphson solve for one scenario")
    p.add_argument("--case", required=True)
    p.add_argument("--injections", default=None, help="JSON per-bus overrides")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("attack", help="attack the tabular classifier")
    p.add_argument("--kind", choices=["pgd", "penalty", "cyclic"], required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--model", default=None, help="classifier file")
    p.add_argument("--eps-model", dest="eps_model", default=None, help="feasible-prior file")
    p.add_argument("--out", default=None)
    common(p, workers=True)

    p = sub.add_parser("toy", help="trajectory comparison on the toy landscape")
    p.add_argument("--starts", default=None, help="JSON start groups")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    return parser


_HANDLERS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "refine": cmd_refine,
    "solve-pf": cmd_solve_pf,
    "attack": cmd_attack,
    "toy": cmd_toy,
}


def _fail(code: int, exc: Exception) -> int:
    message = " ".join(str(exc).split())
    print(f"error\t{type(exc).__name__}\t{message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "workers", 1) < 1:
            raise ConfigError("--workers must be at least 1")
    except ConfigError as exc:
        return _fail(2, exc)
    try:
        return _HANDLERS[args.command](args)
    except DiffRefineError as exc:
        out = getattr(args, "_out_dir", None)
        if out is not None:
            message = " ".join(str(exc).split())
            (out / "INCOMPLETE").write_text(
                f"error\t{type(exc).__name__}\t{message}\n"
            )
        if isinstance(exc, ConfigError):
            return _fail(2, exc)
        if isinstance(exc, NoConvergenceError):
            return _fail(5, exc)
        if isinstance(exc, DataError):
            return _fail(3, exc)
        if isinstance(exc, NumericError):
            return _fail(4, exc)
        return _fail(4, exc)


if __name__ == "__main__":
    sys.exit(main())
