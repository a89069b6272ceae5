"""Command-line interface.

Commands: synth, fit-t2, preprocess, train, eval, baseline, ablate, rank,
subgroups.  Every command is deterministic given its arguments: reports are
canonical JSON (sorted keys) embedding the argument set and its hash, so a
repeated run reproduces every output byte for byte.

Outputs: a report command (any but synth and fit-t2) writes the entries
``_OUTPUTS`` lists for it.  ``main`` refuses an existing ``--out`` that holds
anything else, runs the command in the sibling ``.NAME.partial`` directory
and swaps that in whole (``_swap_in``): a rerun replaces ``--out``, and an
interrupted one leaves it as it was.  The two cohort writers, synth and
fit-t2, stream into ``--out`` through ``store.save_cohort``, which deletes
the manifest first: their images run to GBs at full scale, and fit-t2 may
write into the cohort it reads.

Exit codes: 0 success, 2 contract violation (including a missing, truncated
or corrupt input file), undefined metric, non-finite numerics or an array
too large to allocate, 64 usage.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import baselines, evaluation
from .cohort import (VARIABLE_SETS, SynthConfig, assemble_dataset, clinical_dim, make_split, progressor_flags,
                     synth_subject)
from .errors import ContractViolation, NonFiniteValue, UndefinedMetric
from .imaging import PROTOCOLS, build_pipeline
from .interpret import rur_report
from .models import ARCH_KINDS, ArchSpec, apply_checkpoint, build_model, load_checkpoint, save_checkpoint
from .provider import CohortProvider, naming_image, source_volume
from .relaxometry import fit_t2_volume
from .store import (INT, NUMBER, NUMBERS, OBJECT, TEXT, TEXT_OR_NULL, canonical_json, json_fields, list_of,
                    load_cohort, read_json, save_cohort, write_json)
from .training import Ensemble, TrainConfig, train_cv
from .training import predict_scores  # noqa: F401  not called here; bench/probes.py wraps cli.predict_scores
from .vol1 import read_vol1  # noqa: F401  not called here; bench/probes.py wraps cli.read_vol1
from .vol1 import partial_path, write_vol1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _args_dict(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def _report(out_path: Path, args: argparse.Namespace, body: dict):
    cfg = _args_dict(args)
    payload = {"command": args.command, "config": cfg, "config_hash": _config_hash(cfg)}
    payload.update(body)
    write_json(out_path, payload)


def _dataset(manifest: str, horizon: int):
    return assemble_dataset(load_cohort(manifest), horizon)


def _split(dataset, args):
    """The run's split; refused before any work when the held-out site, or the training or
    validation set of a CV fold, lacks subjects or a class."""
    split = make_split(dataset, holdout_site=args.holdout_site, k=args.folds, seed=args.seed)
    parts = [(f"held-out site {args.holdout_site!r}", split.test_ids)]
    for k, (train_ids, val_ids) in enumerate(split.folds):
        parts += [(f"fold {k} training set", train_ids), (f"fold {k} validation set", val_ids)]
    for what, ids in parts:
        if not ids:
            raise ContractViolation(f"{what} has no subjects")
        n_pos = int(dataset.label_array(ids).sum())
        if n_pos in (0, len(ids)):
            raise ContractViolation(f"{what} has no {'controls' if n_pos else 'progressors'}")
    return split


def _arch_spec(args) -> ArchSpec:
    protocols = tuple(p for p in (args.protocols or "").split(",") if p)
    clin = clinical_dim(args.clinical_set) if getattr(args, "clinical_set", None) else 0
    return ArchSpec(
        kind=args.arch,
        mri_protocols=protocols,
        clinical_dim=clin,
        descriptor_dim=args.descriptor_dim,
        trf_layers=args.trf_layers,
        trf_heads=args.trf_heads,
        dropout_rate=args.dropout_rate,
    )


def _provider_for(spec: ArchSpec, dataset, args) -> CohortProvider:
    return CohortProvider(
        dataset,
        spec.token_modalities(),
        scale=args.scale,
        clinical_variable_set=getattr(args, "clinical_set", None) if spec.clinical_dim else None,
    )


# ---------------------------------------------------------------------------
# output contract
# ---------------------------------------------------------------------------

# The entries each report command writes at the top of its --out, and all that an
# existing --out may hold.  main swaps a report command's --out in whole; the two
# cohort writers, synth and fit-t2, are not here (see the module docstring).  The
# preprocess patterns name the mode so that a cohort's images/ dir is never owned.
_OUTPUTS = {
    "preprocess": ("preprocess_report.json", "*_eval.vol1", "*_train.vol1"),
    # config.json is owned but not written: older run dirs hold one, and a rerun must replace them
    "train": ("config.json", "summary.json", "fold_*"),
    "eval": ("scores.json", "metrics.json"),
    "baseline": ("scores.json", "baseline_report.json"),
    "ablate": ("ablate_report.json",),
    "rank": ("rank_report.json",),
    "subgroups": ("subgroups_report.json",),
}


def _check_out(args) -> Path:
    """The absolute ``--out`` of a report command, checked before any work.

    Refused: an existing ``--out`` holding an entry that ``_OUTPUTS`` does not list for
    the command (the swap would delete it), and an ``--out`` holding the working
    directory (the swap would move it away).
    """
    out = Path(os.path.abspath(args.out))
    owned = _OUTPUTS[args.command]
    if out.exists() and not (out.is_dir() and all(any(p.match(g) for g in owned) for p in out.iterdir())):
        raise ContractViolation(f"--out {args.out} exists and is not an output of {args.command}; pick a fresh --out")
    if out.resolve() in (Path.cwd(), *Path.cwd().parents):
        raise ContractViolation(f"--out {args.out} holds the working directory; run {args.command} from outside it")
    return out


def _swap_in(out: Path, build):
    """Build the output dir with ``build(dir)`` in the sibling ``partial_path(out)``, then swap
    it in: ``out`` moves aside, the new dir takes its name, the old one is deleted.  Returns
    what ``build`` returns.  A failure leaves ``out`` as it was."""
    partial, old = partial_path(out), out.with_name(f".{out.name}.old")
    for leftover in (partial, old):
        shutil.rmtree(leftover, ignore_errors=True)
    try:
        result = build(partial)
        if out.exists():
            os.replace(out, old)
        os.replace(partial, out)
    finally:
        if old.exists() and not out.exists():  # the swap stopped half way: put the old output back
            os.replace(old, out)
        shutil.rmtree(partial, ignore_errors=True)
    shutil.rmtree(old, ignore_errors=True)
    return result


# ---------------------------------------------------------------------------
# command handlers: each writes into ``out`` and returns its one-line summary
# ---------------------------------------------------------------------------


def _cmd_synth(args, out: Path) -> str:
    cfg = SynthConfig(
        n_subjects=args.n,
        prevalence=args.prevalence,
        scale=args.scale,
        seed=args.seed,
        horizon=args.horizon,
        effect_size=args.effect_size,
    )
    flags = progressor_flags(cfg)
    manifest = save_cohort(
        (synth_subject(cfg, i, bool(flags[i])) for i in range(cfg.n_subjects)), out
    )
    _report(out / "synth_report.json", args, {"manifest": manifest.name, "n_progressors": int(flags.sum())})
    return f"synth: wrote {cfg.n_subjects} subjects ({int(flags.sum())} progressors)"


def _cmd_fit_t2(args, out: Path) -> str:
    stats = {}

    def with_t2_map(records):
        for record in records:
            stack = source_volume(record, "MULTI_ECHO")
            pmap = fit_t2_volume(stack)
            t2_path = out / "images" / f"{record.subject_id}_T2MAP.vol1"
            write_vol1(t2_path, pmap.t2, spacing=stack.spacing)
            stats[record.subject_id] = {
                "valid_fraction": float(pmap.valid_mask.mean()),
                "mean_t2_valid": float(pmap.t2[pmap.valid_mask].mean()) if pmap.valid_mask.any() else 0.0,
            }
            record.image_refs["T2MAP"] = {"path": str(t2_path)}
            yield record

    save_cohort(with_t2_map(load_cohort(args.cohort)), out)
    _report(out / "fit_report.json", args, {"subjects": stats})
    return f"fit-t2: wrote T2 maps for {len(stats)} subjects"


def _cmd_preprocess(args, out: Path) -> str:
    records = {r.subject_id: r for r in load_cohort(args.cohort)}
    if args.subject not in records:
        raise ContractViolation(f"unknown subject {args.subject!r}")
    record = records[args.subject]
    source = source_volume(record, args.protocol)  # its errors already name the file
    pipe = build_pipeline(args.protocol, args.mode, args.scale)
    with naming_image(record, args.protocol):
        result = pipe(source, np.random.default_rng(args.seed))
    name = f"{args.subject}_{args.protocol}_{args.mode}.vol1"
    write_vol1(out / name, result.data, spacing=result.spacing)
    _report(
        out / "preprocess_report.json",
        args,
        {
            "stages": pipe.stage_names(),
            "output": name,
            "shape": list(result.data.shape),
            "spacing": [float(s) for s in result.spacing],
        },
    )
    return f"preprocess: {args.protocol}/{args.mode} {name}"


def _load_run(run_dir: Path, cohort: str):
    """Rebuild a ``train`` run directory as (run args, dataset, split, provider, ensemble).

    The run args are summary.json's ``config``; the fold dirs must be fold_0 .. fold_{k-1}.
    """
    cfg_path = run_dir / "summary.json"
    if not cfg_path.exists():
        raise ContractViolation(f"{run_dir} is not a training run directory")
    (cfg,) = json_fields(read_json(cfg_path), cfg_path, config=OBJECT)
    json_fields(cfg, f"{cfg_path} config", **_RUN_FIELDS)
    if cfg["seed"] < 0:  # the split's generator takes no negative seed
        raise ContractViolation(f"{cfg_path} config: 'seed' must be non-negative, got {cfg['seed']}")
    run_args = argparse.Namespace(**cfg)
    found = {p.name for p in run_dir.glob("fold_*")}
    if run_args.folds > len(found) + 100:  # a corrupt count may run to billions: list no names
        raise ContractViolation(f"{run_dir} holds {len(found)} fold dirs, not the {run_args.folds} folds"
                                " in its summary.json; retrain into a fresh --out")
    names = [f"fold_{i}" for i in range(run_args.folds)]
    missing, extra = sorted(set(names) - found), sorted(found - set(names))
    if missing or extra:
        raise ContractViolation(
            f"{run_dir} does not match the {run_args.folds} folds in its summary.json"
            f" (missing: {', '.join(missing) or '-'}; extra: {', '.join(extra) or '-'});"
            " delete the stale fold dir or retrain into a fresh --out"
        )
    spec = _arch_spec(run_args)
    dataset = _dataset(cohort, run_args.horizon)
    split = _split(dataset, run_args)
    provider = _provider_for(spec, dataset, run_args)
    members = []
    for name, (train_ids, _) in zip(names, split.folds):
        model = build_model(spec, seed=0)
        apply_checkpoint(model, load_checkpoint(run_dir / name / "checkpoint.bin"))
        members.append((model, provider.clinical_stats(train_ids)))
    return run_args, dataset, split, provider, Ensemble(members)


def _bootstrap_metrics(scores, labels, n_boot: int, seed: int) -> dict:
    """Each metric's point value and stratified bootstrap summary, all from one set of resamples."""
    boot = evaluation.stratified_bootstrap(evaluation.METRICS, scores, labels, n_boot=n_boot, seed=seed)
    return {name: {"point": est.point, "boot_mean": est.boot_mean, "boot_se": est.boot_se, "n_boot": boot.n_boot}
            for name, est in boot.estimates.items()}


def _write_scores(out: Path, horizon: int, ids, labels, scores):
    """scores.json, the held-out scores ``subgroups`` reads."""
    write_json(out / "scores.json", {"horizon": horizon, "ids": list(ids), "labels": [int(v) for v in labels],
                                     "scores": [float(s) for s in scores]})


_TEXTS = list_of(TEXT, "strings")
# rank --table "values": setting -> metric -> one number per horizon
_METRIC_TABLE = ("an object of objects of number lists", lambda v: type(v) is dict and all(
    type(row) is dict and all(NUMBERS[1](cell) for cell in row.values()) for row in v.values()))
# what _load_run reads back from a run's summary.json config, as train wrote it
_RUN_FIELDS = dict(arch=TEXT, protocols=TEXT, clinical_set=TEXT_OR_NULL, scale=NUMBER,
                   descriptor_dim=INT, trf_layers=INT, trf_heads=INT, dropout_rate=NUMBER,
                   horizon=INT, folds=INT, holdout_site=TEXT, seed=INT)


def _cmd_train(args, run: Path) -> str:
    """fold_<i>/checkpoint.bin and history.json for each fold, then summary.json (the run config)."""
    if args.epochs < 1:  # TrainConfig allows 0 (untrained models); a CLI run must train
        raise ContractViolation("--epochs must be at least 1")
    dataset = _dataset(args.cohort, args.horizon)
    split = _split(dataset, args)
    spec = _arch_spec(args)
    provider = _provider_for(spec, dataset, args)
    config = TrainConfig(epochs_budget=args.epochs, seed=args.seed, batch_size=args.batch_size)
    result = train_cv(provider, split, spec, config)
    summary = []
    for i, (fold, model) in enumerate(zip(result.folds, result.fold_models())):
        save_checkpoint(model, run / f"fold_{i}" / "checkpoint.bin")
        write_json(run / f"fold_{i}" / "history.json", fold.history)
        summary.append({"fold": i, "best_epoch": fold.best_epoch, "best_val_ap": fold.best_val_ap})
    _report(run / "summary.json", args, {"folds": summary})
    mean_ap = float(np.mean([f.best_val_ap for f in result.folds]))
    return f"train: {len(result.folds)} folds, mean best val AP {mean_ap:.3f}"


def _check_bootstrap(n_boot: int):
    """Checked before any work: stratified_bootstrap's floor, and a float64 array numpy can size."""
    if not 2 <= n_boot <= np.iinfo(np.intp).max // 8:  # beyond it numpy raises ValueError, not MemoryError
        raise ContractViolation(f"--bootstrap must lie in [2, {np.iinfo(np.intp).max // 8}], got {n_boot}")


def _cmd_eval(args, out: Path) -> str:
    _check_bootstrap(args.bootstrap)
    if not (0.0 < args.target_prevalence < 1.0):  # calibrated_ap's range, likewise
        raise ContractViolation("--target-prevalence must lie in (0, 1)")
    run_args, dataset, split, provider, ensemble = _load_run(Path(args.run), args.cohort)
    ids = split.test_ids
    scores = ensemble.scores(provider, ids)
    labels = dataset.label_array(ids)
    metrics = _bootstrap_metrics(scores, labels, args.bootstrap, args.seed)
    cal = evaluation.calibrated_ap(scores, labels, args.target_prevalence)
    metrics["calibrated_ap"] = {"point": float(cal), "target_prevalence": args.target_prevalence}
    _write_scores(out, run_args.horizon, ids, labels, scores)
    _report(out / "metrics.json", args, {"metrics": metrics, "n_test": len(ids)})
    return "eval: AUC {:.3f}, AP {:.3f} on {} held-out subjects".format(
        metrics["roc_auc"]["point"], metrics["average_precision"]["point"], len(ids))


def _cmd_baseline(args, out: Path) -> str:
    _check_bootstrap(args.bootstrap)
    dataset = _dataset(args.cohort, args.horizon)
    split = _split(dataset, args)
    ids = split.test_ids
    model = baselines.lr_fit_cv(dataset, split, args.variable_set)
    scores = baselines.lr_predict(model, dataset, ids)
    labels = dataset.label_array(ids)
    metrics = _bootstrap_metrics(scores, labels, args.bootstrap, args.seed)
    _write_scores(out, args.horizon, ids, labels, scores)
    _report(out / "baseline_report.json", args,
            {"metrics": metrics, "weighting": model.weighting, "weighting_val_ap": model.weighting_val_ap,
             "n_test": len(ids)})
    return "baseline {}: AUC {:.3f} (weighting={})".format(
        args.variable_set, metrics["roc_auc"]["point"], model.weighting)


def _cmd_ablate(args, out: Path) -> str:
    _, dataset, split, provider, ensemble = _load_run(Path(args.run), args.cohort)
    ids = split.test_ids
    # every member is masked and scored with development-set clinical stats
    dev_ids = sorted(set(dataset.ids) - set(ids))
    stats = provider.clinical_stats(dev_ids)
    batch, targets = provider.batch(ids, mode="eval", clinical_stats=stats)
    batch.means = provider.modality_means(dev_ids, clinical_stats=stats)
    report = rur_report(ensemble.models, batch, targets, ensemble.models[0].spec.input_modalities())
    _report(
        out / "ablate_report.json",
        args,
        {
            "modalities": list(report.modalities),
            "mean_rur": [float(v) for v in report.mean],
            "per_subject_rur": [[float(v) for v in row] for row in report.per_subject],
            "ids": list(ids),
        },
    )
    pairs = ", ".join(f"{m}={v:.3f}" for m, v in zip(report.modalities, report.mean))
    return f"ablate: mean RUR {pairs}"


def _cmd_rank(args, out: Path) -> str:
    if args.table:
        settings, metrics, horizons, values = json_fields(
            read_json(args.table), args.table,
            settings=_TEXTS, metrics=_TEXTS, horizons=NUMBERS, values=_METRIC_TABLE,
        )
        table = evaluation.RankingTable(tuple(settings), tuple(metrics), tuple(horizons), values)
    else:
        table = evaluation.reference_ranking_table()
    result = evaluation.rank_settings(table)
    _report(
        out / "rank_report.json",
        args,
        {
            "winner": result.winner,
            "tied": result.tied,
            "totals": {k: float(v) for k, v in sorted(result.totals.items())},
        },
    )
    return f"rank: winner {result.winner} (total rank {result.totals[result.winner]:.1f})"


def _cmd_subgroups(args, out: Path) -> str:
    records = {r.subject_id: r for r in load_cohort(args.cohort)}
    per_horizon, paths = {}, {}
    for item in args.scores:
        h_str, _, path = item.partition(":")
        if not path or not h_str.isdecimal():
            raise ContractViolation("scores entries must look like HORIZON:path")
        h = int(h_str)
        if h in paths:
            raise ContractViolation(f"horizon {h} is given twice: {paths[h]} and {path}")
        paths[h] = path
        ids, scores, labels = json_fields(
            read_json(path), path, ids=_TEXTS, scores=NUMBERS, labels=list_of(INT, "integers")
        )
        unknown = sorted(set(ids) - records.keys())
        if unknown:
            raise ContractViolation(f"{path}: subject {unknown[0]!r} is not in the cohort")
        per_horizon[h] = (ids, scores, labels)
    report = evaluation.subgroup_report(records, per_horizon)
    _report(out / "subgroups_report.json", args, {"subgroups": report})
    n_groups = sum(len(v) for v in report.values())
    return f"subgroups: {n_groups} groups over {len(per_horizon)} horizons"


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _add_split_args(p):
    p.add_argument("--horizon", type=int, default=24)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--holdout-site", default="D")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="koafusion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--prevalence", type=float, default=0.15)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=24)
    p.add_argument("--effect-size", type=float, default=1.0,
                   help="progressors' cartilage T2 shift, in units of 20 ms (default 1.0); "
                        "join a negative value in exponent form with '=', as --effect-size=-1e-3, "
                        "which every Python's argparse reads as a value")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit-t2", help="fit T2 maps for every subject")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_t2)

    p = sub.add_parser("preprocess", help="run one preprocessing chain")
    p.add_argument("--cohort", required=True)
    p.add_argument("--subject", required=True)
    p.add_argument("--protocol", required=True, choices=PROTOCOLS)
    p.add_argument("--mode", default="eval", choices=["train", "eval"])
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("train", help="cross-validated model training")
    p.add_argument("--cohort", required=True)
    p.add_argument("--arch", required=True, choices=list(ARCH_KINDS))
    p.add_argument("--protocols", default="")
    p.add_argument("--clinical-set", default=None, choices=list(VARIABLE_SETS))
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--descriptor-dim", type=int, default=64)
    p.add_argument("--trf-layers", type=int, default=4)
    p.add_argument("--trf-heads", type=int, default=8)
    p.add_argument("--dropout-rate", type=float, default=0.1)
    _add_split_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a run on the held-out site")
    p.add_argument("--run", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--bootstrap", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-prevalence", type=float, default=0.15)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("baseline", help="clinical logistic-regression baseline")
    p.add_argument("--cohort", required=True)
    p.add_argument("--variable-set", required=True, choices=list(VARIABLE_SETS))
    p.add_argument("--bootstrap", type=int, default=1000)
    _add_split_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("ablate", help="modality ablation report for a run")
    p.add_argument("--run", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("rank", help="aggregate ranks across metrics and horizons")
    p.add_argument("--table", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("subgroups", help="subgroup metrics from saved scores")
    p.add_argument("--cohort", required=True)
    p.add_argument("--scores", action="append", required=True, metavar="HORIZON:PATH")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_subgroups)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's generators take no negative seed
            raise ContractViolation(f"--seed must be non-negative, got {args.seed}")
        if args.command in _OUTPUTS:
            summary = _swap_in(_check_out(args), lambda partial: args.func(args, partial))
        else:  # a cohort writer streams into --out
            summary = args.func(args, Path(args.out))
    except (ContractViolation, UndefinedMetric, NonFiniteValue) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a count (--n, --bootstrap) too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    print(f"{summary} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
