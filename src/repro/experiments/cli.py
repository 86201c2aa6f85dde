"""Command-line interface for the experiment harness and the serving runtime.

Regenerate any table or figure of :data:`repro.experiments.registry.EXPERIMENTS`,
printed as committed under ``results/``::

    python -m repro.experiments.cli table2 --scale quick
    python -m repro.experiments.cli table5 --datasets gowalla beauty
    python -m repro.experiments.cli figure4 --output results/figure4.json
    python -m repro.experiments.cli all --scale small --output-dir results/

``--output`` / ``--output-dir`` also export the results as JSON.

Train a model on any registered dataset and write a checkpoint the serving
runtime loads directly (the train → serve loop)::

    python -m repro.experiments.cli train \
        --dataset gowalla --scale quick --checkpoint ckpt.npz

Serve a trained checkpoint (see :mod:`repro.serving`; the ``serve`` loop
speaks the versioned envelope protocol of :mod:`repro.serving.protocol` —
per-line head/model routing, the stateful ``update`` head, structured
errors — and auto-upgrades bare pre-envelope payloads)::

    python -m repro.experiments.cli predict-batch \
        --checkpoint ckpt.npz --requests requests.json --head classify
    python -m repro.experiments.cli serve --checkpoint ckpt.npz < requests.jsonl

Rank candidate lists through the candidate-deduplicated fast path::

    python -m repro.experiments.cli rank-topk \
        --checkpoint ckpt.npz --requests ranking.json --k 10

Two-stage retrieval (see :mod:`repro.retrieval`): snapshot the catalog into
an item index once, then answer candidate-free requests with the
retrieve → rank pipeline::

    python -m repro.experiments.cli build-index \
        --checkpoint ckpt.npz --item-range 40 90 --output items.npz
    python -m repro.experiments.cli recommend \
        --checkpoint ckpt.npz --index items.npz --requests users.json --k 10

Close the loop (see :mod:`repro.online`): retrain incrementally off the
write-ahead log a durable serve loop produced — warm-start from the active
checkpoint, fit only the new log segment, gate on held-out metrics and
promote a versioned ``model@vN`` checkpoint (or audit the rejection)::

    python -m repro.experiments.cli retrain \
        --dataset gowalla --checkpoint ckpt.npz --wal state/
    python -m repro.experiments.cli retrain \
        --dataset gowalla --checkpoint ckpt.npz --wal state/ --dry-run
    python -m repro.experiments.cli status --wal state/
"""

from __future__ import annotations

import argparse
import json
import sys
import zipfile
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional

from repro.core.serialization import atomic_write_text, load_seqfm, save_seqfm
from repro.experiments.registry import (
    EXPERIMENTS,
    SCALES,
    build_context,
    build_model,
    dataset_names,
    experiment_datasets,
    run,
    train_model,
)
from repro.experiments.reporting import ResultTable, save_result_table

#: Serving subcommands, dispatched before the experiment parser (they take a
#: different option set than the table/figure runners).
SERVING_COMMANDS = ("serve", "predict-batch", "rank-topk", "recommend")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the SeqFM paper (ICDE 2020).",
        epilog="Training/serving subcommands (separate option sets): "
               "'train', 'serve', 'predict-batch', 'rank-topk', 'recommend', "
               "'build-index', 'status' and 'retrain' — run e.g. "
               "'python -m repro.experiments.cli train --help'.",
    )
    parser.add_argument("experiment", choices=tuple(EXPERIMENTS) + ("all",),
                        help="which artefact to regenerate")
    parser.add_argument("--scale", default="quick", choices=tuple(SCALES),
                        help="dataset / training size (default: quick)")
    parser.add_argument("--datasets", nargs="*", default=None, choices=dataset_names(),
                        help="restrict to specific datasets (defaults to the paper's choice)")
    parser.add_argument("--seed", type=int, default=0, help="training seed")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the result of a single experiment as JSON")
    parser.add_argument("--output-dir", type=Path, default=None,
                        help="directory for JSON exports when running 'all'")
    return parser


def _export(result: object, path: Path) -> None:
    """Write ``result`` as JSON; a per-dataset dict of tables gets one file per dataset."""
    if isinstance(result, dict):
        for dataset, table in result.items():
            _export(table, path.with_name(f"{path.stem}_{dataset}{path.suffix or '.json'}"))
        return
    if isinstance(result, ResultTable):
        save_result_table(result, path)
    else:  # Figure 3 (a list of series) or Figure 4
        payload = ([dict(asdict(series), values=[str(v) for v in series.values])
                    for series in result] if isinstance(result, list) else asdict(result))
        atomic_write_text(path, json.dumps(payload, indent=2))
    print(f"wrote {path}")


def run_experiment(name: str, scale: str, datasets: Optional[List[str]], seed: int,
                   output: Optional[Path] = None) -> None:
    """Run one experiment, print its rendered report and optionally export it."""
    result = run(name, scale=scale, datasets=datasets, seed=seed)
    print(EXPERIMENTS[name].render(result))
    if output:
        _export(result, output)


def build_train_parser() -> argparse.ArgumentParser:
    """Parser for the ``train`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments train",
        description="Train SeqFM on a registered dataset and write a serving checkpoint.",
    )
    parser.add_argument("--dataset", required=True, choices=dataset_names(),
                        help="registered dataset (its task head is implied)")
    parser.add_argument("--scale", default="quick", choices=sorted(SCALES),
                        help="dataset / training size (default: quick)")
    parser.add_argument("--checkpoint", type=Path, required=True,
                        help="where to write the trained SeqFM checkpoint (.npz)")
    parser.add_argument("--epochs", type=int, default=None,
                        help="override the scale's epoch budget")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="override the scale's mini-batch size")
    parser.add_argument("--learning-rate", type=float, default=None,
                        help="override the scale's Adam learning rate")
    parser.add_argument("--negatives", type=int, default=None,
                        help="negatives per positive (ranking/classification)")
    parser.add_argument("--seed", type=int, default=0, help="model / training seed")
    return parser


def run_train(argv: List[str]) -> int:
    """Train on a registered dataset, report progress, write the checkpoint."""
    args = build_train_parser().parse_args(argv)
    context = build_context(args.dataset, scale=args.scale)
    print(f"dataset={context.dataset} task={context.task} scale={args.scale} "
          f"examples={len(context.train_examples)}")

    overrides = {"verbose": True, "seed": args.seed}
    for name, value in (("epochs", args.epochs), ("batch_size", args.batch_size),
                        ("learning_rate", args.learning_rate),
                        ("negatives_per_positive", args.negatives)):
        if value is not None:
            overrides[name] = value
    trainer_config = context.trainer_config(**overrides)

    task_model = build_model(context, "SeqFM", seed=args.seed)
    result = train_model(context, task_model, trainer_config)
    print(f"stopped after {result.epochs_run} epochs ({result.stop_reason}); "
          f"final loss {result.final_loss:.5f} in {result.train_seconds:.1f}s")

    # Final held-out metrics — the same protocol (and seeding) the retrain
    # gate scores with, so this block is directly comparable to later
    # 'retrain' gate output.
    from repro.online.gate import EvalGate

    metrics = EvalGate(context.encoder, context.log, context.split,
                       context.task).score(task_model)
    print("== held-out metrics ==")
    print(json.dumps({key: float(value) for key, value in metrics.items()},
                     indent=2, sort_keys=True))

    save_seqfm(task_model.scorer, args.checkpoint)
    print(f"wrote {args.checkpoint}")
    head = {"ranking": "rank", "classification": "classify", "regression": "regress"}[context.task]
    print(f"serve it:  python -m repro.experiments.cli predict-batch "
          f"--checkpoint {args.checkpoint} --requests requests.json --head {head}")
    return 0


#: Subcommands that *are* heads (no ``--head`` option; the command name is
#: the head dispatched through the HeadRegistry).
COMMAND_HEADS = {"rank-topk": "rank-topk", "recommend": "recommend"}


def build_serving_parser(command: str) -> argparse.ArgumentParser:
    """Parser for the ``serve`` / ``predict-batch`` subcommands."""
    parser = argparse.ArgumentParser(
        prog=f"repro-experiments {command}",
        description="Serve a trained SeqFM checkpoint (see repro.serving).",
    )
    parser.add_argument("--checkpoint", type=Path, required=True,
                        help="SeqFM checkpoint written by repro.core.serialization.save_seqfm")
    # rank-topk and recommend *are* heads; no head to choose
    if command not in COMMAND_HEADS:
        head_choices = ("score", "rank", "classify", "regress")
        if command == "serve":
            head_choices += ("rank-topk", "recommend", "update", "status")
        parser.add_argument("--head", default="score", choices=head_choices,
                            help="default head for requests that do not route "
                                 "themselves via a v1 envelope (default: raw "
                                 "scores)" if command == "serve" else
                                 "task endpoint to evaluate (default: raw scores)")
    parser.add_argument("--max-batch-size", type=int, default=256,
                        help="micro-batcher flush threshold (default: 256)")
    parser.add_argument("--cache-capacity", type=int, default=4096,
                        help="user-sequence LRU capacity (default: 4096)")
    parser.add_argument("--cache-ttl", type=float, default=None,
                        help="seconds before a stored user sequence expires "
                             "(default: never; bounds update-head state "
                             "staleness)")
    if command == "serve":
        parser.add_argument("--wal", type=Path, default=None,
                            help="durability directory: write-ahead log every "
                                 "store mutation there, recovering any prior "
                                 "snapshot + WAL on startup (inspect offline "
                                 "with the 'status' subcommand)")
        parser.add_argument("--fsync-every", type=int, default=256,
                            help="WAL appends per fsync batch (default: 256; "
                                 "1 = fsync every record)")
    if command in ("serve", "rank-topk", "recommend"):
        parser.add_argument("--k", type=int, default=None,
                            help="default top-K cut for ranking/recommendation "
                                 "requests without their own 'k'")
    if command in ("serve", "recommend"):
        parser.add_argument("--index", type=Path, default=None,
                            required=(command == "recommend"),
                            help="ItemIndex archive written by build-index "
                                 "(required for the recommend head)")
        parser.add_argument("--index-backend", default="exact", choices=("exact", "ivf"),
                            help="search backend over the item index (default: exact)")
        parser.add_argument("--partitions", type=int, default=None,
                            help="IVF partition count (default: ceil(sqrt(n_items)))")
        parser.add_argument("--n-probe", type=int, default=None,
                            help="IVF partitions probed per query "
                                 "(default: ceil(partitions / 4))")
        parser.add_argument("--n-retrieve", type=int, default=None,
                            help="retrieval fan-out handed to the re-ranker "
                                 "(default: 500)")
    if command in ("predict-batch", "rank-topk", "recommend"):
        parser.add_argument("--requests", type=Path, required=True,
                            help="JSON file holding a list of request objects")
        parser.add_argument("--output", type=Path, default=None,
                            help="write the response payload as JSON (default: stdout)")
    return parser


def _attach_index_from_args(registry, args) -> Optional[str]:
    """Load and attach ``--index`` per the CLI options; returns an error string."""
    if not hasattr(args, "index"):  # command without index options
        return None
    if args.index is None:
        # Index-tuning flags without an index would be silently dead — reject
        # them so the operator never believes IVF tuning is in effect.
        dangling = [option for option, value in
                    (("--index-backend", args.index_backend != "exact"),
                     ("--partitions", args.partitions is not None),
                     ("--n-probe", args.n_probe is not None),
                     ("--n-retrieve", args.n_retrieve is not None))
                    if value]
        if dangling:
            return f"{' / '.join(dangling)} require --index"
        return None
    backend_options = {}
    if args.partitions is not None:
        backend_options["n_partitions"] = args.partitions
    if args.n_probe is not None:
        backend_options["n_probe"] = args.n_probe
    if backend_options and args.index_backend != "ivf":
        used = " / ".join(option for option, value in (("--partitions", args.partitions),
                                                       ("--n-probe", args.n_probe))
                          if value is not None)
        return f"{used} only applies to '--index-backend ivf'"
    try:
        registry.load_index("default", args.index, backend=args.index_backend,
                            n_retrieve=args.n_retrieve, **backend_options)
    except (ValueError, KeyError, OSError, TypeError, zipfile.BadZipFile) as error:
        return f"cannot load index {args.index}: {error}"
    return None


def run_serving(command: str, argv: List[str]) -> int:
    """Execute a serving subcommand; returns a process exit code.

    Every subcommand dispatches through the generic protocol layer
    (:mod:`repro.serving.protocol`): the command (or ``--head``) names a
    registered head, :func:`repro.serving.service.execute_batch` /
    :func:`repro.serving.service.serve_jsonl` do the rest — nothing here is
    head-specific.
    """
    from repro.serving import ModelRegistry, default_heads
    from repro.serving.protocol import cache_stats_payload, cache_summary
    from repro.serving.service import execute_batch, serve_jsonl

    args = build_serving_parser(command).parse_args(argv)
    if not args.checkpoint.exists():
        print(f"error: checkpoint not found: {args.checkpoint}", file=sys.stderr)
        return 2
    registry = ModelRegistry(cache_capacity=args.cache_capacity,
                             cache_ttl=args.cache_ttl)
    try:
        registry.load("default", args.checkpoint)
    except (ValueError, KeyError, OSError, zipfile.BadZipFile) as error:
        print(f"error: cannot load {args.checkpoint}: {error}", file=sys.stderr)
        return 2
    index_error = _attach_index_from_args(registry, args)
    if index_error is not None:
        print(f"error: {index_error}", file=sys.stderr)
        return 2
    durable = None
    if getattr(args, "wal", None) is not None:
        if args.fsync_every < 1:
            print("error: --fsync-every must be positive", file=sys.stderr)
            return 2
        from repro.serving.durability import WALError

        try:
            durable = registry.enable_durability(
                "default", args.wal, fsync_every=args.fsync_every)
        except (WALError, ValueError, OSError) as error:
            print(f"error: cannot recover WAL state in {args.wal}: {error}",
                  file=sys.stderr)
            return 2
        recovery = durable.recovery
        print(f"durability: {args.wal} (snapshot seq {recovery.snapshot_seq}, "
              f"replayed {recovery.replayed} WAL records"
              f"{', healed torn tail' if recovery.torn_tail else ''})",
              file=sys.stderr)
        # A retrain manifest next to the WAL means this model has an online
        # version lineage — attach it so the live 'status' head serves the
        # retrain block (active tag, promoted/rejected counts, cursor).
        from repro.online.promotion import MANIFEST_NAME, ModelLineage

        online_dir = args.wal / "online"
        if (online_dir / MANIFEST_NAME).exists():
            lineage = ModelLineage(online_dir)
            registry.get("default").lineage = lineage
            active = lineage.active
            print(f"lineage: {online_dir} (active "
                  f"{lineage.tag(active.version) if active else 'none'}, "
                  f"{len(lineage)} versions)", file=sys.stderr)
    head = COMMAND_HEADS.get(command, getattr(args, "head", "score"))

    def store_summary() -> str:
        stats = registry.get("default").sequence_store.stats
        return cache_summary(cache_stats_payload(stats))

    if command != "serve":
        try:
            payloads = json.loads(args.requests.read_text())
        except (OSError, ValueError) as error:
            print(f"error: cannot read {args.requests}: {error}", file=sys.stderr)
            return 2
        if not isinstance(payloads, list) or not payloads:
            print(f"error: {args.requests} must contain a non-empty JSON list of requests",
                  file=sys.stderr)
            return 2
        try:
            response = execute_batch(
                registry, "default", payloads, head=head,
                k=getattr(args, "k", None),
                n_retrieve=getattr(args, "n_retrieve", None),
                max_batch_size=args.max_batch_size,
            )
        except (ValueError, KeyError, TypeError, IndexError, RuntimeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        summary = default_heads().get(head).describe(response)
        rendered = json.dumps(response, indent=2)
        if args.output:
            args.output.parent.mkdir(parents=True, exist_ok=True)
            args.output.write_text(rendered + "\n")
            print(f"wrote {args.output} ({summary})")
        else:
            print(rendered)
            print(summary, file=sys.stderr)
        return 0

    try:
        summary = serve_jsonl(registry, "default", sys.stdin, sys.stdout,
                              head=head, max_batch_size=args.max_batch_size,
                              k=args.k, n_retrieve=getattr(args, "n_retrieve", None))
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if durable is not None:
            durable.close()
            print(f"durability: checkpointed to seq {durable.wal_status()['last_seq']} "
                  f"in {args.wal}", file=sys.stderr)
    codes = ""
    if summary.error_codes:
        breakdown = ", ".join(f"{code}={count}" for code, count
                              in sorted(summary.error_codes.items()))
        codes = f": {breakdown}"
    print(f"served {summary.rows} rows over {summary.served} lines "
          f"({summary.errors} errors{codes}, {store_summary()})",
          file=sys.stderr)
    return 0


def build_index_parser() -> argparse.ArgumentParser:
    """Parser for the ``build-index`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments build-index",
        description="Snapshot a checkpoint's item catalog into a searchable "
                    "ItemIndex archive (see repro.retrieval).",
    )
    parser.add_argument("--checkpoint", type=Path, required=True,
                        help="SeqFM checkpoint written by repro.core.serialization.save_seqfm")
    parser.add_argument("--output", type=Path, required=True,
                        help="where to write the ItemIndex archive (.npz)")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--item-range", type=int, nargs=2, metavar=("START", "STOP"),
                       help="half-open static-vocabulary range of catalog items "
                            "(the FeatureEncoder layout puts objects at "
                            "[num_users, num_users + num_objects))")
    group.add_argument("--items-file", type=Path,
                       help="JSON file holding a list of static-vocabulary item indices")
    parser.add_argument("--probes", type=int, default=None,
                        help="probe items for the query encoder "
                             "(default: min(n_items, max(32, 4*d)))")
    parser.add_argument("--partitions", type=int, default=None,
                        help="k-means partition count for IVF search and "
                             "query calibration (default: ceil(sqrt(n_items)))")
    parser.add_argument("--seed", type=int, default=0,
                        help="probe-sampling / k-means seed (default: 0)")
    return parser


def run_build_index(argv: List[str]) -> int:
    """Build and save an item index from a checkpoint; returns an exit code."""
    from repro.retrieval import ItemIndex

    args = build_index_parser().parse_args(argv)
    if not args.checkpoint.exists():
        print(f"error: checkpoint not found: {args.checkpoint}", file=sys.stderr)
        return 2
    try:
        model = load_seqfm(args.checkpoint)
    except (ValueError, KeyError, OSError, zipfile.BadZipFile) as error:
        print(f"error: cannot load {args.checkpoint}: {error}", file=sys.stderr)
        return 2
    if args.item_range is not None:
        start, stop = args.item_range
        item_ids = range(start, stop)
    else:
        try:
            item_ids = json.loads(args.items_file.read_text())
        except (OSError, ValueError) as error:
            print(f"error: cannot read {args.items_file}: {error}", file=sys.stderr)
            return 2
        if not isinstance(item_ids, list) or not item_ids:
            print(f"error: {args.items_file} must contain a non-empty JSON list "
                  "of item indices", file=sys.stderr)
            return 2
    try:
        index = ItemIndex.from_model(model, item_ids,
                                     num_probes=args.probes, seed=args.seed,
                                     n_partitions=args.partitions)
    except (ValueError, IndexError, TypeError) as error:
        print(f"error: cannot build index: {error}", file=sys.stderr)
        return 2
    index.save(args.output)
    print(f"wrote {args.output} ({index.num_items} items, d={index.dim}, "
          f"{index.probe_positions.shape[0]} probes, "
          f"{index.n_partitions} partitions)")
    print(f"recommend with it:  python -m repro.experiments.cli recommend "
          f"--checkpoint {args.checkpoint} --index {args.output} "
          f"--requests users.json --k 10")
    return 0


def build_status_parser() -> argparse.ArgumentParser:
    """Parser for the ``status`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments status",
        description="Inspect a durability directory (snapshot + write-ahead "
                    "log) offline, without loading any model.  For the live "
                    "view, send a 'status'-head envelope to a running serve "
                    "loop instead.",
    )
    parser.add_argument("--wal", type=Path, required=True,
                        help="durability directory written by 'serve --wal'")
    parser.add_argument("--online", type=Path, default=None,
                        help="online-state directory (cursor + version "
                             "manifest) to include in the report "
                             "(default: <wal>/online when it exists)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the report as JSON (default: stdout)")
    return parser


def run_status(argv: List[str]) -> int:
    """Report on-disk durability state as JSON; returns an exit code."""
    from repro.serving.durability import WALError, inspect_durability

    args = build_status_parser().parse_args(argv)
    if not args.wal.is_dir():
        print(f"error: durability directory not found: {args.wal}", file=sys.stderr)
        return 2
    try:
        report = inspect_durability(args.wal)
    except WALError as error:
        print(f"error: cannot recover WAL state in {args.wal}: {error}",
              file=sys.stderr)
        return 2
    except (ValueError, OSError) as error:
        print(f"error: cannot inspect {args.wal}: {error}", file=sys.stderr)
        return 2
    online_dir = args.online if args.online is not None else args.wal / "online"
    if online_dir.is_dir():
        from repro.online import inspect_online

        try:
            report["online"] = inspect_online(online_dir)
        except (ValueError, OSError) as error:
            print(f"error: cannot inspect {online_dir}: {error}", file=sys.stderr)
            return 2
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(rendered + "\n")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return 0


def build_retrain_parser() -> argparse.ArgumentParser:
    """Parser for the ``retrain`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments retrain",
        description="Incrementally retrain a served checkpoint off its "
                    "write-ahead log: tail new 'record' events from the "
                    "persisted cursor, warm-start from the active checkpoint, "
                    "gate on held-out metrics and promote a versioned "
                    "model@vN checkpoint (see repro.online).",
    )
    parser.add_argument("--dataset", required=True, choices=dataset_names(),
                        help="registered dataset the model was trained on "
                             "(rebuilds the same encoder/split/gate slice)")
    parser.add_argument("--scale", default="quick", choices=sorted(SCALES),
                        help="dataset scale used at training time (default: quick)")
    parser.add_argument("--checkpoint", type=Path, required=True,
                        help="seed SeqFM checkpoint from 'train'; once a "
                             "version has been promoted, the lineage's active "
                             "model@vN checkpoint is warm-started instead")
    parser.add_argument("--wal", type=Path, required=True,
                        help="durability directory written by 'serve --wal' "
                             "(its wal.jsonl is the interaction log)")
    parser.add_argument("--online", type=Path, default=None,
                        help="online-state directory for the cursor, the "
                             "version manifest and model@vN checkpoints "
                             "(default: <wal>/online)")
    parser.add_argument("--index", type=Path, default=None,
                        help="ItemIndex archive from 'build-index'; attached "
                             "before retraining and re-written from the new "
                             "weights after a promotion")
    parser.add_argument("--dry-run", action="store_true",
                        help="run the full tail/train/gate cycle and print the "
                             "verdict, but mutate nothing (no checkpoint, no "
                             "registry swap, no cursor advance, no manifest)")
    parser.add_argument("--gate-tolerance", type=float, default=0.02,
                        help="largest held-out regression a gated metric may "
                             "show and still promote (default: 0.02; negative "
                             "demands improvement)")
    parser.add_argument("--since-cursor", type=int, default=None, metavar="SEQ",
                        help="re-read the log from this WAL sequence instead "
                             "of the persisted cursor (the cursor still only "
                             "moves forward)")
    parser.add_argument("--epochs", type=int, default=2,
                        help="incremental epochs over the tail (default: 2)")
    parser.add_argument("--batch-size", type=int, default=64,
                        help="incremental mini-batch size (default: 64)")
    parser.add_argument("--learning-rate", type=float, default=5e-3,
                        help="incremental Adam learning rate (default: 5e-3)")
    parser.add_argument("--negatives", type=int, default=2,
                        help="negatives per logged positive (default: 2)")
    parser.add_argument("--max-examples", type=int, default=None,
                        help="cap the tail to its newest N examples "
                             "(bounds a retrain after a traffic spike; the "
                             "cap is reported in the retrain report)")
    parser.add_argument("--seed", type=int, default=0,
                        help="incremental training seed (default: 0)")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the retrain report as JSON")
    return parser


def run_retrain(argv: List[str]) -> int:
    """Run one eval-gated incremental retrain cycle; returns an exit code."""
    from repro.online import (
        GateConfig,
        IncrementalTrainerConfig,
        ModelLineage,
        retrain_once,
    )
    from repro.serving import ModelRegistry
    from repro.serving.durability import WAL_NAME, WALError

    args = build_retrain_parser().parse_args(argv)
    if not args.checkpoint.exists():
        print(f"error: checkpoint not found: {args.checkpoint}", file=sys.stderr)
        return 2
    if not args.wal.is_dir():
        print(f"error: durability directory not found: {args.wal}", file=sys.stderr)
        return 2
    online_dir = args.online if args.online is not None else args.wal / "online"

    context = build_context(args.dataset, scale=args.scale)
    if context.task == "regression":
        print("error: no online training path for regression datasets (the "
              "interaction log carries click events)", file=sys.stderr)
        return 2

    # Warm-start preference: the lineage's active promoted checkpoint, the
    # seed checkpoint otherwise — so successive retrains stack instead of
    # repeatedly fine-tuning the original weights.
    lineage = ModelLineage(online_dir, name="default")
    warm_start = args.checkpoint
    active = lineage.active
    if active is not None and active.checkpoint is not None:
        candidate_path = lineage.directory / active.checkpoint
        if candidate_path.exists():
            warm_start = candidate_path
            print(f"warm-starting from promoted {lineage.tag(active.version)} "
                  f"({candidate_path})", file=sys.stderr)

    registry = ModelRegistry()
    try:
        registry.load("default", warm_start)
    except (ValueError, KeyError, OSError, zipfile.BadZipFile) as error:
        print(f"error: cannot load {warm_start}: {error}", file=sys.stderr)
        return 2
    if args.index is not None:
        try:
            registry.load_index("default", args.index)
        except (ValueError, KeyError, OSError, TypeError,
                zipfile.BadZipFile) as error:
            print(f"error: cannot load index {args.index}: {error}",
                  file=sys.stderr)
            return 2

    try:
        report = retrain_once(
            registry, "default",
            wal_path=args.wal / WAL_NAME,
            online_dir=online_dir,
            encoder=context.encoder,
            log=context.log,
            split=context.split,
            task=context.task,
            gate_config=GateConfig(tolerance=args.gate_tolerance),
            trainer_config=IncrementalTrainerConfig(
                epochs=args.epochs,
                batch_size=args.batch_size,
                learning_rate=args.learning_rate,
                negatives_per_positive=args.negatives,
                max_examples=args.max_examples,
                seed=args.seed,
            ),
            dry_run=args.dry_run,
            since_seq=args.since_cursor,
        )
    except WALError as error:
        print(f"error: cannot recover WAL state in {args.wal}: {error}",
              file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as error:
        print(f"error: retrain failed: {error}", file=sys.stderr)
        return 2

    if report.status == "promoted" and args.index is not None:
        # The promotion rebuilt the in-memory index from the new weights;
        # persist it so the next serve loop retrieves against them too.
        registry.save_index("default", args.index)
        print(f"rewrote {args.index} from {report.tag}", file=sys.stderr)

    rendered = json.dumps(report.as_dict(), indent=2, sort_keys=True)
    print("== retrain report ==")
    print(rendered)
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(rendered + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    print(f"retrain: {report.status} (events={report.events}, "
          f"examples={report.examples}, seq {report.start_seq} -> "
          f"{report.end_seq})", file=sys.stderr)
    # A rejected candidate is a refused promotion, not a crash: exit 2 so
    # operators and CI can branch on it; dry runs and no-ops are clean exits.
    return 2 if report.status == "rejected" else 0


#: Training, offline index build, offline durability inspection (snapshot +
#: WAL on disk) and one eval-gated online retrain cycle; like the serving
#: subcommands, each is dispatched before the experiment parser.
SUBCOMMANDS = {"train": run_train, "build-index": run_build_index,
               "status": run_status, "retrain": run_retrain}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    if argv and argv[0] in SERVING_COMMANDS:
        return run_serving(argv[0], argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    every = args.experiment == "all"
    names = tuple(EXPERIMENTS) if every else (args.experiment,)
    try:  # checked before anything runs, so 'all' cannot fail late
        for name in names:
            experiment_datasets(name, args.datasets)
    except ValueError as error:
        parser.error(str(error))
    for name in names:
        output = args.output
        if every:
            print(f"\n===== {name} =====")
            output = args.output_dir / f"{name}.json" if args.output_dir else None
        run_experiment(name, args.scale, args.datasets, args.seed, output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
