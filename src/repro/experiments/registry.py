"""The experiment registry: the only place a name is bound to an implementation.

``_GENERATORS`` maps each dataset name to its synthetic generator;
:func:`build_context` turns a name into what every run needs (the filtered
log, its leave-one-out split, the encoder, the negative sampler and the
encoded training instances).  ``EXPERIMENTS`` maps each artefact of the
paper (``table1`` … ``figure4``) to an :class:`ExperimentSpec`; :func:`run`
regenerates one and the spec's ``render`` prints it as committed under
``results/``.  Every run takes one of three scales:

* ``quick`` — tiny datasets and few epochs; used by the pytest benchmarks so
  the whole suite regenerates every table in minutes on a CPU;
* ``small`` — the default synthetic dataset sizes from :mod:`repro.data.synthetic`;
* ``full``  — larger synthetic datasets for higher-fidelity runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import BASELINE_REGISTRY
from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.core.tasks import TaskModel, make_task_model
from repro.core.trainer import Trainer, TrainerConfig, TrainingResult
from repro.data import synthetic
from repro.data.datasets import dataset_statistics
from repro.data.features import EncodedExample, FeatureEncoder
from repro.data.interactions import InteractionLog
from repro.data.preprocess import chronological_sort, filter_by_activity
from repro.data.sampling import NegativeSampler
from repro.data.split import LeaveOneOutSplit, leave_one_out_split, proportion_subset
from repro.eval.protocol import EvaluationProtocol
from repro.experiments import reference
from repro.experiments.reporting import ResultTable, compare_to_paper


@dataclass(frozen=True)
class ScaleSpec:
    """Dataset and training sizes for one experiment scale."""

    users: int
    objects: int
    interactions_per_user: int
    epochs: int
    embed_dim: int
    max_seq_len: int
    ranking_negatives: int
    batch_size: int
    negatives_per_positive: int
    learning_rate: float = 5e-3


SCALES: Dict[str, ScaleSpec] = {
    "quick": ScaleSpec(users=70, objects=90, interactions_per_user=20, epochs=8,
                       embed_dim=16, max_seq_len=10, ranking_negatives=50,
                       batch_size=64, negatives_per_positive=2, learning_rate=8e-3),
    "small": ScaleSpec(users=150, objects=220, interactions_per_user=30, epochs=5,
                       embed_dim=32, max_seq_len=20, ranking_negatives=100,
                       batch_size=128, negatives_per_positive=2),
    "full": ScaleSpec(users=400, objects=600, interactions_per_user=40, epochs=8,
                      embed_dim=64, max_seq_len=20, ranking_negatives=200,
                      batch_size=256, negatives_per_positive=2),
}

# Which synthetic generator and activity threshold backs each dataset name.
_GENERATORS = {
    "gowalla": (synthetic.generate_poi_checkins, {"sequential_strength": 0.8}, "ranking", 11),
    "foursquare": (synthetic.generate_poi_checkins, {"sequential_strength": 0.75}, "ranking", 13),
    "trivago": (synthetic.generate_ctr_log, {"sequential_strength": 0.8}, "classification", 17),
    "taobao": (synthetic.generate_ctr_log, {"sequential_strength": 0.85}, "classification", 19),
    "beauty": (synthetic.generate_rating_log, {"sequential_strength": 0.8}, "regression", 23),
    "toys": (synthetic.generate_rating_log, {"sequential_strength": 0.75}, "regression", 29),
}


def dataset_names() -> List[str]:
    """Names accepted by :func:`build_context` (and the CLI's ``--dataset``)."""
    return sorted(_GENERATORS)


@dataclass
class ExperimentContext:
    """Everything a runner needs for one dataset at one scale."""

    dataset: str
    task: str
    scale: ScaleSpec
    log: InteractionLog
    split: LeaveOneOutSplit
    encoder: FeatureEncoder
    sampler: NegativeSampler
    train_examples: List[EncodedExample] = field(default_factory=list)

    def encode_examples(self, log: InteractionLog) -> List[EncodedExample]:
        """Training instances of ``log``; regression labels carry the ratings."""
        return self.encoder.encode_training_instances(
            log, use_ratings=self.task == "regression")

    def seqfm_config(self, **overrides) -> SeqFMConfig:
        """A SeqFM configuration sized for this context."""
        params = dict(
            static_vocab_size=self.encoder.static_vocab_size,
            dynamic_vocab_size=self.encoder.dynamic_vocab_size,
            num_static_features=self.encoder.num_static_features,
            max_seq_len=self.encoder.max_seq_len,
            embed_dim=self.scale.embed_dim,
            ffn_layers=1,
            dropout=0.2,
            seed=0,
        )
        params.update(overrides)
        return SeqFMConfig(**params)

    def trainer_config(self, **overrides) -> TrainerConfig:
        params = dict(
            epochs=self.scale.epochs,
            batch_size=self.scale.batch_size,
            learning_rate=self.scale.learning_rate,
            negatives_per_positive=self.scale.negatives_per_positive,
            seed=0,
        )
        params.update(overrides)
        return TrainerConfig(**params)


def build_context(dataset: str, scale: str = "quick",
                  max_seq_len: Optional[int] = None) -> ExperimentContext:
    """Generate, filter, split and encode one dataset at the requested scale."""
    key = dataset.lower()
    if key not in _GENERATORS:
        raise KeyError(f"unknown dataset {dataset!r}; known: {sorted(_GENERATORS)}")
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; known: {sorted(SCALES)}")

    generator, extra, task, seed = _GENERATORS[key]
    spec = SCALES[scale]
    config = synthetic.SyntheticConfig(
        num_users=spec.users,
        num_objects=spec.objects,
        interactions_per_user=spec.interactions_per_user,
        seed=seed,
        sequential_strength=extra["sequential_strength"],
    )
    log = generator(config)
    log.name = f"{key}-like"
    min_activity = 5 if task == "regression" else 8
    log = filter_by_activity(log, min_user_interactions=min_activity, min_object_interactions=3)
    log = chronological_sort(log)

    split = leave_one_out_split(log)
    context = ExperimentContext(
        dataset=key,
        task=task,
        scale=spec,
        log=log,
        split=split,
        encoder=FeatureEncoder(log, max_seq_len=max_seq_len or spec.max_seq_len),
        sampler=NegativeSampler(log, seed=seed),
    )
    context.train_examples = context.encode_examples(split.train)
    return context


# Train and evaluate one model on one context.
def build_model(context: ExperimentContext, model_name: str, seed: int = 0,
                **seqfm_overrides) -> TaskModel:
    """Instantiate SeqFM or a named baseline wrapped with the context's task head."""
    if model_name == "SeqFM":
        scorer = SeqFM(context.seqfm_config(seed=seed, **seqfm_overrides))
    elif model_name in BASELINE_REGISTRY:
        baseline_cls = BASELINE_REGISTRY[model_name]
        kwargs = dict(
            static_vocab_size=context.encoder.static_vocab_size,
            dynamic_vocab_size=context.encoder.dynamic_vocab_size,
            embed_dim=context.scale.embed_dim,
            seed=seed,
        )
        if model_name == "SASRec":
            kwargs["max_seq_len"] = context.encoder.max_seq_len
        scorer = baseline_cls(**kwargs)
    else:
        raise KeyError(f"unknown model {model_name!r}")
    return make_task_model(scorer, context.task)


def train_model(context: ExperimentContext, task_model: TaskModel, trainer_config: TrainerConfig,
                examples: Optional[List[EncodedExample]] = None) -> TrainingResult:
    """Fit a task model on ``examples`` (default: the context's training instances)."""
    sampler = context.sampler if context.task != "regression" else None
    trainer = Trainer(task_model, context.encoder, sampler=sampler, config=trainer_config)
    return trainer.fit(context.train_examples if examples is None else examples)


def evaluate_model(
    context: ExperimentContext,
    task_model: TaskModel,
    max_users: Optional[int] = None,
) -> Dict[str, float]:
    """Run the paper's leave-one-out protocol for the context's task."""
    protocol = EvaluationProtocol(
        context.encoder,
        sampler=context.sampler,
        num_ranking_negatives=context.scale.ranking_negatives,
        seed=7,
    )
    return protocol.evaluate(task_model, context.split, context.task, max_users=max_users)


def train_and_evaluate(
    context: ExperimentContext,
    model_name: str,
    seed: int = 0,
    trainer_config: Optional[TrainerConfig] = None,
    max_users: Optional[int] = None,
    **seqfm_overrides,
) -> Dict[str, float]:
    """Build, train and evaluate a model; returns the metric dictionary.

    ``seed`` seeds both the model and, unless ``trainer_config`` is given,
    the trainer.  The training wall-clock time is added under the key
    ``train_seconds``.
    """
    task_model = build_model(context, model_name, seed=seed, **seqfm_overrides)
    training = train_model(context, task_model, trainer_config or context.trainer_config(seed=seed))
    metrics = evaluate_model(context, task_model, max_users=max_users)
    metrics["train_seconds"] = training.train_seconds
    return metrics


# The paper's artefacts.
@dataclass(frozen=True)
class ExperimentSpec:
    """One table or figure of the paper: what it runs and how it prints.

    ``runner(spec, datasets, scale, seed)`` returns the result;
    :meth:`render` turns it into the report committed under ``results/``.
    ``rows`` are the models, ablation variants, swept hyper-parameters or
    data proportions; ``columns`` the metrics; ``headline`` the columns set
    against the paper (all of them when empty); ``paper`` the reported
    numbers from :mod:`repro.experiments.reference`.
    """

    runner: Callable[..., object]
    renderer: Callable[["ExperimentSpec", object], str]
    title: str
    datasets: Tuple[str, ...]
    rows: Tuple = ()
    columns: Tuple[str, ...] = ()
    headline: Tuple[str, ...] = ()
    paper: Mapping = field(default_factory=dict)
    single_dataset: bool = False

    def render(self, result: object) -> str:
        return self.renderer(self, result)


#: The one metric per task that Table V and Figure 3 report.
HEADLINE_METRIC = {"ranking": "HR@10", "classification": "AUC", "regression": "MAE"}

#: Table V row → SeqFMConfig overrides.  ``Separate FFN`` and ``Last pooling``
#: go beyond the paper's five removals to cover two more design choices.
ABLATION_VARIANTS: Dict[str, Dict[str, object]] = {
    "Default": {},
    "Remove SV": {"use_static_view": False},
    "Remove DV": {"use_dynamic_view": False},
    "Remove CV": {"use_cross_view": False},
    "Remove RC": {"use_residual": False},
    "Remove LN": {"use_layer_norm": False},
    "Separate FFN": {"share_ffn": False},
    "Last pooling": {"pooling": "last"},
}

#: Figure 3 sweep grids at the quick scale (a subset of the paper's grids).
QUICK_GRIDS = {
    "embed_dim": [8, 16, 32],
    "ffn_layers": [1, 2, 3],
    "max_seq_len": [5, 10, 20],
    "dropout": [0.2, 0.5, 0.8],
}


@dataclass
class SensitivitySeries:
    """One curve of Figure 3: a metric as a function of one hyper-parameter."""

    dataset: str
    task: str
    hyperparameter: str
    metric: str
    values: List[object] = field(default_factory=list)
    scores: List[float] = field(default_factory=list)

    def best_value(self) -> object:
        """Hyper-parameter value with the best metric (max for HR/AUC, min for MAE)."""
        chooser = min if self.metric == "MAE" else max
        return self.values[self.scores.index(chooser(self.scores))]


@dataclass
class ScalabilityResult:
    """Figure 4: training time per data proportion plus a linear fit."""

    dataset: str
    proportions: List[float] = field(default_factory=list)
    train_seconds: List[float] = field(default_factory=list)
    num_examples: List[int] = field(default_factory=list)
    linear_r_squared: float = 0.0

    def fit_line(self) -> None:
        """Store R² of the least-squares line through (proportion, seconds)."""
        x = np.asarray(self.proportions, dtype=np.float64)
        y = np.asarray(self.train_seconds, dtype=np.float64)
        flat = len(x) < 2 or np.allclose(y, y[0])
        # For a straight-line fit, R² is the squared correlation coefficient.
        self.linear_r_squared = 1.0 if flat else float(np.corrcoef(x, y)[0, 1] ** 2)


def _run_table1(spec: ExperimentSpec, datasets, scale: str, seed: int) -> ResultTable:
    table = ResultTable(title=spec.title.format(scale=scale), columns=list(spec.columns))
    for dataset in datasets:
        context = build_context(dataset, scale=scale)
        table.add_row(dataset, dataset_statistics(context.log,
                                                  max_seq_len=context.encoder.max_seq_len))
    table.metadata["paper"] = spec.paper
    return table


def _render_table1(spec: ExperimentSpec, table: ResultTable) -> str:
    lines = [str(table), "", "Paper (real datasets):"]
    for name, stats in spec.paper.items():
        lines.append(f"  {name:12s} instances={stats['instances']:>9,} users={stats['users']:>7,} "
                     f"objects={stats['objects']:>7,} features={stats['features']:>8,}")
    return "\n".join(lines)


def _run_model_tables(spec: ExperimentSpec, datasets, scale: str,
                      seed: int) -> Dict[str, ResultTable]:
    """Tables II–IV: every model in ``spec.rows`` on each dataset, one table per dataset."""
    tables: Dict[str, ResultTable] = {}
    for dataset in datasets:
        context = build_context(dataset, scale=scale)
        table = ResultTable(title=spec.title.format(dataset=dataset, scale=scale),
                            columns=list(spec.columns))
        for model_name in spec.rows:
            table.add_row(model_name, train_and_evaluate(context, model_name, seed=seed))
        table.metadata["paper"] = spec.paper.get(dataset, {})
        table.metadata["dataset_statistics"] = context.log.statistics()
        tables[dataset] = table
    return tables


def _render_model_tables(spec: ExperimentSpec, tables: Dict[str, ResultTable]) -> str:
    return "\n\n".join(
        f"{table}\n\n"
        + compare_to_paper(table, spec.paper.get(dataset, {}), columns=spec.headline or None)
        for dataset, table in tables.items()
    )


def _run_table5(spec: ExperimentSpec, datasets, scale: str, seed: int) -> ResultTable:
    """Table V: rows are architectures, columns are datasets."""
    contexts = {dataset: build_context(dataset, scale=scale) for dataset in datasets}
    metric = {dataset: HEADLINE_METRIC[context.task] for dataset, context in contexts.items()}
    table = ResultTable(title=spec.title.format(scale=scale), columns=list(datasets))
    for variant in spec.rows:
        table.add_row(variant, {
            dataset: train_and_evaluate(context, "SeqFM", seed=seed,
                                        **ABLATION_VARIANTS[variant])[metric[dataset]]
            for dataset, context in contexts.items()
        })
    table.metadata["paper"] = spec.paper
    table.metadata["metric_per_dataset"] = metric
    return table


def _render_table5(spec: ExperimentSpec, table: ResultTable) -> str:
    lines = [str(table), "", "Paper reference (HR@10 / AUC / MAE on the same datasets):"]
    for variant, values in spec.paper.items():
        row = "  ".join(f"{dataset}={values[dataset]:.3f}" for dataset in table.columns)
        lines.append(f"  {variant:12s} {row}")
    return "\n".join(lines)


def _run_figure3(spec: ExperimentSpec, datasets, scale: str,
                 seed: int) -> List[SensitivitySeries]:
    """Figure 3: sweep each hyper-parameter in ``spec.rows`` one at a time."""
    grids = QUICK_GRIDS if scale == "quick" else spec.paper
    series_list: List[SensitivitySeries] = []
    for dataset in datasets:
        base_context = build_context(dataset, scale=scale)
        metric = HEADLINE_METRIC[base_context.task]
        for name in spec.rows:
            series = SensitivitySeries(dataset=dataset, task=base_context.task,
                                       hyperparameter=name, metric=metric)
            for value in grids[name]:
                if name == "max_seq_len":
                    # Changing n˙ changes the encoding, so rebuild the context.
                    context = build_context(dataset, scale=scale, max_seq_len=int(value))
                    metrics = train_and_evaluate(context, "SeqFM", seed=seed)
                else:
                    metrics = train_and_evaluate(base_context, "SeqFM", seed=seed, **{name: value})
                series.values.append(value)
                series.scores.append(metrics[metric])
            series_list.append(series)
    return series_list


def _render_figure3(spec: ExperimentSpec, series_list: List[SensitivitySeries]) -> str:
    blocks = []
    for series in series_list:
        name = series.hyperparameter
        lines = [spec.title.format(metric=series.metric, dataset=series.dataset,
                                   hyperparameter=name)]
        lines += [f"  {name}={value}: {score:.4f}"
                  for value, score in zip(series.values, series.scores)]
        lines.append(f"  best {name}: {series.best_value()}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _run_figure4(spec: ExperimentSpec, datasets, scale: str, seed: int) -> ScalabilityResult:
    """Figure 4: SeqFM training time on each proportion in ``spec.rows`` of the data."""
    (dataset,) = datasets
    context = build_context(dataset, scale=scale)
    result = ScalabilityResult(dataset=dataset)
    # Two epochs per point: enough work that wall-clock noise stays small
    # relative to the trend.
    config = context.trainer_config(epochs=2, convergence_tolerance=0.0, seed=seed)
    for proportion in spec.rows:
        examples = context.encode_examples(proportion_subset(context.split.train, proportion))
        if not examples:
            continue
        training = train_model(context, build_model(context, "SeqFM", seed=seed), config, examples)
        result.proportions.append(float(proportion))
        result.train_seconds.append(training.train_seconds)
        result.num_examples.append(len(examples))
    result.fit_line()
    return result


def _render_figure4(spec: ExperimentSpec, result: ScalabilityResult) -> str:
    lines = [spec.title.format(dataset=result.dataset.capitalize()),
             f"  {'proportion':>10s} {'examples':>9s} {'seconds':>9s}   paper (×10³ s)"]
    for proportion, seconds, count in zip(result.proportions, result.train_seconds,
                                          result.num_examples):
        paper = spec.paper.get(proportion, float("nan"))
        lines.append(f"  {proportion:10.1f} {count:9d} {seconds:9.2f}   {paper:.2f}")
    lines.append(f"  linear-fit R^2 = {result.linear_r_squared:.4f}")
    return "\n".join(lines)


_ONE_PER_TASK = ("gowalla", "trivago", "beauty")

EXPERIMENTS: Dict[str, ExperimentSpec] = {
    "table1": ExperimentSpec(
        _run_table1, _render_table1,
        title="Table I — dataset statistics (synthetic, scale={scale})",
        datasets=tuple(_GENERATORS),
        columns=("instances", "users", "objects", "features"),
        paper=reference.TABLE1_DATASETS,
    ),
    "table2": ExperimentSpec(
        _run_model_tables, _render_model_tables,
        title="Table II — ranking on {dataset} (scale={scale})",
        datasets=("gowalla", "foursquare"),
        rows=("FM", "Wide&Deep", "DeepCross", "NFM", "AFM", "SASRec", "TFM", "SeqFM"),
        columns=("HR@5", "HR@10", "HR@20", "NDCG@5", "NDCG@10", "NDCG@20"),
        headline=("HR@10", "NDCG@10"),
        paper=reference.TABLE2_RANKING,
    ),
    "table3": ExperimentSpec(
        _run_model_tables, _render_model_tables,
        title="Table III — CTR classification on {dataset} (scale={scale})",
        datasets=("trivago", "taobao"),
        rows=("FM", "Wide&Deep", "DeepCross", "NFM", "AFM", "DIN", "xDeepFM", "SeqFM"),
        columns=("AUC", "RMSE"),
        paper=reference.TABLE3_CLASSIFICATION,
    ),
    "table4": ExperimentSpec(
        _run_model_tables, _render_model_tables,
        title="Table IV — rating regression on {dataset} (scale={scale})",
        datasets=("beauty", "toys"),
        rows=("FM", "Wide&Deep", "DeepCross", "NFM", "AFM", "RRN", "HOFM", "SeqFM"),
        columns=("MAE", "RRSE"),
        paper=reference.TABLE4_REGRESSION,
    ),
    "table5": ExperimentSpec(
        _run_table5, _render_table5,
        title="Table V — ablation test (scale={scale}); metric: "
              + ", ".join(f"{metric} ({task})" for task, metric in HEADLINE_METRIC.items()),
        datasets=_ONE_PER_TASK,
        rows=tuple(ABLATION_VARIANTS),
        paper=reference.TABLE5_ABLATION,
    ),
    "figure3": ExperimentSpec(
        _run_figure3, _render_figure3,
        title="Figure 3 — {metric} on {dataset} vs. {hyperparameter}",
        datasets=_ONE_PER_TASK,
        rows=("embed_dim", "ffn_layers", "max_seq_len", "dropout"),
        paper=reference.FIGURE3_GRIDS,
    ),
    "figure4": ExperimentSpec(
        _run_figure4, _render_figure4,
        title="Figure 4 — SeqFM training time vs. proportion of {dataset}-like training data",
        datasets=("trivago",),
        rows=(0.2, 0.4, 0.6, 0.8, 1.0),
        paper=reference.FIGURE4_SCALABILITY,
        single_dataset=True,
    ),
}


def experiment_datasets(name: str, datasets: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
    """The datasets ``run(name, datasets=...)`` uses: ``datasets`` or the spec's.

    ``KeyError`` for an unknown artefact, ``ValueError`` for several datasets
    given to one that runs on a single dataset.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; known: {list(EXPERIMENTS)}")
    spec = EXPERIMENTS[name]
    chosen = tuple(datasets) if datasets else spec.datasets
    if spec.single_dataset and len(chosen) != 1:
        raise ValueError(f"{name} runs on one dataset, got {len(chosen)}: {', '.join(chosen)}")
    return chosen


def run(name: str, scale: str = "quick", datasets: Optional[Sequence[str]] = None,
        seed: int = 0, rows: Optional[Sequence] = None) -> object:
    """Regenerate one artefact, optionally on some of its ``rows`` only (e.g. one
    swept hyper-parameter of Figure 3); ``EXPERIMENTS[name].render`` prints it."""
    chosen = experiment_datasets(name, datasets)
    spec = EXPERIMENTS[name]
    if rows is not None:
        spec = replace(spec, rows=tuple(rows))
    return spec.runner(spec, chosen, scale, seed)
