"""Mini-batch multi-task training with validation-based early stopping and ablations."""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import numerics as nm
from .corpus import DatasetSplit, Vocabulary, assign_emotion_tags, encode_example
from .generator import batch_generate, record_queries
from .lexicon import Lexicon
from .metrics import EvaluationPair, EvaluationReport, build_report, report_to_dict
from .model import (
    ModelConfig,
    ModelParams,
    emotion_input_matrix,
    make_batch,
    total_loss,
)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 1.0
    clip: float = 1.0
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if min(self.batch_size, self.max_epochs, self.patience) <= 0:
            raise ValueError("batch_size, max_epochs and patience must be positive")
        for name in ("learning_rate", "clip"):
            if not 0 < getattr(self, name) < np.inf:  # also false for nan
                raise ValueError(f"{name} must be a finite positive number, got {getattr(self, name)}")


@dataclass(frozen=True)
class EpochStats:
    train_lm: float
    train_emo: float
    train_total: float
    valid_lm: float
    valid_emo: float
    valid_total: float
    # Over the epoch's optimizer steps: the mean global gradient norm before
    # clipping, and the share of steps whose norm exceeded the clip threshold.
    grad_norm_mean: float
    clip_rate: float


@dataclass
class TrainHistory:
    initial_train: tuple[float, float, float]
    epochs: list[EpochStats]
    best_epoch: int

    def to_dict(self) -> dict:
        return {
            "initial_train": dict(zip(("lm", "emo", "total"), self.initial_train, strict=True)),
            "best_epoch": self.best_epoch,
            "epochs": [asdict(e) for e in self.epochs],
        }


def _prepare(records, vocab: Vocabulary, lex: Lexicon, config: ModelConfig):
    tagged = assign_emotion_tags(list(records), lex)
    out = []
    for rec in tagged:
        ex = encode_example(rec, vocab, config.max_len)
        out.append((ex, emotion_input_matrix(ex, vocab, lex, config.mask_emotion_tag)))
    return out


def _mean_losses(params: ModelParams, prepared, config: ModelConfig, batch_size: int) -> tuple[float, float, float]:
    lm_sum = emo_sum = 0.0
    with nm.no_grad():
        for start in range(0, len(prepared), batch_size):
            batch, vnrc = make_batch(prepared[start:start + batch_size])
            _, lm, emo = total_loss(batch, params, config, vnrc)
            lm_sum += float(lm.data.sum())
            emo_sum += float(emo.data.sum())
    n = len(prepared)
    lm_mean, emo_mean = lm_sum / n, emo_sum / n
    return lm_mean, emo_mean, config.c1 * lm_mean + config.c2 * emo_mean


def train(
    config: ModelConfig, train_config: TrainConfig, splits: DatasetSplit,
    lex: Lexicon, vocab: Vocabulary,
) -> tuple[ModelParams, TrainHistory]:
    """SGD over shuffled mini-batches; returns the best-validation-epoch weights.

    The loss weights c1/c2 and the fusion intensity come from ``config``.  The
    same seed drives initialization and batch shuffling, so identical configs
    give bit-identical histories.
    """
    if not splits.train or not splits.valid:
        raise ValueError("train and valid splits must be non-empty")
    prepared_train = _prepare(splits.train, vocab, lex, config)
    prepared_valid = _prepare(splits.valid, vocab, lex, config)

    params = ModelParams(config, train_config.seed)
    rng = np.random.default_rng(train_config.seed)
    all_params = params.all()

    history: list[EpochStats] = []
    initial = _mean_losses(params, prepared_train, config, train_config.batch_size)
    best_val = float("inf")
    best_snapshot = None  # taken at the first improving epoch, then overwritten in place
    best_epoch = -1
    stale = 0

    n = len(prepared_train)
    for epoch in range(train_config.max_epochs):
        order = rng.permutation(n)
        lm_sum = emo_sum = 0.0
        norms = []
        for batch_index, start in enumerate(range(0, n, train_config.batch_size)):
            batch, vnrc = make_batch([prepared_train[i] for i in order[start:start + train_config.batch_size]])
            try:
                loss, lm, emo = total_loss(batch, params, config, vnrc)
                lm_sum += float(lm.data.sum())
                emo_sum += float(emo.data.sum())
                nm.backward(loss)
                del loss, lm, emo  # this batch's graph goes before the next forward builds its own
                norms.append(nm.sgd_step(all_params, train_config.learning_rate, train_config.clip))
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}: {err}") from err

        train_lm, train_emo = lm_sum / n, emo_sum / n
        valid_lm, valid_emo, valid_total = _mean_losses(params, prepared_valid, config, train_config.batch_size)
        history.append(EpochStats(
            train_lm=train_lm,
            train_emo=train_emo,
            train_total=config.c1 * train_lm + config.c2 * train_emo,
            valid_lm=valid_lm,
            valid_emo=valid_emo,
            valid_total=valid_total,
            grad_norm_mean=sum(norms) / len(norms),
            clip_rate=sum(norm > train_config.clip for norm in norms) / len(norms),
        ))
        if valid_total < best_val:
            best_val = valid_total
            if epoch + 1 < train_config.max_epochs:  # no later epoch can move the weights of the last one
                best_snapshot = params.snapshot(best_snapshot)
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= train_config.patience:
                break

    if 0 <= best_epoch < len(history) - 1:  # a best epoch that ran last left its weights in place
        params.restore(best_snapshot)
    for p in all_params:  # zero after the last step; the caller only reads the weights
        p.grad = None
    return params, TrainHistory(initial_train=initial, epochs=history, best_epoch=best_epoch)


@dataclass(frozen=True)
class Cell:
    """One experiment: a model trained on ``split``, then decoding ``split.test`` at ``max_tokens`` per query."""
    model_config: ModelConfig
    train_config: TrainConfig
    split: DatasetSplit
    vocab: Vocabulary
    lex: Lexicon
    max_tokens: int


def run_cell(cell: Cell) -> EvaluationReport:
    """Train ``cell``'s model, decode its test split and report on it, audit included; a failed query raises."""
    params, _ = train(cell.model_config, cell.train_config, cell.split, cell.lex, cell.vocab)
    queries = record_queries(cell.split.test, cell.lex, cell.max_tokens)
    pairs = []
    for rec, result in zip(cell.split.test, batch_generate(params, cell.model_config, cell.vocab, cell.lex, queries)):
        if result.error is not None:
            raise ValueError(result.error)
        pairs.append(EvaluationPair.from_texts(rec.explanation, " ".join(result.tokens), rec.features))
    return build_report(pairs, cell.lex)


def _one_blas_thread() -> None:
    """Pool initializer: one OpenBLAS thread in this worker (numpy exposes no setter), as workers that each kept
    one per CPU contend for the CPUs: two d=64 cells on 2 CPUs took longer together than one after the other."""
    import ctypes

    setters = ("openblas_set_num_threads", "openblas_set_num_threads64_", "scipy_openblas_set_num_threads64_")
    with open("/proc/self/maps") as maps:
        libs = [ctypes.CDLL(path) for path in {line.split()[-1] for line in maps if "openblas" in line}]
    for setter in (getattr(lib, name) for lib in libs for name in setters if hasattr(lib, name)):
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def run_cells(cells: list[Cell]) -> list[EvaluationReport]:
    """``run_cell`` over ``cells`` in forked processes, at most one per CPU, each starting from the parent's modules
    as they are, a patched function included. Reports come in input order; the first failed cell's error raises."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(cells), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _one_blas_thread) as pool:
        return list(pool.map(run_cell, cells))


ABLATION_LOSS_SETTINGS = ("full", "disable_emotion", "disable_lm")
ABLATION_INTENSITIES = (0.5, 1.0, 2.0)


def ablation_grid(
    model_config: ModelConfig, train_config: TrainConfig, splits: DatasetSplit,
    lex: Lexicon, vocab: Vocabulary, max_tokens: int,
) -> list[dict]:
    """Train and evaluate the 3x3 grid of loss settings x intensity values, one ``run_cells`` cell each.

    Every cell reuses the same seeds, so the (full, intensity=1) cell matches a
    standalone run bit for bit.  Each row carries the full metrics report plus
    the emotion-audit L1 distance.
    """
    rows, cells = [], []
    for setting in ABLATION_LOSS_SETTINGS:
        c1 = 0.0 if setting == "disable_lm" else model_config.c1
        c2 = 0.0 if setting == "disable_emotion" else model_config.c2
        for intensity in ABLATION_INTENSITIES:
            rows.append({"loss_setting": setting, "intensity": intensity, "c1": c1, "c2": c2})
            cells.append(Cell(replace(model_config, c1=c1, c2=c2, intensity=intensity), train_config, splits,
                              vocab, lex, max_tokens))
    for row, report in zip(rows, run_cells(cells)):
        row.update(report_to_dict(report))
    return rows
