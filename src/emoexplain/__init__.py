"""Emotion-aware explanation generation for recommender systems."""

from .corpus import (
    CorpusSpec,
    DatasetSplit,
    EncodedExample,
    Record,
    Vocabulary,
    build_vocabulary,
    encode_example,
    generate_synthetic_corpus,
    load_records,
    save_records,
    split_dataset,
    tokenize,
)
from .lexicon import (
    CATEGORIES,
    Lexicon,
    classify_explanation,
    emotion_distribution,
    load_lexicon,
    word_emotion,
)
from .model import ModelConfig, ModelParams
from .trainer import TrainConfig, TrainHistory, ablation_grid, train
from .generator import GenerationQuery, batch_generate, generate
from .metrics import (
    EvaluationPair,
    EvaluationReport,
    bleu,
    build_report,
    debiasing_score,
    div,
    emotion_audit,
    fcr,
    fmr,
    rouge,
    usr,
)

__version__ = "0.1.0"
