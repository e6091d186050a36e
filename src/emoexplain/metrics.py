"""Automatic evaluation: BLEU, ROUGE, USR, FMR, FCR, DIV, and the emotion audit.

Aggregation conventions (also stamped into report headers):
  * BLEU is corpus-level with no smoothing; n-gram counts are summed over all
    pairs before any ratio is taken, and an order with no hypothesis n-grams
    anywhere counts as vacuously exact.
  * ROUGE precision/recall/F1 are computed per pair and macro-averaged.
  * Feature matching uses exact token equality after tokenization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import exp, log

from .corpus import tokenize
from .lexicon import CATEGORIES, Lexicon, classify_explanation, emotion_distribution

REPORT_HEADER = (
    "BLEU: corpus-level, unsmoothed, vacuous orders exact; "
    "ROUGE: macro-averaged per pair; features: exact token match"
)


@dataclass(frozen=True)
class EvaluationPair:
    """One reference/hypothesis pair plus the record's feature tokens."""

    reference: tuple[str, ...]
    hypothesis: tuple[str, ...]
    features: tuple[str, ...]
    # order -> overlap(order), so BLEU-1/4 and ROUGE-1/2 count each order once
    _overlaps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_texts(cls, reference: str, hypothesis: str, features) -> "EvaluationPair":
        feature_tokens = tuple(tok for feat in features for tok in tokenize(feat))
        return cls(
            reference=tuple(tokenize(reference)),
            hypothesis=tuple(tokenize(hypothesis)),
            features=feature_tokens,
        )

    def overlap(self, n: int) -> tuple[int, int, int]:
        """(hypothesis n-grams the reference holds, each counted at most as often as there,
        hypothesis n-grams, reference n-grams)."""
        counted = self._overlaps.get(n)
        if counted is None:
            hyp, ref = self.hypothesis, self.reference
            # Zipping the n shifted copies of a sequence yields its n-grams as tuples.
            unmatched = Counter(zip(*(ref[i:] for i in range(n))))
            matched = 0
            for gram in zip(*(hyp[i:] for i in range(n))):
                left = unmatched.get(gram)
                if left:
                    unmatched[gram] = left - 1
                    matched += 1
            counted = self._overlaps[n] = (matched, max(len(hyp) - n + 1, 0), max(len(ref) - n + 1, 0))
        return counted


def bleu(pairs: list[EvaluationPair], n: int) -> float:
    """Corpus-level BLEU-n as a percentage."""
    if not pairs:
        raise ValueError("bleu needs at least one pair")
    if n < 1:
        raise ValueError(f"bleu order must be >= 1, got {n}")
    hyp_len = sum(len(p.hypothesis) for p in pairs)
    ref_len = sum(len(p.reference) for p in pairs)
    if hyp_len == 0:
        return 0.0

    log_sum = 0.0
    for order in range(1, n + 1):
        matched = 0
        total = 0
        for pair in pairs:
            overlap, n_hyp, _ = pair.overlap(order)
            matched += overlap
            total += n_hyp
        if total == 0:
            continue  # vacuous order: no hypothesis n-grams exist to mismatch
        if matched == 0:
            return 0.0
        log_sum += log(matched / total) / n
    brevity = 1.0 if hyp_len > ref_len else exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * exp(log_sum)


def rouge(pairs: list[EvaluationPair], n: int) -> tuple[float, float, float]:
    """Macro-averaged ROUGE-n (precision, recall, F1) percentages."""
    if not pairs:
        raise ValueError("rouge needs at least one pair")
    p_sum = r_sum = f_sum = 0.0
    for pair in pairs:
        overlap, n_hyp, n_ref = pair.overlap(n)
        p = overlap / n_hyp if n_hyp else 0.0
        r = overlap / n_ref if n_ref else 0.0
        f = 2.0 * p * r / (p + r) if p + r else 0.0
        p_sum += p
        r_sum += r
        f_sum += f
    count = len(pairs)
    return 100.0 * p_sum / count, 100.0 * r_sum / count, 100.0 * f_sum / count


def usr(hypotheses: list[tuple[str, ...]]) -> float:
    """Unique sentence ratio: distinct token sequences over total."""
    if not hypotheses:
        raise ValueError("usr needs at least one hypothesis")
    return len(set(hypotheses)) / len(hypotheses)


def fmr(pairs: list[EvaluationPair]) -> float:
    """Fraction of pairs whose hypothesis mentions one of that record's features."""
    if not pairs:
        raise ValueError("fmr needs at least one pair")
    for pair in pairs:
        if not pair.features:
            raise ValueError("fmr requires every pair to carry at least one feature")
    hits = sum(1 for pair in pairs if any(f in pair.hypothesis for f in pair.features))
    return hits / len(pairs)


def fcr(pairs: list[EvaluationPair]) -> float:
    """Fraction of all ground-truth features mentioned somewhere in the hypotheses."""
    if not pairs:
        raise ValueError("fcr needs at least one pair")
    ground_truth = {f for pair in pairs for f in pair.features}
    if not ground_truth:
        raise ValueError("fcr is undefined without any ground-truth features")
    mentioned = {f for f in ground_truth if any(f in p.hypothesis for p in pairs)}
    return len(mentioned) / len(ground_truth)


def hypothesis_feature_sets(pairs: list[EvaluationPair]) -> list[frozenset]:
    """Per-hypothesis sets of ground-truth features that the hypothesis mentions."""
    universe = {f for pair in pairs for f in pair.features}
    return [frozenset(f for f in universe if f in pair.hypothesis) for pair in pairs]


def div(feature_sets: list) -> float:
    """Mean feature-set intersection size over all unordered pairs (lower is more diverse).

    A feature held by c of the sets lies in c*(c-1)/2 pairwise intersections, so
    the total over all pairs is summed per feature: exact at any corpus size.
    """
    count = len(feature_sets)
    if count < 2:
        raise ValueError("div needs at least two feature sets")
    holders = Counter(f for s in feature_sets for f in set(s))
    shared = sum(c * (c - 1) // 2 for c in holders.values())
    return shared / (count * (count - 1) // 2)


@dataclass(frozen=True)
class EmotionAudit:
    gt_distribution: tuple[float, ...]
    gen_distribution: tuple[float, ...]
    bias_points: tuple[float, ...]  # per category, (generated - ground truth) in percentage points
    l1_distance: float


def emotion_audit(gt_explanations: list, gen_explanations: list, lex: Lexicon) -> EmotionAudit:
    """Classify both sides and compare their six-way distributions."""
    if len(gt_explanations) != len(gen_explanations):
        raise ValueError(
            f"audit length mismatch: {len(gt_explanations)} ground-truth vs {len(gen_explanations)} generated")
    if not gt_explanations:
        raise ValueError("audit needs at least one explanation")

    return compare_distributions(explanation_distribution(gt_explanations, lex),
                                 explanation_distribution(gen_explanations, lex))


def explanation_distribution(explanations: list, lex: Lexicon) -> tuple[float, ...]:
    """Six-way distribution of the lexicon categories of explanations given as text or tokens."""
    return emotion_distribution([
        classify_explanation(lex, tokenize(e) if isinstance(e, str) else list(e)) for e in explanations])


def compare_distributions(gt_dist: tuple[float, ...], gen_dist: tuple[float, ...]) -> EmotionAudit:
    """The audit of a generated distribution against the ground truth's."""
    bias = tuple(100.0 * (g - t) for g, t in zip(gen_dist, gt_dist))
    l1 = sum(abs(g - t) for g, t in zip(gen_dist, gt_dist))
    return EmotionAudit(gt_distribution=gt_dist, gen_distribution=gen_dist, bias_points=bias, l1_distance=l1)


def debiasing_score(gt_pct: float, base_pct: float, ours_pct: float) -> float:
    """Signed movement from the baseline share toward the ground-truth share.

    Positive means the audited system moved toward the ground truth relative
    to the baseline; the value is the movement as a percentage of the
    ground-truth share.  Undefined when the ground-truth share is zero.
    """
    if gt_pct <= 0:
        raise ValueError("debiasing score is undefined for a zero ground-truth share")
    if base_pct == gt_pct:
        return -abs(ours_pct - gt_pct) / gt_pct * 100.0
    direction = 1.0 if gt_pct > base_pct else -1.0
    return (ours_pct - base_pct) * direction / gt_pct * 100.0


# Reference emotion-distribution audits on a hotel-review corpus: ground-truth
# share, baseline generator share, emotion-aware generator share, and the
# reported debiasing value, per detector.  Two text2emotion rows (happy, sad)
# are known not to match the formula above; verify_reference_debiasing flags
# them as warnings instead of pretending they reproduce.
REFERENCE_AUDITS = {
    "text2emotion": {
        "happy": (42.8, 61.3, 47.2, 21.9),
        "angry": (5.9, 5.4, 4.8, -10.2),
        "surprise": (12.7, 5.0, 9.8, 37.8),
        "sad": (7.7, 4.6, 5.8, 10.4),
        "fear": (18.7, 11.7, 17.4, 30.5),
        "neutral": (12.2, 11.8, 14.9, 25.4),
    },
    "goemotions": {
        "happy": (59.2, 69.5, 63.6, 10.0),
        "angry": (1.5, 0.3, 0.5, 13.3),
        "surprise": (1.6, 0.3, 0.4, 6.3),
        "sad": (1.8, 0.6, 1.3, 38.9),
        "fear": (0.3, 0.05, 0.06, 3.3),
        "neutral": (35.6, 29.2, 34.2, 14.0),
    },
}


def verify_reference_debiasing(tolerance: float = 0.05):
    """Recompute every reference debiasing cell; mismatches become warnings.

    Returns (rows, warnings): rows map detector -> category -> dict with the
    computed and reported values and whether they agree within tolerance.
    """
    rows: dict[str, dict[str, dict]] = {}
    warnings: list[str] = []
    for detector, table in REFERENCE_AUDITS.items():
        rows[detector] = {}
        for category, (gt, base, ours, reported) in table.items():
            computed = debiasing_score(gt, base, ours)
            ok = abs(computed - reported) <= tolerance
            rows[detector][category] = {
                "ground_truth": gt, "baseline": base, "emotion_aware": ours,
                "reported": reported, "computed": computed, "matches": ok,
            }
            if not ok:
                warnings.append(
                    f"{detector}/{category}: computed debiasing {computed:.1f} does not match "
                    f"the reported {reported:.1f}; keeping the formula, not the cell"
                )
    return rows, warnings


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluationReport:
    bleu1: float
    bleu4: float
    rouge1: tuple[float, float, float]
    rouge2: tuple[float, float, float]
    usr: float
    fmr: float
    fcr: float
    div: float
    audit: EmotionAudit | None = None


def build_report(pairs: list[EvaluationPair], lex: Lexicon | None = None) -> EvaluationReport:
    hyps = [p.hypothesis for p in pairs]
    audit = None
    if lex is not None:
        audit = emotion_audit([list(p.reference) for p in pairs], [list(h) for h in hyps], lex)
    return EvaluationReport(
        bleu1=bleu(pairs, 1),
        bleu4=bleu(pairs, 4),
        rouge1=rouge(pairs, 1),
        rouge2=rouge(pairs, 2),
        usr=usr(hyps),
        fmr=fmr(pairs),
        fcr=fcr(pairs),
        div=div(hypothesis_feature_sets(pairs)) if len(pairs) >= 2 else 0.0,
        audit=audit,
    )


def report_to_dict(report: EvaluationReport) -> dict:
    out = {"header": REPORT_HEADER, **dict(zip(REPORT_KEYS, _report_values(report)))}
    if report.audit is not None:
        out["emotion_audit"] = audit_to_dict(report.audit)
    return out


def audit_to_dict(audit: EmotionAudit) -> dict:
    return {
        "categories": list(CATEGORIES),
        "ground_truth": list(audit.gt_distribution),
        "generated": list(audit.gen_distribution),
        "bias_points": list(audit.bias_points),
        "l1_distance": audit.l1_distance,
    }


REPORT_COLUMNS = (
    "FMR", "FCR", "DIV", "USR", "BLEU-1", "BLEU-4",
    "R1-P", "R1-R", "R1-F", "R2-P", "R2-R", "R2-F",
)
# report_to_dict's key for each of REPORT_COLUMNS
REPORT_KEYS = (
    "fmr", "fcr", "div", "usr", "bleu1", "bleu4",
    "rouge1_p", "rouge1_r", "rouge1_f", "rouge2_p", "rouge2_r", "rouge2_f",
)


def _report_values(report: EvaluationReport) -> list[float]:
    return [
        report.fmr, report.fcr, report.div, report.usr, report.bleu1, report.bleu4,
        *report.rouge1, *report.rouge2,
    ]


def report_table(rows: list[tuple[str, EvaluationReport]]) -> str:
    """Aligned plain-text table, one line per labelled report."""
    label_width = max(len("model"), *(len(label) for label, _ in rows))
    header = ["# " + REPORT_HEADER]
    header.append("  ".join(["model".ljust(label_width)] + [c.rjust(7) for c in REPORT_COLUMNS]))
    for label, report in rows:
        cells = [f"{v:7.2f}" for v in _report_values(report)]
        header.append("  ".join([label.ljust(label_width)] + cells))
    return "\n".join(header) + "\n"


def audit_table(audit: EmotionAudit, debiasing: dict[str, float | None] | None = None) -> str:
    """Per-category audit table: shares in percent, bias, optional debiasing."""
    lines = ["category   ground%   generated%   bias_pts" + ("   debiasing" if debiasing else "")]
    for k, name in enumerate(CATEGORIES):
        line = (
            f"{name:<9}  {100 * audit.gt_distribution[k]:7.2f}  "
            f"{100 * audit.gen_distribution[k]:10.2f}  {audit.bias_points[k]:9.2f}"
        )
        if debiasing:
            value = debiasing.get(name)
            line += f"  {value:10.2f}" if value is not None else "   undefined"
        lines.append(line)
    lines.append(f"L1 distance: {audit.l1_distance:.4f}")
    return "\n".join(lines) + "\n"
