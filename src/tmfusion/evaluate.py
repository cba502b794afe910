"""Confusion counting, the four classification metrics, and daily aggregation.

Class 1 (price up) is the positive class throughout. Degenerate metric
denominators (no positive predictions, no positive labels, or both) yield 0
rather than an error. Daily aggregation is a majority vote over a day's
per-tweet predictions with ties and empty days resolved to the negative
state.

Everything is pure; reports serialize to JSON and flat CSV.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .artifacts import atomic_write, write_json
from .errors import InvalidArgumentError

POS, NEG = "pos", "neg"


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise InvalidArgumentError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    counts: ConfusionCounts

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "counts": {
                "tp": self.counts.tp,
                "tn": self.counts.tn,
                "fp": self.counts.fp,
                "fn": self.counts.fn,
            },
        }


@dataclass(frozen=True)
class DailyPrediction:
    day: dt.date
    pos_count: int
    neg_count: int
    decision: str
    actual: int

    def __post_init__(self) -> None:
        expected = POS if self.pos_count > self.neg_count else NEG
        if self.decision != expected:
            raise InvalidArgumentError(
                f"{self.day}: decision {self.decision!r} violates the majority rule"
            )


def confusion(preds: Sequence[int], labels: Sequence[int]) -> ConfusionCounts:
    """Partition prediction/label pairs; class 1 is positive."""
    if len(preds) != len(labels):
        raise InvalidArgumentError(f"length mismatch: {len(preds)} preds, {len(labels)} labels")
    if not preds:
        raise InvalidArgumentError("need at least one prediction")
    tp = tn = fp = fn = 0
    for p, y in zip(preds, labels):
        if p not in (0, 1) or y not in (0, 1):
            raise InvalidArgumentError(f"predictions and labels must be 0/1, got ({p}, {y})")
        if p == 1 and y == 1:
            tp += 1
        elif p == 0 and y == 0:
            tn += 1
        elif p == 1 and y == 0:
            fp += 1
        else:
            fn += 1
    return ConfusionCounts(tp, tn, fp, fn)


def metrics(c: ConfusionCounts) -> MetricReport:
    """Accuracy, precision, recall, F1; 0/0 denominators map to 0."""
    if c.total == 0:
        raise InvalidArgumentError("cannot compute metrics over zero samples")
    accuracy = (c.tp + c.tn) / c.total
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else 0.0
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    return MetricReport(accuracy, precision, recall, f1, c)


def daily_aggregate(
    per_tweet: Iterable[tuple[dt.date, int]],
    actual_by_day: Mapping[dt.date, int],
) -> list[DailyPrediction]:
    """Majority vote per day: strictly more rises than falls decides positive.

    Emits one row per day in ``actual_by_day`` (sorted); days without any
    predictions fall through to the negative default. Predictions on days
    missing an actual label are an error naming the day.
    """
    pos: dict[dt.date, int] = {}
    neg: dict[dt.date, int] = {}
    for day, pred in per_tweet:
        if day not in actual_by_day:
            raise InvalidArgumentError(f"no actual label for day {day}")
        if pred not in (0, 1):
            raise InvalidArgumentError(f"predictions must be 0/1, got {pred}")
        if pred == 1:
            pos[day] = pos.get(day, 0) + 1
        else:
            neg[day] = neg.get(day, 0) + 1
    out = []
    for day in sorted(actual_by_day):
        p, n = pos.get(day, 0), neg.get(day, 0)
        out.append(
            DailyPrediction(
                day=day,
                pos_count=p,
                neg_count=n,
                decision=POS if p > n else NEG,
                actual=actual_by_day[day],
            )
        )
    return out


def daily_metrics(dps: Sequence[DailyPrediction]) -> MetricReport:
    """Metric report over daily decisions (positive decision maps to class 1)."""
    if not dps:
        raise InvalidArgumentError("need at least one daily prediction")
    preds = [1 if d.decision == POS else 0 for d in dps]
    actuals = [d.actual for d in dps]
    return metrics(confusion(preds, actuals))


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


def write_report_json(
    path: str | Path,
    ticker: str,
    tweet_level: MetricReport,
    daily_level: MetricReport | None,
    daily_table: Sequence[DailyPrediction] = (),
    extra: dict | None = None,
) -> None:
    payload = {
        "schema_version": 1,
        "ticker": ticker,
        "tweet_level": tweet_level.to_json_dict(),
        "daily_level": daily_level.to_json_dict() if daily_level else None,
        "daily_table": [
            {
                "day": d.day.isoformat(),
                "pos_count": d.pos_count,
                "neg_count": d.neg_count,
                "decision": d.decision,
                "actual": d.actual,
            }
            for d in daily_table
        ],
    }
    if extra:
        payload.update(extra)
    write_json(path, payload)


def write_confusion_csv(
    path: str | Path, rows: Sequence[tuple[str, MetricReport]]
) -> None:
    """Flat CSV: one row per evaluation level with counts and metrics."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["level", "tp", "tn", "fp", "fn", "accuracy", "precision", "recall", "f1"]
        )
        for level, report in rows:
            c = report.counts
            writer.writerow(
                [
                    level, c.tp, c.tn, c.fp, c.fn,
                    repr(report.accuracy), repr(report.precision),
                    repr(report.recall), repr(report.f1),
                ]
            )
