"""JSON formats for systems, count datasets, distributions, and designs.

Probabilities and masses are serialized as "num/den" strings so no
precision is lost at any boundary; numeric JSON input is accepted and
converted through its decimal representation (0.6 becomes 3/5, not the
nearest binary double).  Alternatives are integers 0..n-1 internally;
a file may carry a "labels" array of n display names, in which case
members, pairs, and rankings are written as labels and accepted as
either labels or integers on input.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .core import (
    BWSystem,
    ChoiceCountDataset,
    SubsetLike,
    as_mask,
    assemble_system,
    choice_subsets,
    exact_fraction,
    members,
    new_system,
    ordered_pairs,
)
from .errors import (
    DuplicateCell,
    InconsistentDimensions,
    InputFileError,
    MissingCell,
    OutOfRange,
)
from .measure import RankingDistribution, make_distribution


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(value: Any) -> Fraction:
    try:
        return exact_fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputFileError(f"cannot parse {value!r} as an exact probability") from exc


class Labeler:
    """Maps between integer alternative ids and display labels."""

    def __init__(self, n: int, labels: list[str] | None):
        if labels is not None:
            if (
                not isinstance(labels, list)
                or not all(isinstance(label, str) for label in labels)
                or len(labels) != n
                or len(set(labels)) != n
            ):
                raise InputFileError(
                    f"labels must be a list of {n} distinct names, got {labels!r}"
                )
            labels = list(labels)
        self.n = n
        self.labels = labels

    def name(self, alt: int) -> Any:
        return self.labels[alt] if self.labels is not None else alt

    def resolve(self, token: Any) -> int:
        if isinstance(token, bool):
            raise InputFileError(f"{token!r} is not an alternative")
        if isinstance(token, int):
            if not 0 <= token < self.n:
                raise InputFileError(f"alternative {token} is outside 0..{self.n - 1}")
            return token
        if isinstance(token, str):
            if self.labels is not None and token in self.labels:
                return self.labels.index(token)
            if token.isdecimal() and 0 <= int(token) < self.n:
                return int(token)
        raise InputFileError(f"unknown alternative {token!r}")

    def names(self, alts: Sequence[int]) -> list[Any]:
        return [self.name(x) for x in alts]

    def resolve_all(self, tokens: Sequence[Any]) -> list[int]:
        return [self.resolve(t) for t in tokens]


def load_json(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError as exc:
        raise InputFileError(f"no such file: {path}") from exc
    except (json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputFileError(f"{path} must hold a JSON object at top level")
    return payload


def dump_json(payload: dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def input_digest(path: str | Path) -> str:
    """Content hash of an input file, quoted in every report."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest()


def argument_digest(parts: Sequence[str]) -> str:
    """Content hash for commands whose input is their argument list."""
    joined = "\x1f".join(parts).encode("utf-8")
    return hashlib.sha256(joined).hexdigest()


def _require(payload: Any, key: str, context: str) -> Any:
    if not isinstance(payload, dict):
        raise InputFileError(f"{context} must be a JSON object, got {payload!r}")
    if key not in payload:
        raise InputFileError(f"{context} is missing the {key!r} field")
    return payload[key]


def _require_list(payload: Any, key: str, context: str) -> list:
    value = _require(payload, key, context)
    if not isinstance(value, list):
        raise InputFileError(f"the {key!r} field of a {context} must be an array, got {value!r}")
    return value


def _read_n(payload: dict, context: str) -> int:
    n = _require(payload, "n", context)
    if not isinstance(n, int) or n < 2:
        raise InputFileError(f"{context} needs an integer n >= 2, got {n!r}")
    return n


# ---------------------------------------------------------------------------
# Systems


def system_to_payload(system: BWSystem, labels: list[str] | None = None) -> dict:
    labeler = Labeler(system.n, labels)
    subsets = []
    for mask in choice_subsets(system.n):
        probs = [
            {
                "best": labeler.name(a),
                "worst": labeler.name(b),
                "p": fraction_str(system.prob(mask, a, b)),
            }
            for a, b in ordered_pairs(mask)
        ]
        subsets.append({"members": labeler.names(members(mask)), "probs": probs})
    payload: dict[str, Any] = {"n": system.n}
    if labeler.labels is not None:
        payload["labels"] = list(labeler.labels)
    payload["subsets"] = subsets
    return payload


def system_from_payload(
    payload: dict, *, lenient: bool = False
) -> tuple[BWSystem, list[str] | None]:
    """Read a system from a parsed JSON object.

    With ``lenient`` set, only the structure is enforced; out-of-range
    or non-normalized values come through untouched so callers can audit
    them with :func:`bwrum.core.validate`.
    """
    n = _read_n(payload, "system file")
    labeler = Labeler(n, payload.get("labels"))
    entries = []
    for subset in _require_list(payload, "subsets", "system file"):
        mask = as_mask(labeler.resolve_all(_require_list(subset, "members", "subset entry")), n)
        for cell in _require_list(subset, "probs", "subset entry"):
            a = labeler.resolve(_require(cell, "best", "probability cell"))
            b = labeler.resolve(_require(cell, "worst", "probability cell"))
            entries.append((mask, (a, b), parse_fraction(_require(cell, "p", "probability cell"))))
    build = assemble_system if lenient else new_system
    try:
        system = build(n, entries)
    except (InconsistentDimensions, MissingCell, DuplicateCell) as exc:
        # Structural defects mean the file does not describe a system;
        # value violations are left to the probability checks.
        raise InputFileError(str(exc)) from exc
    return system, labeler.labels


# ---------------------------------------------------------------------------
# Count datasets


def counts_to_payload(
    dataset: ChoiceCountDataset, labels: list[str] | None = None
) -> dict:
    labeler = Labeler(dataset.n, labels)
    records = [
        {
            "members": labeler.names(members(mask)),
            "best": labeler.name(a),
            "worst": labeler.name(b),
            "count": count,
        }
        for mask, a, b, count in dataset.records
    ]
    payload: dict[str, Any] = {"n": dataset.n}
    if labeler.labels is not None:
        payload["labels"] = list(labeler.labels)
    payload["records"] = records
    return payload


def counts_from_payload(payload: dict) -> tuple[ChoiceCountDataset, list[str] | None]:
    n = _read_n(payload, "count file")
    labeler = Labeler(n, payload.get("labels"))
    rows = []
    for record in _require_list(payload, "records", "count file"):
        mask = as_mask(labeler.resolve_all(_require_list(record, "members", "count record")), n)
        a = labeler.resolve(_require(record, "best", "count record"))
        b = labeler.resolve(_require(record, "worst", "count record"))
        count = _require(record, "count", "count record")
        if not isinstance(count, int) or isinstance(count, bool):
            raise InputFileError(f"count must be an integer, got {count!r}")
        rows.append((mask, a, b, count))
    try:
        dataset = ChoiceCountDataset.build(n, rows)
    except (InconsistentDimensions, OutOfRange) as exc:
        raise InputFileError(str(exc)) from exc
    return dataset, labeler.labels


# ---------------------------------------------------------------------------
# Distributions


def distribution_to_payload(
    dist: RankingDistribution, labels: list[str] | None = None
) -> dict:
    labeler = Labeler(dist.n, labels)
    rows = [
        {"ranking": labeler.names(ranking), "mass": fraction_str(dist.mass[ranking])}
        for ranking in dist.support()
    ]
    payload: dict[str, Any] = {"n": dist.n}
    if labeler.labels is not None:
        payload["labels"] = list(labeler.labels)
    payload["distribution"] = rows
    return payload


def distribution_from_payload(payload: dict) -> tuple[RankingDistribution, list[str] | None]:
    n = _read_n(payload, "distribution file")
    labeler = Labeler(n, payload.get("labels"))
    masses: dict[tuple[int, ...], Fraction] = {}
    for row in _require_list(payload, "distribution", "distribution file"):
        ranking = tuple(labeler.resolve_all(_require_list(row, "ranking", "distribution row")))
        mass = parse_fraction(_require(row, "mass", "distribution row"))
        masses[ranking] = masses.get(ranking, Fraction(0)) + mass
    try:
        dist = make_distribution(n, masses)
    except InconsistentDimensions as exc:
        raise InputFileError(str(exc)) from exc
    return dist, labeler.labels


# ---------------------------------------------------------------------------
# Simulation designs


def design_from_payload(
    payload: dict, n: int, labels: list[str] | None
) -> list[tuple[int, int]]:
    labeler = Labeler(n, labels)
    design = []
    for row in _require_list(payload, "design", "design file"):
        mask = as_mask(labeler.resolve_all(_require_list(row, "members", "design row")), n)
        trials = _require(row, "trials", "design row")
        if not isinstance(trials, int) or isinstance(trials, bool) or trials < 0:
            raise InputFileError(f"trials must be a nonnegative integer, got {trials!r}")
        design.append((mask, trials))
    return design


def design_to_payload(
    design: Sequence[tuple[SubsetLike, int]], n: int, labels: list[str] | None = None
) -> dict:
    labeler = Labeler(n, labels)
    rows = [
        {"members": labeler.names(members(as_mask(subset, n))), "trials": trials}
        for subset, trials in design
    ]
    payload: dict[str, Any] = {"n": n}
    if labeler.labels is not None:
        payload["labels"] = list(labeler.labels)
    payload["design"] = rows
    return payload
