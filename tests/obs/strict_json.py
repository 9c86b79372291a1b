"""Strict JSON-lines parsing for the record-format regression tests."""

import json


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token!r}")


def strict_lines(path):
    """Every line of *path* parsed as strict JSON: ``NaN``/``Infinity`` raise."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line, parse_constant=_reject_constant) for line in lines]
