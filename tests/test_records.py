"""Every tagged performance number in the docs matches its committed record.

A number in README.md or EXPERIMENTS.md that comes from a committed
benchmark record is tagged with the record file and the key, right after
the number (a unit and bold markers may sit between):

    **1.28×** (`BENCH_hotpath.json:pfrontier.busy."pfrontier@1".ratio_to_frontier`)

Key segments are separated by dots; a segment holding a dot or an ``@``
is double-quoted.  The number must equal the recorded value to the
precision it is printed with, after scaling seconds to the printed unit
(``ms``, ``µs``).  Re-recording a file therefore fails this test until
the prose is brought up to date.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "EXPERIMENTS.md")

TAG = re.compile(
    r"(?P<num>\d+(?:\.\d+)?)\s*(?P<unit>×|ms|µs|s)?\**\s*\(?"
    r"`(?P<record>BENCH_[\w-]+\.json):(?P<key>[^`]+)`"
)
#: any record tag, attached to a number or not
ANY_TAG = re.compile(r"`BENCH_[\w-]+\.json:[^`]+`")
SCALE = {"ms": 1e3, "µs": 1e6}


def lookup(record: dict, key: str):
    """The value at dotted *key* (quoted segments kept whole) in *record*."""
    node = record
    for quoted, plain in re.findall(r'"([^"]+)"|([^.]+)', key):
        node = node[quoted or plain]
    return node


def drift(text: str) -> list[str]:
    """One line per record tag of *text* that follows no number, names no
    recorded number, or disagrees with its record beyond rounding."""
    records: dict[str, dict] = {}
    attached = {m.start("record") - 1 for m in TAG.finditer(text)}
    bad = [f"{m[0]} follows no number" for m in ANY_TAG.finditer(text) if m.start() not in attached]
    for m in TAG.finditer(text):
        num, unit, name, key = m["num"], m["unit"] or "", m["record"], m["key"]
        if name not in records:
            records[name] = json.loads((ROOT / name).read_text(encoding="utf-8"))
        try:
            value = float(lookup(records[name], key)) * SCALE.get(unit, 1.0)
        except (KeyError, TypeError, ValueError):
            bad.append(f"{name}:{key} names no number in the record")
            continue
        places = len(num.partition(".")[2])
        if abs(value - float(num)) > 0.5 * 10**-places + 1e-12:
            bad.append(f"{num}{unit} but {name}:{key} reads {value:.{places + 2}f}{unit}")
    return bad


@pytest.mark.parametrize("doc", DOCS)
def test_tagged_numbers_match_their_record(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    assert TAG.search(text), f"{doc} tags no recorded number"
    assert drift(text) == []


def test_a_seeded_drift_fails():
    """Moving the first tagged number by two units of its last printed
    digit puts it outside the rounding of any recorded value."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    m = TAG.search(text)
    places = len(m["num"].partition(".")[2])
    seeded = f"{float(m['num']) + 2 * 10**-places:.{places}f}"
    drifted = text[: m.start("num")] + seeded + text[m.end("num") :]
    assert len(drift(drifted)) == len(drift(text)) + 1


def test_a_missing_key_fails():
    assert drift("1.0× (`BENCH_hotpath.json:meta.no_such_key`)")


def test_a_tag_after_no_number_fails():
    assert drift("(3.8×; `BENCH_hotpath.json:meta.fig1a_frontier_speedup_vs_lazy`)")
