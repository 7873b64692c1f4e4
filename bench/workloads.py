"""The benchmark's workloads: one op is a fixed sequence of capsep CLI calls.

Every call's output is checked. A check returns a list of problems and never
raises, so a wrong output counts as a failed op without stopping the run.
The run seed reaches the program only as ``--seed`` (family-G packing
permutations and simulation sampling); ``alpha`` and ``report`` take none.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

# Message counts the packings must reach, by graph: ceil(|V| / d^2).
EXPECTED_M = {("G", 11): 4, ("H", 11): 8, ("G", 15): 29}
RANK_BOUND = 67  # C(11,0) + C(11,1) + C(11,2)
ALPHA_LOWER = 28  # the verified restricted independent set of G11
TRIALS = 1000


@dataclass(frozen=True)
class Step:
    """One CLI call. ``stage`` 1 or 2 names the stage metric its time counts in."""

    argv: list[str]
    stage: int | None
    check: Callable[[str, dict], list[str]]  # (stdout, facts) -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    stage_names: tuple[str, str]
    steps: Callable[[int, str], list[Step]]  # (seed, work dir) -> steps


def _problems(conditions: dict[str, bool]) -> list[str]:
    return [name for name, ok in conditions.items() if not ok]


def _parse(text: str):
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def _dig(doc, *keys):
    for key in keys:
        if not isinstance(doc, dict):
            return None
        doc = doc.get(key)
    return doc


# -- checks --------------------------------------------------------------------


def _check_pipeline(family: str):
    def check(out: str, facts: dict) -> list[str]:
        doc, bad = _parse(out)
        if bad:
            return bad
        rank = _dig(doc, "haemers", "rank")
        lower, upper = _dig(doc, "alpha", "lower"), _dig(doc, "alpha", "upper")
        return _problems({
            "cert.verified": _dig(doc, "cert", "verified") is True,
            "haemers.fits": _dig(doc, "haemers", "fits") is True,
            f"cert.M == {EXPECTED_M[family, 11]}":
                _dig(doc, "cert", "M") == EXPECTED_M[family, 11],
            f"haemers.rank <= {RANK_BOUND}":
                isinstance(rank, int) and rank <= RANK_BOUND,
            f"{ALPHA_LOWER} <= alpha.lower <= alpha.upper":
                isinstance(lower, int) and isinstance(upper, int)
                and ALPHA_LOWER <= lower <= upper,
        })
    return check


def _check_report(out: str, facts: dict) -> list[str]:
    doc, bad = _parse(out)
    return bad or _problems({"separation": _dig(doc, "separation") is True})


def _check_alpha(out: str, facts: dict) -> list[str]:
    doc, bad = _parse(out)
    if bad:
        return bad
    lower, upper = _dig(doc, "lower"), _dig(doc, "upper")
    return _problems({
        f"{ALPHA_LOWER} <= alpha.lower <= alpha.upper":
            isinstance(lower, int) and isinstance(upper, int)
            and ALPHA_LOWER <= lower <= upper,
    })


def _check_cert_file(path: str):
    def check(out: str, facts: dict) -> list[str]:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            return [f"certificate not written: {exc}"]
        facts["cert_bytes"] = os.path.getsize(path)
        doc, bad = _parse(text)
        return bad or _problems({
            "cert verification.passed": _dig(doc, "verification", "passed") is True,
            f"cert.M == {EXPECTED_M['G', 15]}": _dig(doc, "M") == EXPECTED_M["G", 15],
        })
    return check


def _check_verify_cert(out: str, facts: dict) -> list[str]:
    doc, bad = _parse(out)
    return bad or _problems({"verify-cert passed": _dig(doc, "passed") is True})


def _check_channel(family: str):
    def check(out: str, facts: dict) -> list[str]:
        doc, bad = _parse(out)
        return bad or _problems({
            "failures == 0": _dig(doc, "failures") == 0,
            f"trials == {TRIALS}": _dig(doc, "trials") == TRIALS,
            "zero_error.passed": _dig(doc, "zero_error", "passed") is True,
            f"M == {EXPECTED_M[family, 11]}": _dig(doc, "M") == EXPECTED_M[family, 11],
        })
    return check


# -- workloads -----------------------------------------------------------------


def _paper_n11(seed: int, workdir: str) -> list[Step]:
    s = str(seed)
    return [
        Step(["pipeline", "--family", "G", "--n", "11", "--seed", s], 1,
             _check_pipeline("G")),
        Step(["pipeline", "--family", "H", "--n", "11", "--seed", s], 1,
             _check_pipeline("H")),
        Step(["report", "--family", "G", "--p", "41"], None, _check_report),
        Step(["report", "--family", "H", "--p", "41"], None, _check_report),
        Step(["alpha", "--graph", "G11", "--node-budget", "2000"], 2, _check_alpha),
    ]


def _cert_g15(seed: int, workdir: str) -> list[Step]:
    path = os.path.join(workdir, "cert-G15.json")
    return [
        Step(["cert", "--family", "G", "--n", "15", "--seed", str(seed),
              "--output", path], 1, _check_cert_file(path)),
        Step(["verify-cert", "--input", path], 2, _check_verify_cert),
    ]


def _channel_n11(seed: int, workdir: str) -> list[Step]:
    return [Step(["channel-sim", "--family", family, "--n", "11",
                  "--trials", str(TRIALS), "--seed", str(seed)],
                 stage, _check_channel(family))
            for stage, family in ((1, "H"), (2, "G"))]


WORKLOADS = {w.name: w for w in (
    Workload("paper-n11", ("pipeline_s", "alpha_s"), _paper_n11),
    Workload("cert-g15", ("cert_s", "verify_cert_s"), _cert_g15),
    Workload("channel-n11", ("channel_h_s", "channel_g_s"), _channel_n11),
)}
