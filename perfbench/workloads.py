"""Seeded request lists for the three workloads.

Each workload is a fixed list of CLI argv lists, generated from the seed
alone; the program under test sees nothing else. Sizes are drawn by
stratified sampling: request i of N draws its size from slice i of the
range, and the request templates are interleaved so that every template
sees the whole range. The seed moves every draw inside its slice, picks the
parameters and shuffles the order, but the total work of a list changes
little from seed to seed, which keeps run-to-run spread small.
"""

from __future__ import annotations

import random
from fractions import Fraction

# identities.GRID_VALUES, copied so that request generation never imports
# the program under test
GRID_VALUES = ("1", "2", "3", "-1", "1/2", "-3/2", "5/3")

# small-height values for extra verify pairs
VERIFY_POOL = (
    "1", "2", "3", "4", "-1", "-2", "-3", "1/2", "-1/2", "3/2", "-3/2",
    "2/3", "-2/3", "5/3", "-5/3", "3/4", "4/3", "-5/2",
)
# ab = -4: alpha = beta, so verify skips the Binet comparisons
DEGENERATE_PAIRS = (
    ("2", "-2"), ("-2", "2"), ("1", "-4"), ("-4", "1"), ("4", "-1"),
    ("-1", "4"), ("4/3", "-3"), ("-3", "4/3"), ("8/3", "-3/2"), ("-3/2", "8/3"),
)

# Parameter classes for term and table requests, with the largest index a
# deep term may have in that class. Within a class every pair has the same
# |ab| and the same denominators, so which pair the seed picks barely
# changes the cost.
#   fast: |ab| = 35, integers; values grow by a factor of about 35 every
#         two steps;
#   slow: ab = 5/6 with denominators 2 and 3, so the cost is in growing
#         denominators and gcds;
#   bounded: ab in {-1, -2, -3}, where D < 0 and the sequence is periodic,
#         so every step is cheap.
# The fast and slow limits keep every deep-term value under Python's
# 4300-digit int-to-str limit; run.py probes that defect separately.
PARAM_CLASSES = (
    ("fast", 4000, (
        ("5", "7"), ("7", "5"), ("-5", "-7"), ("-7", "-5"), ("5", "-7"),
        ("-7", "5"), ("-5", "7"), ("7", "-5"), ("35", "1"), ("1", "35"),
        ("-35", "1"), ("1", "-35"),
    )),
    ("slow", 4000, (
        ("1/2", "5/3"), ("5/3", "1/2"), ("-1/2", "-5/3"), ("-5/3", "-1/2"),
        ("1/3", "5/2"), ("5/2", "1/3"), ("-1/3", "-5/2"), ("-5/2", "-1/3"),
    )),
    ("bounded", 10000, (
        ("-1", "1"), ("1", "-1"), ("1", "-2"), ("-2", "1"), ("2", "-1"),
        ("-1", "2"), ("1", "-3"), ("-3", "1"), ("3", "-1"), ("-1", "3"),
        ("3/2", "-2/3"), ("-2/3", "3/2"), ("1/2", "-4"), ("-4", "1/2"),
    )),
)

FORMATS = ("plain", "csv", "json")


def _ab(pair) -> list[str]:
    # the '=' form, because argparse reads '-3' after '--a' as an option
    return [f"--a={pair[0]}", f"--b={pair[1]}"]


def _log_draw(lo: float, hi: float, frac: float) -> int:
    return round(lo * (hi / lo) ** frac)


def verify_grid(rng: random.Random) -> list[list[str]]:
    """The 49 default-grid pairs plus 51 seeded small-height pairs, six of
    them with ab = -4; default --n-max 12 and --order 40."""
    pairs = [(a, b) for a in GRID_VALUES for b in GRID_VALUES]
    general = [
        (a, b) for a in VERIFY_POOL for b in VERIFY_POOL
        if Fraction(a) * Fraction(b) != -4
    ]
    pairs += rng.sample(DEGENERATE_PAIRS, 6) + rng.sample(general, 45)
    rng.shuffle(pairs)
    return [["verify", *_ab(p)] for p in pairs]


DEEP_TEMPLATES = (
    ("fib", None), ("lucas", None),
    ("fib-matrix", "closed"), ("fib-matrix", "rec"),
    ("fib-matrix", "binet"), ("fib-matrix", "all"),
    ("lucas-matrix", "closed"), ("lucas-matrix", "rec"),
    ("lucas-matrix", "binet"), ("lucas-matrix", "all"),
    ("series", None),
)


def deep_term(rng: random.Random) -> list[list[str]]:
    """Cold single terms: n log-uniform from 100 up to the class limit, and
    series requests with --order log-uniform in 20..300. Every request has
    its own parameter pair, so every memo starts empty."""
    # class varies fastest, so that every class gets slices across the range
    combos = [(t, c) for t in DEEP_TEMPLATES for c in PARAM_CLASSES]
    count = 8 * len(combos)
    requests = []
    for i in range(count):
        (kind, source), (_, n_hi, pool) = combos[i % len(combos)]
        frac = (i + rng.random()) / count
        pair = rng.choice(pool)
        fmt = rng.choice(FORMATS)
        if kind == "series":
            order = _log_draw(20, 300, frac)
            requests.append(["series", *_ab(pair), "--order", str(order), "--format", fmt])
            continue
        argv = ["term", "--kind", kind, *_ab(pair), "--n", str(_log_draw(100, n_hi, frac)),
                "--format", fmt]
        if source:
            argv += ["--source", source]
        requests.append(argv)
    rng.shuffle(requests)
    return requests


TABLE_TEMPLATES = tuple(
    [(kind, None, fmt) for kind in ("fib", "lucas") for fmt in FORMATS]
    + [
        (kind, source, fmt)
        for kind in ("fib-matrix", "lucas-matrix")
        for source in ("closed", "rec", "all")
        for fmt in FORMATS
    ]
)


# range lengths by source (None: scalar kinds), log-uniform between the two
TABLE_LENGTHS = {None: (400, 3200), "closed": (200, 1600), "rec": (12, 48), "all": (8, 32)}


def table_sweep(rng: random.Random) -> list[list[str]]:
    """Ranges of consecutive terms. Range lengths are set per source so that
    each template costs about the same, which keeps the latency percentiles
    in dense parts of the distribution: scalar and closed ranges straddle
    zero and are long, while rec and all ranges start at n >= 0 and are
    short, because both restart the recurrence at every index and their
    cost grows quadratically with the range end."""
    count = 6 * len(TABLE_TEMPLATES)
    requests = []
    for i in range(count):
        kind, source, fmt = TABLE_TEMPLATES[i % len(TABLE_TEMPLATES)]
        # template t's k-th request takes class (t + k) mod 3: each
        # (template, class) gets one slice in each half of the range
        _, _, pool = PARAM_CLASSES[(i + i // len(TABLE_TEMPLATES)) % len(PARAM_CLASSES)]
        frac = (i + rng.random()) / count
        if source in ("rec", "all"):
            length = _log_draw(*TABLE_LENGTHS[source], frac)
            start = round(length * rng.uniform(0.8, 1.2))
        else:
            length = _log_draw(*TABLE_LENGTHS[source], frac)
            start = -round(length * rng.uniform(0.4, 0.6))
        argv = ["table", "--kind", kind, *_ab(rng.choice(pool)), f"--n={start}",
                "--n-max", str(start + length - 1), "--format", fmt]
        if source:
            argv += ["--source", source]
        requests.append(argv)
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "verify-grid": verify_grid,
    "deep-term": deep_term,
    "table-sweep": table_sweep,
}


def requests_for(workload: str, seed: int) -> list[list[str]]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
