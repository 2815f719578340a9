"""Seeded input lists for the four benchmark workloads.

Everything here is plain text and numbers built from the seed and from
the bundled identity file read as text; nothing imports podium, so the
inputs and their known answers never come from the code being measured.
The same (workload, seed) always gives a byte-identical list.

Work per list is held steady across seeds: each item kind has a fixed
count, orders are drawn one per stratum of a log-uniform range, and the
expensive hostile constructs have fixed counts and shapes.  Seeds change
which identity, exponent split, mutation and offset each item gets, not
how much work the list holds.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("manifest-1000", "oracle-caps", "identity-stream", "hostile-text")

# The sixteen counting functions by their CLI names (podium.FunctionId).
FUNCTIONS = (
    "p", "pod", "ped", "qdist", "qodd", "peo", "qeo", "opbar",
    "opodd", "afun", "cubic", "p3", "p2mod4", "qodd3", "eo", "eobar",
)

MANIFEST_ORDER = 1000

# identity-stream: items per kind, and the log-uniform order range.
STREAM_COUNTS = {"jtp": 200, "power": 160, "subst": 120, "record": 160, "false": 160}
STREAM_ORDERS = (10, 200)
# Total exponent of a ring-law power item, cycled over its order strata.
POWER_TOTALS = (4, 6, 8, 10, 12, 14)

# hostile-text: edits of bundled text, plus fixed counts of the
# untrusted-input constructs that the parser and theta scan must survive.
HOSTILE_EDITS = 11952
HOSTILE_RECORDS = 30
HOSTILE_DEEP = 6
HOSTILE_FLAT_THETA = 6
HOSTILE_INEXACT_DIV = 6
HOSTILE_ORDERS = (20, 60)
DEEP_RANGE = (1500, 4000)
EDIT_ALPHABET = "0123456789()+-*/^,;{} qnZN"

# Series factors for the ring-law items; each has constant term 1.
FACTORS = (
    "poch(q^1, q^1)",
    "poch(-q^1, q^2)",
    "poch(q^2, q^3)",
    "poch(-q^1, q^1)",
    "poch(q^2, q^2) / poch(q^1, q^1)",
    "poch(q^1, q^2) * poch(-q^3, q^3)",
    "gf(p)",
    "gf(pod)",
    "gf(qodd)",
    "theta{n in Z}((-1)^(n); n*n)",
)


def data_file(root: Path) -> Path:
    return root / "src" / "podium" / "data" / "identities.txt"


def read_records(root: Path) -> list:
    """The bundled records as dicts, read as text without importing podium."""
    records = []
    for raw in data_file(root).read_text("ascii").splitlines():
        line = raw.strip()
        if line == "[identity]":
            records.append({"mod": None})
        elif records and "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            records[-1][key.strip()] = value.strip()
    for rec in records:
        rec["order"] = int(rec["order"])
        if rec["mod"] is not None:
            rec["mod"] = int(rec["mod"])
    return records


def record_blocks(root: Path) -> list:
    """The text of each bundled record, from its [identity] line on."""
    text = data_file(root).read_text("ascii")
    body = text[text.index("[identity]"):]
    return ["[identity]" + block for block in body.split("[identity]")[1:]]


def strata_orders(rng: random.Random, count: int, low: int, high: int) -> list:
    """One log-uniform order per equal-width stratum of log(order), ascending."""
    ratio = high / low
    return [round(low * ratio ** ((i + rng.random()) / count)) for i in range(count)]


def jtp_identity(rng: random.Random) -> tuple:
    """A Jacobi triple product instance, sum side and product side.

    sum_{n in Z} z^n x^{n^2} = (x^2;x^2)(-z x;x^2)(-x/z;x^2) with x = q^a and
    z = +-q^b, |b| < a, so every exponent is a non-negative integer.
    """
    a = rng.randint(1, 6)
    b = rng.randint(-(a - 1), a - 1)
    alternating = rng.random() < 0.5
    weight = "(-1)^(n)" if alternating else "1"
    exponent = f"{a}*n*n" + (f"+{b}*n" if b > 0 else f"-{-b}*n" if b < 0 else "")
    sign = "" if alternating else "-"
    lhs = f"theta{{n in Z}}({weight}; {exponent})"
    rhs = (
        f"poch({sign}q^{a + b}, q^{2 * a}) * poch({sign}q^{a - b}, q^{2 * a})"
        f" * poch(q^{2 * a}, q^{2 * a})"
    )
    return lhs, rhs


def power_identity(rng: random.Random, x: str, total: int, negative: bool) -> tuple:
    """(X)^m * (X)^j = (X)^(m+j), or (X)^(total+2) * (X)^-2 = (X)^total.

    Either way the multiply count depends only on `total`, not on the
    seeded split m + j.
    """
    if negative:
        return f"({x})^{total + 2} * ({x})^-2", f"({x})^{total}"
    m = rng.randint(1, total - 1)
    return f"({x})^{m} * ({x})^{total - m}", f"({x})^{total}"


def subst_identity(rng: random.Random) -> tuple:
    """q -> +-q^k is a ring map: it splits over products and moves Pochhammers."""
    k = rng.randint(2, 4)
    if rng.random() < 0.5:
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        return f"subst(poch(q^{a}, q^{b}), q^{k})", f"poch(q^{k * a}, q^{k * b})"
    x, y = rng.choice(FACTORS), rng.choice(FACTORS)
    sign = rng.choice(("", "-"))
    return (
        f"subst({x} * {y}, {sign}q^{k})",
        f"subst({x}, {sign}q^{k}) * subst({y}, {sign}q^{k})",
    )


def identity_stream(rng: random.Random, records: list) -> list:
    """The costly choices (factor, total exponent, record) are dealt by order
    stratum i, so the slowest items are alike from seed to seed."""
    low, high = STREAM_ORDERS
    plain = [r for r in records if r["mod"] is None]
    items = []
    for kind, count in STREAM_COUNTS.items():
        for i, order in enumerate(strata_orders(rng, count, low, high)):
            item = {"kind": kind, "order": order, "mod": None, "mismatch_at": None}
            if kind == "jtp":
                item["lhs"], item["rhs"] = jtp_identity(rng)
            elif kind == "power":
                x = FACTORS[i % len(FACTORS)]
                total = POWER_TOTALS[i % len(POWER_TOTALS)]
                item["lhs"], item["rhs"] = power_identity(rng, x, total, i % 5 == 0)
            elif kind == "subst":
                item["lhs"], item["rhs"] = subst_identity(rng)
            elif kind == "record":
                rec = records[i % len(records)]
                item.update(lhs=rec["lhs"], rhs=rec["rhs"], mod=rec["mod"])
            else:
                # A true identity with q^k added to one side disagrees at
                # exactly coefficient k, by exactly one.
                source = i % 3
                if source == 0:
                    lhs, rhs = jtp_identity(rng)
                elif source == 1:
                    lhs, rhs = subst_identity(rng)
                else:
                    rec = plain[(i // 3) % len(plain)]
                    lhs, rhs = rec["lhs"], rec["rhs"]
                k = rng.randint(1, order)
                item.update(lhs=lhs, rhs=f"({rhs}) + q^{k}", mismatch_at=k)
            items.append(item)
    rng.shuffle(items)
    return items


def mutate(rng: random.Random, text: str, op: int) -> str:
    """Truncate (op 0), insert one character (1) or delete one (2), at a seeded offset."""
    if op == 0:
        return text[: rng.randrange(len(text))]
    if op == 1:
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(EDIT_ALPHABET) + text[at:]
    at = rng.randrange(len(text))
    return text[:at] + text[at + 1 :]


def deep_text(rng: random.Random, i: int) -> str:
    """Nesting drawn from stratum i of DEEP_RANGE, so the deepest text (and
    with it the peak memory) varies little between seeds."""
    low, high = DEEP_RANGE
    depth = low + int((high - low) * (i + rng.random()) / HOSTILE_DEEP)
    shape = i % 3
    if shape == 0:
        return "(" * depth + "q^1" + ")" * depth
    if shape == 1:
        return "-" * depth + "1"
    return "subst(" * depth + "q^1" + ", q^1)" * depth


def flat_theta_text(order: int, i: int, rng: random.Random) -> str:
    """A theta sum whose exponent never grows past the order."""
    c = rng.randint(0, order)
    shape = i % 3
    if shape == 0:
        return f"theta{{n in Z}}(1; {c})"
    if shape == 1:
        return f"theta{{n in N}}((-1)^(n); {c})"
    return f"theta{{n in Z}}(1; 0*n + {c})"


def inexact_div_text(rng: random.Random) -> str:
    """a*n^2 + n is not divisible by d >= 3 for some n < d."""
    a = rng.randint(1, 5)
    d = rng.randint(3, 5)
    return f"theta{{n in N}}(1; ({a}*n*n+n) div {d})"


def hostile_text(rng: random.Random, records: list, blocks: list) -> list:
    low, high = HOSTILE_ORDERS
    sources = [r[side] for r in records for side in ("lhs", "rhs")]
    items = []
    # Sources, edit kinds and orders are dealt round-robin, so every list
    # holds the same mix; the seed picks the offsets and inserted characters.
    for i in range(HOSTILE_EDITS):
        text = mutate(rng, sources[i % len(sources)], (i // len(sources)) % 3)
        items.append({"kind": "edit", "text": text, "order": low + i % (high - low + 1)})
    for i in range(HOSTILE_RECORDS):
        items.append({"kind": "manifest", "text": mutate(rng, rng.choice(blocks), i % 3)})
    for i in range(HOSTILE_DEEP):
        items.append({"kind": "deep", "text": deep_text(rng, i)})
    for i in range(HOSTILE_FLAT_THETA):
        order = rng.randint(low, high)
        items.append({"kind": "flat-theta", "text": flat_theta_text(order, i, rng), "order": order})
    for _ in range(HOSTILE_INEXACT_DIV):
        items.append({"kind": "inexact-div", "text": inexact_div_text(rng)})
    for item in items:
        item.setdefault("order", rng.randint(low, high))
    rng.shuffle(items)
    return items


def generate(workload: str, seed: int, root: Path) -> list:
    """The input list of one workload; manifest-1000 and oracle-caps ignore the seed."""
    if workload == "manifest-1000":
        return [{"id": r["id"], "order": MANIFEST_ORDER} for r in read_records(root)]
    if workload == "oracle-caps":
        return [{"fid": name} for name in FUNCTIONS]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "identity-stream":
        return identity_stream(rng, read_records(root))
    if workload == "hostile-text":
        return hostile_text(rng, read_records(root), record_blocks(root))
    raise ValueError(f"unknown workload {workload!r}")


def encode(items: list) -> bytes:
    """Canonical bytes of an input list; their sha256 identifies the inputs."""
    return json.dumps(items, sort_keys=True, separators=(",", ":")).encode("ascii")


def digest(items: list) -> str:
    return hashlib.sha256(encode(items)).hexdigest()
