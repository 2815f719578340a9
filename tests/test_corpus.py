"""The outcome corpus: every text of the benchmark's inputs, evaluated and pinned.

An outcome is `conftest.outcome`'s: the coefficients, or the exception's
type and message.  Each stratum of texts is checked two ways:

* each text's outcome under `dsl.evaluate` equals its outcome under
  `conftest.reference_evaluate`, the dense walk, and a mismatch names
  the first texts that differ;
* the stratum's outcomes hash to a pinned sha256, so a change that moves
  both paths alike (a shared kernel, the parser, a message) shows too.

The strata are the bundled sides at orders 20, 40 and 300, both sides of
the identity-stream lists of seeds 1 and 2, the `edit` and `inexact-div`
items of the hostile-text lists of seeds 1 and 2, all read from
`benchmark/inputs.py`, and the theta exponents below.  Each stratum's
texts and orders are pinned by `inputs.digest`, so that a change to the
benchmark's inputs shows as itself and not as a change of outcome.

The manifest stratum is read by `manifest.parse_manifest`, which has no
second path: its outcome is the parsed records' reprs, or the
exception's type and message, line included.  It holds the hostile-text
`manifest` items of seeds 1 and 2, each block of `inputs.record_blocks`
as it is and under `inputs.mutate`'s three edits, and hand-written texts
for the refusals that no edit reaches; every refusal must be reached.

A later change that moves an outcome on purpose re-pins its stratum and
says which texts changed and why.
"""

import hashlib
import importlib.util
import random
import re
from pathlib import Path

import pytest

from conftest import outcome, reference_evaluate
from podium import dsl, manifest

ROOT = Path(__file__).resolve().parent.parent


def _load_inputs():
    spec = importlib.util.spec_from_file_location("benchmark_inputs", ROOT / "benchmark" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load_inputs()


def theta_exponents() -> list:
    """Theta bodies that reach dsl._check_exponent, as (text, order) pairs.

    They are the kinds of tests/test_dsl.py's cases, with seeded
    coefficients: degree 3 and 4, falling quadratics and lines, ceil2 and
    (-1)^ arguments of both parities on each class n = 2m + r, products
    of lines or literals past the 2^16 bits of a class reading, and
    convex quadratics that are summed.  No body is constant on a class,
    which the scan refuses only after a million steps.
    """
    rng = random.Random("theta-exponents")
    texts = []
    for i in range(600):
        a, b, c = rng.randint(1, 9), rng.randint(0, 50), rng.randint(0, 50)
        j, k = rng.randint(0, 3), rng.randint(1, 4)
        kind = i % 12
        if kind == 0:  # degree 3, rising or falling
            body = f"{a}*n*n*n {'-+'[i % 2]} {b}*n*n + {c}"
        elif kind == 1:  # degree 4 as a product
            body = f"(n*n) * ({a}*n*n + {b}) + {c}"
        elif kind == 2:  # a falling quadratic
            body = f"{c} + {b}*n - {a}*n*n"
        elif kind == 3:  # a falling quadratic, through div and a product
            body = rng.choice([f"({c} - {a}*n*n) div 1 + {b}*n", f"{c} - n*({a}*n + {b})"])
        elif kind == 4:  # a cubic that cancels to a rising line
            body = f"n*n*n - n*n*n + {k}*n + {c}"
        elif kind == 5:  # ceil2 of a line, odd on some classes and even on others
            body = f"{a}*n*n + ceil2({k}*n + {j}) + {c}"
        elif kind == 6:  # (-1)^ of a line, odd on some classes and even on others
            body = f"{a}*n*n + {b}*(-1)^({k}*n + {j}) + {b + c}"
        elif kind == 7:  # arguments with odd coefficients in m: a parity fixed or not on a class
            body = rng.choice([
                f"{a}*n*n + (-1)^(ceil2(n)*ceil2(n) + ceil2(n) + n + {j}) + 1",
                f"{a}*n*n + ceil2(ceil2(n + {j})*ceil2(n + {j}) + ceil2(n + {j}) + n)",
                f"{a}*n*n + ceil2(ceil2(n + {j}))",
                f"{a}*n*n + (-1)^(ceil2(n + {j}))",
                f"{a}*n*n + ceil2(n div 2) + n",
            ])
        elif kind == 8:  # a product of lines, near and past 2^16 bits
            body = " * ".join([f"(n + {rng.randrange(10**40, 10**60)})"] * rng.randint(8, 24))
        elif kind == 9:  # a product of literals of up to 4000 digits, near and past 2^16 bits
            literal = str(rng.randrange(10 ** rng.randint(1000, 3999), 10**4000))
            body = " * ".join([literal] * rng.randint(2, 8)) + " * n*n + n"
        elif kind == 10:  # a convex quadratic, summed
            body = f"({a}*n*n {'+-'[i % 2]} {b}*n) div {rng.choice((1, 2))} + {b * b}"
        else:  # ceil2 and (-1)^ of fixed parity, summed
            body = (f"{a}*ceil2(n)*ceil2(n) + {k}*n + {c}*ceil2(n + {j})"
                    f" - {b}*(-1)^(n + {j}) + {2 * b + c * c}")
        weight = rng.choice(["1", "(-1)^(n)", "2*n+1", "n*n - 3"])
        texts.append((f"theta{{n in {rng.choice('NZ')}}}({weight}; {body})", rng.randint(0, 60)))
    return texts


def _reference_theta(node, order):
    """The dense walk of one theta sum, after the exponent check that the
    walk makes, so that both paths refuse what the check refuses; every
    text of that stratum is one theta sum."""
    assert isinstance(node, dsl.Theta)
    dsl._check_exponent(node.exponent)
    return reference_evaluate(node, order)


def strata() -> tuple:
    """Each stratum's name -> its (text, order) pairs, in a fixed order;
    and the manifest texts of the hostile-text lists of seeds 1 and 2."""
    records = inputs.read_records(ROOT)
    out = {"bundled": [(rec[side], order) for order in (20, 40, 300)
                       for rec in records for side in ("lhs", "rhs")]}
    for seed in (1, 2):
        items = inputs.generate("identity-stream", seed, ROOT)
        out[f"identity-stream:{seed}"] = [(item[side], item["order"])
                                          for item in items for side in ("lhs", "rhs")]
    hostile_manifests = []
    for seed in (1, 2):
        items = inputs.generate("hostile-text", seed, ROOT)
        out[f"hostile-text:{seed}"] = [(item["text"], item["order"]) for item in items
                                       if item["kind"] in ("edit", "inexact-div")]
        hostile_manifests += [item["text"] for item in items if item["kind"] == "manifest"]
    out["theta-exponents"] = theta_exponents()
    return out, hostile_manifests


RECORD = """[identity]
id=r
desc=a record
ref=somewhere
quote=$1 = 1$
lhs=1
rhs=1
order=10
"""

# Texts for each refusal that the seeded mutations of the bundled blocks
# do not reach, for the edges of order= and mod= that are accepted, and
# for which error wins: a record is checked at the next [identity] line
# or at the end, so a bad line inside a bad record is reported first, and
# a bad record before a bad line after the next [identity].
HAND_WRITTEN = [
    RECORD.replace("ref=somewhere", "ref=some\x0cwhere"),
    RECORD.replace("ref=somewhere", "ref=some\x1bwhere"),
    RECORD.replace("ref=somewhere", "ref=some\xe9where"),
    RECORD.replace("ref=somewhere", "ref=some\x7fwhere"),
    "desc=stray\n" + RECORD,
    RECORD + "lhs=2\n",
    RECORD + RECORD,
    RECORD.replace("order=10", "order=-1"),
    RECORD.replace("order=10", "order=100001"),
    RECORD.replace("order=10", "order=100000"),
    RECORD + "mod=two\n",
    RECORD + "mod=1\n",
    RECORD + "mod=2\n",
    RECORD.replace("rhs=1\n", "") + "hello\n" + RECORD.replace("id=r", "id=s"),
    RECORD.replace("rhs=1\n", "") + RECORD.replace("id=r", "id=s") + "hello\n",
    RECORD.replace("order=10", "order=ten") + RECORD.replace("id=r", "id=s").replace("lhs=1", "lhs=(1"),
    RECORD.replace("order=10", "order=-5") + "\x1b\n",
    "# only a comment\n\n",
]

# The reader's refusals, each as a pattern of its message after "source:line: ".
MANIFEST_MESSAGES = (
    r"manifest must be 7-bit printable$",
    r"expected key=value, got '.*'$",
    r"unknown key '.*'$",
    r"key=value outside any \[identity\] record$",
    r"duplicate key '.*'$",
    r"record is missing (id|lhs|rhs|order)=$",
    r"duplicate record id '.*'$",
    r"order= must be an integer$",
    r"order= must be >= 0$",
    rf"order= must be <= {manifest.MAX_ORDER}$",
    r"mod= must be an integer$",
    r"mod= must be >= 2$",
    r"record '.*' (lhs|rhs) does not parse: ",
)


def manifest_texts(hostile: list) -> list:
    """The manifest stratum: the hostile-text `manifest` items, each
    bundled [identity] block as it is and under `inputs.mutate` ops 0, 1
    and 2 at four seeded offsets each, and the hand-written texts."""
    blocks = inputs.record_blocks(ROOT)
    rng = random.Random("manifest-blocks")
    mutated = [inputs.mutate(rng, block, op) for block in blocks for op in (0, 1, 2) for _ in range(4)]
    return hostile + blocks + mutated + HAND_WRITTEN


def manifest_outcome(text: str) -> str:
    """The parsed records' reprs, or the exception's type and message."""
    try:
        return repr(manifest.parse_manifest(text))
    except ValueError as exc:
        return f"{type(exc).__module__}.{type(exc).__qualname__}: {exc}"


def line(result) -> str:
    """One outcome as one line of text: the coefficients in hex, which
    has no digit limit, or the exception's type and message."""
    if isinstance(result, list):
        return " ".join(format(c, "x") for c in result)
    kind, message = result
    return f"{kind.__module__}.{kind.__qualname__}: {message}"


def shown(result) -> str:
    """The start of an outcome, in decimal where a coefficient is short."""
    if isinstance(result, list):
        head = [str(c) if c.bit_length() < 4000 else hex(c) for c in result[:12]]
        return " ".join(head) + (" ..." if len(result) > 12 else "")
    return line(result)[:100]


def digest(results) -> str:
    return hashlib.sha256("".join(line(r) + "\n" for r in results).encode()).hexdigest()


# stratum -> (count, inputs.digest of its (text, order) pairs, sha256 of its outcomes)
PINS = {
    "bundled": (294, "10cc2dbfd75cc2d73ef4ff1d832f0bd546a10362ffa9444ff746de988c6336ee",
        "97ecd0cf4615fb2439b3034bad48e469beec30f2ef4a382be2aac611dea83f4f"),
    "hostile-text:1": (11958, "77a2b2c8405b22b8b9f48120e8cfe674ee722d06ed3e1b4fa89cf7cd8ab6a77c",
        "7422ab02a8a2bea53cc5b308678c18fe5e36a38c335b7d9404b78309f87613af"),
    "hostile-text:2": (11958, "fe10c6fef0b201119ec4449966ea6b8bd7e39ca9f44e05534e3032728294253c",
        "e902d0a48ae2b45db784d208eee9da9e8ae56f43170a1794dbb6d53ba526f22c"),
    "identity-stream:1": (1600, "a6d408142131b2cb7c7570dbbfcbb4c13beee89720629e57df055cfa4943f0b8",
        "6eb86c74e2dd3eb444b5b9014a075443014ba5a480cf6f286f5c91a89c447a86"),
    "identity-stream:2": (1600, "5d979bfffc6c60d61d6def4577b586edd3be37537149b124e477f5fc02bf6f17",
        "4fa2aa934361d1021adbf63d7adeaace59832e9ea0e01313797a8f69e06be5fe"),
    "theta-exponents": (600, "b626c38baa1b90c1ef050a0586aacd724f32516607dd85c6ed2416d643845302",
        "72feb00cdf79226277174a4e26375d39dc9982f610b1e98f3a4f35c12cfe7702"),
}

STRATA, HOSTILE_MANIFESTS = strata()
MANIFESTS = manifest_texts(HOSTILE_MANIFESTS)


def test_every_stratum_is_pinned():
    assert sorted(STRATA) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_outcomes_equal_the_dense_walk_and_the_pin(name):
    texts = STRATA[name]
    count, texts_digest, outcomes_digest = PINS[name]
    assert (len(texts), inputs.digest(texts)) == (count, texts_digest), f"{name}: the texts changed"
    reference = _reference_theta if name == "theta-exponents" else reference_evaluate
    results, differ = [], []
    for text, order in texts:
        got = outcome(dsl.evaluate, text, order)
        results.append(got)
        want = outcome(reference, text, order)
        if got != want:
            differ.append(f"{text[:80]!r} at order {order}:\n  {shown(got)}\n  != {shown(want)}")
    if differ:
        first = "\n".join(differ[:5])
        pytest.fail(f"{name}: {len(differ)} texts differ from the dense walk, the first:\n{first}")
    assert digest(results) == outcomes_digest, f"{name}: the outcomes moved from their pin on both paths alike"


# (count, inputs.digest of the texts, sha256 of their outcomes)
MANIFEST_PIN = (728, "f5cf58651b43a1606117692fdaf363bee4cbf469cb750919782924017bc8862d",
                "9bee7bf95a6a69dbc439298af1a48d669ff29d25f75344f7b0f940137c09469d")


def test_manifest_outcomes_reach_every_refusal_and_hold_their_pin():
    count, texts_digest, outcomes_digest = MANIFEST_PIN
    assert (len(MANIFESTS), inputs.digest(MANIFESTS)) == (count, texts_digest), "the texts changed"
    outcomes = [manifest_outcome(text) for text in MANIFESTS]
    messages = [match[1] for out in outcomes
                if (match := re.match(r"podium\.manifest\.ManifestError: <manifest>:\d+: (.*)", out))]
    missed = [pattern for pattern in MANIFEST_MESSAGES
              if not any(re.match(pattern, message) for message in messages)]
    assert not missed, f"no text reaches {missed}"
    unknown = [message for message in messages
               if not any(re.match(pattern, message) for pattern in MANIFEST_MESSAGES)]
    assert not unknown, f"messages outside the list: {unknown[:5]}"
    got = hashlib.sha256("".join(out + "\n" for out in outcomes).encode()).hexdigest()
    assert got == outcomes_digest, "the manifest outcomes moved from their pin"
