"""Compare two fingerprints written by tools/fingerprint.py.

    python3 tools/fpdiff.py before.txt after.txt

Lines are compared in order. Oracle lines must be byte-identical. In every
other line the text between numbers (flags included) and the integers
(counts) must match exactly, and floats x, y must agree to 1e-12 relative,
|x - y| <= 1e-12 * max(1, |x|, |y|): the floor of 1 is the scale of the
marginals whose differences the GP gaps are, as in the GP's own cost
acceptance rule. Prints each difference, a float pair with its relative
difference (for an oracle line, every value that moved), and exits 1 when
there is one, else exits 0.
"""

import math
import re
import sys

REL = 1e-12
NUMBER = re.compile(r"(-?\b\d[\d.]*(?:e[-+]?\d+)?\b|-?\binf\b|\bnan\b)")
INTEGER = re.compile(r"-?\d+")


def floats_agree(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return True
    return math.isfinite(x) and math.isfinite(y) and abs(x - y) <= REL * max(1.0, abs(x), abs(y))


def relative(a: str, b: str) -> str:
    """' (<relative difference> relative)' of two finite floats, else ''."""
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return ""
    return f" ({abs(x - y) / max(1.0, abs(x), abs(y)):.2g} relative)"


def line_differences(before: str, after: str) -> list:
    oracle = " oracle " in before or " oracle " in after
    if oracle and before == after:
        return []
    parts_b, parts_a = NUMBER.split(before), NUMBER.split(after)
    out = []
    if len(parts_b) != len(parts_a):
        out.append("different number of values")
    else:
        for i, (b, a) in enumerate(zip(parts_b, parts_a)):
            if i % 2 == 0 or INTEGER.fullmatch(b) or INTEGER.fullmatch(a):
                if b != a:
                    out.append(f"{b!r} != {a!r}")
            elif b != a if oracle else not floats_agree(b, a):
                out.append(f"{b} vs {a}{relative(b, a)}")
    return ["oracle line differs", *out] if oracle else out


def main(before_path, after_path) -> int:
    with open(before_path, encoding="utf-8") as fh:
        before = fh.read().splitlines()
    with open(after_path, encoding="utf-8") as fh:
        after = fh.read().splitlines()
    bad = 0
    if len(before) != len(after):
        print(f"{len(before)} lines before, {len(after)} after")
        bad += 1
    for number, (b, a) in enumerate(zip(before, after), 1):
        diffs = line_differences(b, a)
        if diffs:
            bad += 1
            tag = " ".join(b.split()[:3])
            print(f"line {number} ({tag}): " + "; ".join(diffs[:5]))
    print(f"{len(before)} lines compared, {bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 tools/fpdiff.py BEFORE AFTER")
    sys.exit(main(sys.argv[1], sys.argv[2]))
