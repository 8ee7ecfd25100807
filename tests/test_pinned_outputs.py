"""Byte-for-byte pins of outputs that the arithmetic layers (gf, matfq,
projgeo, patterns) produce, on sets the benchmark's own digests do not
cover.  A rewrite of that arithmetic must leave every digest unchanged."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys

import pytest

from gfminrank import (MatrixFq, canonical_representatives, cli, count_absolute,
                       field_from_order, rank)
from gfminrank.matfq import normalize_invertible_symmetric

PATTERN_DIGESTS = {
    (8, 3, "json"): "d40bfdae68ab5c02fd16fd1897fa5540a3ca03b65d63ca4ba602fd444fb259d2",
    (8, 3, "dot"): "4217678068d18056f6b6891ae833a858cd52024962b714e54be651cb996ffc11",
    (8, 3, "matrix"): "542c3d283ed7f75a4522ddd6c6969999a8e305c3eaa9ea45b3bba75e047998bc",
    (9, 3, "json"): "001de6448934f5ce817f5a4559efa22bca1df476077b6d5be07f26340a4f4621",
    (9, 3, "dot"): "06145199f7bd234bc606076a11ae8678da801264da94c8d5d6a212297ce33d25",
    (9, 3, "matrix"): "3c85536d4664f7ac88b7e02f35c4ff62f5d4805a3a7430bb9684cf7bbc46749b",
    (25, 2, "json"): "44540f2b05d529ef21600992745d8d922d23eeaaf8e9245ac99f4e0c36f59523",
    (25, 2, "dot"): "c1a382e2d570c1d460120b38006632ed5e5fbc3d86af389e30ec517f451cb890",
    (25, 2, "matrix"): "6fe0bce12846119ff04b2f6807027cd69e8ee4513e59aa633937507088f0d630",
    (27, 2, "json"): "2be0e78229fd3900546990f24a4dd5bc2939723a17bbabadc79b722a7765ee69",
    (27, 2, "dot"): "f409fc79c9f79671a3174fd216ccc06b51f076a9771c9d7bfe13e9f8a4e33f7a",
    (27, 2, "matrix"): "2e7c642c8dd53f89e7efa632e0d65de837b04ba95c3c0eec7163dd785c292629",
    (257, 2, "json"): "135c230140b405bd0ed3b9d1384925a1df6882163d48a4bee2567a14f574bcf1",
    (257, 2, "dot"): "d05afea43c5b3763d8f77103c7b0cb890998f7b84db460774c1eb4a731326120",
    (257, 2, "matrix"): "3b8c7b24b5d25f58f0ce07f38d3a7b41e0ad2d860ee852f4a1bccb0c240ed4d5",
    (65521, 1, "json"): "05613af7455f2bf62d0c74987285591eb0e6f6a0cdcc4b5d52588f463bd1c55a",
    (65521, 1, "dot"): "b2d82213cd3a3ece9cb1be562f24f2dc473bcff31841c030ef9e644fee047ee6",
    (65521, 1, "matrix"): "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    (3, 6, "json"): "8088cb1341b39748980e5ddce424003387109d0bb54336ab5719beec0fd99d5f",
    (3, 6, "dot"): "02be31d3002121cc579441f9b20f78ce7c53c55a19d9167e0a292a2a4e4c768b",
    (3, 6, "matrix"): "caf755b96884d948b6d4520459dad4359eb5bbbee16a400155bf088faf597141",
    (16, 3, "matrix"): "14a3c209e2eb3bee699a04bbbb531eb7a44c29512cb8abf680863a872a583416",
}

# (records, digest of the classify output lines, digest of the (C, N) pairs
# of normalize_invertible_symmetric) over every invertible symmetric matrix
# of order 1..3 over GF(4) and 1..2 over GF(9)
CLASSIFY_DIGESTS = {
    (4, 3): (3075, "11aa1bc79bf800b646dcc96ffbbd7e08f6d9a8714303508c11b987893cf33263",
             "22f994bae54703507ce2960d84dc05383e6fcde42a570efb64c4ad4bfc4b5a39"),
    (9, 2): (656, "a1ab0af0f21e4110c54d7387cb42b04916b21503fe7828d3b71aec5ce3d5ca36",
             "6dd4825e7a890a705e879df7c3785c0bc6d0706c670b2613d6c1139afef01234"),
}

# [q, k, count_absolute of each canonical representative], for every k with
# at most 3000 points
ABSOLUTE_COUNTS_DIGEST = "1bd37a1436f2b39c7e03f980f20ecdb4b510520a410b79166d7a1f597e0704b2"


def _run(argv, stdin: str = "") -> str:
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    assert code == 0, argv
    return out.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("q, k, fmt", sorted(PATTERN_DIGESTS))
def test_pattern_output_is_pinned(q, k, fmt):
    text = _run(["patterns", "--q", str(q), "--k", str(k), "--format", fmt])
    assert _sha(text) == PATTERN_DIGESTS[q, k, fmt]


def _symmetric(q: int, k: int):
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    for vals in itertools.product(range(q), repeat=len(pairs)):
        m = [[0] * k for _ in range(k)]
        for (i, j), v in zip(pairs, vals):
            m[i][j] = m[j][i] = v
        yield m


@pytest.mark.parametrize("q, kmax", sorted(CLASSIFY_DIGESTS))
def test_classify_records_are_pinned(q, kmax):
    f = field_from_order(q)
    lines, forms = [], []
    for k in range(1, kmax + 1):
        for m in _symmetric(q, k):
            b = MatrixFq(f, m)
            if rank(b) != k:
                continue
            flat = [x for row in m for x in row]
            lines.append(json.dumps({"field": f.to_json(), "rows": k, "cols": k, "entries": flat}))
            c, n = normalize_invertible_symmetric(b)
            forms.append(json.dumps([c.to_lists(), n.to_lists()]))
    records = "".join(_run(["classify"], line + "\n") for line in lines)
    assert (len(lines), _sha(records), _sha("\n".join(forms))) == CLASSIFY_DIGESTS[q, kmax]


def test_absolute_point_counts_are_pinned():
    counts = []
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27):
        f = field_from_order(q)
        for k in range(8):
            if (q ** k - 1) // (q - 1) > 3000:
                break
            counts.append([q, k] + [count_absolute(b) for b in canonical_representatives(f, k)])
    assert counts[:5] == [[2, 0, 0], [2, 1, 0], [2, 2, 1, 3], [2, 3, 3], [2, 4, 7, 15]]
    assert _sha(json.dumps(counts)) == ABSOLUTE_COUNTS_DIGEST
