"""Golden digests of sampler output and adjacency for fixed (n, r, p, seed).

The digests were recorded from the tuple-based sampler that preceded the
array-native one; any change to the edge stream, the edge order, the JSON
layout or the adjacency arithmetic changes them.  Cases cover every branch of
``_distinct_keys``: k = 0, k = m, the complement path (2k > m), the
direct path with integer codes, the direct path with byte keys
(r * log2(n + 1) >= 63, including a complement case), and r = 2.  No case
needs a second round.  (16, 4, 0.49) at seed 1 did while a round drew 2k
subsets, because its first held too few distinct rows; its digests
were recorded from the array-native sampler before its selection was
rewritten to sort once.  The fallback round is pinned in
``test_sampler_properties.py``.
"""

import hashlib

import pytest

from hypergraph_spectra.combinatorics import ModelParams, sample_hypergraph, save_hypergraph_json
from hypergraph_spectra.gham import adjacency_from_hypergraph

# ((n, r, p, seed), edge count, sha256 of the JSON file, sha256 of adjacency bytes)
GOLDEN = [
    ((6, 3, 0.0, 7), 0,
     "998ae9d6ff91ce94ebb1e8a96bba6d6fc7ba8406d998ca47eecd674923148e4e",
     "2d5565fb483d8ea4525a7a9229677d1038ad34b6e22c8d5152e1d7f7b9817597"),
    ((6, 3, 1.0, 0), 20,
     "f0f26ff451cfa7875864b4daf791ceeacacd31b2c1b5d7e3ea7cb644e0955cd0",
     "483311d826e4c8934791b91758e9faba6b4dc0e818c093947739d4bacb01e85f"),
    ((9, 4, 1.0, 3), 126,
     "99d35b4e59da22724db3f230db4121ef6dbad2bb89f07efaddb94f9488c3ddee",
     "3b72bd307c48d562717587f85a7a915c9015771c8454d23b21d9cdc46571ed3b"),
    ((7, 3, 0.9, 11), 29,
     "8c544bae7da48dde3f3f20c7fc78b636800c639247e03e73ce24be969172d48b",
     "9ca369afb6ae1d740db439697eb446e0198a65056bef9e5ffed1a9d1d693f226"),
    ((30, 3, 0.8, 12), 3231,
     "9c29dc9e2b8da99219ea08466d9704ec3b6499fedf27610523f4f6c3578c65f0",
     "fdffc0025a6d4fa0d936d5c5fe1a2938e6027caae0a181cecd4bd9b29d675d2b"),
    ((20, 15, 0.9, 13), 13995,
     "456eb443371852775fbfd212429c5a7209f3f1f6b2bff80502277f8f359a9187",
     "8fda737553b1e06aa07f100860d9ecd13b2fb3623882b56b1da1ad3a6a939b2a"),
    ((12, 4, 0.3, 21), 156,
     "8a4220a8801ed39899050ec43d541d36252ef6b21b82b7602e616df4fa186833",
     "8c75b1af1d4ffa5221011ca4b0da2d9a4a44f95354d0ae1eca6d209f1a477b36"),
    ((60, 3, 0.3, 22), 10237,
     "b5e79c26a56d8412e49bb338d3e9c24306798f75c409b46674934d05ed93d870",
     "e6d4378b116f73d1aef6e40869359a98196f83842fb6661c3d99112cbd7d13f3"),
    ((40, 20, 5e-09, 31), 723,
     "e2ded31dda3bdf5b5b7fad7e7dba8901e68b2e8c31ec4d2afbeef4cf92ce0aea",
     "4041b18173ed72f1219b97919da8d0f32541e84c00e725644966b68ec7e4d929"),
    ((25, 10, 0.0003, 32), 950,
     "2da56da5f3eb4fa868a0d93070e9e7e54f5f9b6f1151bb292507564df814010b",
     "4ab5c8d1c96d42e993fae6453bfa80b2f404ec90f22254f4a984259a27c96a82"),
    ((30, 15, 1e-05, 33), 1545,
     "046fb539bf6354f2ddbf1369d00cb90ab66d744101dde29534bcb4fe33b07c13",
     "c6e78f0dbff4f8d5e1ce195d15421c7d27492c36348200f923437e2c84726e26"),
    ((50, 2, 0.3, 41), 395,
     "1ab0bdaf4ac3b97cc13a85b92d02bf3184c2fbedd4e0bf9ff929d879e75eebd6",
     "759b24bcac6d446d7b895041d46e9d5dfb8bda7414f75a969fc5b426b5a0f7c1"),
    ((9, 2, 0.7, 42), 27,
     "192d4a09592d9d21bf43d72a838035a9ccf16307f9d4dea4d2b87f97f8d964d5",
     "8ffb1b052401c0a8b88c7fe69271731694c43b937c62e5b8168d72eee960ad62"),
    ((16, 4, 0.49, 1), 892,
     "b55617894cca48701c4902520838d66e2404bb35ad55f2466956223e57106c68",
     "aae6cf6f3045726cedff22dea1ae8bf3b0192fb963e635c4b5c03d7327ca4653"),
]


@pytest.mark.parametrize(
    "case,count,json_digest,adjacency_digest", GOLDEN, ids=[str(g[0]) for g in GOLDEN]
)
def test_sampler_output_matches_golden_digests(tmp_path, case, count, json_digest, adjacency_digest):
    n, r, p, seed = case
    sample = sample_hypergraph(ModelParams(n, r, p), seed)
    assert len(sample.edges) == count
    path = tmp_path / "h.json"
    save_hypergraph_json(sample, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == json_digest
    adjacency = adjacency_from_hypergraph(sample)
    assert hashlib.sha256(adjacency.tobytes()).hexdigest() == adjacency_digest
