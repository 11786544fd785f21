"""Pinned sha256 digests of ``--deterministic`` outputs over the fixture corpus.

Each order runs the ten fixture apps three times on one KB: cold, warm, then
warm for a second audience, which regenerates every AI app's summary. After
each pass the reports (``.json`` and ``.txt``), the KB log and the summary
cache are hashed. A refactor that must keep these outputs byte-identical
fails here on the first byte that moves. The prompts the mock backend saw are
hashed too, sorted, since a call's batches overlap on the gateway's pool; the
mock's answers do not depend on every byte of a prompt. The manifest records
absolute paths, so it is left out.
"""

import hashlib
import json

import pytest

from aidiscover import cli
from aidiscover.backends import MockBackend

PASSES = (("cold", "user"), ("warm", "user"), ("audience", "developer"))

PINNED = {
    "atd": {
        "cold": {
            "reports": "dbca4e1a2a1bf229191f8dbd5cbc674ecabd1bcb3abbc2dd2e379c84427a56a5",
            "kb": "98f743af57fd5a1342957100f5e8910bcaa3ba37535a96ce2ba5510cf39ded70",
            "summaries": "051143390a573c55f8e8e5ae859717a5d9eb7d8ca05b49793419ca551d5c8903",
            "prompts": "b8ff860baa433856dba821d6d9363b3dc638c31df0528d9beab2009d0631ab53",
        },
        "warm": {
            "reports": "a3ef544c6ec331373a219ed3e8e1a3284a09b791de9a8443529023bd20c0ced3",
            "kb": "98f743af57fd5a1342957100f5e8910bcaa3ba37535a96ce2ba5510cf39ded70",
            "summaries": "051143390a573c55f8e8e5ae859717a5d9eb7d8ca05b49793419ca551d5c8903",
            "prompts": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
        "audience": {
            "reports": "a3ef544c6ec331373a219ed3e8e1a3284a09b791de9a8443529023bd20c0ced3",
            "kb": "98f743af57fd5a1342957100f5e8910bcaa3ba37535a96ce2ba5510cf39ded70",
            "summaries": "5c73981e24896c462e73b9961aa33acca86d35b4ffd708f186cbce3ac5655426",
            "prompts": "9352e2c64c3294ccbacdaeca8fb6b958560700fb8a94204055d18217d03207c4",
        },
    },
    "dta": {
        "cold": {
            "reports": "52c34d8056aae62bb7133a485414bbbd9f55b45a6f9cf33efe50ecf72c76fe26",
            "kb": "b75e52ef7763ab53945157e6519679f620d7e07dd0fc97da787c15806156a0db",
            "summaries": "051143390a573c55f8e8e5ae859717a5d9eb7d8ca05b49793419ca551d5c8903",
            "prompts": "127b550a836e4df81e4ff74e7628a15b382e3e9ad1af38c9b25e17251d1dace7",
        },
        "warm": {
            "reports": "fa6e255b7acb5286c8e3042ac71c6526df858062ebd44c9274584631723d0819",
            "kb": "b75e52ef7763ab53945157e6519679f620d7e07dd0fc97da787c15806156a0db",
            "summaries": "051143390a573c55f8e8e5ae859717a5d9eb7d8ca05b49793419ca551d5c8903",
            "prompts": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
        "audience": {
            "reports": "fa6e255b7acb5286c8e3042ac71c6526df858062ebd44c9274584631723d0819",
            "kb": "b75e52ef7763ab53945157e6519679f620d7e07dd0fc97da787c15806156a0db",
            "summaries": "5c73981e24896c462e73b9961aa33acca86d35b4ffd708f186cbce3ac5655426",
            "prompts": "9352e2c64c3294ccbacdaeca8fb6b958560700fb8a94204055d18217d03207c4",
        },
    },
}


def _reports_digest(out_dir) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name != "manifest.json":
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class RecordingMock(MockBackend):
    def __init__(self):
        self.prompts = []

    def complete(self, request):
        self.prompts.append(request.prompt)
        return super().complete(request)


@pytest.mark.parametrize("order", sorted(PINNED))
def test_deterministic_outputs_match_pinned_digests(tmp_path, fixture_corpus, monkeypatch, order):
    apks, _, _ = fixture_corpus
    kb_path = tmp_path / "kb.jsonl"
    seen = {}
    for name, audience in PASSES:
        backend = RecordingMock()
        monkeypatch.setattr(cli, "MockBackend", lambda: backend)
        out_dir = tmp_path / name
        argv = ["analyze", "--backend", "mock", "--order", order, "--audience", audience,
                "--kb", kb_path, "--out", out_dir, "--deterministic", *apks]
        assert cli.main([str(a) for a in argv]) == cli.EXIT_OK
        # The warm passes load the KB through the snapshot the cold pass wrote.
        kb_load = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["kb_load"]
        assert (kb_load["snapshot_rows"] > 0) == (name != "cold")
        seen[name] = {
            "reports": _reports_digest(out_dir),
            "kb": _file_digest(kb_path),
            "summaries": _file_digest(tmp_path / "kb.jsonl.summaries"),
            "prompts": hashlib.sha256("\0".join(sorted(backend.prompts)).encode()).hexdigest(),
        }
    assert seen == PINNED[order]
