"""The seeded braid corpus: reproducible, seed-dependent, fixed size profile."""

import json

import corpus
from skeinlat.bracket import braid_components, braid_pd, delete_components, load_corpus


def _profile(text: str) -> list[tuple]:
    return [(e["strands"], e["crossings"], e["mu"]) for e in json.loads(text)["links"]]


def test_same_seed_gives_identical_bytes():
    assert corpus.corpus_json(7) == corpus.corpus_json(7)


def test_two_seeds_differ_with_the_same_size_ranges():
    a, b = corpus.corpus_json(1), corpus.corpus_json(2)
    assert a != b
    assert _profile(a) == _profile(b)
    profile = _profile(a)
    assert len(profile) == corpus.LINKS
    assert {s for s, _, _ in profile} == {corpus.STRANDS}
    assert min(c for _, c, _ in profile) == corpus.MIN_CROSSINGS
    assert max(c for _, c, _ in profile) == corpus.MAX_CROSSINGS
    assert {m for _, _, m in profile} == {2, 3, 4}


def test_words_are_distinct():
    words = corpus.braid_words(3)
    assert len({tuple(w) for w in words}) == len(words)


def test_sublink_words_match_the_program_sublinks():
    for word in corpus.braid_words(4, links=12):
        diagram = braid_pd(word, corpus.STRANDS)
        mu = diagram.mu
        subs = corpus._sublink_words(word)
        assert len(subs) == 2 ** mu
        assert subs[0] == (word, corpus.STRANDS)
        for mask, (sub, strands) in enumerate(subs[:-1]):
            assert len(braid_components(sub, strands)) == mu - bin(mask).count("1")
        assert subs[-1] == ([], 0)
        theirs = [delete_components(diagram, [i for i in range(mu) if m >> i & 1]).crossings
                  for m in range(1 << mu)]
        assert sorted(len(sub) for sub, _ in subs) == sorted(theirs)


def test_corpus_is_valid_and_matches_the_program_closure(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(corpus.corpus_json(5, links=20))
    entries = load_corpus(str(path))
    assert len(entries) == 20
    for entry in entries:
        diagram = braid_pd(entry["braid"], entry["strands"])
        assert [list(cr) for cr in diagram.pd] == entry["pd"]
        assert diagram.loops == entry["loops"]
