"""The corpus generator is a pure function of (seed, n, m)."""

import unicodedata

import gen

SIZE = {"n": 200, "m": 3000}


def _bytes(corpus):
    return [path.read_bytes() for path in corpus.files()]


def test_same_arguments_give_identical_bytes(tmp_path):
    a = gen.generate(5, out=tmp_path / "a", **SIZE)
    b = gen.generate(5, out=tmp_path / "b", **SIZE)
    assert _bytes(a) == _bytes(b)
    assert (a.truth.counts == b.truth.counts).all()


def test_other_seed_gives_other_bytes(tmp_path):
    a = gen.generate(5, out=tmp_path / "a", **SIZE)
    b = gen.generate(6, out=tmp_path / "b", **SIZE)
    for left, right in zip(_bytes(a), _bytes(b)):
        assert left != right


def test_corpus_has_the_hard_cases(tmp_path):
    corpus = gen.generate(5, out=tmp_path, **SIZE)
    text = "".join(path.read_text("utf-8") for _, path in corpus.years)
    assert any(unicodedata.normalize("NFC", line) != line for line in text.splitlines())
    renames = corpus.renames.read_text("utf-8").splitlines()[1:]
    olds = {unicodedata.normalize("NFC", line.split("\t")[0]) for line in renames}
    news = {line.split("\t")[1] for line in renames}
    assert olds & news, "rename chains"
    assert set(corpus.truth.names) & olds == set(), "renamed names are not canonical"
    assert len(corpus.truth.names) < SIZE["n"], "collisions and new journals shrink the set"
    mapped = corpus.basemap.read_text("utf-8").splitlines()[1:]
    assert len(mapped) < len(corpus.truth.names) + gen.BASEMAP_EXTRA


def test_truth_is_aligned_and_sorted(tmp_path):
    truth = gen.generate(5, out=tmp_path, **SIZE).truth
    assert list(truth.names) == sorted(truth.names)
    keys = truth.citing * len(truth.names) + truth.cited
    assert (keys[1:] > keys[:-1]).all()
    assert ((truth.counts > 0).any(axis=0)).all()
    assert gen.Truth.load(tmp_path).exclude == truth.exclude
