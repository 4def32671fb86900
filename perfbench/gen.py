"""Seeded synthetic citation corpus for the citeheat benchmark.

Given a seed and a size (``n`` journals, ``m`` distinct citing/cited pairs) this
writes three yearly edge lists, a rename table and a base map, byte-identical
for identical arguments, plus the canonical aligned arrays the checker uses
as ground truth.

The corpus model:

* journal weights are Pareto(1.2) + 1; (citing, cited) pairs are drawn by
  weight until ``m`` distinct pairs exist. Counting distinct pairs keeps the
  aligned cell count, and so the work per run, nearly independent of the
  seed; counting draws would let one heavy journal swing it by a third.
  A tenth of the pairs are written as two records in a year, which the
  reader must sum;
* each pair has a base rate 3 * LogNormal(0, 0.3); its count in year ``y``
  is Poisson(rate * (1 + 0.1 y)), and zero counts are not written;
* a ring edge i -> i+1 in every year keeps every journal actively citing,
  except a few "new" journals that cite nobody in the first year, so the
  common-set filter has something to drop;
* about 8% of the names are non-ASCII; some of them are written NFD in one
  year and NFC in the others;
* the rename table has two-step chains (year 0 and year 1 use older names)
  and collisions that merge a live journal into another live journal;
* the base map covers about 90% of the journals, plus labels that are not
  in the data.

The truth arrays are built from what the generator knows each written name
stands for, not by parsing the files, so they are independent of the program
under test.

Usage: python3 perfbench/gen.py --seed 1 --n 3000 --m 400000 --out DIR
"""

from __future__ import annotations

import argparse
import json
import unicodedata
from dataclasses import dataclass
from pathlib import Path

import numpy as np

YEAR_LABELS = ("2011", "2012", "2013")

_ASCII_WORDS = (
    "Annals", "Journal", "Letters", "Review", "Bulletin", "Proceedings",
    "Transactions", "Archives", "Reports", "Studies", "Quarterly", "Advances",
)
_ASCII_TOPICS = (
    "Physics", "Chemistry", "Biology", "Geology", "Economics", "Sociology",
    "Mathematics", "Medicine", "Ecology", "Linguistics", "Astronomy", "Law",
)
# Every stem has at least one character with a canonical decomposition, so
# its NFD spelling differs from its NFC spelling.
_NON_ASCII_STEMS = (
    "Revue d'Économie", "Zeitschrift für Physik", "Acta Señal", "Études Rurales",
    "Časopis Matematiky", "Ångström Letters", "Revista de Ciência", "Öko Forum",
    "Gazzetta Medica Itálica", "Sciences Humaines Québec",
)
NON_ASCII_SHARE = 0.08
NFD_SHARE = 0.5          # of the non-ASCII journals, written NFD in one year
CHAIN_SHARE = 0.02       # journals known under older names in years 0 and 1
COLLISION_SHARE = 0.01   # live journals renamed into another live journal
NEWBORN_SHARE = 0.03     # journals that cite nobody in year 0
SPLIT_SHARE = 0.10       # pairs written as two records in a year
BASEMAP_SHARE = 0.90
BASEMAP_EXTRA = 20


@dataclass(frozen=True)
class Truth:
    """The aligned corpus as the program should see it after ingest.

    ``names`` are the canonical NFC names in code-point order, which is the
    program's id order; ``counts[y, i]`` is cell ``i``'s count in year ``y``
    over cells sorted by (citing, cited).
    """

    names: tuple[str, ...]
    citing: np.ndarray
    cited: np.ndarray
    counts: np.ndarray
    exclude: str

    @classmethod
    def load(cls, directory: str | Path) -> "Truth":
        directory = Path(directory)
        meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
        with np.load(directory / "truth.npz") as arrays:
            return cls(
                names=tuple(meta["names"]),
                citing=arrays["citing"],
                cited=arrays["cited"],
                counts=arrays["counts"],
                exclude=meta["exclude"],
            )


@dataclass(frozen=True)
class Corpus:
    directory: Path
    years: tuple[tuple[str, Path], ...]
    renames: Path
    basemap: Path
    truth: Truth

    def files(self) -> list[Path]:
        return [path for _, path in self.years] + [self.renames, self.basemap]


def _canonical_names(rng: np.random.Generator, n: int) -> list[str]:
    non_ascii = rng.random(n) < NON_ASCII_SHARE
    words = rng.integers(len(_ASCII_WORDS), size=n)
    topics = rng.integers(len(_ASCII_TOPICS), size=n)
    stems = rng.integers(len(_NON_ASCII_STEMS), size=n)
    names = []
    for i in range(n):
        if non_ascii[i]:
            stem = _NON_ASCII_STEMS[stems[i]]
        else:
            stem = f"{_ASCII_WORDS[words[i]]} of {_ASCII_TOPICS[topics[i]]}"
        names.append(unicodedata.normalize("NFC", f"{stem} {i:05d}"))
    return names


def _distinct_pairs(rng: np.random.Generator, weights: np.ndarray, m: int):
    """Draw (citing, cited) pairs by weight until ``m`` distinct pairs exist,
    kept in first-draw order."""
    n = weights.size
    if m > n * n // 4:
        raise ValueError(f"m={m} distinct pairs is too dense for n={n} journals")
    prob = weights / weights.sum()
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        batch = rng.choice(n, size=m, p=prob) * n + rng.choice(n, size=m, p=prob)
        keys = np.concatenate([keys, batch])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    return np.divmod(keys[:m], n)


def _lines(names: list[str], citing: np.ndarray, cited: np.ndarray, counts: np.ndarray) -> str:
    body = [f"{names[c]}\t{names[d]}\t{k}\n" for c, d, k in
            zip(citing.tolist(), cited.tolist(), counts.tolist())]
    return "# citing\tcited\tcount\n" + "".join(body)


def generate(seed: int, n: int, m: int, out: str | Path) -> Corpus:
    """Write the corpus for ``(seed, n, m)`` into ``out`` and return it."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, m]))

    canon = _canonical_names(rng, n)
    weights = rng.pareto(1.2, size=n) + 1.0
    # Renamed, merged and new journals come from the lighter half, so the
    # work per corpus does not swing with which heavy journal they hit.
    ids = rng.permutation(np.argsort(weights, kind="stable")[: n // 2])
    n_chain = max(1, int(CHAIN_SHARE * n))
    n_coll = max(1, int(COLLISION_SHARE * n))
    n_new = max(1, int(NEWBORN_SHARE * n))
    chain = ids[:n_chain]
    coll_src = ids[n_chain:n_chain + n_coll]
    coll_dst = ids[n_chain + n_coll:n_chain + 2 * n_coll]
    newborn = ids[n_chain + 2 * n_coll:n_chain + 2 * n_coll + n_new]

    # Written name of every journal in every year.
    written = [list(canon) for _ in YEAR_LABELS]
    renames: list[tuple[str, str]] = []
    for j in chain.tolist():
        old0, old1 = f"Bulletin {canon[j]}", f"{canon[j]} New Series"
        written[0][j], written[1][j] = old0, old1
        renames += [(old0, old1), (old1, canon[j])]
    for src, dst in zip(coll_src.tolist(), coll_dst.tolist()):
        renames.append((canon[src], canon[dst]))
    renames.append(("Defunct Gazette 99999", canon[int(ids[-1])]))
    nfd_year = rng.integers(len(YEAR_LABELS), size=n)
    nfd_pick = rng.random(n) < NFD_SHARE
    for j in range(n):
        if nfd_pick[j] and not canon[j].isascii():
            y = int(nfd_year[j])
            written[y][j] = unicodedata.normalize("NFD", written[y][j])
    renames = [
        (unicodedata.normalize("NFD", old) if i % 2 else old, new)
        for i, (old, new) in enumerate(renames)
    ]
    order = rng.permutation(len(renames))
    renames = [renames[i] for i in order.tolist()]

    citing, cited = _distinct_pairs(rng, weights, m)
    rate = 3.0 * rng.lognormal(0.0, 0.3, size=m)
    split = rng.random(m) < SPLIT_SHARE
    ring_src = np.arange(n)
    ring_dst = (ring_src + 1) % n
    is_new = np.zeros(n, dtype=bool)
    is_new[newborn] = True

    year_records = []
    years = []
    for y, label in enumerate(YEAR_LABELS):
        counts = rng.poisson(rate * (1.0 + 0.1 * y))
        # Split records repeat a (citing, cited) pair, which the reader sums.
        halves = np.where(split & (counts > 1), counts // 2, 0)
        src = np.concatenate([citing, ring_src, citing])
        dst = np.concatenate([cited, ring_dst, cited])
        cnt = np.concatenate([counts - halves, np.ones(n, dtype=counts.dtype), halves])
        keep = cnt > 0
        if y == 0:
            keep &= ~is_new[src]
        src, dst, cnt = src[keep], dst[keep], cnt[keep]
        year_records.append((src, dst, cnt))
        path = out / f"year_{label}.tsv"
        path.write_text(_lines(written[y], src, dst, cnt), encoding="utf-8", newline="\n")
        years.append((label, path))

    renames_path = out / "renames.tsv"
    renames_path.write_text(
        "# old\tnew\n" + "".join(f"{old}\t{new}\n" for old, new in renames),
        encoding="utf-8", newline="\n",
    )

    truth = _truth(canon, coll_src, coll_dst, year_records)

    basemap_path = out / "basemap.txt"
    in_map = [name for name in truth.names if rng.random() < BASEMAP_SHARE]
    in_map += [f"Unlisted Review {i:03d}" for i in range(BASEMAP_EXTRA)]
    xy = rng.normal(size=(len(in_map), 2))
    rows = ["label\tx\ty\tcluster\tweight\n"]
    for i, name in enumerate(in_map):
        label = unicodedata.normalize("NFD", name) if i % 7 == 3 else name
        rows.append(f"{label}\t{xy[i, 0]:.4f}\t{xy[i, 1]:.4f}\t{1 + i % 9}\t{1 + i % 13}\n")
    basemap_path.write_text("".join(rows), encoding="utf-8", newline="\n")

    np.savez(out / "truth.npz", citing=truth.citing, cited=truth.cited, counts=truth.counts)
    meta = {"seed": seed, "n": n, "m": m, "names": list(truth.names), "exclude": truth.exclude}
    (out / "meta.json").write_text(json.dumps(meta, ensure_ascii=False), encoding="utf-8")
    return Corpus(directory=out, years=tuple(years), renames=renames_path,
                  basemap=basemap_path, truth=truth)


def _truth(canon, coll_src, coll_dst, year_records) -> Truth:
    n = len(canon)
    target = np.arange(n)
    target[coll_src] = coll_dst
    live = sorted({canon[j] for j in target.tolist()})
    rank = {name: i for i, name in enumerate(live)}
    to_id = np.array([rank[canon[t]] for t in target.tolist()], dtype=np.int64)
    n_live = len(live)

    active = np.ones(n_live, dtype=bool)
    for src, _, _ in year_records:
        citing_now = np.zeros(n_live, dtype=bool)
        citing_now[to_id[src]] = True
        active &= citing_now
    common_ids = np.flatnonzero(active)
    remap = np.full(n_live, -1, dtype=np.int64)
    remap[common_ids] = np.arange(common_ids.size)

    keys_per_year = []
    for src, dst, cnt in year_records:
        c, d = remap[to_id[src]], remap[to_id[dst]]
        keep = (c >= 0) & (d >= 0)
        key = c[keep] * common_ids.size + d[keep]
        uniq, inverse = np.unique(key, return_inverse=True)
        keys_per_year.append((uniq, np.bincount(inverse, weights=cnt[keep]).astype(np.int64)))
    union = np.unique(np.concatenate([k for k, _ in keys_per_year]))
    counts = np.zeros((3, union.size), dtype=np.int64)
    for y, (uniq, sums) in enumerate(keys_per_year):
        counts[y, np.searchsorted(union, uniq)] = sums
    citing, cited = np.divmod(union, common_ids.size)

    names = tuple(live[i] for i in common_ids.tolist())
    cited_mass = np.bincount(cited, weights=counts.sum(axis=0), minlength=len(names))
    return Truth(names=names, citing=citing, cited=cited, counts=counts,
                 exclude=names[int(np.argmax(cited_mass))])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    corpus = generate(args.seed, args.n, args.m, args.out)
    truth = corpus.truth
    print(f"{len(truth.names)} common journals, {truth.citing.size} aligned cells, "
          f"{int((truth.counts > 0).all(axis=0).sum())} in all three years; "
          f"most cited: {truth.exclude}")


if __name__ == "__main__":
    main()
