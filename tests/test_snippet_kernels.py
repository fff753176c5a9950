"""Serve's text kernels against their loop forms.

* ``raysearch.snippet.build_snippet`` (one-pass window search) against
  a verbatim copy of the reference-faithful quadratic loop it replaced
  (``_word_list`` / ``_find_query_window`` / ``build_snippet`` below),
  byte for byte, on seeded texts in all three lexer modes;
* ``dedup._lev_capped_many`` (one DP over many terms) against
  ``dedup._lev_capped`` (one DP per pair), and ``IndexSearcher.suggest``
  (length window, histogram prune, one batched DP) against a scan of
  every lexicon term."""

from __future__ import annotations

import random

import pytest

from raysearch import snippet
from raysearch.lex import RU_DICT, RU_FUNCTION_WORDS, Lexer
from raysearch.vocab import FORM2LEMMA, LATIN_STOPWORDS

# --- verbatim copy of the loop form (the oracle) ---------------------------

SNIPPET_WINDOW = 20


def _word_list(text: str, lexer) -> tuple[list[str], list[str]]:
    """(surface words, normal forms) — SnippetSearch.java:18-26; note
    function words are KEPT here, unlike the index path."""
    cleaned = lexer._strip.sub("" if lexer.joins else " ", text.lower()).strip()
    if not cleaned:
        return [], []
    words = lexer._ws.split(cleaned)
    normals = [lexer.word_to_lemma(w) for w in words]
    return words, normals


def _find_query_window(
    normals: list[str], query_lemmas: list[str], snippet_size: int
) -> tuple[int, int] | None:
    """SnippetSearch.java:31-55: smallest, leftmost window containing
    every query lemma; window sizes |lemmas| … snippet_size-1."""
    need = set(query_lemmas)
    n = len(normals)
    for box in range(len(query_lemmas), snippet_size):
        for i in range(0, n - box):
            if need <= set(normals[i : i + box]):
                return i, i + box
    return None


def build_snippet(text: str, query_lemmas: list[str], lexer) -> str:
    words, normals = _word_list(text, lexer)
    if not words:
        return ""
    snippet_size = min(SNIPPET_WINDOW, len(words))
    # getQueryPositionInText (SnippetSearch.java:56-68): `lemmaList`
    # ALIASES the query list, so each removal also shrinks the loop
    # bound — an n-lemma query tries only ceil(n/2) shrinking attempts
    # and the surviving list (floor(n/2) lemmas; empty iff n==1 fails)
    # is what isWordInQuery bolds (:99-105).  We mutate a copy with the
    # identical loop shape instead of the caller's list.
    lemmas = list(query_lemmas)
    pos = None
    i = 0
    while i < len(lemmas):
        pos = _find_query_window(normals, lemmas, snippet_size)
        if pos is not None:
            break
        lemmas.pop()  # drop most frequent (df-asc order ⇒ last)
        i += 1

    n = len(words)
    if pos is None:
        lo, hi = 0, SNIPPET_WINDOW
    else:
        start, end = pos
        box = end - start + 1
        if start <= 10 - box // 2:
            lo, hi = 0, SNIPPET_WINDOW
        elif end >= n - 11 + box // 2:
            lo, hi = n - 21, n - 1
        else:
            lo, hi = start - 10 + box // 2, end + 10 - box // 2
    lo = max(0, lo)
    hi = min(n - 1, hi)

    # reference bolds via the (mutated) query list — when every lemma
    # was popped it bolds NOTHING (SnippetSearch.java:99-105)
    in_query = set(lemmas)
    parts = []
    for i in range(lo, hi + 1):
        if normals[i] in in_query:
            parts.append(f"<b>{words[i]}</b> ")
        else:
            parts.append(f"{words[i]} ")
    return "".join(parts)


# --- generated cases --------------------------------------------------------

# A few lemmas per mode (so they repeat within a text), several surface
# forms of one lemma, function words, and tokens the strip regex joins
# or splits (punctuation, digits, the other alphabet, capitals).
_INFLECTED = sorted({f for f, lem in FORM2LEMMA.items() if f != lem})[:6]
VOCAB = {
    "latin": _INFLECTED
    + [FORM2LEMMA[f] for f in _INFLECTED[:3]]
    + sorted(LATIN_STOPWORDS)[:5]
    + ["Fido,", "x1y", "42", "--", "Über", "alpha.beta"],
    "simple": ["alpha", "beta", "gamma", "a1", "42", "the", "x-y", "?!", "Beta.", "_"],
    "reference": sorted(RU_DICT)[:8]
    + sorted(RU_FUNCTION_WORDS)[:5]
    + ["обитает,", "ёж", "дом1", "Кавказа!", "abc", "—"],
}
ABSENT = ["zzabsent", "qqnothere", "неттакого"]


def _text(rng: random.Random, mode: str) -> str:
    n = rng.choice([0, 1, 2, 5, 12, 19, 20, 21, 22, 30, 50, 80, rng.randint(0, 80)])
    return " ".join(rng.choice(VOCAB[mode]) for _ in range(n))


def _lemmas(rng: random.Random, normals: list[str]) -> list[str]:
    """0–4 query lemmas: present ones (repeats and the empty normal
    included) and absent ones, in random order."""
    pool = [w for w in normals if w] or [""]
    out = []
    for _ in range(rng.randint(0, 4)):
        out.append(rng.choice(pool) if rng.random() < 0.7 else rng.choice(ABSENT))
    if rng.random() < 0.2:
        out = list(dict.fromkeys(out))  # query_terms never repeats a lemma
    return out


@pytest.mark.parametrize("mode", ["latin", "simple", "reference"])
def test_snippet_matches_loop_form(mode):
    lexer = Lexer(mode)
    rng = random.Random(f"snippet-{mode}")
    popped = found = short = 0
    for _ in range(3000):
        text = _text(rng, mode)
        words, normals = _word_list(text, lexer)
        assert snippet._word_list(text, lexer) == (words, normals)
        lemmas = _lemmas(rng, normals)
        want = build_snippet(text, list(lemmas), lexer)
        assert snippet.build_snippet(text, list(lemmas), lexer) == want, (text, lemmas)
        size = min(SNIPPET_WINDOW, len(words))
        pos = _find_query_window(normals, lemmas, size)
        assert snippet._find_query_window(normals, lemmas, size) == pos
        found += pos is not None and bool(lemmas)
        popped += len(lemmas) > 1 and pos is None
        short += 0 < len(words) < 21
    # the generator reaches the paths it is meant to cover
    assert min(found, popped, short) > 100, (found, popped, short)


def test_find_query_window_on_random_normals():
    """Window search alone, over every snippet size and a tiny
    alphabet: every (box, start) answer the loop can give, including
    the exclusive bound that keeps windows off the last word."""
    rng = random.Random(3)
    for _ in range(5000):
        normals = [rng.choice("abcd") for _ in range(rng.randint(0, 25))]
        lemmas = [rng.choice("abcde") for _ in range(rng.randint(0, 4))]
        for size in (0, 1, len(lemmas), min(SNIPPET_WINDOW, len(normals))):
            want = _find_query_window(normals, lemmas, size)
            assert snippet._find_query_window(normals, lemmas, size) == want, (
                normals,
                lemmas,
                size,
            )


# --- batched capped edit distance --------------------------------------------


def _mutate(rng: random.Random, s: str, alphabet: str) -> str:
    out = list(s)
    for _ in range(rng.randint(0, 5)):
        op = rng.randrange(3)
        if op == 0 and out:
            out[rng.randrange(len(out))] = rng.choice(alphabet)
        elif op == 1:
            out.insert(rng.randint(0, len(out)), rng.choice(alphabet))
        elif out:
            del out[rng.randrange(len(out))]
    return "".join(out)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_lev_capped_many_matches_pairwise(k):
    import numpy as np

    from raysearch.pipelines.dedup import _lev_capped, _lev_capped_many

    rng = random.Random(k)
    alphabet = "abcé文ж\x00 z"
    for _ in range(300):
        q = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        terms = [_mutate(rng, q, alphabet) for _ in range(rng.randint(0, 12))]
        terms += ["", q, q + "zzzzz", q[:1]]  # empty, equal, gap > k
        got = _lev_capped_many(q, terms, k)
        assert got.dtype == np.int64 and got.shape == (len(terms),)
        assert got.tolist() == [_lev_capped(q, t, k) for t in terms], (q, terms)
    assert _lev_capped_many("abc", [], k).tolist() == []
    assert _lev_capped_many("", ["", "", "ab"], k).tolist() == [0, 0, min(2, k + 1)]


def test_suggest_prune_matches_brute_force():
    """``IndexSearcher.suggest`` keeps only the histogram bins its
    lexicon uses; queries with characters outside that alphabet (digits,
    non-ASCII, letters no term has) rank exactly as a capped-DP scan of
    every term does."""
    import types

    import numpy as np

    from raysearch.pipelines.dedup import _lev_capped
    from raysearch.search import IndexSearcher

    rng = random.Random(11)
    n = (rng.randint(1, 7) for _ in range(400))
    terms = sorted({"".join(rng.choice("abcdé") for _ in range(k)) for k in n})
    dfs = np.array([rng.randint(1, 50) for _ in terms], np.int64)
    lex = types.SimpleNamespace(_by_len=None, _lex_terms=terms, _lex_df=dfs)
    probes = ["", "zz", "a1", "ABC", "caféé", "xyzab"] + [
        _mutate(rng, rng.choice(terms), "abcdéz9ж") for _ in range(200)
    ]
    for max_d in (1, 2):
        for q in probes:
            want = sorted(
                (d, -int(df), t)
                for t, df in zip(terms, dfs)
                if (d := _lev_capped(q.lower(), t, max_d)) <= max_d
            )
            got = IndexSearcher.suggest(lex, q, max_d=max_d, limit=len(terms))
            assert got == [{"term": t, "d": d, "df": -n} for d, n, t in want], q
