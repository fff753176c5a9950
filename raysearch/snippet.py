"""Snippet construction — faithful port of the reference algorithm
(services/SnippetSearch.java, M10–M12 in SURVEY §2.2).

Algorithm (cites into /root/reference/src/main/java/searchengine/services/SnippetSearch.java):

* tokenize the document with the SAME regex pipeline as indexing,
  keeping function words and computing each word's normal form via
  ``wordToLemmaString`` (:14-29);
* find the query window: for window sizes |query lemmas| … 19, scan
  left-to-right for the first window whose normal forms contain ALL
  query lemmas (:31-55); on failure drop the LAST query lemma — the
  most frequent one, since the query list arrives df-ascending — and
  retry (:57-68; note the reference mutates the shared list, we copy);
* render a 21-word window positioned by the reference's arithmetic
  (:70-83), wrapping every word whose normal form is a query lemma in
  ``<b>`` and joining with trailing spaces (:85-96).

Documented divergence: the reference's ``getSnippetPosition`` returns
index 20 / size-21 unconditionally and would throw on texts shorter
than 21 words (the constructor clamps ``snippetSize`` but not the
render positions); we clamp the render window to the text bounds
instead of crashing.

Linear-time window search.  The reference's loop tests every (box,
start) pair with a fresh set — O(20·n) sets per attempt.  It returns
the SMALLEST box that has any covering window, then the LEFTMOST start
for that box, where starts run over ``range(0, n - box)``: that
exclusive bound means no window ever reaches the last word, so the
search runs over words ``0 … n-2`` only.  Over those words,
``_find_query_window`` makes one pass that records, at each query-lemma
hit ``p`` after which every lemma has been seen, the minimal covering
interval ending at ``p`` (from the last-seen position of each lemma).
A box of size b has a covering window iff b ≥ the smallest such
interval width W, because any interval of width ≤ b can be widened to
b inside ``0 … n-2`` whenever b ≤ n-1 (always: b < min(20, n)).  So the
box is ``max(|query lemmas|, W)`` (the list may repeat a lemma), and
the leftmost start for it is ``max(0, p - box + 1)`` at the first hit
``p`` whose interval fits in the box: later hits only move that bound
right.  Both equal the reference loop's answer, so snippets are
byte-identical (``tests/test_snippet_kernels.py`` checks this against
a verbatim copy of the loop).
"""

from __future__ import annotations

SNIPPET_WINDOW = 20


def _word_list(text: str, lexer) -> tuple[list[str], list[str]]:
    """(surface words, normal forms) — SnippetSearch.java:18-26; note
    function words are KEPT here, unlike the index path.  The words are
    already lowercased and stripped, so the mode's lemma function maps
    them directly (``word_to_lemma``'s own lower/strip would be no-ops)."""
    cleaned = lexer._strip.sub("" if lexer.joins else " ", text.lower()).strip()
    if not cleaned:
        return [], []
    words = lexer._ws.split(cleaned)
    if lexer.lemma_fn is None:
        return words, words
    return words, list(map(lexer.lemma_fn, words))


def _find_query_window(
    normals: list[str], query_lemmas: list[str], snippet_size: int
) -> tuple[int, int] | None:
    """SnippetSearch.java:31-55: smallest, leftmost window containing
    every query lemma; window sizes |lemmas| … snippet_size-1, starts
    ``0 … n-box-1`` (the reference's exclusive bound).  One pass over
    the words; see the module docstring for why it equals the loop."""
    need = set(query_lemmas)
    if not need:  # every window holds the empty set
        return (0, 0) if normals and snippet_size > 0 else None
    seen: dict[str, int] = {}
    covers = []  # (hit p, width of the minimal covering window ending at p)
    for p in range(len(normals) - 1):
        w = normals[p]
        if w in need:
            seen[w] = p
            if len(seen) == len(need):
                covers.append((p, p - min(seen.values()) + 1))
    if not covers:
        return None
    box = max(len(query_lemmas), min(width for _, width in covers))
    if box >= snippet_size:
        return None
    end = next(p for p, width in covers if width <= box)
    start = max(0, end - box + 1)
    return start, start + box


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
