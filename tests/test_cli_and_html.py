"""CLI surface (python -m raysearch ...) + pluggable HTML-strip stage."""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def test_html_strip_build(ray_session, tmp_path):
    """strip_html=True: markup in turn text is removed before
    tokenization (M1 analog), entities decoded; the doc store keeps the
    raw text."""
    from raysearch.build import build_index
    from raysearch.search import IndexSearcher

    corpus = tmp_path / "html_corpus"
    corpus.mkdir()
    rows = pa.table(
        {
            "conv_id": pa.array(["c0", "c0", "c1"], pa.string()),
            "turn_idx": pa.array([0, 1, 0], pa.int32()),
            "text": pa.array(
                [
                    "<p>alpha <b>beta</b></p>",
                    "gamma &amp; delta",
                    "plain epsilon",
                ],
                pa.string(),
            ),
        }
    )
    pq.write_table(rows, str(corpus / "part-00000.parquet"))
    out = str(tmp_path / "idx")
    build_index(str(corpus), out, mode="simple", n_partitions=1, strip_html=True)
    s = IndexSearcher(out)
    lex = set(s._lex_index)
    # tags and entities gone; words survive; no "p"/"b"/"amp" terms
    assert {"alpha", "beta", "gamma", "delta", "epsilon"} <= lex
    assert not {"p", "b", "amp"} & lex
    ids, _, total = s.search("beta", k=5, scorer="bm25")
    assert total == 1 and ids.tolist() == [0]
    # results render the raw input text, markup included; the input
    # has no role column, so role is null
    docs = s.fetch_docs([2, 0, 1])
    assert docs["text"].to_pylist() == [
        "plain epsilon", "<p>alpha <b>beta</b></p>", "gamma &amp; delta"
    ]
    assert docs["role"].to_pylist() == [None] * 3


def test_cli_search_stats_rebuild(ray_session, tiny_corpus, tmp_path, capsys):
    """Drive the module CLI in-process (the ray job submit surface)."""
    from raysearch import __main__ as cli
    from raysearch.build import build_index

    out = str(tmp_path / "cli_idx")
    build_index(tiny_corpus, out, mode="latin", n_partitions=2)

    rc = cli.main(["stats", "--index", out])
    st = json.loads(capsys.readouterr().out.strip())
    assert rc == 0 and st["total"]["docs"] > 0
    assert st["total"]["is_indexing"] is False

    from raysearch.vocab import LEMMAS

    rc = cli.main(["search", "--index", out, LEMMAS[25], "--k", "3"])
    resp = json.loads(capsys.readouterr().out.strip())
    assert rc == 0 and resp["result"] is True
    assert len(resp["data"]) <= 3
    for row in resp["data"]:
        assert set(row) == {
            "conv_id",
            "turn_idx",
            "doc_id",
            "role",
            "snippet",
            "relevance",
        }

    # empty query → reference error wording, exit 1
    rc = cli.main(["search", "--index", out, "   "])
    resp = json.loads(capsys.readouterr().out.strip())
    assert rc == 1 and resp["result"] is False

    rc = cli.main(
        ["rebuild", "--input", tiny_corpus, "--index", out, "--partition", "0"]
    )
    meta = json.loads(capsys.readouterr().out.strip())
    assert rc == 0 and meta["n_docs"] == st["total"]["docs"]


def test_reference_mode_build_and_search(ray_session, tiny_corpus, tmp_path):
    """End-to-end reference (Russian) mode: the golden sentences
    embedded in the corpus must be findable via lemmatized queries, and
    the engine must stay rank-identical to the oracle (the Latin filler
    text is stripped entirely by the [^а-я\\s] alphabet rule)."""
    from raysearch.build import build_index
    from raysearch.oracle import Oracle
    from raysearch.search import IndexSearcher

    out = str(tmp_path / "ru_idx")
    build_index(tiny_corpus, out, mode="reference", n_partitions=2)
    s = IndexSearcher(out)
    o = Oracle(tiny_corpus, mode="reference")
    lex = set(s._lex_index)
    assert {"леопард", "осетия", "обитать", "повторный"} <= lex
    assert not any(t.isascii() and t for t in lex)  # Latin stripped
    for q in ("леопард", "обитает леопарда", "северного кавказа", "появление"):
        ids_e, sc_e, tot_e = s.search(q, k=10, scorer="bm25")
        ids_o, sc_o, tot_o = o.search(q, k=10, scorer="bm25")
        assert ids_e.tolist() == ids_o.tolist(), q
        assert sc_e.tolist() == sc_o.tolist(), q
        assert tot_e == tot_o
    # inflected surface form reaches the same lemma posting
    ids_a, _, _ = s.search("леопарда", k=10)
    ids_b, _, _ = s.search("леопард", k=10)
    assert ids_a.tolist() == ids_b.tolist() and len(ids_a) > 0


def test_cli_rejects_unknown_mode():
    from raysearch import __main__ as cli

    with pytest.raises(SystemExit):
        cli.main(["build", "--input", "x", "--out", "y", "--mode", "klingon"])
