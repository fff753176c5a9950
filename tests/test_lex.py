"""Golden conformance tests for the lexing kernel, ported from the
reference's own suite
(/root/reference/src/test/java/searchengine/services/LemmaSearchTests.java)
per SURVEY.md §5 / FIXTURES.md §3."""

import pyarrow as pa

from raysearch.lex import Lexer, clear_tags, validate_query
from raysearch.vocab import FORM2LEMMA, LEMMAS


def test_split_to_lemmas_golden():
    # LemmaSearchTests.java:16-24
    lexer = Lexer("reference")
    text = "появление леопарда в Осетии позволяет предположить, что леопард обитает"
    lemmas = lexer.split_to_lemmas(text)
    assert len(lemmas) == 6
    for expected in ["появление", "осетия", "позволять", "предположить", "обитать"]:
        assert expected in lemmas, expected
    assert lemmas["леопард"] == 2
    # function words "в" and "что" dropped
    assert "в" not in lemmas and "что" not in lemmas


def test_function_words():
    # LemmaSearchTests.java:27-33
    lexer = Lexer("reference")
    for word in ["или", "над", "под", "ох", "и", "ой"]:
        assert lexer.is_function_word(word), word


def test_clear_code_from_tags_golden():
    # LemmaSearchTests.java:36-48 — exact golden from the reference
    content = (
        '<ul><li>Междометие&#160;— это разнородный по составу синтаксический класс, стоящий вне '
        'деления слов по <a href="/wiki/%D0%A7%D0%B0%D1%81%D1%82%D0%B8_%D1%80%D0%B5%D1%87%D0%B8_%D0%B2_'
        '%D1%80%D1%83%D1%81%D1%81%D0%BA%D0%BE%D0%BC_%D1%8F%D0%B7%D1%8B%D0%BA%D0%B5" title="Части речи '
        'в русском языке">частям</a> речи.</li>\n<li>Междометия входят в систему частей речи, но стоят в'
        ' ней изолированно<sup id="cite_ref-2" class="reference"><a href="#cite_note-2"><span class="'
        'cite-bracket">&#91;</span>2<span class="cite-bracket">&#93;</span></a></sup>.</li>'
    )
    expected = (
        "Междометие — это разнородный по составу синтаксический класс, стоящий вне деления слов по "
        "частям речи. Междометия входят в систему частей речи, но стоят в ней изолированно[2]."
    )
    assert clear_tags(content) == expected


def test_word_to_lemma_golden():
    # LemmaSearchTests.java:50-57
    lexer = Lexer("reference")
    pairs = {
        "повторное": "повторный",
        "обитает": "обитать",
        "районам": "район",
        "северного": "северный",
    }
    for word, lemma in pairs.items():
        assert lexer.word_to_lemma(word) == lemma


def test_alphabet_strip_joins_fragments():
    # LemmaSearch.java:35-36: replacement is "" → deletion JOINS fragments,
    # and ё / Latin / digits are deleted
    lexer = Lexer("reference")
    assert lexer.word_to_lemma("об2итает") == "обитать"
    assert lexer.tokenize("ёж Xлеопард7а") == ["ж", "леопард"]


def test_latin_mode_inflection_table():
    lexer = Lexer("latin")
    lemma = LEMMAS[0]
    for form in [lemma] + [f for f in FORM2LEMMA if FORM2LEMMA[f] == lemma][:3]:
        assert lexer.word_to_lemma(form) == lemma
    # stopwords dropped, case/punct normalized
    counts = lexer.split_to_lemmas(f"The {lemma.upper()}, and {lemma}!")
    assert counts == {lemma: 2}


def test_simple_mode_matches_sql_split():
    # simple mode must equal DuckDB regexp_split_to_array(lower(text), '[^a-z0-9]+')
    import duckdb

    lexer = Lexer("simple")
    text = "Hello, World!  x2 foo-bar 42nd"
    got = lexer.tokenize(text)
    want = [
        t
        for (t,) in duckdb.sql(
            "SELECT unnest(regexp_split_to_array(lower(?), '[^a-z0-9]+'))", params=[text]
        ).fetchall()
        if t
    ]
    assert got == want


def test_vectorized_batch_equals_scalar():
    for mode in ["reference", "latin", "simple"]:
        lexer = Lexer(mode)
        texts = [
            "появление леопарда в Осетии позволяет предположить, что леопард обитает",
            "The quick brown fox... jumps!",
            "",
            "   ",
            "x2 ёж foo-bar",
        ]
        parent, codes, uniq = lexer.token_parent_codes(
            pa.array(texts, pa.string())
        )
        got: dict[int, list[str]] = {}
        for p, l in zip(parent.tolist(), uniq[codes].tolist()):
            got.setdefault(p, []).append(l)
        for i, text in enumerate(texts):
            assert got.get(i, []) == lexer.tokenize(text), (mode, i)


def test_validate_query():
    # SearchServiceImpl.java:36-41,77-80 (M8)
    assert validate_query("", "reference") is not None
    assert validate_query("   ", "reference") is not None
    assert validate_query("hello", "reference") is not None  # wrong alphabet
    assert validate_query("леопард обитает", "reference") is None
    assert validate_query("леопард", "latin") is not None
    assert validate_query("quick fox", "latin") is None
